import argparse
import contextlib
import copy
import csv
import gc
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowhazard
from flowhazard.cli import _load_role_datasets, load_pipeline_config, main
from flowhazard.experiment import (
    ExperimentConfig, run_iteration, train_on_split,
)
from flowhazard.models import TrainReport, evaluate_accuracy, model_to_json

from _oracles import grid_search_beta, stack_records


SYNTH_SPEC = {
    "BENIGN": {
        "f_sep": {"mean": 0.0, "std": 0.25},
        "f_driver": {"mean": 0.0, "std": 0.3, "truncate_at_zero": True},
        "f_noise": {"mean": 0.0, "std": 1.0},
    },
    "DoS-ish": {
        "f_sep": {"mean": 4.0, "std": 0.25},
        "f_driver": {"mean": 0.0, "std": 0.3, "truncate_at_zero": True},
        "f_noise": {"mean": 0.0, "std": 1.0},
    },
    "web-ish": {
        "f_sep": {"mean": 2.0, "std": 0.6},
        "f_driver": {"mean": 5.0, "std": 0.5, "truncate_at_zero": True},
        "f_noise": {"mean": 0.0, "std": 1.0},
    },
}


@pytest.fixture
def workspace(tmp_path):
    spec_path = tmp_path / "synth_spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    config = {
        "inputs": {"synthetic_spec": str(spec_path), "rows_per_class": 400},
        "experiment": {
            "regressor": {"kind": "bayesian_ridge"},
            "combination": {"pre_attack": "DoS-ish",
                            "post_attack": "web-ish"},
            "seq_len": 10,
            "n_sequences": 10,
            "n_iterations": 2,
            "master_seed": 3,
        },
        "output_dir": str(tmp_path / "out"),
        "emit": ["km", "cox", "json", "svg"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path, config


def file_hash(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def stderr_error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def only_error_line(capsys) -> dict:
    """The one JSON line a failed command leaves on stderr."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def csv_workspace(workspace, tmp_path):
    """Synthesized per-class CSVs (300 rows each) and a pipeline config
    that reads them and writes to ``tmp_path / "csv_run"``."""
    tmp, _, config = workspace
    synth_out = tmp_path / "csvs"
    assert main([
        "synth", "--spec", str(tmp / "synth_spec.json"),
        "--n", "300", "--seed", "5", "--out", str(synth_out),
    ]) == 0
    config = dict(config)
    config["inputs"] = {
        "benign_csv": str(synth_out / "benign.csv"),
        "pre_attack_csv": str(synth_out / "dos_ish.csv"),
        "post_attack_csv": str(synth_out / "web_ish.csv"),
    }
    config["schema"] = {"features": ["f_sep", "f_driver", "f_noise"]}
    config["output_dir"] = str(tmp_path / "csv_run")
    csv_config = tmp / "csv_config.json"
    csv_config.write_text(json.dumps(config))
    return csv_config


class TestSynth:
    def test_writes_per_class_csvs(self, workspace, capsys):
        tmp, _, _ = workspace
        out = tmp / "synthed"
        rc = main([
            "synth", "--spec", str(tmp / "synth_spec.json"),
            "--n", "50", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        listed = capsys.readouterr().out.strip().splitlines()
        assert len(listed) == 3
        for path in listed:
            assert os.path.exists(path)
        from flowhazard.flowdata import FlowSchema, parse_flow_csv

        schema = FlowSchema(("f_sep", "f_driver", "f_noise"))
        ds = parse_flow_csv(str(out / "benign.csv"), schema)
        assert len(ds) == 50

    def test_missing_spec_is_input_error(self, workspace, capsys):
        tmp, _, _ = workspace
        rc = main(["synth", "--spec", str(tmp / "nope.json")])
        assert rc == 2
        assert stderr_error(capsys)["error"] == "MissingInput"

    @pytest.mark.parametrize("spec, named", [
        ({"A": 1}, "'A'"),
        ({"A": {"f": 1}}, "'A'"),
        ({"A": {"f": {"mean": "x"}}}, "'A', feature 'f': mean"),
        ({"A": {"f": {"mean": "4"}}}, "'A', feature 'f': mean"),
        ({"A": {"f": {"std": True}}}, "'A', feature 'f': std"),
        ({"A": {"f": {"truncate_at_zero": "no"}}},
         "'A', feature 'f': truncate_at_zero"),
    ], ids=["class_not_object", "feature_not_object", "mean_not_number",
            "string_mean", "bool_std", "string_truncate_at_zero"])
    def test_malformed_entry_exits_2(self, tmp_path, capsys, spec, named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["synth", "--spec", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidSpec"
        assert named in err["message"]

    def test_pipeline_spec_entry_is_checked(self, workspace, capsys):
        tmp, config_path, _ = workspace
        (tmp / "synth_spec.json").write_text(json.dumps({"A": {"f": [1]}}))
        rc = main(["pipeline", "--config", str(config_path)])
        assert rc == 2
        assert only_error_line(capsys)["error"] == "InvalidSpec"

    def test_negative_seed_exits_2_with_one_line(self, workspace):
        tmp, _, _ = workspace
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(flowhazard.__file__)
        )
        out = subprocess.run(
            [sys.executable, "-m", "flowhazard.cli", "synth",
             "--spec", str(tmp / "synth_spec.json"), "--seed", "-1",
             "--out", str(tmp / "synthed")],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 2
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["error"] == "InvalidValue"
        assert "(-1,)" in err["message"]


class TestMalformedJson:
    @pytest.mark.parametrize("command, flag", [
        ("pipeline", "--config"), ("train", "--config"), ("synth", "--spec"),
    ])
    @pytest.mark.parametrize("text, problem", [
        ("{bad", "not valid JSON"),
        ("[1]", "expected a JSON object, got list"),
    ], ids=["undecodable", "not_an_object"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, flag,
                                     text, problem):
        bad = tmp_path / "broken.json"
        bad.write_text(text)
        rc = main([command, flag, str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidSpec"
        assert str(bad) in err["message"] and problem in err["message"]


class TestTrainCommand:
    def test_separable_spec_reaches_full_holdout_accuracy(
        self, workspace, capsys
    ):
        tmp, config_path, _ = workspace
        rc = main(["train", "--config", str(config_path)])
        assert rc == 0
        report = json.loads((tmp / "out" / "train_report.json").read_text())
        assert report["holdout_accuracy"] == 1.0
        assert report["train_accuracy"] == 1.0
        assert (tmp / "out" / "model.json").exists()
        assert "holdout accuracy 1.0000" in capsys.readouterr().out

    def test_missing_input_exits_2_with_error_kind(self, workspace, capsys):
        tmp, config_path, config = workspace
        config = dict(config)
        config["inputs"] = {"synthetic_spec": str(tmp / "gone.json")}
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(config))
        rc = main(["train", "--config", str(bad)])
        assert rc == 2
        err = stderr_error(capsys)
        assert err["error"] == "MissingInput"
        assert "gone.json" in err["message"]

    def test_same_seed_identical_model_hash(self, workspace, tmp_path):
        _, config_path, _ = workspace
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", "--config", str(config_path),
                     "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(config_path),
                     "--out", str(out_b)]) == 0
        assert file_hash(out_a / "model.json") == file_hash(out_b / "model.json")

    def test_model_matches_pipeline_iteration_zero(self, workspace):
        # train and pipeline share one label/split/train path
        tmp, config_path, _ = workspace
        assert main(["train", "--config", str(config_path)]) == 0
        cfg = load_pipeline_config(str(config_path), argparse.Namespace())
        benign, attack, load_post = _load_role_datasets(cfg)
        split = train_on_split(cfg.experiment, benign, attack, 0)
        it = run_iteration(cfg.experiment, split, load_post(), iteration=0)
        train_report = TrainReport(
            len(split.train), evaluate_accuracy(it.model, split.train)
        )
        assert (tmp / "out" / "model.json").read_text() == model_to_json(
            it.model, train_report
        )

    def test_oversized_csv_field_drops_one_row(self, workspace, tmp_path):
        csv_config = csv_workspace(workspace, tmp_path)
        benign = tmp_path / "csvs" / "benign.csv"
        with open(benign, "a") as fh:
            fh.write("1" * 140_000 + ",0.5,0.5,BENIGN\n")
        assert main(["train", "--config", str(csv_config)]) == 0
        sanitization = json.loads(
            (tmp_path / "csv_run" / "sanitization.json").read_text()
        )
        assert sanitization["benign"]["malformed_dropped"] == 1
        assert sanitization["benign"]["rows_kept"] == 300


class TestPipelineCommand:
    def test_smoke_run_writes_all_artifacts(self, workspace, capsys):
        tmp, config_path, _ = workspace
        rc = main(["pipeline", "--config", str(config_path)])
        assert rc == 0
        out = tmp / "out"
        for name in (
            "report.json", "cox_table.csv", "km_curve.csv", "km.svg",
            "survival_iter00.csv", "survival_iter01.csv",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["master_seed"] == 3
        assert len(report["iterations"]) == 2
        assert "detection rate" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        _, config_path, _ = workspace
        out_a = tmp_path / "ra"
        out_b = tmp_path / "rb"
        assert main(["pipeline", "--config", str(config_path),
                     "--out", str(out_a)]) == 0
        assert main(["pipeline", "--config", str(config_path),
                     "--out", str(out_b)]) == 0
        assert file_hash(out_a / "report.json") == file_hash(
            out_b / "report.json"
        )

    def test_emit_flags_off_writes_only_report(self, workspace, tmp_path):
        tmp, _, config = workspace
        config = dict(config)
        config["emit"] = []
        config["output_dir"] = str(tmp_path / "quiet")
        quiet = tmp / "quiet_config.json"
        quiet.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(quiet)]) == 0
        written = sorted(os.listdir(tmp_path / "quiet"))
        assert written == ["report.json"]

    def test_unreachable_gate_exits_4_with_achieved_value(
        self, workspace, tmp_path, capsys
    ):
        tmp, _, config = workspace
        config = dict(config)
        config["experiment"] = dict(config["experiment"], accuracy_gate=1.01)
        config["output_dir"] = str(tmp_path / "gate")
        gated = tmp / "gated.json"
        gated.write_text(json.dumps(config))
        rc = main(["pipeline", "--config", str(gated)])
        assert rc == 4
        err = stderr_error(capsys)
        assert err["error"] == "AccuracyGateFailed"
        assert 0.0 <= err["achieved"] <= 1.0
        assert err["required"] == 1.01

    def test_cox_max_iter_zero_exits_2(self, workspace, tmp_path, capsys):
        tmp, _, config = workspace
        config = dict(config)
        config["experiment"] = dict(config["experiment"],
                                    cox={"max_iter": 0})
        bad = tmp / "no_steps.json"
        bad.write_text(json.dumps(config))
        rc = main(["pipeline", "--config", str(bad),
                   "--out", str(tmp_path / "none")])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidSpec"
        assert "max_iter" in err["message"]
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("band", [
        [0.4], [0.4, "high"], [float("nan"), 0.6],
    ], ids=["one_element", "not_a_number", "nan"])
    def test_malformed_band_exits_2(self, workspace, tmp_path, capsys, band):
        tmp, _, config = workspace
        config = dict(config)
        config["experiment"] = dict(config["experiment"], band=band)
        bad = tmp / "bad_band.json"
        bad.write_text(json.dumps(config))
        rc = main(["pipeline", "--config", str(bad),
                   "--out", str(tmp_path / "none")])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidSpec"
        assert "band" in err["message"]
        assert not (tmp_path / "none").exists()

    def test_out_under_a_regular_file_exits_2(self, workspace, tmp_path,
                                              capsys):
        _, config_path, _ = workspace
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub"
        rc = main(["pipeline", "--config", str(config_path),
                   "--out", str(out)])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "UnusablePath"
        assert str(out) in err["message"]

    def test_csv_inputs_write_sanitization_report(self, workspace, tmp_path):
        csv_config = csv_workspace(workspace, tmp_path)
        assert main(["pipeline", "--config", str(csv_config)]) == 0
        sanitization = json.loads(
            (tmp_path / "csv_run" / "sanitization.json").read_text()
        )
        assert set(sanitization) == {"benign", "pre_attack", "post_attack"}
        for role in sanitization.values():
            assert role["rows_read"] == 300
            assert role["rows_kept"] == 300
            assert role["nonfinite_dropped"] == 0

    def test_seed_override_changes_report(self, workspace, tmp_path):
        _, config_path, _ = workspace
        out_a = tmp_path / "sa"
        out_b = tmp_path / "sb"
        assert main(["pipeline", "--config", str(config_path),
                     "--out", str(out_a), "--seed", "3"]) == 0
        assert main(["pipeline", "--config", str(config_path),
                     "--out", str(out_b), "--seed", "4"]) == 0
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["config"]["master_seed"] == 3
        assert b["config"]["master_seed"] == 4
        assert a != b

    def test_report_config_reads_back_as_the_run_config(self, workspace,
                                                        tmp_path):
        _, config_path, _ = workspace
        out = tmp_path / "rc"
        assert main(["pipeline", "--config", str(config_path),
                     "--out", str(out), "--seed", "4"]) == 0
        report = json.loads((out / "report.json").read_text())
        args = argparse.Namespace(seed=4, out=str(out), emit=None)
        run = load_pipeline_config(str(config_path), args).experiment
        assert ExperimentConfig.from_json_dict(report["config"]) == run


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this flowhazard."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(flowhazard.__file__))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def run_cli(argv) -> subprocess.CompletedProcess:
    """``flowhazard argv`` in a fresh interpreter that prints the child
    processes still running when the command returns."""
    return run_python(
        "import multiprocessing, sys; from flowhazard.cli import main; "
        f"rc = main({[str(a) for a in argv]!r}); "
        "print(multiprocessing.active_children()); sys.exit(rc)"
    )


def spoil(path, fault):
    """Replace the flow CSV at ``path`` by a faulty one."""
    header = "f_sep,f_driver,f_noise,Label\n"
    if fault == "missing_column":
        path.write_text("f_sep,f_driver,Label\n1.0,2.0,web-ish\n")
    elif fault == "no_finite_row":
        path.write_text(header + "inf,1.0,nan,web-ish\n")
    else:  # a directory in the file's place
        path.unlink()
        path.mkdir()


# the error a faulty input gives when it is read in the parent process
SPOILED = {
    "missing_column": ("MissingColumn", "columns absent from header"),
    "no_finite_row": ("EmptyInput", "no rows survived sanitization"),
    "directory": ("UnusablePath", "Is a directory"),
}


class TestNovelAttackReader:
    """The novel-attack CSV is read in a child process while the
    classifier trains; the result and every error are those of reading
    it in the parent."""

    def test_equals_an_in_process_read(self, workspace, tmp_path):
        from flowhazard.flowdata import filter_label, parse_flow_csv

        csv_config = csv_workspace(workspace, tmp_path)
        csvs = tmp_path / "csvs"
        # mixed labels, so the label filter runs too
        known = (csvs / "dos_ish.csv").read_text().splitlines(True)[1:]
        with open(csvs / "web_ish.csv", "a") as fh:
            fh.writelines(known)
        cfg = load_pipeline_config(str(csv_config), argparse.Namespace())
        _, _, load_post = _load_role_datasets(cfg)
        post = load_post()
        parsed = parse_flow_csv(str(csvs / "web_ish.csv"), cfg.schema)
        expected = filter_label(parsed, "web-ish")
        assert post.features.tobytes() == expected.features.tobytes()
        assert post.labels == expected.labels
        assert post.report == expected.report
        sanitization = json.loads(
            (tmp_path / "csv_run" / "sanitization.json").read_text()
        )
        assert sanitization["post_attack"] == parsed.report.to_json_dict()
        assert multiprocessing.active_children() == []

    def test_read_in_another_process(self, workspace, tmp_path,
                                     monkeypatch):
        from flowhazard import flowdata

        csv_config = csv_workspace(workspace, tmp_path)
        seen = tmp_path / "pids.txt"
        parse = flowdata.parse_flow_csv

        def recording_parse(source, schema):
            with open(seen, "a") as fh:
                fh.write(f"{os.path.basename(source)} {os.getpid()}\n")
            return parse(source, schema)

        # a forked child runs with the patch in place
        monkeypatch.setattr(flowdata, "parse_flow_csv", recording_parse)
        assert main(["pipeline", "--config", str(csv_config)]) == 0
        pids = dict(line.split() for line in seen.read_text().splitlines())
        assert pids["benign.csv"] == pids["dos_ish.csv"] == str(os.getpid())
        assert pids["web_ish.csv"] != str(os.getpid())
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    @pytest.mark.parametrize("fault", sorted(SPOILED))
    def test_bad_post_attack_csv_exits_2_as_in_process(
        self, workspace, tmp_path, command, fault
    ):
        csv_config = csv_workspace(workspace, tmp_path)
        spoil(tmp_path / "csvs" / "web_ish.csv", fault)
        out = run_cli([command, "--config", csv_config])
        assert out.returncode == 2, out.stderr
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        kind, says = SPOILED[fault]
        assert err["error"] == kind
        assert says in err["message"]
        assert out.stdout.splitlines()[-1] == "[]"
        assert not (tmp_path / "csv_run").exists()

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    def test_bad_benign_csv_outranks_bad_post_attack_csv(
        self, workspace, tmp_path, command
    ):
        csv_config = csv_workspace(workspace, tmp_path)
        spoil(tmp_path / "csvs" / "benign.csv", "no_finite_row")
        spoil(tmp_path / "csvs" / "web_ish.csv", "directory")
        out = run_cli([command, "--config", csv_config])
        assert out.returncode == 2, out.stderr
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] == "EmptyInput"
        assert out.stdout.splitlines()[-1] == "[]"
        assert not (tmp_path / "csv_run").exists()

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    def test_good_run_leaves_no_child(self, workspace, tmp_path, command):
        csv_config = csv_workspace(workspace, tmp_path)
        out = run_cli([command, "--config", csv_config])
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "csv_run" / "sanitization.json").exists()

    def test_child_that_dies_unheard_is_an_error(self, workspace, tmp_path,
                                                 monkeypatch, capsys):
        from flowhazard import cli

        csv_config = csv_workspace(workspace, tmp_path)
        parent = os.getpid()
        read_role = cli._read_role

        def dying_read_role(*args):
            if os.getpid() != parent:
                os._exit(3)
            return read_role(*args)

        monkeypatch.setattr(cli, "_read_role", dying_read_role)
        assert main(["train", "--config", str(csv_config)]) == 2
        err = only_error_line(capsys)
        assert err["error"] == "UnusablePath"
        assert "exited with code 3" in err["message"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    @pytest.mark.parametrize("sent", ["header", "half_the_matrix"])
    def test_child_that_dies_mid_reply_is_an_error(
        self, workspace, tmp_path, monkeypatch, capsys, command, sent
    ):
        from flowhazard import cli

        csv_config = csv_workspace(workspace, tmp_path)

        def dying_send_role(parent_end, conn, path, schema, label):
            parent_end.close()
            ds, report = cli._read_role(path, schema, label)
            conn.send((ds.labels, ds.report, report, ds.features.shape))
            if sent == "half_the_matrix":
                raw = ds.features.tobytes()
                os.write(conn.fileno(), raw[:len(raw) // 2])
            os._exit(3)

        monkeypatch.setattr(cli, "_send_role", dying_send_role)
        assert main([command, "--config", str(csv_config)]) == 2
        err = only_error_line(capsys)
        assert err["error"] == "UnusablePath"
        assert "web_ish.csv" in err["message"]
        assert "exited with code 3" in err["message"]
        assert not (tmp_path / "csv_run").exists()
        assert multiprocessing.active_children() == []


def read_csv_columns(path) -> dict:
    """Each column of the CSV at ``path`` as a list of its cells."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [row[name] for row in rows] for name in rows[0]}


def write_survival_csv(path, rows, features=("x",)):
    header = "sequence_id,time,event," + ",".join(features)
    lines = [header] + [
        ",".join(str(v) for v in row) for row in rows
    ]
    path.write_text("\n".join(lines) + "\n")


class TestCoxCommand:
    def test_matches_grid_oracle(self, tmp_path, capsys):
        from flowhazard.survival import SurvivalRecord

        rows = [
            (0, 1.0, 1, 0.0), (1, 2.0, 1, 1.0),
            (2, 3.0, 1, 0.0), (3, 4.0, 1, 1.0),
        ]
        table = tmp_path / "table.csv"
        write_survival_csv(table, rows)
        rc = main(["cox", "--table", str(table), "--out", str(tmp_path)])
        assert rc == 0
        fit = read_csv_columns(tmp_path / "cox_table.csv")
        records = stack_records(
            SurvivalRecord(t, e, np.array([x])) for _, t, e, x in rows
        )
        oracle = grid_search_beta(records)
        assert float(fit["beta"][0]) == pytest.approx(oracle, abs=1e-3)
        conv = json.loads((tmp_path / "cox_convergence.json").read_text())
        assert conv["converged"] is True

    def test_no_events_exits_3(self, tmp_path, capsys):
        table = tmp_path / "censored.csv"
        write_survival_csv(table, [(0, 5.0, 0, 1.0), (1, 5.0, 0, 0.5)])
        rc = main(["cox", "--table", str(table), "--out", str(tmp_path)])
        assert rc == 3
        assert stderr_error(capsys)["error"] == "NoEvents"

    def test_zero_column_gets_zero_beta_under_ridge(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [
            (i, float(i + 1), 1, float(rng.normal()), 0.0) for i in range(10)
        ]
        table = tmp_path / "zero.csv"
        write_survival_csv(table, rows, features=("x", "dead_col"))
        rc = main([
            "cox", "--table", str(table), "--ridge", "0.001",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        fit = read_csv_columns(tmp_path / "cox_table.csv")
        assert fit["feature"] == ["x", "dead_col"]
        assert float(fit["beta"][1]) == 0.0

    @pytest.mark.parametrize("flag, value", [
        ("--ridge", "-1"), ("--ridge", "inf"), ("--tol", "-1"),
        ("--tol", "nan"), ("--max-iter", "0"),
    ])
    def test_invalid_option_exits_2(self, tmp_path, capsys, flag, value):
        table = tmp_path / "table.csv"
        write_survival_csv(table, [(0, 1.0, 1, 0.0), (1, 2.0, 1, 1.0),
                                   (2, 3.0, 0, 0.5)])
        rc = main(["cox", "--table", str(table), flag, value,
                   "--out", str(tmp_path / "fit")])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidValue"
        assert flag.lstrip("-").replace("-", "_") in err["message"]
        assert not (tmp_path / "fit").exists()

    def test_bad_header_names_offending_column(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_text("sequence_id,when,event,x\n0,1,1,0.5\n")
        rc = main(["cox", "--table", str(table), "--out", str(tmp_path)])
        assert rc == 2
        err = stderr_error(capsys)
        assert err["error"] == "SchemaMismatch"
        assert "time" in err["message"]

    @pytest.mark.parametrize("cell, column, value", [
        (2, "time", "-1.5"),
        (3, "event", "2"),
        (4, "x", "abc"),
    ], ids=["negative_time", "event_of_two", "non_numeric_cell"])
    def test_bad_value_names_row_and_column(self, tmp_path, capsys, cell,
                                            column, value):
        rows = [["0", "1.0", "1", "0.5"], ["1", "2.0", "0", "0.25"],
                ["2", "3.0", "1", "1.0"]]
        rows[1][cell - 1] = value
        table = tmp_path / "bad.csv"
        table.write_text(
            "sequence_id,time,event,x\n"
            + "".join(",".join(row) + "\n" for row in rows)
        )
        rc = main(["cox", "--table", str(table), "--out", str(tmp_path)])
        assert rc == 2
        err = stderr_error(capsys)
        assert err["error"] == "InvalidValue"
        assert err["exit_code"] == 2
        assert "data row 2" in err["message"]
        assert f"column {column!r}" in err["message"]


class TestKMCommand:
    def test_hand_oracle_to_four_decimals(self, tmp_path):
        table = tmp_path / "km_in.csv"
        write_survival_csv(
            table, [(0, 1.0, 1, 0.0), (1, 2.0, 1, 0.0), (2, 3.0, 1, 0.0)]
        )
        assert main(["km", "--table", str(table), "--out", str(tmp_path)]) == 0
        curve = read_csv_columns(tmp_path / "km_curve.csv")
        assert curve["n_event"] == ["1", "1", "1"]
        rounded = [round(float(s), 4) for s in curve["survival"]]
        assert rounded == [0.6667, 0.3333, 0.0]

    def test_directory_as_table_exits_2(self, tmp_path, capsys):
        rc = main(["km", "--table", str(tmp_path), "--out", str(tmp_path)])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "UnusablePath"
        assert str(tmp_path) in err["message"]

    def test_over_long_cell_exits_2_naming_the_row(self, tmp_path, capsys):
        # the csv module rejects a field over its size limit (131,072)
        table = tmp_path / "long.csv"
        table.write_text("sequence_id,time,event,x\n0,1.0,1,0.5\n\n"
                         "1,2.0,0," + "9" * 200_000 + "\n2,3.0,1,0.5\n")
        rc = main(["km", "--table", str(table), "--out", str(tmp_path / "km")])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidValue"
        assert err["exit_code"] == 2
        assert err["message"].startswith("data row 2: field larger than")
        assert not (tmp_path / "km").exists()

    def test_all_censored_stays_at_one(self, tmp_path):
        table = tmp_path / "cens.csv"
        write_survival_csv(table, [(0, 9.0, 0, 0.0), (1, 9.0, 0, 0.0)])
        assert main(["km", "--table", str(table), "--out", str(tmp_path)]) == 0
        curve = read_csv_columns(tmp_path / "km_curve.csv")
        # one censoring-only row; the curve never steps down
        assert curve["time"] == ["9.0"]
        assert curve["n_event"] == ["0"]
        assert curve["survival"] == ["1.0"]

    def test_svg_flag_emits_wellformed_svg(self, tmp_path):
        table = tmp_path / "km_in.csv"
        write_survival_csv(
            table,
            [(0, 1.0, 1, 0.0), (1, 2.0, 0, 0.0), (2, 3.0, 1, 0.0)],
        )
        assert main([
            "km", "--table", str(table), "--out", str(tmp_path), "--svg",
        ]) == 0
        svg_path = tmp_path / "km.svg"
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        body = svg_path.read_text()
        assert "<path" in body and "survival probability" in body


def tree_bytes(root) -> dict:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestEntrypoint:
    """The ``flowhazard`` entry point runs its command with the cycle
    collector off and frozen at exit; ``main`` leaves it alone."""

    def run_entrypoint(self, argv) -> subprocess.CompletedProcess:
        # the exit handler prints the collector's state after sys.exit
        return run_python(
            "import atexit, gc, sys; from flowhazard.cli import entrypoint; "
            "atexit.register(lambda: print(gc.isenabled(), "
            "gc.get_freeze_count() > 0)); "
            f"sys.argv = ['flowhazard', *{[str(a) for a in argv]!r}]; "
            "entrypoint()"
        )

    def test_writes_what_main_writes(self, workspace, tmp_path):
        _, config_path, _ = workspace
        runs = {}
        for how in ("main", "entrypoint"):
            out = tmp_path / how
            pipeline = ["pipeline", "--config", config_path,
                        "--out", out / "pipeline"]
            cox = ["cox", "--table", out / "pipeline" / "survival_iter01.csv",
                   "--out", out / "cox"]
            for argv in (pipeline, cox):
                if how == "main":
                    assert main([str(a) for a in argv]) == 0
                    assert gc.isenabled()
                else:
                    done = self.run_entrypoint(argv)
                    assert done.returncode == 0, done.stderr
                    assert done.stdout.splitlines()[-1] == "False True"
            runs[how] = tree_bytes(out)
        assert "cox/cox_table.csv" in runs["main"]
        assert runs["entrypoint"] == runs["main"]

    @pytest.mark.parametrize("override, code", [
        ({}, 0), ({"accuracy_gate": 1.01}, 4),
    ], ids=["pipeline", "gate_failure"])
    def test_collector_off_leaves_little_cyclic_garbage(
            self, workspace, tmp_path, override, code):
        tmp, _, config = workspace
        config = dict(config)
        config["experiment"] = dict(config["experiment"], **override)
        config["output_dir"] = str(tmp_path / "out")
        path = tmp / "gc_config.json"
        path.write_text(json.dumps(config))
        # traced bytes that only a collection frees
        done = run_python(
            "import gc, tracemalloc; from flowhazard.cli import main; "
            "gc.disable(); tracemalloc.start(); "
            f"rc = main(['pipeline', '--config', {str(path)!r}]); "
            "held = tracemalloc.get_traced_memory()[0]; gc.collect(); "
            "print(rc, held - tracemalloc.get_traced_memory()[0])"
        )
        assert done.returncode == 0, done.stderr
        rc, cyclic = map(int, done.stdout.splitlines()[-1].split())
        assert rc == code
        assert cyclic < 1 << 20


# A small valid config whose every key a mutation may drop or retype.
# Replacement values are wrong types or out-of-range numbers, never large
# sizes, so every mutated run stays small.
_MUTATED_CONFIG = {
    "inputs": {"synthetic_spec": "synth_spec.json", "rows_per_class": 60},
    "schema": {"features": ["f_sep", "f_driver", "f_noise"],
               "label_column": "Label"},
    "experiment": {
        "regressor": {"kind": "bayesian_ridge", "max_evidence_iters": 50,
                      "tol": 1e-4},
        "combination": {"pre_attack": "DoS-ish", "post_attack": "web-ish"},
        "band": [0.4, 0.6],
        "seq_len": 6, "n_sequences": 8, "n_iterations": 1,
        "master_seed": 3,
        "cox": {"ridge": 1e-3, "tol": 1e-8, "max_iter": 50},
        "accuracy_gate": 0.9,
        "holdout_fraction": 0.2,
        "selection": {"min_abs_beta": 1e-3, "min_fraction": 0.8},
    },
    "output_dir": "out",
    "emit": ["km", "cox", "json", "svg"],
    "benign_label": "BENIGN",
}
_FOREST = {"kind": "random_forest", "n_trees": 2, "max_depth": 3,
           "min_leaf": 2, "features_per_split": 2, "bootstrap": True}
_SVR = {"kind": "linear_svr", "C": 1.0, "epsilon": 0.1,
        "learning_rate": 0.05, "epochs": 5}
_ODD_VALUES = [None, True, False, -1, 0, -2.5, 0.5, 1.5, 2, 2.5,
               float("inf"), float("nan"), "many", "", [], [1], ["x", "y"],
               {}, {"a": 1}]


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    config = json.loads(json.dumps(_MUTATED_CONFIG))
    regressor = draw(st.sampled_from([None, _FOREST, _SVR]))
    if regressor is not None:
        config["experiment"]["regressor"] = dict(regressor)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(sorted(_key_paths(config))))
        parent = config
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict) or path[-1] not in parent:
            continue
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            value = draw(st.sampled_from(_ODD_VALUES))
            parent[path[-1]] = copy.deepcopy(value)
    unknown = draw(st.booleans())
    if unknown:
        sections = [()] + [path for path in _key_paths(config)
                           if isinstance(_at(config, path), dict)]
        _at(config, draw(st.sampled_from(sorted(sections))))["zz"] = 1
    return config, unknown


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("mutations")
    (base / "synth_spec.json").write_text(json.dumps(SYNTH_SPEC))
    return base


class TestConfigMutations:
    @pytest.mark.parametrize("path, value, named", [
        (("inputs", "rows_per_class"), "many", "rows_per_class"),
        (("emit",), 5, "emit"),
        (("schema",), {"features": 5}, "features"),
        (("experiment", "seq_len"), None, "seq_len"),
        (("experiment", "accuracy_gate"), [1], "accuracy_gate"),
        (("experiment", "master_seed"), -1, "master_seed"),
        (("experiment", "regressor", "max_evidence_iters"), 1.5,
         "max_evidence_iters"),
        (("experiment", "seq_len"), 2.5, "seq_len"),
        (("experiment", "n_sequences"), 2.5, "n_sequences"),
        (("experiment", "n_iterations"), 2.5, "n_iterations"),
        (("experiment", "master_seed"), 3.99, "master_seed"),
        (("experiment", "cox", "max_iter"), 7.7, "max_iter"),
        (("inputs", "rows_per_class"), 60.5, "rows_per_class"),
        (("experiment", "seq_len"), True, "seq_len"),
        (("experiment", "accuracy_gate"), True, "accuracy_gate"),
        (("experiment", "seq_len"), "6", "seq_len"),
        (("experiment", "accuracy_gate"), "0.9", "accuracy_gate"),
        (("experiment", "accuracy_gate"), float("nan"), "accuracy_gate"),
        (("experiment", "selection", "min_fraction"), float("nan"),
         "min_fraction"),
        (("experiment", "selection", "min_abs_beta"), -1, "min_abs_beta"),
        (("experiment", "regressor"), dict(_FOREST, min_leaf=1.5),
         "min_leaf"),
        (("experiment", "regressor"), dict(_FOREST, max_depth=2.5),
         "max_depth"),
        (("experiment", "regressor"), dict(_FOREST, bootstrap="no"),
         "bootstrap"),
        (("experiment", "regressor", "tol"), float("inf"), "tol"),
        (("experiment", "cox", "max_iters"), 5, "max_iters"),
        (("zz",), 1, "zz"),
        (("inputs", "zz"), 1, "zz"),
        (("schema", "zz"), 1, "zz"),
        (("experiment", "zz"), 1, "zz"),
        (("experiment", "regressor", "zz"), 1, "zz"),
        (("experiment", "combination", "zz"), 1, "zz"),
        (("experiment", "selection", "zz"), 1, "zz"),
    ], ids=["rows_per_class", "emit", "schema_features", "seq_len",
            "accuracy_gate", "negative_seed", "float_iterations",
            "float_seq_len", "float_n_sequences", "float_n_iterations",
            "float_master_seed", "float_cox_max_iter",
            "float_rows_per_class", "bool_seq_len", "bool_accuracy_gate",
            "string_seq_len", "string_accuracy_gate", "nan_accuracy_gate",
            "nan_min_fraction", "negative_min_abs_beta", "float_min_leaf",
            "float_max_depth", "string_bootstrap", "infinite_ridge_tol",
            "unknown_cox_key", "unknown_top_level_key", "unknown_inputs_key",
            "unknown_schema_key", "unknown_experiment_key",
            "unknown_regressor_key", "unknown_combination_key",
            "unknown_selection_key"])
    def test_wrong_type_is_invalid_spec(self, mutation_dir, capsys, path,
                                        value, named):
        config = json.loads(json.dumps(_MUTATED_CONFIG))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        config_path = mutation_dir / "typed.json"
        config_path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(config_path)]) == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidSpec"
        assert named in err["message"]

    def test_negative_seed_flag_is_invalid_spec(self, mutation_dir, capsys):
        config_path = mutation_dir / "valid.json"
        config_path.write_text(json.dumps(_MUTATED_CONFIG))
        assert main(["pipeline", "--config", str(config_path),
                     "--seed", "-1"]) == 2
        assert only_error_line(capsys)["error"] == "InvalidSpec"

    @pytest.mark.parametrize("command, error, says", [
        ("pipeline", "AllIterationsFailed", "iteration 0: NonFinite"),
        ("train", "NonFinite", "linear SVR diverged"),
    ], ids=["pipeline", "train"])
    def test_diverging_svr_exits_3_with_one_line(self, mutation_dir, command,
                                                  error, says):
        # the SGD iterates overflow at this rate; numpy must print nothing
        config = json.loads(json.dumps(_MUTATED_CONFIG))
        config["experiment"]["regressor"] = dict(_SVR, learning_rate=1e6)
        path = mutation_dir / "diverging.json"
        path.write_text(json.dumps(config))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(flowhazard.__file__)
        )
        out = subprocess.run(
            [sys.executable, "-m", "flowhazard.cli", command,
             "--config", str(path), "--out", str(mutation_dir / "svr")],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 3
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["error"] == error
        assert err["exit_code"] == 3
        assert says in err["message"]

    @settings(max_examples=120)
    @given(drawn=mutated_configs())
    def test_exit_code_and_one_json_line(self, mutation_dir, drawn):
        config, unknown_key = drawn
        path = mutation_dir / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["pipeline", "--config", str(path)])
        assert rc in (0, 2, 3, 4)
        if unknown_key:
            assert rc == 2
        assert "Traceback" not in err.getvalue()
        lines = [line for line in err.getvalue().splitlines() if line]
        if rc == 0:
            assert lines == []
        else:
            assert len(lines) == 1, lines
            assert json.loads(lines[0])["exit_code"] == rc
