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
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowhazard
from flowhazard.cli import _load_role_datasets, main
from flowhazard.config import load_pipeline_config
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

    @pytest.mark.parametrize("classes, named", [
        (("a-b", "a_b"), "'a-b' and 'a_b' would both be written to a_b.csv"),
        (("A", "a"), "'A' and 'a' would both be written to a.csv"),
        (("ok", "!!!"), "'!!!' has no letter or digit"),
    ], ids=["punctuation", "case", "no_letter"])
    def test_clashing_file_names_exit_2_before_writing(
            self, tmp_path, capsys, classes, named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {c: {"f": {"mean": 0.0, "std": 1.0}} for c in classes}))
        out = tmp_path / "synthed"
        rc = main(["synth", "--spec", str(path), "--n", "5",
                   "--out", str(out)])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidSpec"
        assert named in err["message"]
        assert not out.exists()

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


class TestByteOrderMark:
    def test_pipeline_config_and_spec_read_as_without_one(self, workspace,
                                                          tmp_path):
        tmp, config_path, config = workspace
        spec = tmp / "bom_spec.json"
        spec.write_text(json.dumps(SYNTH_SPEC), encoding="utf-8-sig")
        bom_config = tmp / "bom_config.json"
        bom_config.write_text(json.dumps(dict(
            config, inputs=dict(config["inputs"], synthetic_spec=str(spec)),
        )), encoding="utf-8-sig")
        assert bom_config.read_bytes().startswith(b"\xef\xbb\xbf")
        runs = {}
        for name, path in (("plain", config_path), ("bom", bom_config)):
            assert main(["pipeline", "--config", str(path),
                         "--out", str(tmp_path / name)]) == 0
            runs[name] = tree_bytes(tmp_path / name)
        assert "report.json" in runs["plain"]
        assert runs["bom"] == runs["plain"]

    def test_synth_spec_reads_as_without_one(self, workspace, tmp_path):
        tmp, _, _ = workspace
        spec = tmp / "bom_spec.json"
        spec.write_text(json.dumps(SYNTH_SPEC), encoding="utf-8-sig")
        runs = {}
        for name, path in (("plain", tmp / "synth_spec.json"), ("bom", spec)):
            assert main(["synth", "--spec", str(path), "--n", "20",
                         "--seed", "1", "--out", str(tmp_path / name)]) == 0
            runs[name] = tree_bytes(tmp_path / name)
        assert len(runs["plain"]) == 3
        assert runs["bom"] == runs["plain"]


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

    def test_ascii_locale_writes_what_a_utf8_locale_writes(self, tmp_path):
        # en dashes in the spec, the config and the km.svg title
        spec = {label.replace("-", "\u2013"): features
                for label, features in SYNTH_SPEC.items()}
        (tmp_path / "spec.json").write_text(
            json.dumps(spec, ensure_ascii=False), encoding="utf-8")
        config = {
            "inputs": {"synthetic_spec": "spec.json", "rows_per_class": 200},
            "experiment": {
                "regressor": {"kind": "random_forest", "n_trees": 5},
                "combination": {"pre_attack": "DoS\u2013ish",
                                "post_attack": "web\u2013ish"},
                "seq_len": 10, "n_sequences": 20, "n_iterations": 1,
            },
            "emit": ["km", "cox", "json", "svg"],
        }
        (tmp_path / "config.json").write_text(
            json.dumps(config, ensure_ascii=False), encoding="utf-8")
        locales = {
            "ascii": {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
                      "LC_ALL": "C", "LANG": "C"},
            "utf8": {"PYTHONUTF8": "1"},
        }
        runs = {}
        for name, env in locales.items():
            out = tmp_path / name
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from flowhazard.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "pipeline", "--config", "config.json", "--out", str(out)],
                env={**os.environ, **env, "PYTHONPATH": os.path.dirname(
                    os.path.dirname(flowhazard.__file__))},
                cwd=tmp_path, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            runs[name] = tree_bytes(out)
        assert "\u2013".encode() in runs["utf8"]["km.svg"]
        assert runs["ascii"] == runs["utf8"]

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

    @pytest.mark.parametrize("flag", ["", ","], ids=["empty", "comma"])
    def test_empty_emit_flag_writes_only_report(self, workspace, tmp_path,
                                                flag):
        _, config_path, _ = workspace
        out = tmp_path / "quiet"
        assert main(["pipeline", "--config", str(config_path),
                     "--out", str(out), "--emit", flag]) == 0
        assert sorted(os.listdir(out)) == ["report.json"]

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

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    @pytest.mark.parametrize("key, file, label, holds", [
        ("benign_csv", "dos_ish", "BENIGN", "DoS-ish"),
        ("pre_attack_csv", "web_ish", "DoS-ish", "web-ish"),
        ("post_attack_csv", "dos_ish", "web-ish", "DoS-ish"),
    ], ids=["benign", "pre_attack", "post_attack"])
    def test_one_label_file_of_another_role_exits_2(
            self, workspace, tmp_path, capsys, command, key, file, label,
            holds):
        # a file that holds one label is used whole only when that label
        # is its role's, as synthetic inputs are always cut by label
        csv_config = csv_workspace(workspace, tmp_path)
        config = json.loads(csv_config.read_text())
        path = str(tmp_path / "csvs" / f"{file}.csv")
        config["inputs"][key] = path
        csv_config.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, "--config", str(csv_config)]) == 2
        err = only_error_line(capsys)
        assert err["error"] == "EmptyInput"
        assert err["message"] == (f"{path}: no rows labeled {label!r}; "
                                  f"every row is labeled {holds!r}")
        assert not (tmp_path / "csv_run").exists()

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    @pytest.mark.parametrize("keys", [
        ("benign_csv", "pre_attack_csv", "post_attack_csv"),
        ("post_attack_csv",),
    ], ids=["all_roles", "post_attack"])
    def test_mixed_file_without_the_role_label_exits_2(
            self, workspace, tmp_path, capsys, command, keys):
        # named for all three roles the file is read here; named only for
        # the novel-attack role, in the child process
        csv_config = csv_workspace(workspace, tmp_path)
        csvs = tmp_path / "csvs"
        known = (csvs / "benign.csv").read_text() + "".join(
            (csvs / "dos_ish.csv").read_text().splitlines(True)[1:])
        path = str(csvs / "known.csv")
        (csvs / "known.csv").write_text(known)
        config = json.loads(csv_config.read_text())
        config["inputs"].update(dict.fromkeys(keys, path))
        csv_config.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([command, "--config", str(csv_config)]) == 2
        err = only_error_line(capsys)
        assert err["error"] == "EmptyInput"
        assert err["message"] == (f"{path}: no rows labeled 'web-ish'; the "
                                  f"rows are labeled ['BENIGN', 'DoS-ish']")
        assert not (tmp_path / "csv_run").exists()

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    def test_one_file_for_both_known_roles_is_parsed_once(
            self, workspace, tmp_path, monkeypatch, command):
        # also one file for all three roles, and one for the benign and
        # the novel-attack role: each is parsed once, in this process
        from flowhazard import flowdata

        csv_config = csv_workspace(workspace, tmp_path)
        csvs = tmp_path / "csvs"
        lines = {name: (csvs / f"{name}.csv").read_text().splitlines(True)
                 for name in ("benign", "dos_ish", "web_ish")}
        parse = flowdata.parse_flow_csv
        parsed = tmp_path / "parsed.txt"
        started = []
        start = multiprocessing.Process.start

        def counting_parse(source, schema):
            with open(parsed, "a") as fh:  # a forked child writes here too
                fh.write(f"{os.getpid()}\n")
            return parse(source, schema)

        def counting_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(flowdata, "parse_flow_csv", counting_parse)
        monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
        config = json.loads(csv_config.read_text())
        keys = ("benign_csv", "pre_attack_csv", "post_attack_csv")
        # the classes in each role's file
        for n, layout in enumerate((
                (("benign", "dos_ish"),) * 2 + (("web_ish",),),
                (("benign", "dos_ish", "web_ish"),) * 3,
                (("benign", "web_ish"), ("dos_ish",), ("benign", "web_ish")))):
            outputs = {}
            # one file per distinct class list, then a copy per role
            for run in ("shared", "copies"):
                folder = csvs / run
                folder.mkdir(exist_ok=True)
                for i, (key, names) in enumerate(zip(keys, layout)):
                    name = "+".join(names) if run == "shared" else key
                    (folder / f"{name}.csv").write_text(
                        lines[names[0]][0]
                        + "".join(line for c in names for line in lines[c][1:])
                    )
                    # the same file spelt another way for each role
                    config["inputs"][key] = os.path.join(
                        str(folder), *["."] * i, f"{name}.csv")
                csv_config.write_text(json.dumps(config))
                parsed.unlink(missing_ok=True)
                started.clear()
                out = tmp_path / f"{run}{n}"
                assert main([command, "--config", str(csv_config),
                             "--out", str(out)]) == 0
                files = len(set(layout)) if run == "shared" else 3
                child = run == "copies" or layout.count(layout[2]) == 1
                pids = parsed.read_text().split()
                assert len(pids) == files, pids
                assert pids.count(str(os.getpid())) == files - child
                assert len(started) == child
                outputs[run] = {p.name: p.read_bytes() for p in out.iterdir()}
            assert "sanitization.json" in outputs["shared"]
            assert outputs["shared"] == outputs["copies"]

    def test_rows_per_class_beside_csv_paths_is_invalid_spec(
            self, workspace, tmp_path, capsys):
        csv_config = csv_workspace(workspace, tmp_path)
        config = json.loads(csv_config.read_text())
        config["inputs"]["rows_per_class"] = "many"
        csv_config.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["pipeline", "--config", str(csv_config)]) == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidSpec"
        assert "rows_per_class" in err["message"]

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


def run_python(code: str, log=None) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this flowhazard, with
    ``FLOWHAZARD_LOG`` set to ``log`` (unset when None)."""
    env = dict(os.environ)
    env.pop("FLOWHAZARD_LOG", None)
    if log is not None:
        env["FLOWHAZARD_LOG"] = log
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(flowhazard.__file__))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def run_cli(argv, log=None) -> subprocess.CompletedProcess:
    """``flowhazard argv`` in a fresh interpreter, ``FLOWHAZARD_LOG`` set
    to ``log``, that prints the child processes still running when the
    command returns."""
    return run_python(
        "import multiprocessing, sys; from flowhazard.cli import main; "
        f"rc = main({[str(a) for a in argv]!r}); "
        "print(multiprocessing.active_children()); sys.exit(rc)",
        log,
    )


class TestLogLevel:
    """``FLOWHAZARD_LOG`` selects what stderr holds besides a failure's
    JSON line: ``LEVEL name: message`` records from ``info`` on, and from
    ``debug`` the traceback of the failure too."""

    def test_info_logs_the_run_and_each_iteration(self, workspace):
        _, config_path, _ = workspace
        out = run_cli(["pipeline", "--config", config_path], log="info")
        assert out.returncode == 0, out.stderr
        lines = out.stderr.splitlines()
        assert lines[0] == ("INFO flowhazard: running experiment: "
                            "2 iterations x 10 sequences")
        assert len(lines) == 3, lines
        for i, line in enumerate(lines[1:]):
            assert re.fullmatch(
                rf"INFO flowhazard\.experiment: iteration {i}: holdout "
                r"accuracy \d\.\d{4}, \d+/10 events, cox converged=\w+ "
                r"in \d+ steps", line), line

    @pytest.mark.parametrize("table, raised", [
        ("absent.csv", "flowhazard.errors.MissingInput: input path does "
                       "not exist: "),
        (".", "IsADirectoryError: [Errno 21] Is a directory: "),
    ], ids=["missing", "directory"])
    def test_debug_logs_the_traceback_of_a_failure(self, tmp_path, table,
                                                   raised):
        out = run_cli(["km", "--table", tmp_path / table], log="debug")
        assert out.returncode == 2
        lines = out.stderr.splitlines()
        assert lines[:2] == ["DEBUG flowhazard: command failed",
                             "Traceback (most recent call last):"]
        assert lines[-2].startswith(raised), lines[-2]
        assert json.loads(lines[-1])["exit_code"] == 2

    @pytest.mark.parametrize("log", [None, "error"], ids=["unset", "error"])
    def test_error_level_leaves_only_the_json_line(self, workspace, tmp_path,
                                                   log):
        _, config_path, _ = workspace
        out = run_cli(["pipeline", "--config", config_path], log=log)
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        out = run_cli(["km", "--table", tmp_path / "absent.csv"], log=log)
        assert out.returncode == 2
        assert [json.loads(line) for line in out.stderr.splitlines()] == [{
            "error": "MissingInput", "exit_code": 2,
            "message": f"input path does not exist: {tmp_path / 'absent.csv'}",
        }]


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
        read_roles = cli._read_roles

        def dying_read_roles(*args):
            if os.getpid() != parent:
                os._exit(3)
            return read_roles(*args)

        monkeypatch.setattr(cli, "_read_roles", dying_read_roles)
        assert main(["train", "--config", str(csv_config)]) == 2
        err = only_error_line(capsys)
        assert err["error"] == "UnusablePath"
        assert "exited with code 3" in err["message"]

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    @pytest.mark.parametrize("sent", ["header", "half_the_matrix"])
    def test_child_that_dies_mid_reply_is_an_error(
        self, workspace, tmp_path, monkeypatch, capsys, command, sent
    ):
        from flowhazard import cli

        csv_config = csv_workspace(workspace, tmp_path)

        def dying_send_role(parent_end, conn, path, schema, label):
            parent_end.close()
            (ds,) = cli._read_roles(path, schema, label)
            conn.send((ds.report, ds.features.shape))
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

    def test_constant_column_named_and_not_fitted_at_ridge_0(self, tmp_path,
                                                            capsys):
        rng = np.random.default_rng(5)
        rows = [(i, float(i + 1), int(i % 3 != 2), float(rng.normal()), 7.3)
                for i in range(12)]
        table = tmp_path / "flat.csv"
        write_survival_csv(table, rows, features=("x", "flat"))
        rc = main(["cox", "--table", str(table), "--ridge", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "constant, not fitted: flat ->" in capsys.readouterr().out
        fit = read_csv_columns(tmp_path / "cox_table.csv")
        assert [fit[col][1] for col in ("beta", "se", "p")] == [
            "0.0", "0.0", "1.0"
        ]
        assert float(fit["beta"][0]) != 0.0
        conv = json.loads((tmp_path / "cox_convergence.json").read_text())
        assert conv["warnings"] == [] and conv["penalty"] == 0.0

    def test_column_past_float_range_is_nonfinite(self, tmp_path, capsys):
        # the squares of +-1e160 overflow, so no standard deviation exists
        rows = [(i, float(i + 1), 1, float(i % 4), (-1) ** i * 1e160)
                for i in range(8)]
        table = tmp_path / "huge.csv"
        write_survival_csv(table, rows, features=("x", "huge"))
        rc = main(["cox", "--table", str(table), "--out", str(tmp_path)])
        assert rc == 3
        err = only_error_line(capsys)
        assert err["error"] == "NonFinite"
        assert "'huge'" in err["message"]
        assert not (tmp_path / "cox_table.csv").exists()

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

    def test_repeated_covariate_name_exits_2(self, tmp_path, capsys):
        # a reader keyed by feature name would keep one of two 'a' rows
        table = tmp_path / "twice.csv"
        table.write_text("sequence_id,time,event,a,a\n0,1,1,0.5,1.5\n"
                         "1,2,0,0.25,1.0\n")
        rc = main(["cox", "--table", str(table),
                   "--out", str(tmp_path / "fit")])
        assert rc == 2
        err = only_error_line(capsys)
        assert err["error"] == "SchemaMismatch"
        assert err["exit_code"] == 2
        assert "'a'" in err["message"]
        assert not (tmp_path / "fit").exists()

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
        (("schema",), {"features": ["totally", "different", "names"],
                       "label_column": "Nope"}, "schema"),
        (("schema",), {"preset": "cicids2017"}, "schema"),
        (("schema", "preset"), "cicids2017", "preset"),
        (("inputs", "benign_csv"), "does/not/exist.csv", "benign_csv"),
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
            "unknown_selection_key", "schema_unlike_the_synthetic_spec",
            "preset_beside_synthetic_spec", "preset_beside_features",
            "csv_path_beside_synthetic_spec"])
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

    @pytest.mark.parametrize("path, key, misspelt", [
        ((), "experiment", "experimnet"),
        (("experiment",), "regressor", "regresor"),
    ], ids=["top_level", "experiment"])
    def test_misspelt_key_is_named_before_the_missing_one(
            self, mutation_dir, capsys, path, key, misspelt):
        config = json.loads(json.dumps(_MUTATED_CONFIG))
        section = _at(config, path)
        section[misspelt] = section.pop(key)
        config_path = mutation_dir / "misspelt.json"
        config_path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(config_path)]) == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidSpec"
        assert f"unknown key {misspelt!r}" in err["message"]

    @pytest.mark.parametrize("path, says", [
        (("inputs",), ("'benign_csv'", "'synthetic_spec'")),
        (("experiment", "combination", "post_attack"),
         ("missing key 'post_attack' in 'combination'",)),
        (("experiment",), ("missing key 'experiment' in ",)),
        (("experiment", "combination"),
         ("missing key 'combination' in 'experiment'",)),
        (("experiment", "regressor"),
         ("missing key 'regressor' in 'experiment'",)),
    ], ids=["inputs", "post_attack", "experiment", "combination",
            "regressor"])
    def test_missing_key_is_named(self, mutation_dir, capsys, path, says):
        config = json.loads(json.dumps(_MUTATED_CONFIG))
        del _at(config, path[:-1])[path[-1]]
        config_path = mutation_dir / "missing.json"
        config_path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(config_path)]) == 2
        err = only_error_line(capsys)
        assert err["error"] == "InvalidSpec"
        for phrase in says:
            assert phrase in err["message"]
        # the message speaks of config keys, not of the classes behind them
        # or of the None an absent section reads as
        for word in ("__init__", "Inputs", "Combination", "positional",
                     "None"):
            assert word not in err["message"]

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

    def test_every_iteration_failing_names_the_first_cause(self, workspace,
                                                           capsys):
        # a feature past float range fails every iteration's training the
        # same way; the run's one error line says which feature
        tmp, _, config = workspace
        spec = json.loads(json.dumps(SYNTH_SPEC))
        for features in spec.values():
            features["big"] = {"mean": 1.7e308, "std": 0.0}
        (tmp / "big_spec.json").write_text(json.dumps(spec))
        config = json.loads(json.dumps(config))
        config["inputs"]["synthetic_spec"] = str(tmp / "big_spec.json")
        config["experiment"]["regressor"] = {"kind": "random_forest",
                                             "n_trees": 5}
        path = tmp / "big.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 3
        err = only_error_line(capsys)
        assert err["error"] == "AllIterationsFailed"
        assert "iteration 1: NonFinite" in err["message"]
        assert "feature 'big' cannot be scaled" in err["message"]

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
