import argparse
import hashlib
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from flowhazard.cli import _load_role_datasets, load_pipeline_config, main
from flowhazard.experiment import run_iteration
from flowhazard.models import model_to_json

from _oracles import grid_search_beta


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
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def stderr_error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


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
        import flowhazard

        schema = flowhazard.FlowSchema(("f_sep", "f_driver", "f_noise"))
        ds = flowhazard.parse_flow_csv(str(out / "benign.csv"), schema)
        assert len(ds) == 50

    def test_missing_spec_is_input_error(self, workspace, capsys):
        tmp, _, _ = workspace
        rc = main(["synth", "--spec", str(tmp / "nope.json")])
        assert rc == 2
        assert stderr_error(capsys)["error"] == "MissingInput"


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
        benign, attack, post = _load_role_datasets(cfg)
        it = run_iteration(cfg.experiment, benign, attack, post, iteration=0)
        assert (tmp / "out" / "model.json").read_text() == model_to_json(
            it.model
        )


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

    def test_csv_inputs_write_sanitization_report(self, workspace, tmp_path):
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


def write_survival_csv(path, rows, features=("x",)):
    header = "sequence_id,time,event," + ",".join(features)
    lines = [header] + [
        ",".join(str(v) for v in row) for row in rows
    ]
    path.write_text("\n".join(lines) + "\n")


class TestCoxCommand:
    def test_matches_grid_oracle(self, tmp_path, capsys):
        from flowhazard import SurvivalRecord

        rows = [
            (0, 1.0, 1, 0.0), (1, 2.0, 1, 1.0),
            (2, 3.0, 1, 0.0), (3, 4.0, 1, 1.0),
        ]
        table = tmp_path / "table.csv"
        write_survival_csv(table, rows)
        rc = main(["cox", "--table", str(table), "--out", str(tmp_path)])
        assert rc == 0
        from flowhazard.survival import cox_from_csv

        fit = cox_from_csv(tmp_path / "cox_table.csv")
        records = [
            SurvivalRecord(t, e, np.array([x])) for _, t, e, x in rows
        ]
        oracle = grid_search_beta(records)
        assert fit["beta"][0] == pytest.approx(oracle, abs=1e-3)
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
        from flowhazard.survival import cox_from_csv

        fit = cox_from_csv(tmp_path / "cox_table.csv")
        assert fit["feature"] == ("x", "dead_col")
        assert fit["beta"][1] == 0.0

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
        from flowhazard.survival import km_from_csv

        curve = km_from_csv(tmp_path / "km_curve.csv")
        rounded = [round(s, 4) for s in curve.survival]
        assert rounded == [0.6667, 0.3333, 0.0]

    def test_all_censored_stays_at_one(self, tmp_path):
        table = tmp_path / "cens.csv"
        write_survival_csv(table, [(0, 9.0, 0, 0.0), (1, 9.0, 0, 0.0)])
        assert main(["km", "--table", str(table), "--out", str(tmp_path)]) == 0
        from flowhazard import km_survival_at
        from flowhazard.survival import km_from_csv

        curve = km_from_csv(tmp_path / "km_curve.csv")
        assert km_survival_at(curve, 100.0) == 1.0

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
