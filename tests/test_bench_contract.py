"""The benchmark tracer's contract with the package.

``benchmarks/tracer.py`` wraps the package functions it names in
``TARGETS`` from outside.  A name the package no longer defines is
reported as missing, and a count read from a call's arguments that fails
is recorded as a count error; either drops metrics from the benchmark's
summary.  These tests load the tracer by path, as the benchmark runs it,
and check both on small traced commands.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowhazard
from flowhazard.survival import SurvivalTable, write_survival_table

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

SPEC = {
    "BENIGN": {"f_sep": {"mean": 0.0, "std": 0.25},
               "f_noise": {"mean": 0.0, "std": 1.0}},
    "known": {"f_sep": {"mean": 4.0, "std": 0.25},
              "f_noise": {"mean": 0.0, "std": 1.0}},
    "novel": {"f_sep": {"mean": 2.0, "std": 0.6},
              "f_noise": {"mean": 0.0, "std": 1.0}},
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable():
    targets = load_tracer().TARGETS
    unresolved = [
        f"{module_name}.{name}"
        for module_name, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(module_name), name,
                                None))
    ]
    assert unresolved == []


def pipeline_args(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    config = {
        "inputs": {"synthetic_spec": "spec.json", "rows_per_class": 150},
        "experiment": {
            "regressor": {"kind": "random_forest", "n_trees": 5},
            "combination": {"pre_attack": "known", "post_attack": "novel"},
            "seq_len": 10, "n_sequences": 30, "n_iterations": 1,
            "master_seed": 5,
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return ["pipeline", "--config", str(tmp_path / "config.json"),
            "--out", str(tmp_path / "out")]


def table_path(tmp_path):
    rng = np.random.default_rng(7)
    n = 60
    events = rng.integers(0, 2, n)
    events[0] = 1
    path = tmp_path / "table.csv"
    write_survival_table(
        SurvivalTable(rng.integers(0, 12, n).astype(float), events,
                      rng.standard_normal((n, 2)), ("a", "b")),
        str(path),
    )
    return str(path)


def cox_args(tmp_path):
    return ["cox", "--table", table_path(tmp_path), "--ridge", "0.001",
            "--out", str(tmp_path / "out")]


def km_args(tmp_path):
    return ["km", "--table", table_path(tmp_path), "--svg",
            "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("args, spans", [
    (pipeline_args, {"experiment.run_iteration", "models.train",
                     "models.predict_many", "survival.cox_fit",
                     "survival.km_fit", "experiment.write_survival_table"}),
    (cox_args, {"experiment.read_survival_table", "survival.cox_fit",
                "survival.cox_to_csv"}),
    (km_args, {"experiment.read_survival_table", "survival.km_fit",
               "survival.km_to_csv", "svgplot.km_svg"}),
], ids=["pipeline", "cox", "km"])
def test_traced_command_misses_nothing(tmp_path, args, spans):
    dump_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(flowhazard.__file__))
    out = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(dump_path), "--",
         *args(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    dump = json.loads(dump_path.read_text())
    assert dump["missing"] == []
    assert dump["count_errors"] == []
    names = {span["name"] for span in dump["spans"]}
    assert spans | {"cli.main"} <= names
    # the counts of every counted call were read
    counted = load_tracer().COUNTERS
    assert all(span["counts"] for span in dump["spans"]
               if span["name"] in counted)
