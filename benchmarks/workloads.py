"""The three benchmark workloads: inputs, CLI invocations, output checks.

Each check returns a list of problems; an empty list means the rep's
outputs are correct.  A failed check marks its rep failed and never stops
the remaining reps.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import inputs


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    tiny: dict  # same shape, for the self-test smoke run
    make_inputs: Callable[[str, int, dict], dict]
    # (input dir, meta, output dir, variant) -> CLI argument lists
    invocations: Callable[[str, dict, str, int], list]
    check: Callable[[dict, str], list]
    # output compared byte for byte across the reps of one run
    artifact: str


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _pipeline_invocations(in_dir: str, meta: dict, out_dir: str,
                          variant: int) -> list:
    config = os.path.join(in_dir, meta["configs"][variant])
    return [["pipeline", "--config", config, "--out", out_dir]]


def survival_outcomes(out_dir: str) -> tuple[int, int, int]:
    """(records, events, sum of time + event) over survival_iterNN.csv.

    time + event is the number of flows a sequence needed: detection at
    0-based index t reads t + 1 flows, a censored one reads all t."""
    records = events = useful = 0
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("survival_iter") and name.endswith(".csv"):
            for row in _read_csv(os.path.join(out_dir, name)):
                e = int(row["event"])
                records += 1
                events += e
                useful += int(float(row["time"])) + e
    return records, events, useful


def gate_failures(out_dir: str) -> int:
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return 0
    return sum(
        it.get("error_kind") == "AccuracyGateFailed"
        for it in _load_json(path)["iterations"]
    )


def _pipeline_problems(meta: dict, out_dir: str) -> tuple[list, dict | None]:
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return ["report.json missing"], None
    report = _load_json(path)
    failed = [it["iteration"] for it in report["iterations"] if it["failed"]]
    problems = []
    if len(report["iterations"]) != meta["n_iterations"] or failed:
        problems.append(f"iterations failed: {failed}")
    return problems, report


def check_quickstart(meta: dict, out_dir: str) -> list:
    """All iterations succeed; detection_rate equals events/records of the
    emitted survival tables; KM starts with every sequence at risk."""
    problems, report = _pipeline_problems(meta, out_dir)
    if report is None:
        return problems
    records, events, _ = survival_outcomes(out_dir)
    if records == 0 or report["detection_rate"] != events / records:
        problems.append(
            f"detection_rate {report['detection_rate']!r} != "
            f"{events}/{records} from survival tables")
    km = _read_csv(os.path.join(out_dir, "km_curve.csv"))
    expected = meta["n_sequences"] * meta["n_iterations"]
    if not km or int(km[0]["n_risk"]) != expected:
        problems.append(f"km_curve first n_risk != {expected}")
    return problems


def check_cic(meta: dict, out_dir: str) -> list:
    """Every iteration passes the gate; sanitization counts equal the
    planted faults; some but not all sequences are detected."""
    problems, report = _pipeline_problems(meta, out_dir)
    san_path = os.path.join(out_dir, "sanitization.json")
    if not os.path.exists(san_path):
        problems.append("sanitization.json missing")
    elif _load_json(san_path) != meta["planted"]:
        problems.append(
            f"sanitization counts {_load_json(san_path)} != planted "
            f"{meta['planted']}")
    if report is not None and not 0.0 < report["detection_rate"] < 1.0:
        problems.append(f"detection_rate {report['detection_rate']} not in (0, 1)")
    return problems


def check_survival(meta: dict, out_dir: str) -> list:
    """Every planted coefficient (the zeros too) recovered within 0.1;
    KM record, event and censoring totals equal the table's."""
    problems = []
    cox_path = os.path.join(out_dir, "cox_table.csv")
    km_path = os.path.join(out_dir, "km_curve.csv")
    if not (os.path.exists(cox_path) and os.path.exists(km_path)):
        return ["cox_table.csv or km_curve.csv missing"]
    fitted = {r["feature"]: float(r["beta"]) for r in _read_csv(cox_path)}
    for name, planted in zip(meta["feature_names"], meta["beta"]):
        got = fitted.get(name)
        if got is None or abs(got - planted) > 0.1:
            problems.append(f"beta[{name}] = {got} not within 0.1 of {planted}")
    km = _read_csv(km_path)
    n_event = sum(int(r["n_event"]) for r in km)
    n_cens = sum(int(r["n_censored"]) for r in km)
    if (not km or int(km[0]["n_risk"]) != meta["rows"]
            or n_event != meta["events"]
            or n_cens != meta["rows"] - meta["events"]):
        problems.append(
            f"KM totals ({km[0]['n_risk'] if km else None} records, {n_event} "
            f"events, {n_cens} censored) do not match the table "
            f"({meta['rows']}, {meta['events']})")
    return problems


def _survival_invocations(in_dir: str, meta: dict, out_dir: str,
                          variant: int) -> list:
    table = os.path.join(in_dir, meta["table"])
    return [["cox", "--table", table, "--out", out_dir],
            ["km", "--table", table, "--out", out_dir, "--svg"]]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="quickstart_rf",
            sizes={"n_sequences": 500, "seq_len": 100, "n_trees": 100,
                   "n_iterations": 1, "variants": 3},
            tiny={"n_sequences": 20, "seq_len": 20, "n_trees": 5,
                  "n_iterations": 1, "variants": 2},
            make_inputs=inputs.quickstart,
            invocations=_pipeline_invocations,
            check=check_quickstart,
            artifact="report.json",
        ),
        Workload(
            name="cic_csv_rf",
            sizes={"n_sequences": 500, "seq_len": 100, "n_trees": 10,
                   "n_iterations": 1, "variants": 3,
                   "benign": 4000, "pre_attack": 4000, "post_attack": 60000,
                   "separation": 4.25, "boundary_frac": 0.02,
                   "nonfinite_frac": 0.003},
            tiny={"n_sequences": 30, "seq_len": 30, "n_trees": 2,
                  "n_iterations": 2, "variants": 2,
                  "benign": 1000, "pre_attack": 1000,
                  "post_attack": 2000, "separation": 4.25,
                  "boundary_frac": 0.02, "nonfinite_frac": 0.003},
            make_inputs=inputs.cic_csvs,
            invocations=_pipeline_invocations,
            check=check_cic,
            artifact="report.json",
        ),
        Workload(
            name="survival_cli",
            sizes={"rows": 20000, "horizon": 5000, "beta": [0.7, -0.4, 0.0, 0.0],
                   "time_scale": 2000.0},
            tiny={"rows": 2000, "horizon": 5000, "beta": [0.7, -0.4, 0.0, 0.0],
                  "time_scale": 2000.0},
            make_inputs=inputs.survival_table,
            invocations=_survival_invocations,
            check=check_survival,
            artifact="cox_table.csv",
        ),
    )
}
