"""Metric definitions and the per-layer metrics computed from a trace.

``END_TO_END`` and ``PER_LAYER`` must agree with ``BENCHMARK.json``; the
self-tests check that.  Each per-layer metric names the end-to-end metric
and workload it should move (``moves``) and the traced functions it needs
(``needs``); a metric whose function is missing from the program is left
out rather than reported as zero.
"""

from __future__ import annotations

from tracer import inclusive_s, injection_rows, summarize

DATASET_OPS = (
    "flowdata.synthesize_flows", "flowdata.filter_label",
    "flowdata.binary_dataset", "flowdata.subset", "flowdata.feature_summary",
    "flowdata.abs_diff_covariates",
)
WRITERS = ("survival.km_to_csv", "survival.cox_to_csv")

END_TO_END = {
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

QS, CIC, SURV = "quickstart_rf", "cic_csv_rf", "survival_cli"

# name -> (unit, better, moves, needs)
PER_LAYER = {
    "flowdata.parse_flow_csv.s": (
        "s", "lower", f"wall_s,peak_rss_mb@{CIC}", ("flowdata.parse_flow_csv",)),
    "flowdata.parse_flow_csv.rows": (
        "count", "higher", f"wall_s@{CIC}", ("flowdata.parse_flow_csv",)),
    "flowdata.parse_rows_per_s": (
        "1/s", "higher", f"wall_s,peak_rss_mb@{CIC}",
        ("flowdata.parse_flow_csv",)),
    "flowdata.dataset_ops.s": (
        "s", "lower", f"wall_s@{QS},{CIC} (sentinel for added copies)",
        DATASET_OPS),
    "models.train.s": (
        "s", "lower", f"wall_s@{CIC}; slightly @{QS}", ("models.train",)),
    "models.train.calls": (
        "count", "lower", f"wall_s@{CIC}", ("models.train",)),
    "models.forest.nodes": (
        "count", "lower", f"wall_s@{CIC} (repeats exactly)", ("models.train",)),
    "models.predict_many.s": (
        "s", "lower", f"wall_s@{QS}; @{CIC}", ("models.predict_many",)),
    "models.predict_many.calls": (
        "count", "lower", f"wall_s@{QS}", ("models.predict_many",)),
    "models.predict_many.rows": (
        "count", "lower", f"wall_s@{QS}", ("models.predict_many",)),
    "models.predict_rows_per_s": (
        "1/s", "higher", f"wall_s@{QS},{CIC}", ("models.predict_many",)),
    "models.evaluate_accuracy.s": (
        "s", "lower", f"wall_s@{CIC}", ("models.evaluate_accuracy",)),
    "models.gate_failures": (
        "count", "lower", "failures@all pipeline workloads", ()),
    "experiment.run_sequence.calls": (
        "count", "lower", f"wall_s@{QS}", ("experiment.run_sequence",)),
    "experiment.run_sequence.self_s": (
        "s", "lower", f"wall_s@{QS}", ("experiment.run_sequence",)),
    "experiment.run_iteration.self_s": (
        "s", "lower", f"wall_s@{QS}", ("experiment.run_iteration",)),
    "experiment.build_sequences.s": (
        "s", "lower", f"wall_s@{QS}", ("experiment.build_sequences",)),
    "experiment.scan.useful_frac": (
        "fraction", "higher", f"wall_s@{QS},{CIC}",
        ("models.predict_many", "experiment.run_iteration")),
    "experiment.read_survival_table.s": (
        "s", "lower", f"wall_s@{SURV}", ("experiment.read_survival_table",)),
    "experiment.write_survival_table.s": (
        "s", "lower", f"wall_s@{QS},{CIC}",
        ("experiment.write_survival_table",)),
    "survival.cox_fit.s": (
        "s", "lower", f"wall_s@{SURV}", ("survival.cox_fit",)),
    "survival.cox_fit.calls": (
        "count", "lower", f"wall_s@{SURV}", ("survival.cox_fit",)),
    "survival.cox.newton_iters": (
        "count", "lower", f"wall_s@{SURV}", ("survival.cox_fit",)),
    "survival.cox.risk_times": (
        "count", "lower", f"wall_s@{SURV}", ("survival.cox_fit",)),
    "survival.cox.not_converged": (
        "count", "lower", "failures@all workloads", ("survival.cox_fit",)),
    "survival.cox.ridge_retries": (
        "count", "lower", f"wall_s@{SURV}", ("survival.cox_fit",)),
    "survival.km_fit.s": (
        "s", "lower", f"wall_s@{SURV}", ("survival.km_fit",)),
    "survival.km.event_times": (
        "count", "lower", f"wall_s@{SURV}", ("survival.km_fit",)),
    "survival.writers.s": (
        "s", "lower", f"wall_s@{SURV}; artifacts @{QS},{CIC}", WRITERS),
    "svgplot.km_svg.s": (
        "s", "lower", "wall_s@all workloads", ("svgplot.km_svg",)),
    "cli.main.self_s": (
        "s", "lower", "wall_s@all workloads", ("cli.main",)),
    "proc.cpu_s": ("s", "lower", "wall_s@all workloads", ()),
    "trace.overhead_s": ("s", "lower", "none (harness cost)", ()),
    "trace.missing_functions": ("count", "lower", "none (harness health)", ()),
    "failure_rate": ("fraction", "lower", "correctness@all workloads", ()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], missing: list[str], facts: dict) -> dict:
    """Per-layer values from the traced run plus run ``facts``
    (``gate_failures``, ``useful_flows``, ``cpu_s``, ``overhead_s``,
    ``failure_rate``).  Metrics that need a missing function are omitted."""
    agg = summarize(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    parse_s = get("flowdata.parse_flow_csv", "s")
    parse_rows = get("flowdata.parse_flow_csv", "rows")
    pred_s = get("models.predict_many", "s")
    pred_rows = get("models.predict_many", "rows")
    values = {
        "flowdata.parse_flow_csv.s": parse_s,
        "flowdata.parse_flow_csv.rows": parse_rows,
        "flowdata.parse_rows_per_s": _ratio(parse_rows, parse_s),
        "flowdata.dataset_ops.s": inclusive_s(spans, DATASET_OPS),
        "models.train.s": get("models.train", "s"),
        "models.train.calls": get("models.train", "calls"),
        "models.forest.nodes": get("models.train", "nodes"),
        "models.predict_many.s": pred_s,
        "models.predict_many.calls": get("models.predict_many", "calls"),
        "models.predict_many.rows": pred_rows,
        "models.predict_rows_per_s": _ratio(pred_rows, pred_s),
        "models.evaluate_accuracy.s": get("models.evaluate_accuracy", "s"),
        "models.gate_failures": facts["gate_failures"],
        "experiment.run_sequence.calls": get("experiment.run_sequence", "calls"),
        "experiment.run_sequence.self_s": get("experiment.run_sequence", "self_s"),
        "experiment.run_iteration.self_s": get(
            "experiment.run_iteration", "self_s"),
        "experiment.build_sequences.s": get("experiment.build_sequences", "s"),
        "experiment.scan.useful_frac": _ratio(
            facts["useful_flows"], injection_rows(spans)),
        "experiment.read_survival_table.s": get(
            "experiment.read_survival_table", "s"),
        "experiment.write_survival_table.s": get(
            "experiment.write_survival_table", "s"),
        "survival.cox_fit.s": get("survival.cox_fit", "s"),
        "survival.cox_fit.calls": get("survival.cox_fit", "calls"),
        "survival.cox.newton_iters": get("survival.cox_fit", "newton_iters"),
        "survival.cox.risk_times": get("survival.cox_fit", "risk_times"),
        "survival.cox.not_converged": get("survival.cox_fit", "not_converged"),
        "survival.cox.ridge_retries": get("survival.cox_fit", "ridge_retries"),
        "survival.km_fit.s": get("survival.km_fit", "s"),
        "survival.km.event_times": get("survival.km_fit", "event_times"),
        "survival.writers.s": inclusive_s(spans, WRITERS),
        "svgplot.km_svg.s": get("svgplot.km_svg", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "proc.cpu_s": facts["cpu_s"],
        "trace.overhead_s": facts["overhead_s"],
        "trace.missing_functions": len(missing),
        "failure_rate": facts["failure_rate"],
    }
    gone = {m.removeprefix("flowhazard.") for m in missing}
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _, _, needs) in PER_LAYER.items()
        if not gone.intersection(needs)
    }
