"""Outside-in tracer for flowhazard.

The program has no spans of its own yet, so the tracer wraps the public
functions listed in ``TARGETS`` from outside the package.  Each function
is replaced at every module binding that refers to it (``flowhazard.cli``,
``flowhazard.experiment``, ``flowhazard.models.base`` ...), so calls made
between modules are counted too.  Spans stay in memory and are written as
JSON when the process ends.  A listed function that no longer exists is
reported as missing, never as zero.

Run one traced CLI invocation with::

    PYTHONPATH=src python3 benchmarks/tracer.py --spans out.json -- \
        pipeline --config config.json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# public module -> functions wrapped in it
TARGETS = {
    "flowhazard.flowdata": (
        "parse_flow_csv", "synthesize_flows", "filter_label",
        "binary_dataset", "subset", "feature_summary", "abs_diff_covariates",
    ),
    "flowhazard.models": ("train", "predict_many", "evaluate_accuracy"),
    "flowhazard.experiment": (
        "run_iteration", "run_sequence", "build_sequences",
        "read_survival_table", "write_survival_table",
    ),
    "flowhazard.survival": ("cox_fit", "km_fit", "km_to_csv", "cox_to_csv"),
    "flowhazard.svgplot": ("km_svg",),
    # the subcommand bodies stay unwrapped, so main's self time is their
    # own work: config loading, JSON dumps, directories
    "flowhazard.cli": ("main",),
}


def _short(module: str, name: str) -> str:
    return f"{module.removeprefix('flowhazard.')}.{name}"


# ---------------------------------------------------------------------------
# counts read from a call's arguments and result, outside its span


def _rows_read(args, kwargs, result):
    return {"rows": result.report.rows_read}


def _forest_nodes(args, kwargs, result):
    trees = getattr(result.state, "trees", ())
    return {"nodes": sum(int(t.feature.shape[0]) for t in trees)}


def _rows_scored(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _cox_counts(args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    return {
        "newton_iters": int(result.iterations),
        "not_converged": int(not result.converged),
        "ridge_retries": sum("retried" in w for w in result.warnings),
        "risk_times": len({r.time for r in records}),
    }


def _km_counts(args, kwargs, result):
    return {"event_times": int(result.times.shape[0])}


COUNTERS = {
    "flowdata.parse_flow_csv": _rows_read,
    "models.train": _forest_nodes,
    "models.predict_many": _rows_scored,
    "survival.cox_fit": _cox_counts,
    "survival.km_fit": _km_counts,
}


class Tracer:
    """Collects one span per wrapped call: name, parent, start, end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.count_errors: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": self.clock(), "end": None, "counts": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except Exception as err:  # a count must never fail the run
                    self.count_errors.append(f"{name}: {err!r}")
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Replace each target at every flowhazard module binding."""
        originals = {}
        for module_name, names in targets.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.extend(f"{module_name}.{n}" for n in names)
                continue
            for n in names:
                fn = getattr(module, n, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{n}")
                    continue
                originals[id(fn)] = (fn, self.wrap(_short(module_name, n), fn))
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("flowhazard") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing,
                "count_errors": self.count_errors}


# ---------------------------------------------------------------------------
# summaries


def _ancestors(spans, i):
    parent = spans[i]["parent"]
    while parent is not None:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]


def summarize(spans: list[dict]) -> dict:
    """Per-name totals: ``calls``, inclusive ``s`` (outermost spans of the
    name only), ``self_s`` (duration minus child spans) and summed counts."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    out: dict[str, dict] = {}
    for i, sp in enumerate(spans):
        dur = sp["end"] - sp["start"]
        agg = out.setdefault(sp["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[i]
        if sp["name"] not in _ancestors(spans, i):
            agg["s"] += dur
        for key, value in sp["counts"].items():
            agg[key] = agg.get(key, 0) + value
    return out


def inclusive_s(spans: list[dict], names) -> float:
    """Time inside any of ``names``, counting nested calls once."""
    names = set(names)
    return sum(
        sp["end"] - sp["start"]
        for i, sp in enumerate(spans)
        if sp["name"] in names and not names.intersection(_ancestors(spans, i))
    )


def injection_rows(spans: list[dict]) -> int:
    """Rows scored while streaming sequences: predict_many under
    run_iteration, excluding training and the holdout gate."""
    skip = {"models.train", "models.evaluate_accuracy"}
    total = 0
    for i, sp in enumerate(spans):
        if sp["name"] != "models.predict_many":
            continue
        up = set(_ancestors(spans, i))
        if "experiment.run_iteration" in up and not up & skip:
            total += sp["counts"].get("rows", 0)
    return total


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <flowhazard args>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    from flowhazard import cli  # bound after install: cli.main is wrapped

    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
