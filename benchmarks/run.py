"""Benchmark for the flowhazard CLI.

Run from the root of a flowhazard checkout:

    python3 benchmarks/run.py --workload quickstart_rf --seed 1 \
        --seconds 30 --trace 0

The benchmark generates the workload's inputs from ``--seed`` (cached per
seed under ``.bench_work/inputs``, outside every timed region), then runs
the workload through fresh ``flowhazard`` processes built from ``./src``,
one invocation at a time, for ``--seconds`` seconds.  Every rep's outputs
are checked.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it adds one traced rep (see ``tracer.py``) and reports the
per-layer metrics.  The last line of standard output is one JSON object;
a results file with the environment record goes to
``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS, gate_failures, survival_outcomes  # noqa: E402

WORK_DIR = ".bench_work"
MIN_SETUP_SAMPLES = 7
PROCESS_TIMEOUT_S = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# what the installed `flowhazard` console script runs
CLI = ("import sys; from flowhazard.cli import entrypoint; "
       "sys.argv[0] = 'flowhazard'; entrypoint()")
TRACER = os.path.join(HERE, "tracer.py")


def run_process(argv: list, env: dict, log_path: str) -> dict:
    """Run one process to completion; wall time and its own rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def child_env(root: str, threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FLOWHAZARD_LOG"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({var: str(threads) for var in BLAS_VARS})
    return env


def prepare_inputs(work: str, wl, seed: int, sizes: dict) -> tuple[str, dict]:
    """Generate (or reuse) the inputs for ``seed``; returns (dir, meta)."""
    with open(inputs.__file__, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(
        source + json.dumps([wl.name, seed, sizes], sort_keys=True).encode()
    ).hexdigest()[:16]
    dest = os.path.join(work, "inputs", f"{wl.name}-{seed}-{key}")
    meta_path = dest + ".json"
    if not os.path.exists(meta_path):
        tmp = dest + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(tmp)
        meta = wl.make_inputs(tmp, seed, sizes)
        meta["sha256"] = inputs.digest_dir(tmp)
        os.replace(tmp, dest)
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, indent=2)
    with open(meta_path) as fh:
        return dest, json.load(fh)


def run_rep(wl, meta, in_dir, out_dir, env, prefix, variant) -> dict:
    """One unit of work: every CLI invocation of the workload's input
    ``variant``, then checks.

    ``prefix`` turns CLI arguments into a command; it gets the
    invocation's index so traced runs can name a spans file per call."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    procs, problems = [], []
    for i, args in enumerate(wl.invocations(in_dir, meta, out_dir, variant)):
        log = os.path.join(out_dir, f"log{i}.txt")
        p = run_process(prefix(i) + args, env, log)
        procs.append(p)
        if p["exit"] != 0:
            with open(log, errors="replace") as fh:
                tail = fh.read()[-400:]
            problems.append(f"`{args[0]}` exited {p['exit']}: {tail}")
    try:
        problems += wl.check(meta, out_dir)
    except Exception as err:  # a broken output must not stop the run
        problems.append(f"output check raised {err!r}")
    return {
        "variant": variant,
        "wall_s": sum(p["wall_s"] for p in procs),
        "rss_mb": max(p["rss_mb"] for p in procs),
        "cpu_s": sum(p["cpu_s"] for p in procs),
        "problems": problems,
    }


def read_artifact(out_dir: str, name: str) -> bytes | None:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def plain_rep(wl, meta, in_dir, out_dir, env, variant=0) -> dict:
    return run_rep(wl, meta, in_dir, out_dir, env,
                   lambda i: [sys.executable, "-c", CLI], variant)


def traced_rep(wl, meta, in_dir, out_dir, env, variant=0) -> dict:
    """One rep under ``tracer.py``; adds the merged ``spans``, the
    ``missing`` functions and the tracer's ``count_errors``."""
    files = []

    def prefix(i):
        files.append(os.path.join(out_dir, f"spans{i}.json"))
        return [sys.executable, TRACER, "--spans", files[-1], "--"]

    rep = run_rep(wl, meta, in_dir, out_dir, env, prefix, variant)
    spans, missing, errors = [], [], []
    for path in files:
        if not os.path.exists(path):
            rep["problems"].append(f"tracer wrote no {os.path.basename(path)}")
            continue
        with open(path) as fh:
            dump = json.load(fh)
        offset = len(spans)
        for sp in dump["spans"]:
            parent = sp["parent"]
            spans.append({**sp, "parent": None if parent is None
                          else parent + offset})
        missing += [m for m in dump["missing"] if m not in missing]
        errors += dump["count_errors"]
    return {**rep, "spans": spans, "missing": missing, "count_errors": errors}


def variant_wall_s(reps: list[dict]) -> float:
    """Mean over input variants of each variant's median rep wall time, so
    every variant weighs the same however many reps it got."""
    walls = {}
    for r in reps:
        walls.setdefault(r["variant"], []).append(r["wall_s"])
    return statistics.fmean(statistics.median(w) for w in walls.values())


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"]["name"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: str) -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.getcwd()
    src = os.path.join(root, "src", "flowhazard")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print("benchmark: no flowhazard sources under ./src; run it from "
              "the root of a flowhazard checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = os.path.join(root, WORK_DIR)
    threads = len(os.sched_getaffinity(0))
    env = child_env(root, threads)
    in_dir, meta = prepare_inputs(work, wl, args.seed, wl.sizes)
    run_dir = os.path.join(work, "runs", f"{wl.name}-{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # warm-up: compiles bytecode once and proves ./src is what gets imported
    probe = subprocess.run(
        [sys.executable, "-c", "import flowhazard.cli as c; print(c.__file__)"],
        env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    imported = probe.stdout.strip()
    if probe.returncode != 0 or not imported.startswith(src + os.sep):
        print(f"benchmark: cannot import flowhazard from {src}: "
              f"{imported or probe.stderr[-400:]}", file=sys.stderr)
        return 2

    setup = []

    def measure_setup() -> bool:
        p = run_process([sys.executable, "-c", CLI, "--help"], env,
                        os.path.join(run_dir, f"setup{len(setup)}.txt"))
        setup.append(p["wall_s"])
        if p["exit"] != 0:
            print("benchmark: `flowhazard --help` failed", file=sys.stderr)
        return p["exit"] == 0

    reps = []
    references = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        # set-up samples are spread over the run, one before each rep, so
        # their median sees the same machine as the reps' median
        if not args.trace and not measure_setup():
            return 2
        # reps cycle through the input variants
        variant = len(reps) % meta["variants"]
        out_dir = os.path.join(run_dir, f"rep{len(reps)}")
        rep = plain_rep(wl, meta, in_dir, out_dir, env, variant)
        artifact = read_artifact(out_dir, wl.artifact)
        if variant not in references:
            references[variant] = artifact
        elif artifact != references[variant]:
            rep["problems"].append(
                f"{wl.artifact} differs from variant {variant}'s first rep")
        reps.append(rep)
        for problem in rep["problems"]:
            print(f"rep {len(reps) - 1}: {problem}", file=sys.stderr)
        # stop once every variant ran and another rep would end more than
        # half a rep late
        if (len(reps) >= meta["variants"]
                and time.perf_counter() + rep["wall_s"] / 2 > deadline):
            break
    while not args.trace and len(setup) < MIN_SETUP_SAMPLES:
        if not measure_setup():
            return 2

    walls = [r["wall_s"] for r in reps]
    result = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        out_dir = os.path.join(run_dir, "traced")
        traced = traced_rep(wl, meta, in_dir, out_dir, env)
        if read_artifact(out_dir, wl.artifact) != references[0]:
            traced["problems"].append(
                f"traced {wl.artifact} differs from the untraced one")
        for problem in traced["problems"]:
            print(f"traced rep: {problem}", file=sys.stderr)
        for name in traced["missing"]:
            print(f"trace: missing function {name}", file=sys.stderr)
        spans = traced.pop("spans")
        all_reps = reps + [traced]
        facts = {
            "gate_failures": gate_failures(out_dir),
            "useful_flows": survival_outcomes(out_dir)[2],
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "overhead_s": traced["wall_s"] - statistics.median(
                r["wall_s"] for r in reps if r["variant"] == 0),
            "failure_rate": sum(bool(r["problems"]) for r in all_reps)
                            / len(all_reps),
        }
        out_metrics = metrics.layer_metrics(spans, traced["missing"], facts)
    else:
        all_reps = reps
        out_metrics = {
            "wall_s": {"value": variant_wall_s(reps), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in reps),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        result["setup_s_samples"] = setup

    failed = sum(bool(r["problems"]) for r in all_reps)
    summary = {"correct": failed == 0, "attempted": len(all_reps),
               "failed": failed, "metrics": out_metrics}
    result.update({
        "environment": {
            "git_commit": git_commit(root),
            "source_sha256": source_digest(src),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name(),
            "blas_threads": threads,
            "blas_thread_vars": list(BLAS_VARS),
            "nproc": threads,
            "host_cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "inputs": meta,
        "wall_s_quartiles": quartiles(walls),
        "samples": len(walls),
        "reps": all_reps,
        "summary": summary,
    })
    results_dir = os.path.join(work, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(result, fh, indent=2)
    q1, q2, q3 = result["wall_s_quartiles"]
    print(f"{wl.name} seed {args.seed}: {len(walls)} reps over "
          f"{meta['variants']} input variants, rep wall_s median {q2:.4f} "
          f"(q1 {q1:.4f}, q3 {q3:.4f}), {failed} failed")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
