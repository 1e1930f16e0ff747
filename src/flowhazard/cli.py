"""Command-line entry point.

Subcommands wire the library into reproducible runs:

* ``synth``    generate per-class CSVs from a synthetic-distribution spec
* ``train``    fit one classifier on benign + known-attack flows
* ``pipeline`` run the full injection experiment and write its artifacts
* ``cox``      fit proportional hazards on an existing survival table
* ``km``       fit a Kaplan-Meier curve on an existing survival table

Every command is deterministic given its config and seed.  Failures exit
with a machine-readable JSON line on stderr and a deterministic exit
code: 2 input error, 3 numerical failure, 4 accuracy-gate failure.
``FLOWHAZARD_LOG`` selects log verbosity (error, info, debug).

Each command imports the modules it runs when it runs, so ``--help``
loads no numpy, ``dataclasses`` or ``logging``, and ``cox`` and ``km``
never load the classifiers, flow ingest, the pipeline config
(:mod:`flowhazard.config`) or ``numpy.random``.  This module loads
``logging`` only when ``FLOWHAZARD_LOG`` asks for info or debug.

The ``flowhazard`` entry point (:func:`entrypoint`) runs its one command
with the cycle collector off and freezes the collector's objects before
exit, so neither the imports nor interpreter shutdown walk them.
:func:`main` called as a library function leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
from typing import TYPE_CHECKING

from .errors import EXIT_OK, FlowHazardError, MissingInput, UnusablePath

if TYPE_CHECKING:  # annotations only
    from .config import PipelineConfig
    from .flowdata import FlowSchema

# the artifacts `pipeline` writes, and the default of the config's `emit`
EMIT_CHOICES = ("km", "cox", "json", "svg")


def _configure_logging() -> bool:
    """Send log records at the level ``FLOWHAZARD_LOG`` names to stderr,
    and say whether it named ``info`` or ``debug``.  At ``error``, the
    default, nothing is logged, so ``logging`` is not loaded."""
    level = os.environ.get("FLOWHAZARD_LOG", "error").strip().lower()
    if level not in ("info", "debug"):
        return False
    import logging

    logging.basicConfig(
        level=level.upper(),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    return True


def _fail(err: FlowHazardError, verbose: bool) -> int:
    """Print ``err`` as one JSON line on stderr and return its exit code;
    when ``verbose``, log the traceback being handled first (at debug)."""
    if verbose:
        import logging

        logging.getLogger("flowhazard").debug("command failed", exc_info=True)
    payload = {"error": err.kind, "message": str(err),
               "exit_code": err.exit_code}
    if hasattr(err, "achieved"):
        payload["achieved"] = err.achieved
        payload["required"] = err.required
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return err.exit_code


def _require_path(path: str) -> str:
    if not os.path.exists(path):
        raise MissingInput(f"input path does not exist: {path}")
    return path


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whatever the locale."""
    from .csvio import open_text

    with open_text(path, "w") as fh:
        fh.write(text)


def _dump_json(obj: dict, path: str) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read_roles(path: str, schema: FlowSchema, *labels: str):
    """One dataset per label of ``labels``, each cut by ``filter_label``
    from one parse of the CSV at ``path``; its EmptyInput names the file."""
    from .errors import EmptyInput
    from .flowdata import filter_label, parse_flow_csv

    ds = parse_flow_csv(path, schema)
    try:
        return [filter_label(ds, label) for label in labels]
    except EmptyInput as err:
        raise EmptyInput(f"{path}: {err}") from None


def _send_role(parent_end, conn, path: str, schema: FlowSchema,
               label: str) -> None:
    """Child-process body: :func:`_read_roles` sent over ``conn``, as the
    error it raised, or as the parse report and matrix shape followed by
    the feature matrix as raw bytes, written straight to the socket.

    The copy of the parent's end of the socket is closed first, so a
    send fails, and the child exits, once the parent is gone.  Ctrl-C
    reaches both processes: an interrupt while reading is sent back like
    an error, so the parent stops on an interrupt as it would alone, and
    later ones are ignored, so none cuts the reply short."""
    parent_end.close()
    try:
        (ds,) = _read_roles(path, schema, label)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (FlowHazardError, OSError, KeyboardInterrupt) as err:
        conn.send(err)
        return
    conn.send((ds.report, ds.features.shape))
    view = memoryview(ds.features).cast("B")
    while view:
        view = view[os.write(conn.fileno(), view):]


def _receive_role(conn, child, path: str, schema: FlowSchema, label: str):
    """What :func:`_send_role` sent over ``conn``, as the dataset of the
    rows labeled ``label``; an error it sent is raised here.  The matrix
    is read straight into the array it is returned in.  A reply cut short
    by the child's death raises :class:`UnusablePath`."""
    import numpy as np

    from .flowdata import FlowDataset

    def lost(when: str) -> UnusablePath:
        child.join()
        return UnusablePath(
            f"{path}: the process reading it exited with code "
            f"{child.exitcode} {when}"
        )

    try:
        reply = conn.recv()
    except (EOFError, OSError):
        raise lost("before it replied") from None
    if isinstance(reply, BaseException):
        raise reply
    report, shape = reply
    features = np.empty(shape)
    view = memoryview(features).cast("B")
    got = 0
    while got < view.nbytes:
        n = os.readv(conn.fileno(), [view[got:]])
        if n == 0:
            raise lost(f"after {got} of {view.nbytes} matrix bytes")
        got += n
    return FlowDataset(schema=schema, features=features,
                       labels=(label,) * shape[0], report=report)


def _load_role_datasets(cfg: PipelineConfig):
    """Benign and known-attack datasets per the config, and a function
    that returns the novel-attack dataset.

    When the inputs are CSV files, each file is parsed once, every role
    it is named for keeps its sanitization report, and the reports are
    written next to the other artifacts as sanitization.json when the
    returned function is called.  When the novel-attack CSV,
    the largest input, is named for no other role, a child process reads
    it while the caller trains on the other two; the returned function
    waits for it, and its errors are those of reading the file here.
    """
    from .flowdata import filter_label, synthesize_flows

    combo = cfg.experiment.combination
    if cfg.synthetic is not None:
        pool = synthesize_flows(
            cfg.synthetic, cfg.inputs.rows_per_class,
            seed=(cfg.experiment.master_seed, 104729),
        )
        benign = filter_label(pool, cfg.benign_label)
        pre_attack = filter_label(pool, combo.pre_attack)
        post = filter_label(pool, combo.post_attack)
        return benign, pre_attack, lambda: post

    inputs = cfg.inputs
    post_path = inputs.post_attack_csv
    roles = {"benign": (inputs.benign_csv, cfg.benign_label),
             "pre_attack": (inputs.pre_attack_csv, combo.pre_attack),
             "post_attack": (post_path, combo.post_attack)}
    # the roles named for each file, by its first path
    files: dict[str, list[str]] = {}
    for role, (path, _) in roles.items():
        first = next((p for p in files if os.path.samefile(p, path)), path)
        files.setdefault(first, []).append(role)
    child = None
    if files.get(post_path) == ["post_attack"]:
        import multiprocessing

        del files[post_path]
        # a socket pair: the matrix moves through it faster than through a pipe
        conn, child_end = multiprocessing.Pipe(duplex=True)
        child = multiprocessing.Process(
            target=_send_role, daemon=True,
            args=(conn, child_end, post_path, cfg.schema, combo.post_attack),
        )
        child.start()
        child_end.close()  # so a child that dies unheard reads as EOF here
    datasets = {}
    try:
        for path, named in files.items():
            datasets.update(zip(named, _read_roles(
                path, cfg.schema, *(roles[r][1] for r in named))))
    except BaseException:
        if child is not None:
            child.terminate()
            child.join()
            conn.close()
        raise

    def load_post():
        if child is not None:
            try:
                datasets["post_attack"] = _receive_role(
                    conn, child, post_path, cfg.schema, combo.post_attack)
            except BaseException:
                child.terminate()
                raise
            finally:
                child.join()
                conn.close()
        from dataclasses import asdict

        _dump_json({role: asdict(ds.report) for role, ds in datasets.items()},
                   os.path.join(cfg.output_dir, "sanitization.json"))
        return datasets["post_attack"]

    return datasets["benign"], datasets["pre_attack"], load_post


def cmd_synth(args) -> int:
    from .config import SyntheticInputs, load_synthetic_spec
    from .errors import InvalidSpec
    from .flowdata import filter_label, serialize_flow_csv, synthesize_flows

    spec = load_synthetic_spec(args.spec)
    # each class's file name, checked before anything is written
    slugs: dict[str, str] = {}
    for label in spec.classes:
        slug = "".join(
            ch.lower() if ch.isalnum() else "_" for ch in label
        ).strip("_")
        if not slug:
            raise InvalidSpec(f"class {label!r} has no letter or digit")
        if slug in slugs:
            raise InvalidSpec(f"classes {slugs[slug]!r} and {label!r} "
                              f"would both be written to {slug}.csv")
        slugs[slug] = label
    n = getattr(args, "n", SyntheticInputs.rows_per_class)
    dataset = synthesize_flows(spec, n, seed=args.seed)
    for slug, label in slugs.items():
        path = os.path.join(args.out, f"{slug}.csv")
        serialize_flow_csv(filter_label(dataset, label), path)
        print(path)
    return EXIT_OK


def cmd_train(args) -> int:
    from .config import load_pipeline_config
    from .experiment import train_on_split
    from .models import evaluate_accuracy, model_to_json_dict

    cfg = load_pipeline_config(args.config, args)
    exp = cfg.experiment
    benign, pre_attack, load_post = _load_role_datasets(cfg)
    try:
        split = train_on_split(exp, benign, pre_attack, iteration=0)
    finally:
        # the novel-attack pool is read only for its sanitization report;
        # an error reading it outranks one from training
        load_post()
    model, holdout_acc = split.model, split.accuracy
    train_acc = evaluate_accuracy(model, split.train)

    model_path = os.path.join(cfg.output_dir, "model.json")
    _dump_json({**model_to_json_dict(model),
                "train_report": {"n_rows": len(split.train),
                                 "train_accuracy": train_acc}},
               model_path)
    report = {
        "kind": exp.regressor.kind,
        "n_train": len(split.train),
        "n_holdout": len(split.holdout),
        "train_accuracy": train_acc,
        "holdout_accuracy": holdout_acc,
        "master_seed": exp.master_seed,
    }
    _dump_json(report, os.path.join(cfg.output_dir, "train_report.json"))
    print(
        f"trained {exp.regressor.kind}: train accuracy {train_acc:.4f}, "
        f"holdout accuracy {holdout_acc:.4f} -> {model_path}"
    )
    return EXIT_OK


def cmd_pipeline(args) -> int:
    import logging  # loaded with experiment

    from .config import load_pipeline_config
    from .experiment import (
        aggregate_cox_to_csv, report_to_json_dict, run_experiment,
    )
    from .survival import km_to_csv, write_survival_table
    from .svgplot import km_svg

    cfg = load_pipeline_config(args.config, args)
    benign, pre_attack, load_post = _load_role_datasets(cfg)
    logging.getLogger("flowhazard").info(
        "running experiment: %d iterations x %d sequences",
        cfg.experiment.n_iterations, cfg.experiment.n_sequences,
    )
    report = run_experiment(cfg.experiment, benign, pre_attack, load_post)

    _dump_json(
        report_to_json_dict(report),
        os.path.join(cfg.output_dir, "report.json"),
    )
    if "cox" in cfg.emit:
        aggregate_cox_to_csv(
            report, os.path.join(cfg.output_dir, "cox_table.csv")
        )
        for it in report.successes:
            write_survival_table(
                it.table,
                os.path.join(
                    cfg.output_dir, f"survival_iter{it.iteration:02d}.csv"
                ),
            )
    if "km" in cfg.emit:
        km_to_csv(report.pooled_km,
                  os.path.join(cfg.output_dir, "km_curve.csv"))
    if "svg" in cfg.emit:
        combo = cfg.experiment.combination
        title = (f"{combo.pre_attack} trained, {combo.post_attack} injected "
                 f"({cfg.experiment.regressor.kind})")
        _write_text(os.path.join(cfg.output_dir, "km.svg"),
                    km_svg(report.pooled_km, title=title))
    print(
        f"detection rate {report.detection_rate:.4f} over "
        f"{len(report.successes)}/{cfg.experiment.n_iterations} iterations; "
        f"{report.n_converged} converged fits; selected features: "
        f"{', '.join(report.selected_features) or '(none)'}"
    )
    return EXIT_OK


def cmd_cox(args) -> int:
    from .survival import (
        CoxOptions, cox_convergence_report, cox_fit, cox_to_csv,
        read_survival_table,
    )

    table = read_survival_table(_require_path(args.table))
    options = CoxOptions(**{k: getattr(args, k) for k in
                            ("ridge", "tol", "max_iter") if hasattr(args, k)})
    model = cox_fit(table, options)
    table_path = os.path.join(args.out, "cox_table.csv")
    cox_to_csv(model, table_path)
    _dump_json(
        cox_convergence_report(model),
        os.path.join(args.out, "cox_convergence.json"),
    )
    dropped = (f" constant, not fitted: {', '.join(model.dropped)}"
               if model.dropped else "")
    warned = "".join(f"; {w}" for w in model.warnings)
    print(
        f"fit {len(table.feature_names)} covariates on {len(table)} records: "
        f"converged={model.converged} iterations={model.iterations}"
        f"{dropped}{warned} -> {table_path}"
    )
    return EXIT_OK


def cmd_km(args) -> int:
    from .survival import km_fit, km_to_csv, read_survival_table
    from .svgplot import km_svg

    table = read_survival_table(_require_path(args.table))
    curve = km_fit(table)
    curve_path = os.path.join(args.out, "km_curve.csv")
    km_to_csv(curve, curve_path)
    if args.svg:
        _write_text(os.path.join(args.out, "km.svg"), km_svg(curve))
    print(
        f"{len(table)} records, {curve.n_event.sum()} events over "
        f"{(curve.n_event > 0).sum()} distinct times -> {curve_path}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowhazard",
        description=(
            "Survival analysis of novelty detection in network-flow "
            "classifiers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic flow CSVs per class")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    # an absent flag takes the SyntheticInputs default
    p.add_argument("--n", type=int, default=argparse.SUPPRESS,
                   help="rows per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_synth)

    for name, func, text in (
        ("train", cmd_train, "train one classifier on pre-novelty data"),
        ("pipeline", cmd_pipeline, "run the full injection experiment"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override master seed")
        p.set_defaults(func=func)
    p.add_argument(
        "--emit", default=None,
        help=f"comma-separated artifact flags: {','.join(EMIT_CHOICES)}",
    )

    p = sub.add_parser("cox", help="fit proportional hazards on a survival table")
    p.add_argument("--table", required=True, help="survival table CSV")
    # an absent flag takes the CoxOptions default
    p.add_argument("--ridge", type=float, default=argparse.SUPPRESS)
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_cox)

    p = sub.add_parser("km", help="fit a Kaplan-Meier curve on a survival table")
    p.add_argument("--table", required=True, help="survival table CSV")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--svg", action="store_true", help="also emit km.svg")
    p.set_defaults(func=cmd_km)

    return parser


def main(argv=None) -> int:
    verbose = _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlowHazardError as err:
        return _fail(err, verbose)
    except OSError as err:
        # an input that cannot be opened or an output that cannot be created
        # or written: a directory given as a file, the reverse, a full disk
        message = (str(err) if err.filename is None
                   else f"{err.filename}: {err.strerror}")
        return _fail(UnusablePath(message), verbose)


def entrypoint() -> None:
    # one command per process, and what it builds lives until exit: the
    # cycle collector would only walk objects that are never garbage
    gc.disable()
    code = main()
    gc.freeze()  # the collection at interpreter exit skips them too
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
