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
loads no numpy and ``cox`` and ``km`` never load the classifiers, flow
ingest or ``numpy.random``.

The ``flowhazard`` entry point (:func:`entrypoint`) runs its one command
with the cycle collector off and freezes the collector's objects before
exit, so neither the imports nor interpreter shutdown walk them.
:func:`main` called as a library function leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import signal
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    EXIT_OK,
    FlowHazardError,
    InvalidSpec,
    MissingInput,
    UnusablePath,
)

if TYPE_CHECKING:  # annotations only
    from .experiment import ExperimentConfig
    from .flowdata import FlowSchema

log = logging.getLogger("flowhazard")

_EMIT_CHOICES = ("km", "cox", "json", "svg")
_CSV_INPUTS = ("benign_csv", "pre_attack_csv", "post_attack_csv")
_CONFIG_KEYS = ("inputs", "schema", "experiment", "output_dir", "emit",
                "benign_label")


def _configure_logging():
    level = os.environ.get("FLOWHAZARD_LOG", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _fail(err: FlowHazardError) -> int:
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


def _load_json(path: str) -> dict:
    """The JSON object in the file at ``path``."""
    with open(_require_path(path)) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise InvalidSpec(f"{path}: not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec(
            f"{path}: expected a JSON object, got {type(doc).__name__}"
        )
    return doc


def _dump_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed pipeline config: schema, inputs, experiment, emit flags."""

    schema: FlowSchema
    experiment: ExperimentConfig
    output_dir: str
    emit: frozenset
    benign_label: str
    csv_inputs: dict | None  # benign_csv / pre_attack_csv / post_attack_csv
    synthetic: dict | None   # spec (SyntheticSpec) + rows_per_class


def _text(doc: dict, key: str, default=None) -> str:
    """``doc[key]``, which must be a string."""
    raw = doc.get(key, default)
    if not isinstance(raw, str):
        raise InvalidSpec(f"{key!r} must be a string, got {raw!r}")
    return raw


def _texts(doc: dict, key: str, default=None) -> list:
    """``doc[key]``, which must be a list of strings."""
    raw = doc.get(key, default)
    if not (isinstance(raw, list) and all(isinstance(v, str) for v in raw)):
        raise InvalidSpec(f"{key!r} must be a list of strings, got {raw!r}")
    return raw


def _schema_from_config(doc: dict, synthetic_spec) -> FlowSchema:
    from .experiment import _section
    from .flowdata import FlowSchema, cicids2017_schema

    if doc.get("schema") is None:
        if synthetic_spec is not None:
            return synthetic_spec.schema
        return cicids2017_schema()
    raw = _section(doc["schema"], "schema",
                   ("preset", "features", "label_column"))
    if "preset" in raw:
        if raw["preset"] != "cicids2017":
            raise InvalidSpec(f"unknown schema preset {raw['preset']!r}")
        return cicids2017_schema()
    return FlowSchema(
        tuple(_texts(raw, "features")),
        label_column=_text(raw, "label_column", "Label"),
    )


def load_pipeline_config(path: str, args) -> PipelineConfig:
    from .experiment import ExperimentConfig, _section
    from .flowdata import SyntheticSpec

    doc = _section(_load_json(path), path, _CONFIG_KEYS)
    # paths inside the config resolve relative to the config file itself;
    # the --out flag stays relative to the working directory
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return os.path.join(base, p) if not os.path.isabs(p) else p

    inputs = _section(doc.get("inputs", {}), "inputs",
                      ("synthetic_spec", "rows_per_class", *_CSV_INPUTS))
    synthetic = None
    csv_inputs = None
    spec = None
    if "synthetic_spec" in inputs:
        spec_doc = _load_json(resolve(_text(inputs, "synthetic_spec")))
        spec = SyntheticSpec.from_json_dict(spec_doc)
        rows = inputs.get("rows_per_class", 1000)
        if isinstance(rows, bool) or not isinstance(rows, int):
            raise InvalidSpec(
                f"'rows_per_class' must be an integer, got {rows!r}"
            )
        synthetic = {"spec": spec, "rows_per_class": rows}
    else:
        missing = [k for k in _CSV_INPUTS if k not in inputs]
        if missing:
            raise InvalidSpec(
                f"inputs must name either synthetic_spec or CSV paths; "
                f"missing {missing}"
            )
        csv_inputs = {
            k: _require_path(resolve(_text(inputs, k))) for k in _CSV_INPUTS
        }

    experiment = ExperimentConfig.from_json_dict(
        doc.get("experiment"), getattr(args, "seed", None)
    )

    emit = _texts(doc, "emit", list(_EMIT_CHOICES))
    if getattr(args, "emit", None):
        emit = [e.strip() for e in args.emit.split(",") if e.strip()]
    bad = set(emit) - set(_EMIT_CHOICES)
    if bad:
        raise InvalidSpec(f"unknown emit flags {sorted(bad)}")

    output_dir = getattr(args, "out", None) or resolve(
        _text(doc, "output_dir", ".")
    )
    return PipelineConfig(
        schema=_schema_from_config(doc, spec),
        experiment=experiment,
        output_dir=output_dir,
        emit=frozenset(emit),
        benign_label=_text(doc, "benign_label", "BENIGN"),
        csv_inputs=csv_inputs,
        synthetic=synthetic,
    )


def _read_role(path: str, schema: FlowSchema, label: str):
    """The dataset in the CSV at ``path``, cut to the rows labeled
    ``label`` when it holds more than one label, and the sanitization
    report of its parse."""
    from .flowdata import filter_label, parse_flow_csv

    ds = parse_flow_csv(path, schema)
    report = ds.report.to_json_dict()
    if len(set(ds.labels)) > 1:
        ds = filter_label(ds, label)
    return ds, report


def _send_role(parent_end, conn, path: str, schema: FlowSchema,
               label: str) -> None:
    """Child-process body: :func:`_read_role` sent over ``conn``, as the
    error it raised, or as the labels, parse report, sanitization report
    and matrix shape followed by the feature matrix as raw bytes, written
    straight to the socket.

    The copy of the parent's end of the socket is closed first, so a
    send fails, and the child exits, once the parent is gone.  Ctrl-C
    reaches both processes: an interrupt while reading is sent back like
    an error, so the parent stops on an interrupt as it would alone, and
    later ones are ignored, so none cuts the reply short."""
    parent_end.close()
    try:
        ds, report = _read_role(path, schema, label)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (FlowHazardError, OSError, KeyboardInterrupt) as err:
        conn.send(err)
        return
    conn.send((ds.labels, ds.report, report, ds.features.shape))
    view = memoryview(ds.features).cast("B")
    while view:
        view = view[os.write(conn.fileno(), view):]


def _receive_role(conn, child, path: str, schema: FlowSchema):
    """What :func:`_send_role` sent over ``conn``, as :func:`_read_role`
    returns it; an error it sent is raised here.  The matrix is read
    straight into the array it is returned in.  A reply cut short by the
    child's death raises :class:`UnusablePath`."""
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
    labels, parse_report, report, shape = reply
    features = np.empty(shape)
    view = memoryview(features).cast("B")
    got = 0
    while got < view.nbytes:
        n = os.readv(conn.fileno(), [view[got:]])
        if n == 0:
            raise lost(f"after {got} of {view.nbytes} matrix bytes")
        got += n
    ds = FlowDataset(schema=schema, features=features, labels=labels,
                     report=parse_report)
    return ds, report


def _load_role_datasets(cfg: PipelineConfig):
    """Benign and known-attack datasets per the config, and a function
    that returns the novel-attack dataset.

    When the inputs are CSV files, a child process reads the novel-attack
    CSV, the largest input, while the caller trains on the other two;
    calling the returned function waits for it and writes a per-role
    sanitization report next to the other artifacts as
    sanitization.json.  Its errors are those of reading the file here.
    """
    from .flowdata import filter_label, synthesize_flows

    combo = cfg.experiment.combination
    if cfg.synthetic is not None:
        spec = cfg.synthetic["spec"]
        pool = synthesize_flows(
            spec, cfg.synthetic["rows_per_class"],
            seed=(cfg.experiment.master_seed, 104729),
        )
        benign = filter_label(pool, cfg.benign_label)
        pre_attack = filter_label(pool, combo.pre_attack)
        post = filter_label(pool, combo.post_attack)
        return benign, pre_attack, lambda: post

    import multiprocessing

    post_path = cfg.csv_inputs["post_attack_csv"]
    # a socket pair: the matrix moves through it faster than through a pipe
    conn, child_end = multiprocessing.Pipe(duplex=True)
    child = multiprocessing.Process(
        target=_send_role, daemon=True,
        args=(conn, child_end, post_path, cfg.schema, combo.post_attack),
    )
    child.start()
    child_end.close()  # so a child that dies unheard reads as EOF here
    reports = {}
    try:
        benign, reports["benign"] = _read_role(
            cfg.csv_inputs["benign_csv"], cfg.schema, cfg.benign_label
        )
        pre_attack, reports["pre_attack"] = _read_role(
            cfg.csv_inputs["pre_attack_csv"], cfg.schema, combo.pre_attack
        )
    except BaseException:
        child.terminate()
        child.join()
        conn.close()
        raise

    def load_post():
        try:
            post, reports["post_attack"] = _receive_role(
                conn, child, post_path, cfg.schema
            )
        except BaseException:
            child.terminate()
            raise
        finally:
            child.join()
            conn.close()
        os.makedirs(cfg.output_dir, exist_ok=True)
        _dump_json(reports, os.path.join(cfg.output_dir, "sanitization.json"))
        return post

    return benign, pre_attack, load_post


def cmd_synth(args) -> int:
    from .flowdata import (
        SyntheticSpec, filter_label, serialize_flow_csv, synthesize_flows,
    )

    spec = SyntheticSpec.from_json_dict(_load_json(args.spec))
    dataset = synthesize_flows(spec, args.n, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    written = []
    for label in spec.classes:
        part = filter_label(dataset, label)
        slug = "".join(
            ch.lower() if ch.isalnum() else "_" for ch in label
        ).strip("_")
        path = os.path.join(args.out, f"{slug}.csv")
        serialize_flow_csv(part, path)
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_train(args) -> int:
    from .experiment import train_on_split
    from .models import TrainReport, evaluate_accuracy, model_to_json

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

    os.makedirs(cfg.output_dir, exist_ok=True)
    model_path = os.path.join(cfg.output_dir, "model.json")
    with open(model_path, "w") as fh:
        fh.write(model_to_json(model, TrainReport(len(split.train), train_acc)))
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
    from .experiment import (
        aggregate_cox_to_csv, report_to_json_dict, run_experiment,
    )
    from .survival import km_to_csv, write_survival_table
    from .svgplot import km_svg

    cfg = load_pipeline_config(args.config, args)
    benign, pre_attack, load_post = _load_role_datasets(cfg)
    log.info(
        "running experiment: %d iterations x %d sequences",
        cfg.experiment.n_iterations, cfg.experiment.n_sequences,
    )
    report = run_experiment(cfg.experiment, benign, pre_attack, load_post)

    os.makedirs(cfg.output_dir, exist_ok=True)
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
        with open(os.path.join(cfg.output_dir, "km.svg"), "w") as fh:
            fh.write(km_svg(report.pooled_km, title=title))
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
    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "cox_table.csv")
    cox_to_csv(model, table_path)
    _dump_json(
        cox_convergence_report(model),
        os.path.join(args.out, "cox_convergence.json"),
    )
    print(
        f"fit {len(table.feature_names)} covariates on {len(table)} records: "
        f"converged={model.converged} iterations={model.iterations} "
        f"-> {table_path}"
    )
    return EXIT_OK


def cmd_km(args) -> int:
    from .survival import km_fit, km_to_csv, read_survival_table
    from .svgplot import km_svg

    table = read_survival_table(_require_path(args.table))
    curve = km_fit(table)
    os.makedirs(args.out, exist_ok=True)
    curve_path = os.path.join(args.out, "km_curve.csv")
    km_to_csv(curve, curve_path)
    if args.svg:
        with open(os.path.join(args.out, "km.svg"), "w") as fh:
            fh.write(km_svg(curve))
    n_events = int(curve.n_event.sum()) if curve.times.size else 0
    print(
        f"{curve.n_total} records, {n_events} events over "
        f"{curve.times.size} distinct times -> {curve_path}"
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
    p.add_argument("--n", type=int, default=1000, help="rows per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one classifier on pre-novelty data")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("pipeline", help="run the full injection experiment")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument(
        "--emit", default=None,
        help="comma-separated artifact flags: km,cox,json,svg",
    )
    p.set_defaults(func=cmd_pipeline)

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
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlowHazardError as err:
        log.debug("command failed", exc_info=True)
        return _fail(err)
    except OSError as err:
        # an input that cannot be opened or an output that cannot be
        # created, such as a directory given as a file or the reverse
        if err.filename is None:
            raise
        log.debug("command failed", exc_info=True)
        return _fail(UnusablePath(f"{err.filename}: {err.strerror}"))


def entrypoint() -> None:
    # one command per process, and what it builds lives until exit: the
    # cycle collector would only walk objects that are never garbage
    gc.disable()
    code = main()
    gc.freeze()  # the collection at interpreter exit skips them too
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
