"""Novelty-injection experiment: stream sequences of unseen-attack flows
through a trained classifier until a score lands in the novelty band.

Each sequence plays the role of one subject: the first flow whose score
falls inside the closed band [band_low, band_high] is the event, at the
0-based flow index; a sequence with no in-band score is censored at the
sequence length.  Event covariates are the detected flow's absolute
distance from the pre-novelty feature means; censored sequences carry the
per-sequence mean of those distances (the model requires a covariate
vector for every record).

Sequences are rows of an index matrix into the post-novelty flows.  Each
iteration scores every distinct drawn flow once, gathers the scores into
an (n_sequences, seq_len) array and finds every sequence's first in-band
hit in one scan of that array; the outcome is the same as streaming each
sequence flow by flow.

Iterations retrain the classifier and resample sequences from RNG
streams derived as (master_seed, iteration, purpose), so a whole
experiment is reproducible bit for bit.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    AccuracyGateFailed,
    AllIterationsFailed,
    EmptyInput,
    FlowHazardError,
    InvalidValue,
    LengthMismatch,
    SchemaMismatch,
)
from .flowdata import (
    FeatureSummary,
    FlowDataset,
    abs_diff_covariates,
    binary_dataset,
    feature_summary,
    open_text,
    subset,
)
from .models import (
    RegressorKind,
    TrainedModel,
    evaluate_accuracy,
    predict_many,
    train,
)
from .seeding import rng_from
from .survival import (
    CoxModel,
    CoxOptions,
    KMCurve,
    SurvivalRecord,
    SurvivalTable,
    cox_fit,
    km_fit,
)

log = logging.getLogger("flowhazard.experiment")


@dataclass(frozen=True)
class AttackCombination:
    """Known attack used for training, novel attack used for injection."""

    pre_attack: str
    post_attack: str


@dataclass(frozen=True)
class SelectionRule:
    """A feature is consistently influential when |beta| clears
    ``min_abs_beta`` in at least ``min_fraction`` of converged fits."""

    min_abs_beta: float = 1e-3
    min_fraction: float = 0.8


@dataclass(frozen=True)
class ExperimentConfig:
    regressor: RegressorKind
    combination: AttackCombination
    band_low: float = 0.40
    band_high: float = 0.60
    seq_len: int = 100
    n_sequences: int = 500
    n_iterations: int = 10
    master_seed: int = 0
    cox_options: CoxOptions = CoxOptions(ridge=1e-3)
    accuracy_gate: float = 0.95
    holdout_fraction: float = 0.2
    selection: SelectionRule = SelectionRule()

    def __post_init__(self):
        # band_low may be -inf (detect-everything probe runs)
        if not self.band_low < self.band_high:
            raise ValueError("band_low must be strictly below band_high")
        if self.seq_len < 1 or self.n_sequences < 1 or self.n_iterations < 1:
            raise ValueError("seq_len, n_sequences, n_iterations must be >= 1")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")


@dataclass(frozen=True)
class SequenceResult:
    """Outcome of streaming one sequence through the classifier."""

    sequence_id: int
    survival: SurvivalRecord
    detected_flow_index: int | None
    score_trace: np.ndarray


@dataclass(frozen=True)
class IterationResult:
    iteration: int
    accuracy: float
    model: TrainedModel
    results: tuple[SequenceResult, ...]
    table: SurvivalTable  # the results' survival records, in columns
    km: KMCurve
    cox: CoxModel | None
    cox_error: str | None
    dropped_covariates: tuple[str, ...]
    beta_full: np.ndarray  # length F; dropped columns carry 0.0

    @property
    def n_events(self) -> int:
        return int(self.table.events.sum())


@dataclass(frozen=True)
class IterationFailure:
    iteration: int
    error_kind: str
    message: str


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    feature_names: tuple[str, ...]
    iterations: tuple[IterationResult | IterationFailure, ...]
    mean_beta: np.ndarray
    n_converged: int
    pooled_km: KMCurve
    detection_rate: float
    selected_features: tuple[str, ...]

    @property
    def successes(self) -> tuple[IterationResult, ...]:
        return tuple(
            it for it in self.iterations if isinstance(it, IterationResult)
        )


def _draw_indices(
    post: FlowDataset, n_sequences: int, seq_len: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_sequences, seq_len) row indices into ``post``, drawn uniformly
    with replacement."""
    if len(post) == 0:
        raise EmptyInput("post-novelty dataset is empty")
    return rng.integers(0, len(post), size=(n_sequences, seq_len))


def build_sequences(
    post: FlowDataset, n_sequences: int, seq_len: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_sequences, seq_len, F) flows drawn uniformly with replacement."""
    return post.features[_draw_indices(post, n_sequences, seq_len, rng)]


def _first_hits(scores: np.ndarray, low: float, high: float):
    """Per row of ``scores``: whether any score lies in the closed band
    [low, high], and the index of the first one that does (0 if none)."""
    in_band = (scores >= low) & (scores <= high)
    return in_band.any(axis=1), in_band.argmax(axis=1)


def run_sequence(
    model: TrainedModel,
    sequence: np.ndarray,
    band: tuple[float, float],
    pre_summary: FeatureSummary,
    sequence_id: int = 0,
) -> SequenceResult:
    """Score flows in order and stop at the first in-band score.

    The closed-interval band test uses raw, unclipped scores.  The score
    trace is truncated at the detection index, mirroring the sequential
    scan.
    """
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2:
        raise SchemaMismatch("sequence must be a (seq_len, F) matrix")
    scores = predict_many(model, sequence)
    hit, first = _first_hits(scores[None], *band)
    if hit[0]:
        i = int(first[0])
        record = SurvivalRecord(
            time=float(i),
            event=1,
            covariates=abs_diff_covariates(sequence[i], pre_summary),
        )
        return SequenceResult(sequence_id, record, i, scores[: i + 1])
    record = SurvivalRecord(
        time=float(sequence.shape[0]),
        event=0,
        covariates=np.abs(sequence - pre_summary.means).mean(axis=0),
    )
    return SequenceResult(sequence_id, record, None, scores)


def _scan_sequences(
    model: TrainedModel,
    post: FlowDataset,
    band: tuple[float, float],
    pre_summary: FeatureSummary,
    idx: np.ndarray,
) -> tuple[SurvivalTable, tuple[SequenceResult, ...]]:
    """:func:`run_sequence` for every row of the index matrix ``idx``,
    scoring each distinct drawn flow once.  Returns the survival records
    as one table and the per-sequence results whose records are its rows."""
    uniq, inv = np.unique(idx, return_inverse=True)
    scores = predict_many(model, post.features[uniq])[inv].reshape(idx.shape)
    hit, first = _first_hits(scores, *band)

    means = pre_summary.means
    covs = np.empty((idx.shape[0], post.features.shape[1]))
    covs[hit] = np.abs(post.features[idx[hit, first[hit]]] - means)
    covs[~hit] = np.abs(post.features[idx[~hit]] - means).mean(axis=1)

    table = SurvivalTable(
        np.where(hit, first, idx.shape[1]).astype(np.float64),
        hit.astype(np.int64),
        covs,
        post.schema.feature_names,
    )
    results = tuple(
        SequenceResult(i, table[i], int(first[i]), scores[i, : first[i] + 1])
        if hit[i]
        else SequenceResult(i, table[i], None, scores[i])
        for i in range(idx.shape[0])
    )
    return table, results


def _split_train_holdout(data: FlowDataset, fraction: float, rng):
    n = len(data)
    n_hold = max(1, int(round(fraction * n)))
    perm = rng.permutation(n)
    return subset(data, perm[n_hold:]), subset(data, perm[:n_hold])


@dataclass(frozen=True)
class TrainedSplit:
    """One iteration's classifier with the data it was trained and gated on."""

    pre: FlowDataset  # benign + known attack, before the split
    train: FlowDataset
    holdout: FlowDataset
    model: TrainedModel
    accuracy: float  # on the holdout


def train_on_split(
    config: ExperimentConfig,
    pre_benign: FlowDataset,
    pre_attack: FlowDataset,
    iteration: int = 0,
) -> TrainedSplit:
    """Label, split and train as iteration ``iteration`` of the protocol
    does, from the RNG streams (master_seed, iteration, 0..2)."""
    seed = config.master_seed
    pre = binary_dataset(pre_benign, pre_attack, seed=(seed, iteration, 0))
    train_ds, holdout = _split_train_holdout(
        pre, config.holdout_fraction, rng_from(seed, iteration, 1)
    )
    model = train(config.regressor, train_ds, seed=(seed, iteration, 2))
    return TrainedSplit(
        pre, train_ds, holdout, model, evaluate_accuracy(model, holdout)
    )


def run_iteration(
    config: ExperimentConfig,
    pre_benign: FlowDataset,
    pre_attack: FlowDataset,
    post: FlowDataset,
    iteration: int = 0,
) -> IterationResult:
    """Train, gate, inject, and fit one iteration of the protocol.

    Raises :class:`AccuracyGateFailed` when the holdout accuracy of the
    freshly trained model falls below the gate; Cox-fit failures are
    recorded on the result instead of raised so the Kaplan-Meier curve
    survives degenerate runs (e.g. zero events).
    """
    if post.schema != pre_benign.schema:
        raise SchemaMismatch(
            "post-novelty dataset does not share the pre-novelty schema"
        )
    split = train_on_split(config, pre_benign, pre_attack, iteration)
    model, accuracy = split.model, split.accuracy
    if accuracy < config.accuracy_gate:
        raise AccuracyGateFailed(accuracy, config.accuracy_gate)

    idx = _draw_indices(
        post, config.n_sequences, config.seq_len,
        rng_from(config.master_seed, iteration, 3),
    )
    table, results = _scan_sequences(
        model, post, (config.band_low, config.band_high),
        feature_summary(split.pre), idx,
    )
    km = km_fit(table)

    names = table.feature_names
    keep = np.flatnonzero(table.X.std(axis=0) > 0.0)
    dropped = tuple(names[j] for j in range(len(names)) if j not in set(keep))

    cox = None
    cox_error = None
    beta_full = np.zeros(len(names))
    if keep.size == 0:
        cox_error = "all covariate columns are constant"
    else:
        reduced = SurvivalTable(
            table.times, table.events, table.X[:, keep],
            tuple(names[j] for j in keep),
        )
        try:
            cox = cox_fit(reduced, config.cox_options)
            beta_full[keep] = cox.beta
        except FlowHazardError as err:
            cox_error = f"{err.kind}: {err}"

    result = IterationResult(
        iteration=iteration,
        accuracy=accuracy,
        model=model,
        results=results,
        table=table,
        km=km,
        cox=cox,
        cox_error=cox_error,
        dropped_covariates=dropped,
        beta_full=beta_full,
    )
    log.info(
        "iteration %d: holdout accuracy %.4f, %d/%d events, %s",
        iteration, accuracy, result.n_events, len(results),
        cox_error or f"cox converged={cox.converged} in {cox.iterations} steps",
    )
    return result


def run_experiment(
    config: ExperimentConfig,
    pre_benign: FlowDataset,
    pre_attack: FlowDataset,
    post: FlowDataset,
) -> ExperimentReport:
    """Repeat the iteration protocol and aggregate.

    ``mean_beta`` averages converged Cox fits only (the count is
    reported); the pooled curve refits Kaplan-Meier over every survival
    record from every successful iteration.  Raises
    :class:`AllIterationsFailed` when no iteration produced records.
    """
    outcomes: list[IterationResult | IterationFailure] = []
    errors: list[FlowHazardError] = []
    for it in range(config.n_iterations):
        try:
            outcomes.append(
                run_iteration(config, pre_benign, pre_attack, post, iteration=it)
            )
        except FlowHazardError as err:
            errors.append(err)
            outcomes.append(IterationFailure(it, err.kind, str(err)))

    successes = [o for o in outcomes if isinstance(o, IterationResult)]
    if not successes:
        if all(isinstance(e, AccuracyGateFailed) for e in errors):
            raise errors[0]  # surface the gate failure with its accuracy
        details = "; ".join(
            f"iteration {o.iteration}: {o.error_kind}" for o in outcomes[:5]
        )
        raise AllIterationsFailed(f"no iteration completed ({details})")

    names = post.schema.feature_names
    converged = [
        o.beta_full for o in successes if o.cox is not None and o.cox.converged
    ]
    mean_beta = (
        np.mean(converged, axis=0) if converged else np.zeros(len(names))
    )

    pooled = SurvivalTable(
        *(np.concatenate([getattr(o.table, col) for o in successes])
          for col in ("times", "events", "X")),
        tuple(names),
    )
    pooled_km = km_fit(pooled)
    detection_rate = int(pooled.events.sum()) / len(pooled)

    report = ExperimentReport(
        config=config,
        feature_names=tuple(names),
        iterations=tuple(outcomes),
        mean_beta=mean_beta,
        n_converged=len(converged),
        pooled_km=pooled_km,
        detection_rate=float(detection_rate),
        selected_features=(),
    )
    return replace(
        report, selected_features=select_features(report, config.selection)
    )


def select_features(
    report: ExperimentReport, rule: SelectionRule = SelectionRule()
) -> tuple[str, ...]:
    """Features whose |beta| clears the threshold in enough converged
    fits, ordered by |mean beta| descending."""
    betas = [
        o.beta_full
        for o in report.successes
        if o.cox is not None and o.cox.converged
    ]
    if not betas:
        return ()
    B = np.array(betas)
    frac_nonzero = np.mean(np.abs(B) >= rule.min_abs_beta, axis=0)
    mean_beta = B.mean(axis=0)
    picked = [
        j for j in range(B.shape[1]) if frac_nonzero[j] >= rule.min_fraction
    ]
    picked.sort(key=lambda j: (-abs(mean_beta[j]), j))
    return tuple(report.feature_names[j] for j in picked)


# ---------------------------------------------------------------------------
# external interfaces

_FIXED_COLUMNS = ("sequence_id", "time", "event")


def write_survival_table(results, feature_names, sink) -> None:
    """CSV of sequence outcomes: id, time, event, one column per covariate."""
    with open_text(sink, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_FIXED_COLUMNS) + list(feature_names))
        for res in results:
            rec = res.survival if isinstance(res, SequenceResult) else res
            seq_id = res.sequence_id if isinstance(res, SequenceResult) else ""
            writer.writerow(
                [seq_id, repr(float(rec.time)), rec.event]
                + [repr(float(v)) for v in rec.covariates]
            )


def read_survival_table(source):
    """Parse :func:`write_survival_table` output.

    Returns ``(table, feature_names)``: a :class:`SurvivalTable`, which
    iterates as :class:`SurvivalRecord` rows, and its covariate names.
    Blank lines are skipped, and data rows are numbered from 1 without
    them.  A missing fixed header column is named in the error; a row
    whose length differs from the header's, a cell that is not a number
    and an out-of-range value are reported with their data row and
    column.  The ``sequence_id`` column is not read.
    """
    with open_text(source) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise EmptyInput("empty survival table")
    header = [h.strip() for h in rows[0]]
    for i, required in enumerate(_FIXED_COLUMNS):
        if i >= len(header) or header[i].casefold() != required:
            raise SchemaMismatch(
                f"survival table column {i} must be {required!r}, "
                f"got {header[i] if i < len(header) else 'nothing'!r}"
            )
    feature_names = tuple(header[len(_FIXED_COLUMNS):])
    body = [row for row in rows[1:] if any(c.strip() for c in row)]
    if not body:
        raise EmptyInput("survival table has no data rows")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise LengthMismatch(
                f"data row {i + 1} has {len(row)} cells, the header has "
                f"{len(header)}"
            )
    cells = [row[1:] for row in body]
    try:
        data = np.array(cells, dtype=np.float64)
    except ValueError:
        for i, row in enumerate(cells):
            for name, cell in zip(header[1:], row):
                try:
                    float(cell)
                except ValueError:
                    raise InvalidValue(
                        f"data row {i + 1}, column {name!r}: not a number, "
                        f"got {cell!r}"
                    ) from None
        raise
    table = SurvivalTable(data[:, 0], data[:, 1], data[:, 2:], feature_names)
    return table, feature_names


def aggregate_cox_to_csv(report: ExperimentReport, sink) -> None:
    """Mean-coefficient table: feature, mean beta, hazard ratio, how often
    the coefficient was non-negligible, and whether it was selected."""
    with open_text(sink, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["feature", "mean_beta", "hazard_ratio", "nonzero_fraction",
             "selected"]
        )
        betas = [
            o.beta_full
            for o in report.successes
            if o.cox is not None and o.cox.converged
        ]
        frac = (
            np.mean(
                np.abs(np.array(betas)) >= report.config.selection.min_abs_beta,
                axis=0,
            )
            if betas
            else np.zeros(len(report.feature_names))
        )
        chosen = set(report.selected_features)
        for j, name in enumerate(report.feature_names):
            writer.writerow([
                name,
                repr(float(report.mean_beta[j])),
                repr(float(np.exp(report.mean_beta[j]))),
                repr(float(frac[j])),
                int(name in chosen),
            ])


def aggregate_cox_from_csv(source) -> dict:
    with open_text(source) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise EmptyInput("empty aggregate Cox CSV")
    return {
        "feature": tuple(r["feature"] for r in rows),
        "mean_beta": np.array([float(r["mean_beta"]) for r in rows]),
        "hazard_ratio": np.array([float(r["hazard_ratio"]) for r in rows]),
        "nonzero_fraction": np.array(
            [float(r["nonzero_fraction"]) for r in rows]
        ),
        "selected": np.array([int(r["selected"]) for r in rows]),
    }


def report_to_json_dict(report: ExperimentReport) -> dict:
    """Plain-type dict for deterministic JSON serialization."""
    cfg = report.config
    iterations = []
    for o in report.iterations:
        if isinstance(o, IterationFailure):
            iterations.append({
                "iteration": o.iteration,
                "failed": True,
                "error_kind": o.error_kind,
                "message": o.message,
            })
            continue
        entry = {
            "iteration": o.iteration,
            "failed": False,
            "holdout_accuracy": float(o.accuracy),
            "n_events": int(o.n_events),
            "dropped_covariates": list(o.dropped_covariates),
            "beta": [float(b) for b in o.beta_full],
            "cox_error": o.cox_error,
        }
        if o.cox is not None:
            entry["cox"] = {
                "converged": o.cox.converged,
                "iterations": o.cox.iterations,
                "final_grad_norm": float(o.cox.final_grad_norm),
                "penalty": float(o.cox.penalty),
                "log_partial_likelihood": float(o.cox.log_partial_likelihood),
                "warnings": list(o.cox.warnings),
            }
        iterations.append(entry)
    return {
        "config": {
            "regressor": {"kind": cfg.regressor.kind,
                          **asdict(cfg.regressor)},
            "combination": {
                "pre_attack": cfg.combination.pre_attack,
                "post_attack": cfg.combination.post_attack,
            },
            "band": [cfg.band_low, cfg.band_high],
            "seq_len": cfg.seq_len,
            "n_sequences": cfg.n_sequences,
            "n_iterations": cfg.n_iterations,
            "master_seed": cfg.master_seed,
            "cox": {
                "ridge": cfg.cox_options.ridge,
                "tol": cfg.cox_options.tol,
                "max_iter": cfg.cox_options.max_iter,
            },
            "accuracy_gate": cfg.accuracy_gate,
            "holdout_fraction": cfg.holdout_fraction,
            "selection": {
                "min_abs_beta": cfg.selection.min_abs_beta,
                "min_fraction": cfg.selection.min_fraction,
            },
        },
        "feature_names": list(report.feature_names),
        "iterations": iterations,
        "mean_beta": [float(b) for b in report.mean_beta],
        "n_converged_fits": report.n_converged,
        "detection_rate": report.detection_rate,
        "selected_features": list(report.selected_features),
    }
