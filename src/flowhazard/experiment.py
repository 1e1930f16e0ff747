"""Novelty-injection experiment: stream sequences of unseen-attack flows
through a trained classifier until a score lands in the novelty band.

Each sequence plays the role of one subject: the first flow whose score
falls inside the closed band [band_low, band_high] is the event, at the
0-based flow index; a sequence with no in-band score is censored at the
sequence length.  Event covariates are the detected flow's absolute
distance from the pre-novelty feature means; censored sequences carry the
per-sequence mean of those distances, or exactly the distance that all
its flows share (the model requires a covariate vector for every
record).  :func:`run_iteration` hands the whole table to
:func:`flowhazard.survival.cox_fit`, which leaves the constant columns
unfitted with beta 0; the iteration names them in ``dropped_covariates``.

Sequences are rows of an index matrix into the post-novelty flows.  Each
iteration scores every distinct drawn flow once and gathers the scores
into an (n_sequences, seq_len) array; ``_scan_scores`` takes that array
and finds every sequence's first in-band hit and covariates in one pass,
with the same outcome as streaming each sequence flow by flow.  The
outcomes stay in one :class:`SurvivalTable`, row i for sequence i, from
the scan through the Kaplan-Meier and Cox fits;
:func:`flowhazard.survival.write_survival_table` writes it as
``survival_iterNN.csv``.  :func:`run_sequence` scores one sequence and
calls the same scan on one row.

Iterations retrain the classifier and resample sequences from RNG
streams derived as (master_seed, iteration, purpose), so a whole
experiment is reproducible bit for bit.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .csvio import write_table
from .errors import (
    AccuracyGateFailed,
    AllIterationsFailed,
    EmptyInput,
    FlowHazardError,
    InvalidSpec,
    InvalidValue,
    LengthMismatch,
    SchemaMismatch,
    check_fields,
    read_config,
)
from .flowdata import (
    FlowDataset,
    binary_dataset,
    feature_summary,
    subset,
)
from .models import (
    RegressorKind,
    TrainedModel,
    evaluate_accuracy,
    predict_many,
    regressor_from_dict,
    train,
)
from .seeding import rng_from
from .survival import (
    CoxModel,
    CoxOptions,
    KMCurve,
    SurvivalRecord,
    SurvivalTable,
    constant_columns,
    cox_convergence_report,
    cox_fit,
    km_fit,
)
# benchmarks/tracer.py TARGETS wraps these here until ROADMAP item 2
from .survival import read_survival_table, write_survival_table

log = logging.getLogger("flowhazard.experiment")


@dataclass(frozen=True)
class AttackCombination:
    """Known attack used for training, novel attack used for injection."""

    pre_attack: str
    post_attack: str

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SelectionRule:
    """A feature is consistently influential when |beta| clears
    ``min_abs_beta`` in at least ``min_fraction`` of converged fits."""

    min_abs_beta: float = 1e-3
    min_fraction: float = 0.8

    def __post_init__(self):
        check_fields(self)
        if self.min_abs_beta < 0:
            raise InvalidValue("min_abs_beta must be >= 0")
        if not 0 <= self.min_fraction <= 1:
            raise InvalidValue("min_fraction must be in [0, 1]")


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
        check_fields(self)
        # band_low may be -inf (detect-everything probe runs)
        if not self.band_low < self.band_high:
            raise InvalidValue("band_low must be strictly below band_high")
        if self.seq_len < 1 or self.n_sequences < 1 or self.n_iterations < 1:
            raise InvalidValue(
                "seq_len, n_sequences, n_iterations must be >= 1"
            )
        if not 0.0 < self.holdout_fraction < 1.0:
            raise InvalidValue("holdout_fraction must be in (0, 1)")
        if self.master_seed < 0:
            raise InvalidValue("master_seed must be >= 0")

    @classmethod
    def from_json_dict(cls, raw, seed: int | None = None) -> ExperimentConfig:
        """The config of an ``experiment`` section, the inverse of
        :meth:`to_json_dict`; ``seed``, when given, overrides
        ``master_seed``.  An absent key takes the field's default.  An
        unknown key, a bad value and an infinite ``band`` high end raise
        :class:`InvalidSpec` naming the key."""
        def sections(exp: dict) -> dict:
            band = exp.pop("band", [cls.band_low, cls.band_high])
            if not (isinstance(band, list) and len(band) == 2):
                raise InvalidSpec(
                    f"band must be a list of two numbers, got {band!r}"
                )
            if seed is not None:
                exp["master_seed"] = seed
            given = {}
            # an absent section is left to read_config, which names it
            if "regressor" in exp:
                given["regressor"] = regressor_from_dict(exp.pop("regressor"))
            if "combination" in exp:
                given["combination"] = read_config(
                    exp.pop("combination"), AttackCombination, "combination"
                )
            return {
                **given,
                "band_low": band[0], "band_high": band[1],
                "cox_options": read_config(exp.pop("cox", {}),
                                           cls.cox_options, "cox"),
                "selection": read_config(exp.pop("selection", {}),
                                         cls.selection, "selection"),
            }

        config = read_config(raw, cls, "experiment", sections,
                             renamed=("band", "cox"))
        if config.band_high == math.inf:
            raise InvalidSpec(
                f"band needs a finite high end, got {raw['band']!r}"
            )
        return config

    def to_json_dict(self) -> dict:
        """The ``experiment`` section that reads back as this config."""
        doc = asdict(self)
        doc["regressor"] = {"kind": self.regressor.kind, **doc["regressor"]}
        doc["band"] = [doc.pop("band_low"), doc.pop("band_high")]
        doc["cox"] = doc.pop("cox_options")
        return doc


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
    table: SurvivalTable  # one row per sequence, row i = sequence i
    cox: CoxModel | None
    cox_error: str | None
    dropped_covariates: tuple[str, ...]  # the constant columns

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
    betas: np.ndarray  # (n_converged, F): beta of each converged fit
    pooled_km: KMCurve
    detection_rate: float

    @property
    def successes(self) -> tuple[IterationResult, ...]:
        return tuple(
            it for it in self.iterations if isinstance(it, IterationResult)
        )

    @property
    def n_converged(self) -> int:
        return len(self.betas)

    @cached_property
    def mean_beta(self) -> np.ndarray:
        """Per feature, the mean beta of the converged fits (0 if none)."""
        return self.betas.sum(axis=0) / max(self.n_converged, 1)

    @cached_property
    def selected_features(self) -> tuple[str, ...]:
        return select_features(self, self.config.selection)

    def nonzero_fraction(self, min_abs_beta: float) -> np.ndarray:
        """Per feature, the share of converged fits whose |beta| is at
        least ``min_abs_beta`` (0 if none converged)."""
        hits = np.count_nonzero(np.abs(self.betas) >= min_abs_beta, axis=0)
        return hits / max(self.n_converged, 1)


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


def _scan_scores(
    scores: np.ndarray, flows: np.ndarray, idx: np.ndarray,
    band: tuple[float, float], pre_means: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first-hit scan of the (n, L) ``scores`` of the flows
    ``flows[idx]``: per row, the times, events and covariates of its
    survival record.

    The event is the first score in the closed band [low, high], at its
    0-based index, and carries that flow's |x - pre_means|; a row with no
    in-band score is censored at L and carries the mean of |x - pre_means|
    over its flows, or exactly their value where they all share one.
    """
    low, high = band
    in_band = (scores >= low) & (scores <= high)
    hit, first = in_band.any(axis=1), in_band.argmax(axis=1)

    covs = np.empty((idx.shape[0], flows.shape[1]))
    covs[hit] = np.abs(flows[idx[hit, first[hit]]] - pre_means)
    # |x - pre_means| of every flow of every censored row, in place on the
    # gathered copy; a value shared by all of a row's flows is kept exactly
    censored = flows[idx[~hit]]
    censored -= pre_means
    dist = np.abs(censored, out=censored)
    same = dist.min(axis=1) == dist.max(axis=1)
    covs[~hit] = np.where(same, dist[:, 0], dist.mean(axis=1))
    times = np.where(hit, first, idx.shape[1]).astype(np.float64)
    return times, hit.astype(np.int64), covs


def run_sequence(
    model: TrainedModel,
    sequence: np.ndarray,
    band: tuple[float, float],
    pre_means: np.ndarray,
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
    if np.shape(pre_means) != sequence.shape[1:]:
        raise LengthMismatch("pre_means must hold one mean per feature")
    scores = predict_many(model, sequence)
    times, events, covs = _scan_scores(
        scores[None], sequence, np.arange(len(sequence))[None], band,
        pre_means,
    )
    record = SurvivalRecord(float(times[0]), int(events[0]), covs[0])
    if record.event:
        i = int(record.time)
        return SequenceResult(sequence_id, record, i, scores[: i + 1])
    return SequenceResult(sequence_id, record, None, scores)


def _scan_sequences(
    model: TrainedModel,
    post: FlowDataset,
    band: tuple[float, float],
    pre_means: np.ndarray,
    idx: np.ndarray,
) -> SurvivalTable:
    """Score each distinct flow drawn in the index matrix ``idx`` once
    and scan the scores.  Row i of the returned table is the survival
    record of sequence i."""
    uniq, inv = np.unique(idx, return_inverse=True)
    scores = predict_many(model, post.features[uniq])[inv].reshape(idx.shape)
    return SurvivalTable(
        *_scan_scores(scores, post.features, idx, band, pre_means),
        post.schema.feature_names,
    )


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
    split: TrainedSplit,
    post: FlowDataset,
    iteration: int = 0,
) -> IterationResult:
    """Gate, inject, and fit one iteration of the protocol on the
    classifier that :func:`train_on_split` trained for it.

    Raises :class:`AccuracyGateFailed` when the holdout accuracy of the
    freshly trained model falls below the gate; Cox-fit failures are
    recorded on the result instead of raised so the iteration's table
    still joins the pooled Kaplan-Meier curve in degenerate runs (e.g.
    zero events).
    """
    if post.schema != split.pre.schema:
        raise SchemaMismatch(
            "post-novelty dataset does not share the pre-novelty schema"
        )
    model, accuracy = split.model, split.accuracy
    if accuracy < config.accuracy_gate:
        raise AccuracyGateFailed(accuracy, config.accuracy_gate)

    idx = _draw_indices(
        post, config.n_sequences, config.seq_len,
        rng_from(config.master_seed, iteration, 3),
    )
    table = _scan_sequences(
        model, post, (config.band_low, config.band_high),
        feature_summary(split.pre), idx,
    )
    constant = constant_columns(table.X)
    dropped = tuple(table.feature_names[j] for j in np.flatnonzero(constant))

    cox = None
    cox_error = None
    if constant.all():
        cox_error = "all covariate columns are constant"
    else:
        try:
            cox = cox_fit(table, config.cox_options)
        except FlowHazardError as err:
            cox_error = f"{err.kind}: {err}"

    result = IterationResult(
        iteration=iteration,
        accuracy=accuracy,
        model=model,
        table=table,
        cox=cox,
        cox_error=cox_error,
        dropped_covariates=dropped,
    )
    log.info(
        "iteration %d: holdout accuracy %.4f, %d/%d events, %s",
        iteration, accuracy, result.n_events, len(table),
        cox_error or f"cox converged={cox.converged} in {cox.iterations} steps",
    )
    return result


def run_experiment(
    config: ExperimentConfig,
    pre_benign: FlowDataset,
    pre_attack: FlowDataset,
    load_post: Callable[[], FlowDataset],
) -> ExperimentReport:
    """Repeat the iteration protocol and aggregate.

    ``load_post`` returns the post-novelty dataset.  It is called once,
    when iteration 0's training has ended, so the pool can be read while
    the first classifier trains; an error it raises ends the run.

    ``mean_beta`` averages converged Cox fits only (the count is
    reported); the pooled curve refits Kaplan-Meier over every survival
    record from every successful iteration.  Raises
    :class:`AllIterationsFailed`, with the first failure's message, when
    no iteration produced records.
    """
    outcomes: list[IterationResult | IterationFailure] = []
    errors: list[FlowHazardError] = []
    post = None
    for it in range(config.n_iterations):
        try:
            split = train_on_split(config, pre_benign, pre_attack, it)
        except FlowHazardError as err:
            split = err
        finally:
            if post is None:
                post = load_post()
        try:
            if isinstance(split, FlowHazardError):
                raise split
            outcomes.append(run_iteration(config, split, post, iteration=it))
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
        raise AllIterationsFailed(f"no iteration completed ({details}); "
                                  f"first failure: {outcomes[0].message}")

    names = post.schema.feature_names
    pooled = SurvivalTable(
        *(np.concatenate([getattr(o.table, col) for o in successes])
          for col in ("times", "events", "X")),
        tuple(names),
    )
    pooled_km = km_fit(pooled)
    detection_rate = int(pooled.events.sum()) / len(pooled)

    converged = [o.cox.beta for o in successes
                 if o.cox is not None and o.cox.converged]
    return ExperimentReport(
        config=config,
        feature_names=tuple(names),
        iterations=tuple(outcomes),
        betas=np.array(converged).reshape(len(converged), len(names)),
        pooled_km=pooled_km,
        detection_rate=float(detection_rate),
    )


def select_features(
    report: ExperimentReport, rule: SelectionRule = SelectionRule()
) -> tuple[str, ...]:
    """Features whose |beta| clears the threshold in enough converged
    fits, ordered by |mean beta| descending."""
    if not report.n_converged:
        return ()
    frac = report.nonzero_fraction(rule.min_abs_beta)
    picked = np.flatnonzero(frac >= rule.min_fraction).tolist()
    picked.sort(key=lambda j: (-abs(report.mean_beta[j]), j))
    return tuple(report.feature_names[j] for j in picked)


# ---------------------------------------------------------------------------
# external interfaces

def aggregate_cox_to_csv(report: ExperimentReport, sink) -> None:
    """Mean-coefficient table: feature, mean beta, hazard ratio, how often
    the coefficient was non-negligible, and whether it was selected."""
    chosen = set(report.selected_features)
    with np.errstate(over="ignore"):  # past float range the ratio is inf
        ratios = [float(np.exp(b)) for b in report.mean_beta]
    write_table(sink, ["feature", "mean_beta", "hazard_ratio",
                       "nonzero_fraction", "selected"],
                [report.feature_names, report.mean_beta, ratios,
                 report.nonzero_fraction(report.config.selection.min_abs_beta),
                 [int(name in chosen) for name in report.feature_names]])


def report_to_json_dict(report: ExperimentReport) -> dict:
    """Plain-type dict for deterministic JSON serialization."""
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
            "beta": ([float(b) for b in o.cox.beta] if o.cox is not None
                     else [0.0] * len(report.feature_names)),
            "cox_error": o.cox_error,
        }
        if o.cox is not None:
            entry["cox"] = {
                **cox_convergence_report(o.cox),
                "log_partial_likelihood": float(o.cox.log_partial_likelihood),
            }
        iterations.append(entry)
    return {
        "config": report.config.to_json_dict(),
        "feature_names": list(report.feature_names),
        "iterations": iterations,
        "mean_beta": [float(b) for b in report.mean_beta],
        "n_converged_fits": report.n_converged,
        "detection_rate": report.detection_rate,
        "selected_features": list(report.selected_features),
    }
