"""Independent reference implementations used as test oracles.

These deliberately avoid the package's optimized code paths: the partial
likelihood is a direct double loop over explicit risk sets, the
maximizer is found by brute-force grid search, injection streams each
sequence through the classifier on its own, and the per-time scans walk
the distinct times one at a time, growing each risk set block by block.
The flow-CSV parser reads the whole text and converts cell by cell, the
table writer sends every row through ``csv.writer``, the survival-table
writer formats one record at a time, its reader builds
every row as a list of strings, the Kaplan-Meier writer formats one row
at a time, the Kaplan-Meier plot reads its censoring marks off a step
function of the event times, the tree builder recurses and re-sorts
every candidate feature at every node, and the tree walk masks every row
at every level.  Tests that state their
data record by record stack the records into a table with
:func:`stack_records`.
"""

import csv
import html
import io
import math

import numpy as np

from flowhazard.csvio import open_text
from flowhazard.errors import (
    EmptyInput,
    InvalidValue,
    LengthMismatch,
    MissingColumn,
    SchemaMismatch,
)
from flowhazard.experiment import SequenceResult
from flowhazard.flowdata import (
    FlowDataset,
    ParseReport,
    _normalize_name,
    abs_diff_covariates,
)
from flowhazard.models import predict_many
from flowhazard.models.forest import ForestState, Tree
from flowhazard.seeding import rng_from
from flowhazard.survival import (
    _FIXED_COLUMNS,
    KMCurve,
    StepFunction,
    SurvivalRecord,
    SurvivalTable,
)


def stack_records(records, feature_names=None) -> SurvivalTable:
    """The :class:`SurvivalTable` whose rows are the :class:`SurvivalRecord`
    ``records``, in order; at least one is needed."""
    records = list(records)
    return SurvivalTable(
        np.array([r.time for r in records]),
        np.array([r.event for r in records], dtype=np.int64),
        np.array([r.covariates for r in records]).reshape(len(records), -1),
        feature_names,
    )


def naive_log_partial_likelihood(beta, records):
    """Direct double loop over distinct event times with explicit risk
    sets and the shared tied-event denominator."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    times = np.array([r.time for r in records])
    events = np.array([r.event for r in records])
    X = np.array([r.covariates for r in records])
    total = 0.0
    for t in np.unique(times[events == 1]):
        dead = (times == t) & (events == 1)
        at_risk = times >= t
        d = int(dead.sum())
        total += float((X[dead] @ beta).sum())
        total -= d * math.log(np.exp(X[at_risk] @ beta).sum())
    return total


def grid_search_beta(records, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force maximizer of the partial likelihood for a scalar
    covariate, vectorized over the grid."""
    times = np.array([r.time for r in records])
    events = np.array([r.event for r in records])
    x = np.array([r.covariates[0] for r in records])
    grid = np.arange(lo, hi + step / 2, step)
    total = np.zeros_like(grid)
    for t in np.unique(times[events == 1]):
        dead = (times == t) & (events == 1)
        at_risk = times >= t
        d = int(dead.sum())
        total += x[dead].sum() * grid
        total -= d * np.log(
            np.exp(np.outer(grid, x[at_risk])).sum(axis=1)
        )
    return float(grid[np.argmax(total)])


def per_sequence_scan(model, post, band, pre_summary, n_sequences, seq_len,
                      rng):
    """Injection as a per-sequence loop: gather each sequence's flows,
    score them with one predict call, and take the first in-band index."""
    if len(post) == 0:
        raise EmptyInput("post-novelty dataset is empty")
    idx = rng.integers(0, len(post), size=(n_sequences, seq_len))
    sequences = post.features[idx]
    low, high = band
    results = []
    for seq_id, sequence in enumerate(sequences):
        scores = predict_many(model, sequence)
        hits = np.flatnonzero((scores >= low) & (scores <= high))
        if hits.size:
            i = int(hits[0])
            record = SurvivalRecord(
                time=float(i),
                event=1,
                covariates=abs_diff_covariates(sequence[i], pre_summary),
            )
            results.append(
                SequenceResult(seq_id, record, i, scores[: i + 1])
            )
            continue
        dist = np.abs(sequence - pre_summary)
        # a distance shared by every flow is carried exactly, unrounded
        same = np.array([len(set(col.tolist())) == 1 for col in dist.T])
        record = SurvivalRecord(
            time=float(sequence.shape[0]),
            event=0,
            covariates=np.where(same, dist[0], dist.mean(axis=0)),
        )
        results.append(SequenceResult(seq_id, record, None, scores))
    return tuple(results)


def record_based_write_survival_table(results, feature_names, sink) -> None:
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


def csv_writer_write_survival_table(table: SurvivalTable, sink) -> None:
    """``write_survival_table`` with every row through ``csv.writer``."""
    with open_text(sink, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIXED_COLUMNS + table.feature_names)
        rows = zip(table.times.tolist(), table.events.tolist(),
                   table.X.tolist())
        writer.writerows([i, t, e, *x] for i, (t, e, x) in enumerate(rows))


def csv_writer_write_table(sink, header, columns) -> None:
    """``csvio.write_table`` with every row through ``csv.writer``."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open_text(sink, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def csv_rows_read_survival_table(source) -> SurvivalTable:
    """Parse :func:`write_survival_table` output into a
    :class:`SurvivalTable` named by the header's covariate columns.

    Blank lines are skipped, and data rows are numbered from 1 without
    them.  A missing fixed header column is named in the error; a row
    whose length differs from the header's, a cell that is not a number
    and an out-of-range value are reported with their data row and
    column, and a record the csv module rejects with its data row.  The
    ``sequence_id`` column is not read.
    """
    rows = []
    with open_text(source) as fh:
        try:
            for row in csv.reader(fh):
                rows.append(row)
        except csv.Error as exc:
            if not rows:
                raise InvalidValue(f"header: {exc}") from None
            done = sum(any(c.strip() for c in row) for row in rows[1:])
            raise InvalidValue(f"data row {done + 1}: {exc}") from None
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
    return SurvivalTable(data[:, 0], data[:, 1], data[:, 2:], feature_names)


def per_time_km_to_csv(rows: KMCurve, sink) -> None:
    """The oracle's rows (:func:`per_time_km_fit`), written one record at
    a time."""
    with open_text(sink, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time", "n_risk", "n_event", "n_censored", "survival",
             "greenwood_var"]
        )
        for i in range(rows.times.shape[0]):
            writer.writerow([
                repr(float(rows.times[i])), int(rows.n_risk[i]),
                int(rows.n_event[i]), int(rows.n_censored[i]),
                repr(float(rows.survival[i])),
                repr(float(rows.greenwood_var[i])),
            ])


def per_time_km_fit(records) -> KMCurve:
    """Kaplan-Meier by one pass over the distinct observed times: each
    time's events, censorings and risk set counted by masks, the survival
    and Greenwood sum carried in Python floats and updated only at a time
    with events."""
    records = list(records)
    if not records:
        raise EmptyInput("no survival records")
    times = np.array([r.time for r in records])
    events = np.array([r.event for r in records])

    distinct = np.unique(times)
    k = distinct.shape[0]
    d = np.zeros(k, dtype=np.int64)
    c = np.zeros(k, dtype=np.int64)
    r = np.zeros(k, dtype=np.int64)
    survival = np.zeros(k)
    gw = np.zeros(k)
    s, total = 1.0, 0.0
    for i, t in enumerate(distinct):
        at_t = times == t
        d[i] = int(np.sum(at_t & (events == 1)))
        c[i] = int(np.sum(at_t & (events == 0)))
        r[i] = int(np.sum(times >= t))
        if d[i]:
            n_dead, n_risk = int(d[i]), int(r[i])
            s *= 1.0 - n_dead / n_risk
            if n_risk > n_dead:
                total += n_dead / (n_risk * float(n_risk - n_dead))
            else:
                total = math.inf
        survival[i] = s
        gw[i] = 0.0 if s == 0.0 else s * s * total
    return KMCurve(
        times=distinct.astype(np.float64),
        n_risk=r,
        n_event=d,
        n_censored=c,
        survival=survival,
        greenwood_var=gw,
    )


_SVG_WIDTH = 640
_SVG_HEIGHT = 420
_SVG_MARGIN_L = 60
_SVG_MARGIN_R = 20
_SVG_MARGIN_T = 36
_SVG_MARGIN_B = 48


def _svg_fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".") or "0"


def per_time_km_svg(rows: KMCurve,
                    title: str = "Survival of injected sequences") -> str:
    """The KM plot drawn from the oracle's rows (:func:`per_time_km_fit`)
    split in two: the event times with their survival make the step
    path, and each distinct censoring time reads its mark's height off
    the step function of the event times."""
    event = rows.n_event > 0
    event_times = rows.times[event]
    event_survival = rows.survival[event]
    marks = rows.times[rows.n_censored > 0]
    t_candidates = [1.0]
    if event_times.size:
        t_candidates.append(float(event_times.max()))
    if marks.size:
        t_candidates.append(float(marks.max()))
    t_max = max(t_candidates)

    plot_w = _SVG_WIDTH - _SVG_MARGIN_L - _SVG_MARGIN_R
    plot_h = _SVG_HEIGHT - _SVG_MARGIN_T - _SVG_MARGIN_B

    def sx(t: float) -> float:
        return _SVG_MARGIN_L + plot_w * (t / t_max)

    def sy(s: float) -> float:
        return _SVG_MARGIN_T + plot_h * (1.0 - s)

    # step path: start at S(0) = 1, horizontal to each event, then drop
    path = [f"M {sx(0):.2f} {sy(1.0):.2f}"]
    level = 1.0
    for t, s in zip(event_times, event_survival):
        path.append(f"L {sx(float(t)):.2f} {sy(level):.2f}")
        path.append(f"L {sx(float(t)):.2f} {sy(float(s)):.2f}")
        level = float(s)
    path.append(f"L {sx(t_max):.2f} {sy(level):.2f}")

    surv = StepFunction(event_times, event_survival, initial=1.0)
    censor_marks = []
    for t, s in zip(marks.tolist(), surv(marks).tolist()):
        y = sy(s)
        x = sx(t)
        censor_marks.append(
            f'<line x1="{x:.2f}" y1="{y - 5:.2f}" x2="{x:.2f}" '
            f'y2="{y + 5:.2f}" stroke="#444" stroke-width="1"/>'
        )

    x_ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = frac * t_max
        x = sx(t)
        x_ticks.append(
            f'<line x1="{x:.2f}" y1="{_SVG_MARGIN_T + plot_h:.2f}" '
            f'x2="{x:.2f}" y2="{_SVG_MARGIN_T + plot_h + 5:.2f}" stroke="#000"/>'
            f'<text x="{x:.2f}" y="{_SVG_MARGIN_T + plot_h + 20:.2f}" '
            f'text-anchor="middle" font-size="11">{_svg_fmt(t)}</text>'
        )
    y_ticks = []
    for s in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = sy(s)
        y_ticks.append(
            f'<line x1="{_SVG_MARGIN_L - 5:.2f}" y1="{y:.2f}" '
            f'x2="{_SVG_MARGIN_L:.2f}" y2="{y:.2f}" stroke="#000"/>'
            f'<text x="{_SVG_MARGIN_L - 9:.2f}" y="{y + 4:.2f}" '
            f'text-anchor="end" font-size="11">{_svg_fmt(s)}</text>'
        )

    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">
<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>
<text x="{_SVG_WIDTH / 2:.0f}" y="22" text-anchor="middle" font-size="14">{html.escape(title, quote=False)}</text>
<line x1="{_SVG_MARGIN_L}" y1="{_SVG_MARGIN_T}" x2="{_SVG_MARGIN_L}" y2="{_SVG_MARGIN_T + plot_h}" stroke="#000"/>
<line x1="{_SVG_MARGIN_L}" y1="{_SVG_MARGIN_T + plot_h}" x2="{_SVG_MARGIN_L + plot_w}" y2="{_SVG_MARGIN_T + plot_h}" stroke="#000"/>
{''.join(x_ticks)}
{''.join(y_ticks)}
<text x="{_SVG_MARGIN_L + plot_w / 2:.0f}" y="{_SVG_HEIGHT - 10}" text-anchor="middle" font-size="12">flow index</text>
<text x="16" y="{_SVG_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {_SVG_MARGIN_T + plot_h / 2:.0f})">survival probability</text>
<path d="{' '.join(path)}" fill="none" stroke="#1f6fb2" stroke-width="2"/>
{''.join(censor_marks)}
</svg>
"""


def _own_shift_sums(eta, X, risk, order):
    shift = float(eta[risk].max())
    w = np.exp(eta[risk] - shift)
    Xr = X[risk]
    s1 = w @ Xr if order >= 1 else None
    s2 = (Xr * w[:, None]).T @ Xr if order >= 2 else None
    return float(w.sum()), s1, s2, shift


def per_time_breslow_scan(times, events, X, beta, order=2):
    """Breslow log partial likelihood, gradient and Hessian in one
    descending pass, one Python step per distinct time.

    Weights are shifted by the global max(eta); a risk set whose shifted
    sum is exactly 0 is summed again under its own max shift.
    """
    n, width = X.shape
    eta = X @ beta
    shift = float(eta.max()) if n else 0.0
    w = np.exp(eta - shift)

    desc = np.argsort(-times, kind="stable")
    ll = 0.0
    grad = np.zeros(width) if order >= 1 else None
    hess = np.zeros((width, width)) if order >= 2 else None

    s0 = 0.0
    s1 = np.zeros(width)
    s2 = np.zeros((width, width))
    i = 0
    while i < n:
        t = times[desc[i]]
        j = i
        while j < n and times[desc[j]] == t:
            j += 1
        block = desc[i:j]
        wb = w[block]
        Xb = X[block]
        s0 += float(wb.sum())
        if order >= 1:
            s1 += wb @ Xb
        if order >= 2:
            s2 += (Xb * wb[:, None]).T @ Xb
        ev = block[events[block] == 1]
        n_dead = ev.shape[0]
        if n_dead:
            r0, r1, r2, r_shift = s0, s1, s2, shift
            if s0 == 0.0:
                r0, r1, r2, r_shift = _own_shift_sums(eta, X, desc[:j], order)
            ll += float(eta[ev].sum()) - n_dead * (math.log(r0) + r_shift)
            if order >= 1:
                xbar = r1 / r0
                grad += X[ev].sum(axis=0) - n_dead * xbar
            if order >= 2:
                hess -= n_dead * (r2 / r0 - np.outer(xbar, xbar))
        i = j
    return ll, grad, hess


def per_time_breslow_cumhaz(times, events, X, beta):
    """Breslow cumulative baseline hazard, one log-space step per
    distinct time: ``(event times, cumulative hazard)``."""
    eta = X @ beta
    desc = np.argsort(-times, kind="stable")
    log_denoms = []
    event_ts = []
    log_s0 = -np.inf
    i = 0
    n = times.shape[0]
    while i < n:
        t = times[desc[i]]
        j = i
        while j < n and times[desc[j]] == t:
            j += 1
        block = desc[i:j]
        log_s0 = np.logaddexp.reduce(np.concatenate([[log_s0], eta[block]]))
        n_dead = int(events[block].sum())
        if n_dead:
            event_ts.append(t)
            log_denoms.append(math.log(n_dead) - log_s0)
        i = j
    event_ts = np.array(event_ts[::-1])
    increments = np.exp(np.array(log_denoms[::-1]))
    return event_ts, np.cumsum(increments)


def _whole_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8", errors="replace")
    with open_text(source) as fh:
        return fh.read()


def whole_text_parse_flow_csv(source, schema):
    """Flow-CSV parse over the whole decoded text: one ``csv.reader``
    pass, one ``float(cell.strip())`` per feature cell, rows kept as
    Python lists until the end."""
    text = _whole_text(source)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInput("CSV has no header row")

    positions: dict[str, int] = {}
    for idx, raw in enumerate(header):
        positions.setdefault(_normalize_name(raw), idx)

    missing = [
        name for name in schema.feature_names
        if _normalize_name(name) not in positions
    ]
    if _normalize_name(schema.label_column) not in positions:
        missing.append(schema.label_column)
    if missing:
        raise MissingColumn(f"columns absent from header: {missing}")

    feat_idx = [positions[_normalize_name(n)] for n in schema.feature_names]
    label_idx = positions[_normalize_name(schema.label_column)]
    needed = max(max(feat_idx), label_idx) + 1

    rows: list[list[float]] = []
    labels: list[str] = []
    rows_read = 0
    nonfinite = 0
    malformed = 0

    for row in reader:
        if not row or all(cell.strip() == "" for cell in row):
            continue
        rows_read += 1
        if len(row) < needed:
            malformed += 1
            continue
        try:
            values = [float(row[j].strip()) for j in feat_idx]
        except ValueError:
            malformed += 1
            continue
        if not all(np.isfinite(values)):
            nonfinite += 1
            continue
        rows.append(values)
        labels.append(row[label_idx].strip())

    if not rows:
        raise EmptyInput(
            f"no rows survived sanitization ({rows_read} read, "
            f"{malformed} malformed, {nonfinite} non-finite)"
        )

    report = ParseReport(
        rows_read=rows_read,
        rows_kept=len(rows),
        nonfinite_dropped=nonfinite,
        malformed_dropped=malformed,
    )
    return FlowDataset(
        schema=schema,
        features=np.array(rows, dtype=np.float64),
        labels=tuple(labels),
        report=report,
    )


class PerFeatureSortTreeBuilder:
    """The recursive builder that re-sorts every candidate feature at
    every node; ``train_forest`` must grow the same trees."""

    def __init__(self, X, y, max_depth, min_leaf, mtry, rng):
        self.X = X
        self.y = y
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.mtry = mtry
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def build(self, idx: np.ndarray) -> Tree:
        self._grow(idx, depth=0)
        return Tree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            value=np.array(self.value, dtype=np.float64),
        )

    def _grow(self, idx: np.ndarray, depth: int) -> int:
        node = self._new_node()
        y = self.y[idx]
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or idx.size < 2 * self.min_leaf
            or y.min() == y.max()
        ):
            self.value[node] = float(y.mean())
            return node

        split = self._best_split(idx, y)
        if split is None:
            self.value[node] = float(y.mean())
            return node

        feat, thr = split
        go_left = self.X[idx, feat] <= thr
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self._grow(idx[go_left], depth + 1)
        self.right[node] = self._grow(idx[~go_left], depth + 1)
        return node

    def _candidate_features(self) -> np.ndarray:
        n_features = self.X.shape[1]
        if self.mtry >= n_features:
            return np.arange(n_features)
        picked = self.rng.choice(n_features, size=self.mtry, replace=False)
        return np.sort(picked)

    def _best_split(self, idx: np.ndarray, y: np.ndarray):
        n = idx.size
        total1 = y.sum()
        total2 = (y * y).sum()
        parent_sse = total2 - total1 * total1 / n
        best_gain = 0.0
        best = None
        for feat in self._candidate_features():
            x = self.X[idx, feat]
            order = np.argsort(x, kind="stable")
            sx = x[order]
            sy = y[order]
            c1 = np.cumsum(sy)[:-1]
            c2 = np.cumsum(sy * sy)[:-1]
            k = np.arange(1, n)
            valid = sx[:-1] < sx[1:]
            valid &= (k >= self.min_leaf) & (n - k >= self.min_leaf)
            if not valid.any():
                continue
            left_sse = c2 - c1 * c1 / k
            right_sse = (total2 - c2) - (total1 - c1) ** 2 / (n - k)
            gain = np.where(valid, parent_sse - left_sse - right_sse, -np.inf)
            pos = int(np.argmax(gain))  # first max = lowest threshold
            if gain[pos] > best_gain:
                best_gain = float(gain[pos])
                best = (int(feat), float((sx[pos] + sx[pos + 1]) / 2.0))
        return best


def per_feature_sort_train_forest(X, y, params, seed_key) -> ForestState:
    """``train_forest`` driving ``PerFeatureSortTreeBuilder``."""
    n, n_features = X.shape
    mtry = params.features_per_split
    if mtry is None:
        mtry = math.ceil(n_features / 3)
    mtry = min(mtry, n_features)
    trees = []
    for i in range(params.n_trees):
        rng = rng_from(*seed_key, i)
        if params.bootstrap:
            idx = np.sort(rng.integers(0, n, size=n))
        else:
            idx = np.arange(n)
        builder = PerFeatureSortTreeBuilder(
            X, y, params.max_depth, params.min_leaf, mtry, rng
        )
        trees.append(builder.build(idx))
    return ForestState(trees=tuple(trees))


def masked_tree_apply(tree: Tree, X) -> np.ndarray:
    """Leaf value for every row: each level masks the rows not yet at a
    leaf and moves them one node down; ``tree_apply`` must agree."""
    node = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        feat = tree.feature[node]
        active = feat >= 0
        if not active.any():
            break
        rows = np.flatnonzero(active)
        f = feat[rows]
        thr = tree.threshold[node[rows]]
        go_left = X[rows, f] <= thr
        node[rows] = np.where(
            go_left, tree.left[node[rows]], tree.right[node[rows]]
        )
    return tree.value[node]
