"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The final criterion needs the real CIC-IDS2017 flow CSVs and is skipped
unless FLOWHAZARD_CIC_DIR points at a directory containing them; the
synthetic criteria above it are the binding gate.
"""

import hashlib
import json
import math
import os
from contextlib import contextmanager

import numpy as np
import pytest

from flowhazard.cli import main as cli_main
from flowhazard.experiment import (
    AttackCombination,
    ExperimentConfig,
    run_experiment,
)
from flowhazard.models import (
    BayesianRidgeParams,
    LinearSVRParams,
    RandomForestParams,
)
from flowhazard.survival import (
    CoxModel,
    CoxOptions,
    StepFunction,
    SurvivalRecord,
    SurvivalTable,
    cox_fit,
    cox_gradient,
    cox_hessian,
    cox_log_partial_likelihood,
    km_fit,
    km_survival_at,
)

from _oracles import grid_search_beta, stack_records
from _worlds import DRIVER, DRIVER_NAME, KNOWN_ATTACK, NOVEL_ATTACK, planted_world


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def model_with_betas(betas):
    """Minimal fitted-model shell for exercising the ratio mapping."""
    betas = np.asarray(betas, dtype=float)
    k = betas.size
    zeros = np.zeros(k)
    return CoxModel(
        feature_names=tuple(f"x{i}" for i in range(k)),
        beta=betas,
        hazard_ratios=np.exp(betas),
        std_errors=zeros,
        p_values=np.ones(k),
        ci95_low=betas,
        ci95_high=betas,
        log_partial_likelihood=0.0,
        penalty=0.0,
        converged=True,
        iterations=0,
        final_grad_norm=0.0,
        baseline_cumhaz=StepFunction(np.zeros(0), np.zeros(0)),
    )


def test_c1_hazard_ratio_reproduction(capsys):
    with criterion("C1 hazard-ratio reproduction"):
        rf_betas = [0.157, -0.580, -0.105, 1.506]
        rf_printed = [1.170, 0.560, 0.900, 4.509]
        svr_betas = [0.194, -0.813, -0.144, 0.682]
        svr_printed = [1.121, 0.444, 0.866, 1.978]
        features = ["PSH Flag Count", "ACK Flag Count", "URG Flag Count",
                    "Down/Up Ratio"]

        discrepancies = []
        for label, betas, printed in (
            ("random forest", rf_betas, rf_printed),
            ("linear SVR", svr_betas, svr_printed),
        ):
            computed = model_with_betas(betas).hazard_ratios
            for name, b, hr, pr in zip(features, betas, computed, printed):
                # our mapping must agree with an independent exp()
                assert hr == pytest.approx(math.exp(b), rel=1e-12)
                if abs(hr - pr) > 1e-3:
                    discrepancies.append((label, name, b, float(hr), pr))
                else:
                    assert hr == pytest.approx(pr, abs=1e-3)

        # exactly one published ratio disagrees with exp(beta): the linear
        # SVR PSH entry prints 1.121 where exp(0.194) = 1.214
        assert len(discrepancies) == 1
        label, name, b, hr, pr = discrepancies[0]
        assert (label, name) == ("linear SVR", "PSH Flag Count")
        assert abs(hr - 1.121) <= 0.094
        print(
            f"  note: published {label} table prints HR {pr} for {name} "
            f"but exp({b}) = {hr:.4f}; flagged as a table inconsistency"
        )


def test_c2_km_hand_oracles():
    with criterion("C2 Kaplan-Meier hand oracles"):
        def rec(t, e):
            return SurvivalRecord(t, e, np.zeros(1))

        curve = km_fit(stack_records([rec(1, 1), rec(2, 1), rec(3, 1)]))
        for got, want in zip(curve.survival, (2 / 3, 1 / 3, 0.0)):
            assert abs(got - want) < 1e-12

        mixed = km_fit(stack_records([rec(1, 1), rec(2, 0), rec(3, 1)]))
        event = mixed.n_event > 0
        assert mixed.times[event].tolist() == [1.0, 3.0]
        assert mixed.n_risk[event].tolist() == [3, 1]
        assert abs(mixed.survival[event][0] - 2 / 3) < 1e-12
        assert abs(mixed.survival[event][1] - 0.0) < 1e-12
        assert abs(km_survival_at(curve, 2.5) - 1 / 3) < 1e-12


def test_c3_cox_brute_force_oracle():
    with criterion("C3 Cox grid-search oracle"):
        rng = np.random.default_rng(2024)
        accepted = 0
        attempts = 0
        while accepted < 5 and attempts < 80:
            attempts += 1
            n = int(rng.integers(3, 7))
            times = rng.permutation(np.arange(1, n + 1)).astype(float)  # no ties
            records = [
                SurvivalRecord(times[i], int(rng.integers(0, 2)),
                               rng.standard_normal(1))
                for i in range(n)
            ]
            records[0] = SurvivalRecord(times[0], 1, rng.standard_normal(1))
            records = stack_records(records)
            oracle = grid_search_beta(records)
            if abs(oracle) > 5.0:
                # boundary or quasi-separated draw: the unpenalized
                # maximizer is ill-defined, so the comparison is not
                continue
            model = cox_fit(records, CoxOptions(ridge=0.0))
            if model.penalty > 0.0:  # degenerate information, auto-retried
                continue
            assert abs(model.beta[0] - oracle) <= 1e-3
            accepted += 1
        print(f"  matched {accepted} interior maximizers in {attempts} draws")
        assert accepted >= 5


def test_c4_gradient_and_hessian_checks():
    with criterion("C4 derivative finite-difference checks"):
        rng = np.random.default_rng(77)
        h = 1e-5
        for _ in range(20):
            n = int(rng.integers(2, 21))
            width = int(rng.integers(1, 6))
            records = [
                SurvivalRecord(float(rng.integers(0, 6)),
                               int(rng.integers(0, 2)),
                               rng.standard_normal(width))
                for _ in range(n)
            ]
            records[0] = SurvivalRecord(1.0, 1, rng.standard_normal(width))
            records = stack_records(records)
            beta = rng.standard_normal(width) * 0.5

            grad = cox_gradient(beta, records)
            fd = np.zeros(width)
            for j in range(width):
                e = np.zeros(width)
                e[j] = h
                fd[j] = (
                    cox_log_partial_likelihood(beta + e, records)
                    - cox_log_partial_likelihood(beta - e, records)
                ) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(fd)))
            assert np.linalg.norm(grad - fd) / denom < 1e-6

            hess = cox_hessian(beta, records)
            fd_h = np.zeros((width, width))
            for j in range(width):
                e = np.zeros(width)
                e[j] = h
                fd_h[:, j] = (
                    cox_gradient(beta + e, records)
                    - cox_gradient(beta - e, records)
                ) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(fd_h)))
            assert np.linalg.norm(hess - fd_h) / denom < 1e-4


def test_c5_synthetic_cox_recovery():
    with criterion("C5 synthetic hazard recovery"):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(10_000 + seed)
            n = 2000
            x = rng.integers(0, 2, size=n).astype(float)
            t_event = rng.exponential(1.0 / np.exp(0.7 * x))
            t_censor = rng.exponential(1.0 / 0.35, size=n)
            table = SurvivalTable(np.minimum(t_event, t_censor),
                                  (t_event <= t_censor).astype(np.int64),
                                  x[:, None])
            model = cox_fit(table, CoxOptions(ridge=0.0))
            if model.converged and 0.55 <= model.beta[0] <= 0.85:
                hits += 1
        print(f"  recovered in {hits}/20 repetitions")
        assert hits >= 18


def _protocol_config(band, seed=909):
    return ExperimentConfig(
        regressor=BayesianRidgeParams(),
        combination=AttackCombination(KNOWN_ATTACK, NOVEL_ATTACK),
        band_low=band[0],
        band_high=band[1],
        seq_len=100,
        n_sequences=500,
        n_iterations=1,
        master_seed=seed,
    )


def test_c6_protocol_invariants():
    with criterion("C6 band edge-case invariants"):
        benign, attack, post = planted_world(seed=606, q=0.0)

        everything = run_experiment(
            _protocol_config((-np.inf, np.inf)), benign, attack,
            lambda: post,
        )
        assert km_survival_at(everything.pooled_km, 0.0) == 0.0
        assert everything.detection_rate == 1.0

        unreachable = run_experiment(
            _protocol_config((1e9, 2e9)), benign, attack, lambda: post
        )
        records = [r for it in unreachable.successes for r in it.table]
        assert len(records) == 500
        assert all(r.event == 0 and r.time == 100.0 for r in records)
        for t in (0.0, 50.0, 100.0):
            assert km_survival_at(unreachable.pooled_km, t) == 1.0


def test_c7_planted_signal_end_to_end():
    with criterion("C7 planted-signal feature identification"):
        for kind, q in (
            (RandomForestParams(), 0.05),
            (BayesianRidgeParams(), 0.008),
            (LinearSVRParams(), 0.008),
        ):
            benign, attack, post = planted_world(seed=707, q=q)
            config = ExperimentConfig(
                regressor=kind,
                combination=AttackCombination(KNOWN_ATTACK, NOVEL_ATTACK),
                master_seed=42,
            )
            report = run_experiment(config, benign, attack, lambda: post)
            assert report.n_converged >= 8, kind.kind
            assert DRIVER_NAME in report.selected_features, kind.kind
            assert report.mean_beta[DRIVER] > 0, kind.kind
            positive = sum(
                1 for it in report.successes
                if it.cox is not None and it.cox.converged
                and it.cox.beta[DRIVER] > 0
            )
            print(
                f"  {kind.kind}: driver beta positive in "
                f"{positive}/{report.n_converged} converged fits, "
                f"mean {report.mean_beta[DRIVER]:+.3f}, "
                f"detection rate {report.detection_rate:.3f}"
            )
            assert positive >= 8


SMOKE_SPEC = {
    "BENIGN": {
        "f_sep": {"mean": 0.0, "std": 0.25},
        "f_other": {"mean": 1.0, "std": 0.5},
    },
    "DoS-ish": {
        "f_sep": {"mean": 4.0, "std": 0.25},
        "f_other": {"mean": 1.0, "std": 0.5},
    },
    "web-ish": {
        "f_sep": {"mean": 2.0, "std": 0.6},
        "f_other": {"mean": 3.0, "std": 0.5},
    },
}


def test_c8_pipeline_determinism(tmp_path):
    with criterion("C8 pipeline byte determinism"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMOKE_SPEC))
        config = {
            "inputs": {"synthetic_spec": str(spec_path),
                       "rows_per_class": 300},
            "experiment": {
                "regressor": {"kind": "linear_svr"},
                "combination": {"pre_attack": "DoS-ish",
                                "post_attack": "web-ish"},
                "seq_len": 10,
                "n_sequences": 10,
                "n_iterations": 2,
                "master_seed": 11,
            },
            "emit": ["km", "cox", "json"],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        digests = []
        for run in ("one", "two"):
            out = tmp_path / run
            rc = cli_main([
                "pipeline", "--config", str(config_path), "--out", str(out),
            ])
            assert rc == 0
            digests.append(
                hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
            )
        assert digests[0] == digests[1]
        print(f"  report.json sha256 {digests[0][:16]}... reproduced")


@pytest.mark.skipif(
    "FLOWHAZARD_CIC_DIR" not in os.environ,
    reason="optional paper-scale check needs CIC-IDS2017 CSVs "
    "(set FLOWHAZARD_CIC_DIR)",
)
def test_c9_paper_scale_qualitative(tmp_path):
    """Optional: real-data signs of the four reported coefficients and the
    early-detection shape of the pooled curve (combination 1, forest)."""
    with criterion("C9 paper-scale qualitative reproduction"):
        from flowhazard.flowdata import (
            cicids2017_schema,
            filter_label,
            parse_flow_csv,
        )

        cic_dir = os.environ["FLOWHAZARD_CIC_DIR"]
        schema = cicids2017_schema()

        def load(filename, *label_words):
            # label spellings vary across releases (dash characters and
            # encodings differ); match on the distinctive words instead
            ds = parse_flow_csv(os.path.join(cic_dir, filename), schema)
            words = [w.casefold() for w in label_words]
            matches = {
                lab for lab in set(ds.labels)
                if all(w in lab.casefold() for w in words)
            }
            assert len(matches) == 1, (label_words, sorted(set(ds.labels)))
            return filter_label(ds, matches.pop())

        benign = load("Wednesday-workingHours.pcap_ISCX.csv", "benign")
        hulk = load("Wednesday-workingHours.pcap_ISCX.csv", "hulk")
        web = load(
            "Thursday-WorkingHours-Morning-WebAttacks.pcap_ISCX.csv",
            "web", "brute",
        )
        config = ExperimentConfig(
            regressor=RandomForestParams(),
            combination=AttackCombination(hulk.labels[0], web.labels[0]),
            master_seed=1,
        )
        report = run_experiment(config, benign, hulk, lambda: web)
        idx = {name: i for i, name in enumerate(report.feature_names)}
        signs = {
            "PSH Flag Count": 1, "ACK Flag Count": -1,
            "URG Flag Count": -1, "Down/Up Ratio": 1,
        }
        for name, sign in signs.items():
            assert np.sign(report.mean_beta[idx[name]]) == sign, name
        assert km_survival_at(report.pooled_km, 5.0) <= 0.05
