"""Seeded inputs for the benchmark workloads.

Each generator writes its files into a directory and returns the facts the
output checks rely on: planted fault counts, planted coefficients and
input sizes.  The same seed gives the same bytes.  Only numpy and the
standard library are used, never flowhazard itself, so the inputs stay
fixed while the program under test changes.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# The README quickstart, verbatim apart from the iteration count (cut to
# fit the run length; each iteration keeps its shape) and the master seed
# (variant 0 takes the workload seed; README's 7 is what seed 7 gives).
QUICKSTART_SPEC = {
    "BENIGN": {"f_sep": {"mean": 0.0, "std": 0.25},
               "f_other": {"mean": 1.0, "std": 0.5}},
    "DoS-ish": {"f_sep": {"mean": 4.0, "std": 0.25},
                "f_other": {"mean": 1.0, "std": 0.5}},
    "web-ish": {"f_sep": {"mean": 2.0, "std": 0.6},
                "f_other": {"mean": 3.0, "std": 0.5}},
}
QUICKSTART_ROWS_PER_CLASS = 500


def _pipeline_config(inputs: dict, regressor: dict, combination: dict,
                     shape: dict, seed: int) -> dict:
    return {
        "inputs": inputs,
        "experiment": {
            "regressor": regressor,
            "combination": combination,
            "band": [0.40, 0.60],
            "seq_len": shape["seq_len"],
            "n_sequences": shape["n_sequences"],
            "n_iterations": shape["n_iterations"],
            "master_seed": seed,
        },
        "output_dir": "out",
        "emit": ["km", "cox", "json", "svg"],
    }


def master_seeds(seed: int, variants: int) -> list[int]:
    """The workload seed, then ``variants - 1`` master seeds drawn from it.

    A pipeline workload runs one config per master seed, so a run's time
    averages over that many trained forests instead of resting on one."""
    drawn = np.random.SeedSequence([seed, 31]).generate_state(variants - 1)
    return [seed] + [int(x) for x in drawn]


def _write_configs(dest: str, inputs: dict, regressor: dict,
                   combination: dict, shape: dict, seed: int) -> dict:
    """One pipeline config per variant, differing only in master seed."""
    seeds = master_seeds(seed, shape["variants"])
    names = []
    for v, master in enumerate(seeds):
        names.append(f"config{v}.json")
        _write_json(os.path.join(dest, names[-1]),
                    _pipeline_config(inputs, regressor, combination, shape,
                                     master))
    return {"configs": names, "master_seeds": seeds, "variants": len(seeds)}


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def quickstart(dest: str, seed: int, shape: dict) -> dict:
    """README spec and config; ``shape`` sets sequences, length, iterations."""
    _write_json(os.path.join(dest, "spec.json"), QUICKSTART_SPEC)
    configs = _write_configs(
        dest,
        {"synthetic_spec": "spec.json",
         "rows_per_class": QUICKSTART_ROWS_PER_CLASS},
        {"kind": "random_forest", "n_trees": shape["n_trees"]},
        {"pre_attack": "DoS-ish", "post_attack": "web-ish"},
        shape, seed,
    )
    return {
        **configs,
        "rows": QUICKSTART_ROWS_PER_CLASS * len(QUICKSTART_SPEC),
        "features": 2,
        "bytes": _dir_bytes(dest),
        **shape,
    }


# ---------------------------------------------------------------------------
# CIC-IDS2017-shaped flow CSVs

# Header of the published MachineLearningCSV files: leading-space names,
# "Fwd Header Length" listed twice, label last.
CIC_FEATURES = (
    "Destination Port", "Flow Duration", "Total Fwd Packets",
    "Total Backward Packets", "Total Length of Fwd Packets",
    "Total Length of Bwd Packets", "Fwd Packet Length Max",
    "Fwd Packet Length Min", "Fwd Packet Length Mean",
    "Fwd Packet Length Std", "Bwd Packet Length Max",
    "Bwd Packet Length Min", "Bwd Packet Length Mean",
    "Bwd Packet Length Std", "Flow Bytes/s", "Flow Packets/s",
    "Flow IAT Mean", "Flow IAT Std", "Flow IAT Max", "Flow IAT Min",
    "Fwd IAT Total", "Fwd IAT Mean", "Fwd IAT Std", "Fwd IAT Max",
    "Fwd IAT Min", "Bwd IAT Total", "Bwd IAT Mean", "Bwd IAT Std",
    "Bwd IAT Max", "Bwd IAT Min", "Fwd PSH Flags", "Bwd PSH Flags",
    "Fwd URG Flags", "Bwd URG Flags", "Fwd Header Length",
    "Bwd Header Length", "Fwd Packets/s", "Bwd Packets/s",
    "Min Packet Length", "Max Packet Length", "Packet Length Mean",
    "Packet Length Std", "Packet Length Variance", "FIN Flag Count",
    "SYN Flag Count", "RST Flag Count", "PSH Flag Count", "ACK Flag Count",
    "URG Flag Count", "CWE Flag Count", "ECE Flag Count", "Down/Up Ratio",
    "Average Packet Size", "Avg Fwd Segment Size", "Avg Bwd Segment Size",
    "Fwd Header Length", "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk",
    "Fwd Avg Bulk Rate", "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk",
    "Bwd Avg Bulk Rate", "Subflow Fwd Packets", "Subflow Fwd Bytes",
    "Subflow Bwd Packets", "Subflow Bwd Bytes", "Init_Win_bytes_forward",
    "Init_Win_bytes_backward", "act_data_pkt_fwd", "min_seg_size_forward",
    "Active Mean", "Active Std", "Active Max", "Active Min", "Idle Mean",
    "Idle Std", "Idle Max", "Idle Min",
)
CIC_LABELS = {"benign": "BENIGN", "pre_attack": "DoS Hulk",
              "post_attack": "PortScan"}
# columns that are zero in every row of the published files
_CIC_ZERO = {
    "Bwd PSH Flags", "Fwd URG Flags", "Bwd URG Flags", "CWE Flag Count",
    "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk", "Fwd Avg Bulk Rate",
    "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk", "Bwd Avg Bulk Rate",
}
# columns that carry the class signal through a shared latent score
_CIC_SIGNAL = (
    "Flow Duration", "Total Fwd Packets", "Fwd Packet Length Max",
    "Bwd Packet Length Mean", "Flow IAT Max", "Init_Win_bytes_forward",
)
# CICFlowMeter writes these as Infinity/NaN when a flow has zero duration
_CIC_NONFINITE = ("Flow Bytes/s", "Flow Packets/s")
_CIC_FLOAT_MARKERS = ("Mean", "Std", "Variance", "/s", "Ratio", "Average",
                      "Avg")


def _cic_matrix(rng, latent: np.ndarray, col_loc: np.ndarray,
                col_scale: np.ndarray, signal: np.ndarray,
                zero: np.ndarray) -> np.ndarray:
    """Log-normal flow features; signal columns shift with ``latent``."""
    n, width = latent.shape[0], col_loc.shape[0]
    log_x = col_loc + col_scale * rng.standard_normal((n, width))
    log_x[:, signal] += latent[:, None]
    x = np.expm1(np.clip(log_x, 0.0, None))
    x[:, zero] = 0.0
    return x


def cic_csvs(dest: str, seed: int, sizes: dict) -> dict:
    """Benign, known-attack and novel-attack CSVs in CIC-IDS2017 shape.

    Benign and known-attack flows differ along one latent score with a
    little overlap, so holdout accuracy sits near 0.97 and trees stay
    small.  ``sizes["boundary_frac"]`` of the novel flows sit on the
    decision boundary; the rest score as attacks.  Planted faults per
    file: ``sizes["nonfinite_frac"]`` of rows carry Infinity/NaN in the
    rate columns, and the novel-attack file has one short row.
    """
    width = len(CIC_FEATURES)
    names = np.array(CIC_FEATURES)
    signal = np.isin(names, _CIC_SIGNAL)
    zero = np.isin(names, list(_CIC_ZERO))
    float_cols = np.array(
        [any(m in n for m in _CIC_FLOAT_MARKERS) for n in CIC_FEATURES]
    )
    nonfinite_cols = np.flatnonzero(np.isin(names, _CIC_NONFINITE))
    # column shapes are fixed; the seed only draws the rows, so every seed
    # yields files of about the same size and difficulty
    shape_rng = np.random.default_rng(np.random.SeedSequence([17]))
    col_loc = shape_rng.uniform(1.0, 8.0, width)
    col_scale = shape_rng.uniform(0.3, 1.2, width)
    sep = sizes["separation"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))

    latents = {
        "benign": rng.standard_normal(sizes["benign"]),
        "pre_attack": sep + rng.standard_normal(sizes["pre_attack"]),
    }
    n_post = sizes["post_attack"]
    post = sep + 1.5 + 0.5 * rng.standard_normal(n_post)
    n_edge = int(round(sizes["boundary_frac"] * n_post))
    edge = rng.choice(n_post, size=n_edge, replace=False)
    post[edge] = sep / 2.0 + 0.1 * rng.standard_normal(n_edge)
    latents["post_attack"] = post

    header = ",".join(" " + n for n in CIC_FEATURES + ("Label",)) + "\n"
    planted = {}
    files = {}
    total_bytes = 0
    for role, latent in latents.items():
        n = latent.shape[0]
        x = _cic_matrix(rng, latent, col_loc, col_scale, signal, zero)
        x[:, ~float_cols] = np.rint(x[:, ~float_cols])
        n_bad = int(round(sizes["nonfinite_frac"] * n))
        bad_rows = np.sort(rng.choice(n, size=n_bad, replace=False))
        x[bad_rows[0::2][:, None], nonfinite_cols] = np.inf
        x[bad_rows[1::2][:, None], nonfinite_cols] = np.nan
        row_fmt = ",".join("%.3f" if f else "%d" for f in float_cols)
        row_fmt += f", {CIC_LABELS[role]}"
        lines = [row_fmt % tuple(row) for row in x.tolist()]
        for i in bad_rows:
            lines[i] = lines[i].replace("inf", "Infinity").replace("nan", "NaN")
        malformed = 0
        if role == "post_attack":
            good = np.setdiff1d(np.arange(n), bad_rows)
            short = int(good[rng.integers(0, good.size)])
            lines[short] = ",".join(lines[short].split(",")[: width // 2])
            malformed = 1
        data = (header + "\n".join(lines) + "\n").encode()
        path = f"{role}.csv"
        _write_bytes(os.path.join(dest, path), data)
        files[role] = path
        total_bytes += len(data)
        planted[role] = {"rows_read": n, "nonfinite_dropped": n_bad,
                         "malformed_dropped": malformed,
                         "rows_kept": n - n_bad - malformed}

    configs = _write_configs(
        dest,
        {"benign_csv": files["benign"],
         "pre_attack_csv": files["pre_attack"],
         "post_attack_csv": files["post_attack"]},
        {"kind": "random_forest", "n_trees": sizes["n_trees"]},
        {"pre_attack": CIC_LABELS["pre_attack"],
         "post_attack": CIC_LABELS["post_attack"]},
        sizes, seed,
    )
    return {
        **configs,
        "planted": planted,
        "rows": sum(p["rows_read"] for p in planted.values()),
        "features": width,
        "bytes": total_bytes,
        "n_iterations": sizes["n_iterations"],
        "n_sequences": sizes["n_sequences"],
        "seq_len": sizes["seq_len"],
    }


# ---------------------------------------------------------------------------
# survival table in the pipeline's survival_iterNN.csv format

SURVIVAL_FEATURES = ("Flow Duration", "Fwd Packet Length Max",
                     "Flow IAT Mean", "Init_Win_bytes_forward")


def survival_table(dest: str, seed: int, sizes: dict) -> dict:
    """Integer event times censored at ``sizes["horizon"]`` under a
    proportional-hazards model with coefficients ``sizes["beta"]``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 29]))
    n, horizon = sizes["rows"], sizes["horizon"]
    beta = np.array(sizes["beta"], dtype=np.float64)
    X = rng.gamma(2.0, 0.5, size=(n, beta.size))
    eta = X @ beta
    raw = rng.exponential(sizes["time_scale"] * np.exp(-(eta - eta.mean())))
    times = np.minimum(np.floor(raw), horizon)
    events = (raw < horizon).astype(np.int64)
    header = ",".join(("sequence_id", "time", "event") + SURVIVAL_FEATURES)
    lines = [header]
    for i in range(n):
        lines.append(",".join(
            [str(i), repr(float(times[i])), str(int(events[i]))]
            + [repr(float(v)) for v in X[i]]
        ))
    data = ("\r\n".join(lines) + "\r\n").encode()
    _write_bytes(os.path.join(dest, "table.csv"), data)
    return {
        "table": "table.csv",
        "rows": n,
        "events": int(events.sum()),
        "distinct_times": int(np.unique(times).size),
        "features": beta.size,
        "feature_names": list(SURVIVAL_FEATURES),
        "beta": beta.tolist(),
        "bytes": len(data),
        "variants": 1,
    }


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, f)) for f in sorted(os.listdir(path))
    )


def digest_dir(path: str) -> str:
    """SHA-256 over the names and bytes of the files in ``path``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
