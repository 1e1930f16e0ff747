"""Synthetic dataset constructions shared by the experiment and
acceptance tests.

The planted world has five features; only ``f_sep`` is informative.  The
two training classes sit at f_sep = 0 (benign) and f_sep = 4 (attack)
with a 1:4 benign:attack imbalance, so the pre-novelty mean of f_sep is
3.2.  Injected flows are a mixture: a fraction ``q`` hug the decision
boundary (f_sep near 2, scored around 0.5 and hence inside the novelty
band) while the rest mimic the known attack (f_sep near 4, scored near
1).  Distance from the pre-novelty mean is therefore larger for the
flows that trigger detection (|2 - 3.2| = 1.2) than for familiar flows
(|4 - 3.2| = 0.8), planting a positive hazard contrast on f_sep while
the remaining features are exchangeable noise.
"""

import numpy as np

from flowhazard.flowdata import FlowDataset, FlowSchema

FEATURES = ("f_sep", "f_n1", "f_n2", "f_n3", "f_n4")
SCHEMA = FlowSchema(FEATURES)
DRIVER = 0
DRIVER_NAME = FEATURES[DRIVER]

BENIGN = "BENIGN"
KNOWN_ATTACK = "DoS-ish"
NOVEL_ATTACK = "web-ish"

IMBALANCE = 4  # attack rows per benign row in the pre-novelty data


def _assemble(f_sep, rng, label):
    n = f_sep.shape[0]
    feats = np.column_stack([f_sep, rng.normal(0.0, 1.0, (n, 4))])
    return FlowDataset(SCHEMA, feats, (label,) * n)


def make_pre_benign(n, rng):
    return _assemble(rng.normal(0.0, 0.3, n), rng, BENIGN)


def make_pre_attack(n, rng):
    return _assemble(rng.normal(4.0, 0.3, n), rng, KNOWN_ATTACK)


def make_post(n, rng, q, boundary_std=0.15):
    """Mixture of boundary-hugging novel flows (fraction q) and flows that
    mimic the known attack."""
    novel = rng.random(n) < q
    f_sep = np.where(
        novel, rng.normal(2.0, boundary_std, n), rng.normal(4.0, 0.3, n)
    )
    return _assemble(f_sep, rng, NOVEL_ATTACK)


def planted_world(seed, n_pre=800, n_post=4000, q=0.01):
    rng = np.random.default_rng(seed)
    return (
        make_pre_benign(n_pre // IMBALANCE, rng),
        make_pre_attack(n_pre, rng),
        make_post(n_post, rng, q),
    )


def familiar_world(seed, n_pre=800, n_post=4000):
    """Injected flows drawn from the known-attack distribution itself."""
    rng = np.random.default_rng(seed)
    return (
        make_pre_benign(n_pre // IMBALANCE, rng),
        make_pre_attack(n_pre, rng),
        make_post(n_post, rng, q=0.0),
    )
