"""Deterministic RNG streams.

All randomness in the package flows from integer key paths, e.g.
``rng_from(master_seed, iteration, 3)``.  Two runs with the same keys
produce bit-identical streams on any platform.
"""

import numpy as np

from .errors import InvalidValue


def rng_from(*key: int) -> np.random.Generator:
    """Return a generator seeded from a non-empty path of non-negative
    integers; any other key raises :class:`InvalidValue` naming it."""
    entries = [int(k) for k in key]
    if not entries or min(entries) < 0:
        raise InvalidValue(
            f"seed key must be a non-empty path of non-negative integers, "
            f"got {tuple(entries)!r}"
        )
    return np.random.default_rng(np.random.SeedSequence(entries))


def normalize_key(seed) -> tuple[int, ...]:
    """Coerce an int or tuple-of-ints seed into a key tuple."""
    if isinstance(seed, (tuple, list)):
        return tuple(int(k) for k in seed)
    return (int(seed),)
