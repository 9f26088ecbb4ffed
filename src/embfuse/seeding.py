"""Deterministic RNG derivation.

One top-level seed is fanned out to every randomized stage through a
counters-based spawn key, so each stage (init, per-epoch shuffle, per-batch
dropout, split, ...) is reproducible on its own and independent of the
others. String labels are folded to stable 32-bit counters with crc32.
"""
from __future__ import annotations

import zlib

import numpy as np

from .errors import ValidationError


def check_seed(seed: int) -> None:
    """Reject a negative seed, which SeedSequence cannot take."""
    if int(seed) < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Return a Generator keyed by ``seed`` plus a derivation path.

    Path components may be ints or short strings; identical (seed, path)
    always yields the same stream. A negative seed raises ValidationError.
    """
    check_seed(seed)
    key = tuple(
        zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else int(p)
        for p in path
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))
