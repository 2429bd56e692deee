"""Deterministic RNG helpers.

All stochastic behaviour in the library (synthetic traces, tie-breaking in
tests) flows through :func:`make_rng` so a single seed reproduces a run
bit-for-bit.  NumPy is imported inside :func:`make_rng`, so a run that never
samples (every kernel simulation) never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 0xC0FFEE


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a NumPy generator seeded deterministically."""

    import numpy as np

    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def derive_seed(seed: int, *stream: int) -> int:
    """Derive a child seed from a parent seed and a stream identifier tuple.

    Used to give every core / channel its own independent stream while keeping
    the whole simulation reproducible from one seed.
    """

    value = seed & 0xFFFFFFFF
    for item in stream:
        value = (value * 1000003 + (item & 0xFFFFFFFF)) & 0xFFFFFFFF
    return value
