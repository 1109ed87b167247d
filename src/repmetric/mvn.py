"""Seeded standard-normal draws for the Monte-Carlo estimators.

``standard_normal_block`` is the one source of randomness: the z block
for a (seed, stream) pair. The estimators in ``bayes_metrics`` evaluate
the draws x = L z of a ``GaussianModel`` (defined in ``kernel``, re-exported
here) in whitened form and never form x.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .kernel import GaussianModel
from .seeding import stream_generator

__all__ = ["GaussianModel", "standard_normal_block"]


def standard_normal_block(n_draws: int, dim: int, seed: int, stream: int = 0) -> np.ndarray:
    """``n_draws`` x ``dim`` standard normals, deterministic for (seed, stream)."""
    if n_draws < 1:
        raise ValidationError("need at least one draw")
    rng = stream_generator(seed, stream)
    try:
        return rng.standard_normal((n_draws, dim))
    except (ValueError, MemoryError):
        # numpy cannot index (ValueError) or allocate (MemoryError) the block
        raise ValidationError(
            f"cannot allocate {n_draws} draws of dimension {dim}") from None
