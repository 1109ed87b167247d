"""Deterministic seed derivation and counter-based random streams.

Every stochastic computation in the package draws from a Philox
generator keyed by a 64-bit seed plus a stream index. Derived seeds are
stable hashes of the master seed and string/int tokens, so results do
not depend on scheduling or iteration order. The Monte-Carlo draws all
come from ``standard_normal_block``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, *tokens) -> int:
    """Derive a 64-bit sub-seed from a master seed and hashable tokens.

    Tokens may be strings or integers; the derivation is a keyed
    blake2b hash, stable across processes and platforms. The master
    seed is packed into 16 signed bytes, so it must lie in
    [-2**127, 2**127 - 1].
    """
    master_seed = int(master_seed)
    if not -(1 << 127) <= master_seed < (1 << 127):
        raise ValidationError(f"seed {master_seed} outside [-2**127, 2**127 - 1]")
    h = hashlib.blake2b(digest_size=8)
    h.update(master_seed.to_bytes(16, "little", signed=True))
    for tok in tokens:
        if isinstance(tok, str):
            data = b"s" + tok.encode("utf-8")
        elif isinstance(tok, (int, np.integer)):
            data = b"i" + int(tok).to_bytes(16, "little", signed=True)
        else:
            raise TypeError(f"unsupported seed token type: {type(tok)!r}")
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


def pair_seed(master_seed: int, label_a: str, label_b: str) -> int:
    """Seed for an unordered pair of labelled items.

    Symmetric in the two labels, so swapping arguments cannot change
    any downstream sampling.
    """
    lo, hi = sorted((label_a, label_b))
    return derive_seed(master_seed, "pair", lo, hi)


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based standard-normal stream for (seed, stream index).

    Streams with distinct (seed, stream) pairs are statistically
    independent; the same pair always reproduces the same draws within
    one build of numpy.
    """
    key = (int(seed) & _MASK64) | ((int(stream) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


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
