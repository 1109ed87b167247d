"""Deterministic seed derivation and independent random streams.

Every stochastic computation in the package draws from an SFC64
generator seeded by a 64-bit seed plus a stream index. Derived seeds are
stable hashes of the master seed and string/int tokens, so results do
not depend on scheduling or iteration order. The Monte-Carlo draws all
come from ``standard_normal_blocks``, in blocks of ``BLOCK_ROWS`` rows
that stack to the stream's one block.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1
BLOCK_ROWS = 1024  # draws per block: a side holds O(BLOCK_ROWS·dim) normals at a time


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
    """Standard-normal stream for (seed, stream index): SFC64 on a SeedSequence.

    The seed is the entropy and the stream index the spawn key, so streams
    with distinct (seed, stream) pairs are statistically independent; the
    same pair always reproduces the same draws within one build of numpy.
    Both are taken modulo 2**64.
    """
    sequence = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=(int(stream) & _MASK64,))
    return np.random.Generator(np.random.SFC64(sequence))


def standard_normal_blocks(n_draws: int, dim: int, seed: int, stream: int = 0):
    """The (seed, stream) stream's ``n_draws`` x ``dim`` standard normals, in row blocks.

    An iterator of blocks of ``BLOCK_ROWS`` draws (fewer in the last one).
    Stacked, the blocks are the one ``n_draws`` x ``dim`` block the stream
    gives.
    """
    if n_draws < 1:
        raise ValidationError("need at least one draw")
    rng = stream_generator(seed, stream)
    return (rng.standard_normal((min(BLOCK_ROWS, n_draws - start), dim))
            for start in range(0, n_draws, BLOCK_ROWS))
