"""Seeded workload inputs, shaped like the generators in tests/synth.py.

Every generator takes a numpy Generator, writes its files into a
directory and returns the factors the reference needs (K = X Xᵀ). Inputs reach the program
only as files: representation CSVs, RMX1 binary kernels, a layer
manifest, or a distance CSV. This module uses numpy and the stdlib only,
so writing the inputs does not go through the code under test.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

_RMX_HEADER = struct.Struct("<4sBII")
_KIND_CODES = {"representation": 1, "kernel": 2, "distance": 3}


def write_rmx(path: Path, values: np.ndarray, kind: str) -> None:
    """RMX1 binary: magic, kind byte, u32 rows, u32 cols, float64 payload."""
    values = np.ascontiguousarray(values, dtype="<f8")
    header = _RMX_HEADER.pack(b"RMX1", _KIND_CODES[kind], *values.shape)
    path.write_bytes(header + values.tobytes())


def write_csv(path: Path, values: np.ndarray, labels=None) -> None:
    """17 significant digits, so every double round-trips exactly."""
    lines = [",".join(labels)] if labels is not None else []
    lines += [",".join(f"{x:.17g}" for x in row) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(path: Path, entries) -> None:
    doc = {"entries": [{"name": n, "path": p, "kind": k} for n, p, k in entries]}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def layers_same_stimuli(rng, directory: Path, n: int, k: int, count: int, t: float):
    """``count`` representation CSVs over n stimuli sharing a latent base.

    Returns [(name, X)] and writes ``layers.json`` next to the CSVs.
    """
    base = rng.standard_normal((n, k))
    layers = []
    for j in range(count):
        X = np.sqrt(1.0 - t * t) * base + t * rng.standard_normal((n, k))
        name = f"layer{j}"
        write_csv(directory / f"{name}.csv", X)
        layers.append((name, X))
    write_manifest(directory / "layers.json",
                   [(name, f"{name}.csv", "representation") for name, _ in layers])
    return layers


def pooled_kernel_pair(rng, directory: Path, pool_size: int = 1000, k: int = 50,
                       overlap: float = 0.8):
    """Two related rank-k pooled kernels as ``pool1.rmx``/``pool2.rmx``.

    Returns the factors (X1, X2) with K_i = X_i X_iᵀ.
    """
    Z = rng.standard_normal((pool_size, k))
    A1 = rng.standard_normal((k, k))
    A2 = overlap * A1 + (1.0 - overlap / 2.0) * 0.5 * rng.standard_normal((k, k))
    factors = (Z @ A1, Z @ A2)
    for i, X in enumerate(factors, start=1):
        write_rmx(directory / f"pool{i}.rmx", X @ X.T, "kernel")
    return factors


def pooled_layer_family(rng, directory: Path, n_layers: int = 4, pool_size: int = 1000,
                        k: int = 8, noise: float = 0.3):
    """Related layers over one stimulus pool, as binary kernels plus manifest.

    Returns [(name, X)] with K = X Xᵀ.
    """
    Z = rng.standard_normal((pool_size, k))
    layers = []
    for j in range(n_layers):
        A = rng.standard_normal((k, k)) + 1.5 * (j + 1) * np.eye(k)
        X = Z @ A + noise * rng.standard_normal((pool_size, k))
        name = f"layer{j}"
        write_rmx(directory / f"{name}.rmx", X @ X.T, "kernel")
        layers.append((name, X))
    write_manifest(directory / "layers.json",
                   [(name, f"{name}.rmx", "kernel") for name, _ in layers])
    return layers


def representation_pair(rng, directory: Path, n: int, k: int, t: float):
    """Two representation CSVs sharing a fraction of their structure."""
    X1 = rng.standard_normal((n, k))
    X2 = np.sqrt(1.0 - t * t) * X1 + t * rng.standard_normal((n, k))
    write_csv(directory / "rep1.csv", X1)
    write_csv(directory / "rep2.csv", X2)
    return X1, X2


def point_distances(rng, directory: Path, m: int, dims: int):
    """Euclidean distances between m Gaussian points in ``dims`` dimensions.

    Written as a labelled distance CSV; returns the distance matrix.
    """
    P = rng.standard_normal((m, dims))
    diff = P[:, None, :] - P[None, :, :]
    D = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(D, 0.0)
    write_csv(directory / "distances.csv", D, labels=[f"p{i}" for i in range(m)])
    return D
