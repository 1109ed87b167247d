"""Synthetic representation generators shared by the test modules."""

import numpy as np

from repmetric.kernel import RepresentationMatrix, gram
from repmetric.seeding import standard_normal_blocks


def normal_block(n_draws, dim, seed, stream=0):
    """The (seed, stream) normals that the estimators draw, stacked into one block."""
    return np.concatenate(list(standard_normal_blocks(n_draws, dim, seed, stream)))


def random_representation(rng, n, k, labels=None):
    return RepresentationMatrix.from_array(rng.standard_normal((n, k)), labels)


def random_orthogonal(rng, k):
    """Haar-ish orthogonal matrix from a QR decomposition with sign fix."""
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def random_spd(rng, n, ridge=None):
    A = rng.standard_normal((n, n))
    if ridge is None:
        ridge = n
    return A @ A.T + ridge * np.eye(n)


def mixed_pair(rng, n, k, t, labels=None):
    """Two representations sharing a fraction of their structure.

    t = 0 gives identical matrices, t = 1 independent ones; intermediate
    values interpolate, producing a spread of distances.
    """
    X1 = rng.standard_normal((n, k))
    X2 = np.sqrt(max(1.0 - t * t, 0.0)) * X1 + t * rng.standard_normal((n, k))
    return (RepresentationMatrix.from_array(X1, labels),
            RepresentationMatrix.from_array(X2, labels))


def representation_chain(rng, n, k, count, t):
    """``count`` n x k representations, each mixing the one before with fresh noise.

    X_{j+1} = sqrt(1 - t²) X_j + t E_j, so layers drift apart along the chain.
    """
    chain = [rng.standard_normal((n, k))]
    for _ in range(count - 1):
        chain.append(np.sqrt(1.0 - t * t) * chain[-1] + t * rng.standard_normal((n, k)))
    return chain


def pooled_kernel_pair(rng, pool_size=1000, k=50, overlap=0.8):
    """Two related pooled kernels over the same stimulus pool."""
    Z = rng.standard_normal((pool_size, k))
    A1 = rng.standard_normal((k, k))
    A2 = overlap * A1 + (1.0 - overlap / 2.0) * 0.5 * rng.standard_normal((k, k))
    K1 = gram(RepresentationMatrix.from_array(Z @ A1))
    K2 = gram(RepresentationMatrix.from_array(Z @ A2))
    return K1, K2


def pooled_layer_family(rng, n_layers=4, pool_size=1000, k=8, noise=0.3):
    """Distinct but related layers over one stimulus pool, as kernels."""
    Z = rng.standard_normal((pool_size, k))
    layers = []
    for j in range(n_layers):
        A = rng.standard_normal((k, k)) + 1.5 * (j + 1) * np.eye(k)
        X = Z @ A + noise * rng.standard_normal((pool_size, k))
        layers.append((f"layer{j}", gram(RepresentationMatrix.from_array(X))))
    return layers


def kernels_same_stimuli(rng, n, k, count, t=0.7):
    """A list of named kernels over the same n stimuli."""
    out = []
    base = rng.standard_normal((n, k))
    for j in range(count):
        X = np.sqrt(1 - t * t) * base + t * rng.standard_normal((n, k))
        out.append((f"layer{j}", gram(RepresentationMatrix.from_array(X))))
    return out
