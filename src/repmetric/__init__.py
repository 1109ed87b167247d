"""Distances between neural-network representations.

Compares representations through the zero-mean Gaussian predictive
distributions their linear kernels induce (total variation distance,
Jensen-Shannon divergence/distance, Monte-Carlo estimated with
reparameterized gradients), alongside kernel-based baselines (CKA
distance, shape metric, RSA variants), with experiment pipelines for
pairwise matrices, noise sweeps, stability studies and 2-D embeddings.
"""

__version__ = "0.1.0"

from .baseline_metrics import (BaselineResult, cka, cka_distance, rsa_arccos,
                               rsa_one_minus_corr, shape_metric)
from .bayes_metrics import (DistanceEstimate, DistanceGradient, js_distance,
                            jsd, jsd_gradient, tvd, tvd_gradient)
from .errors import (DegenerateRepresentationError, NotPositiveDefiniteError,
                     RepmetricError, ValidationError)
from .harness import (DistanceMatrix, StabilityReport, SweepGrid, heuristic_a,
                      pairwise_matrix, snr_sweep, stability_study)
from .kernel import (GaussianModel, KernelMatrix, RepresentationMatrix,
                     centered_kernel, gram, predictive_covariance,
                     squared_distance_matrix)
from .matrix_io import (LayerManifest, LoadedMatrix, ManifestEntry, MatrixKind,
                        read_manifest, read_matrix, write_manifest, write_matrix)
from .mds import Embedding, mds_embed

__all__ = [
    "__version__",
    "BaselineResult", "cka", "cka_distance", "rsa_arccos", "rsa_one_minus_corr",
    "shape_metric",
    "DistanceEstimate", "DistanceGradient",
    "js_distance", "jsd", "jsd_gradient", "tvd", "tvd_gradient",
    "DegenerateRepresentationError", "NotPositiveDefiniteError",
    "RepmetricError", "ValidationError",
    "DistanceMatrix", "StabilityReport", "SweepGrid", "heuristic_a",
    "pairwise_matrix", "snr_sweep", "stability_study",
    "GaussianModel", "KernelMatrix", "RepresentationMatrix",
    "centered_kernel", "gram", "predictive_covariance", "squared_distance_matrix",
    "LayerManifest", "LoadedMatrix", "ManifestEntry", "MatrixKind",
    "read_manifest", "read_matrix", "write_manifest", "write_matrix",
    "Embedding", "mds_embed",
]
