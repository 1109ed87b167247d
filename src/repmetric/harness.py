"""Experiment pipelines over sets of layer kernels.

Pairwise distance matrices, grid sweeps over stimulus count and noise
level, and subsampling stability studies. Every pair gets its own seed
derived from the master seed and the unordered label pair, with the
sample stream for the lexicographically smaller label fixed, so results
are exactly symmetric and independent of pair order.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import baseline_metrics, bayes_metrics
from .bayes_metrics import DistanceEstimate
from .errors import RepmetricError, ValidationError
from .kernel import (GaussianModel, KernelMatrix, RepresentationMatrix,
                     check_finite_nonnegative, check_mixture_weight, gram,
                     predictive_covariance)
from .matrix_io import LayerManifest, MatrixKind, read_matrix
from .seeding import derive_seed, pair_seed, stream_generator

ALL_METRICS = bayes_metrics.BAYES_METRICS + baseline_metrics.BASELINE_METRICS
DEFAULT_B = 0.01  # proportional-noise constant when neither a nor b is given
DEFAULT_SAMPLES = 10_000  # Monte-Carlo draws per side when no flag or manifest sets them


def heuristic_a(n: int, b: float) -> float:
    """Noise mixture weight a = b*n / (1 + b*n).

    Models noise variance growing proportionally with the stimulus
    count, which keeps discriminability roughly flat once enough
    stimuli are used. b must be finite and >= 0; an overflowing b*n gives a = 1.
    """
    if n < 0:
        raise ValidationError("n must be >= 0")
    bn = check_finite_nonnegative(b, f"b={b}") * n
    return bn / (1.0 + bn) if bn < np.inf else 1.0


@dataclass(frozen=True)
class DistanceMatrix:
    """Labelled symmetric matrix of pairwise distances for one metric."""

    metric: str
    labels: tuple[str, ...]
    values: np.ndarray
    std_errors: np.ndarray
    holes: tuple[tuple[str, str, str], ...] = ()


@contextmanager
def named(what: str):
    """Prefix ``what: `` to a RepmetricError raised inside, keeping its type."""
    try:
        yield
    except RepmetricError as exc:
        raise type(exc)(f"{what}: {exc}") from None


def load_kernel(path, kind: MatrixKind, what: str) -> KernelMatrix:
    """A representation (grammed) or kernel file as a kernel; errors past the read name ``what``."""
    if kind is MatrixKind.DISTANCE:
        raise ValidationError(f"{what}: distance matrices cannot be compared")
    loaded = read_matrix(path, kind)
    with named(what):
        if kind is MatrixKind.REPRESENTATION:
            return gram(RepresentationMatrix.from_array(loaded.values, loaded.labels))
        # the array read_matrix just made is no one else's: symmetrized where it lies
        return KernelMatrix._adopt(loaded.values, loaded.labels)


def load_layer_kernels(manifest: LayerManifest) -> list[tuple[str, KernelMatrix]]:
    """Load every manifest entry as a kernel, gramming representations."""
    return [(e.name, load_kernel(manifest.resolve(e), e.kind, f"layer {e.name!r}"))
            for e in manifest.entries]


def _check_layers(layers: Sequence[tuple[str, KernelMatrix]]) -> int:
    """The stimulus count of layers that agree."""
    if len(layers) < 2:
        raise ValidationError("need at least 2 layers")
    names = [name for name, _ in layers]
    if len(set(names)) != len(names):
        raise ValidationError("layer names must be unique")
    sizes = {k.n for _, k in layers}
    if len(sizes) != 1:
        raise ValidationError(f"layers have mixed stimulus counts: {sorted(sizes)}")
    _check_stimuli([(f"layer {name!r}", k) for name, k in layers])
    return sizes.pop()


def _check_stimuli(kernels: Sequence[tuple[str, KernelMatrix]]) -> None:
    """Every kernel with labels lists the same labels in the same order;
    ``what`` names a kernel in the message. A kernel whose labels are None
    (every binary file and every CSV without a label row) is taken in row
    order. The kernels are of one size."""
    labelled = [(what, k.labels) for what, k in kernels if k.labels is not None]
    for what, labels in labelled[1:]:
        first, want = labelled[0]
        if labels != want:
            row = next(i for i, (got, exp) in enumerate(zip(labels, want)) if got != exp)
            raise ValidationError(f"{what}: stimulus labels differ from {first}'s "
                                  f"(row {row}: {labels[row]!r} vs {want[row]!r})")


def split_metrics(metrics: Sequence[str], n_samples: int):
    """(Bayes metrics, baselines), checked before any work: a run's draws
    are refused here, not in the first pair that uses them."""
    bayes = [m for m in metrics if m in bayes_metrics.BAYES_METRICS]
    base = [m for m in metrics if m in baseline_metrics.BASELINE_METRICS]
    unknown = [m for m in metrics if m not in bayes and m not in base]
    if unknown:
        raise ValidationError(f"unknown metrics: {unknown}")
    if len(set(metrics)) < len(metrics):
        raise ValidationError(f"repeated metrics: {list(metrics)}")
    bayes_metrics.check_request(metrics, n_samples)
    return bayes, base


def check_pairwise_args(metrics: Sequence[str], n_samples: int, seed: int,
                        a: float | None = None, b: float | None = None,
                        on_error: str = "abort"):
    """``pairwise_matrix``'s argument rules, none of which needs a kernel:
    ``split_metrics`` (returned), the seed's range, a in [0, 1] and, when
    ``heuristic_a`` is to set a from b, b finite and >= 0."""
    if on_error not in ("abort", "skip"):
        raise ValidationError("on_error must be 'abort' or 'skip'")
    split = split_metrics(metrics, n_samples)
    derive_seed(seed)  # refuses a seed outside its range
    if a is not None:
        check_mixture_weight(a)
    if b is not None:
        check_finite_nonnegative(b, f"b={b}")
    return split


def pairwise_matrix(layers: Sequence[tuple[str, KernelMatrix]], metrics: Sequence[str],
                    a: float, n_samples: int, seed: int, rsa_squared: bool = True,
                    on_error: str = "abort") -> dict[str, DistanceMatrix]:
    """Distance matrices over all unordered layer pairs, one per metric.

    Each layer's undefined metrics are decided once, before any pair runs:
    every Bayes metric when it has no predictive distribution, a baseline
    when its kernel or distance vector is degenerate. Each reason starts
    ``layer 'name': ``. ``on_error='abort'`` raises the first; ``'skip'``
    makes it a hole (NaN and the reason) in each of the layer's pairs, the
    pair's first label winning. A ValidationError aborts in both modes.
    Pairs run one at a time.
    """
    metrics_bayes, metrics_base = check_pairwise_args(metrics, n_samples, seed, a=a,
                                                      on_error=on_error)
    _check_layers(layers)

    # per layer, before any pair runs: its model, baseline operands and undefined metrics
    models: dict[str, GaussianModel] = {}
    prepared: dict[str, baseline_metrics.PreparedKernel] = {}
    undefined: dict[str, dict[str, RepmetricError]] = {}
    for name, kern in layers:
        errors = {}
        if metrics_bayes:
            try:
                models[name] = predictive_covariance(kern, a)
            except ValidationError as exc:
                raise ValidationError(f"layer {name!r}: {exc}") from exc
            except RepmetricError as exc:
                errors = dict.fromkeys(metrics_bayes, exc)
        prepared[name] = baseline_metrics.PreparedKernel(kern, metrics_base, rsa_squared)
        errors |= prepared[name].errors
        undefined[name] = {m: type(e)(f"layer {name!r}: {e}") for m, e in errors.items()}
        if undefined[name] and on_error == "abort":
            raise next(iter(undefined[name].values()))

    # one pass over the unordered pairs: one estimate call (one set of draws) and one
    # compare call each, on the metrics both layers define, written straight into the matrices
    names = [name for name, _ in layers]
    values = {m: np.zeros((len(names), len(names))) for m in metrics_bayes + metrics_base}
    ses = {m: np.zeros((len(names), len(names))) for m in values}
    holes = {m: [] for m in values}
    for i, j in itertools.combinations(range(len(names)), 2):
        la, lb = sorted((names[i], names[j]))
        row = {}
        for m, e in {**undefined[lb], **undefined[la]}.items():
            row[m] = (np.nan, np.nan)
            holes[m].append((la, lb, str(e)))
        bayes = [m for m in metrics_bayes if m not in row]
        if bayes:
            ests = bayes_metrics.estimate(bayes, models[la], models[lb],
                                          n_samples, pair_seed(seed, la, lb))
            row |= {m: (e.value, e.std_error) for m, e in ests.items()}
        base = [m for m in metrics_base if m not in row]
        row |= {m: (r.value, 0.0)
                for m, r in prepared[la].compare(prepared[lb], base).items()}
        for m, (v, se) in row.items():
            values[m][i, j] = values[m][j, i] = v
            ses[m][i, j] = ses[m][j, i] = se
    return {m: DistanceMatrix(metric=m, labels=tuple(names), values=values[m],
                              std_errors=ses[m], holes=tuple(holes[m]))
            for m in values}


@dataclass(frozen=True)
class SweepGrid:
    """JSD (and optionally TVD) over a stimulus-count x noise grid.

    ``grid[metric][i][j]`` is the estimate at n_values[i] and
    noise_values[j], whose mixture weight is a_values[j];
    ``proportional[metric][i]`` is the marked slice where a follows the
    proportional-noise heuristic at n_values[i].
    """

    n_values: tuple[int, ...]
    noise_values: tuple[float, ...]
    a_values: tuple[float, ...]
    noise_kind: str
    b: float
    grid: dict[str, list[list[DistanceEstimate]]]
    proportional: dict[str, list[tuple[float, DistanceEstimate]]]


def _noise_to_a(value: float, noise_kind: str) -> float:
    if noise_kind == "a":
        return check_mixture_weight(value)
    if noise_kind == "variance":  # b's rule
        value = check_finite_nonnegative(value, f"noise variance {value}")
        return value / (1.0 + value)
    raise ValidationError("noise_kind must be 'a' or 'variance'")


def check_sweep_args(n_values: Sequence[int], noise_values: Sequence[float], n_samples: int,
                     seed: int, b: float = DEFAULT_B, metrics: Sequence[str] = ("jsd",),
                     noise_kind: str = "a") -> list[float]:
    """``snr_sweep``'s argument rules, none of which needs a kernel; returns
    each noise value's mixture weight. A sweep estimates jsd and tvd only."""
    for m in metrics:
        if m not in bayes_metrics.SAMPLED_METRICS:
            raise ValidationError(f"snr_sweep supports jsd/tvd, got {m!r}")
    check_pairwise_args(metrics, n_samples, seed, b=b)
    if not len(n_values) or not len(noise_values):
        raise ValidationError("empty sweep axes")
    if min(n_values) < 2:
        raise ValidationError("need n >= 2")
    return [_noise_to_a(v, noise_kind) for v in noise_values]


def snr_sweep(pool1: KernelMatrix, pool2: KernelMatrix, n_values: Sequence[int],
              noise_values: Sequence[float], n_samples: int, seed: int,
              b: float = DEFAULT_B, metrics: Sequence[str] = ("jsd",),
              noise_kind: str = "a") -> SweepGrid:
    """Estimate distances over every (stimulus count, noise level) cell.

    Both pools must cover the same stimulus pool; each cell uses the
    leading principal submatrices of size n. A separate slice with
    a = heuristic_a(n, b) marks the proportional-noise diagonal.
    """
    a_grid = check_sweep_args(n_values, noise_values, n_samples, seed, b, metrics, noise_kind)
    if pool1.n != pool2.n:
        raise ValidationError("kernel pools have different sizes")
    _check_stimuli(list(zip(SWEEP_LABELS, (pool1, pool2))))
    n_values = [int(n) for n in n_values]
    if max(n_values) > pool1.n:
        raise ValidationError(f"n={max(n_values)} exceeds pool size {pool1.n}")

    a_props = [heuristic_a(n, b) for n in n_values]
    grid = {m: [] for m in metrics}
    proportional = {m: [] for m in metrics}
    for n, a_prop in zip(n_values, a_props):
        k1, k2 = (_leading(pool, n) for pool in (pool1, pool2))
        row = [_sweep_cell(k1, k2, a, metrics, n_samples, cell_seed(seed, n, j), f"n={n}, a={a}")
               for j, a in enumerate(a_grid)]
        prop = _sweep_cell(k1, k2, a_prop, metrics, n_samples, cell_seed(seed, n, "prop"),
                           f"n={n}, proportional")
        for m in metrics:
            grid[m].append([ests[m] for ests in row])
            proportional[m].append((a_prop, prop[m]))
    return SweepGrid(n_values=tuple(n_values), noise_values=tuple(float(v) for v in noise_values),
                     a_values=tuple(a_grid), noise_kind=noise_kind, b=float(b), grid=grid,
                     proportional=proportional)


SWEEP_LABELS = ("kernel1", "kernel2")


def cell_seed(seed: int, n: int, noise_index) -> int:
    """Master seed of one sweep cell; 'prop' marks the heuristic slice.

    A cell's estimate equals a two-layer pairwise run over the same
    submatrices with layer names ``kernel1``/``kernel2`` and this value
    as its master seed.
    """
    return derive_seed(seed, "sweep", n, "cell", noise_index)


def _leading(pool: KernelMatrix, n: int) -> KernelMatrix:
    """The pool's leading n×n principal submatrix as a view, not a copy; at
    n = pool.n the pool itself, with the factor it already holds."""
    if n == pool.n:
        return pool
    labels = None if pool.labels is None else pool.labels[:n]
    return KernelMatrix(K=pool.K[:n, :n], labels=labels)


def _sweep_cell(k1, k2, a, metrics, n_samples, seed, where):
    """One cell's estimates; a failing model names its kernel and ``where`` (the cell)."""
    models = []
    for label, k in zip(SWEEP_LABELS, (k1, k2)):
        with named(f"{label}, {where}"):
            models.append(predictive_covariance(k, a))
    return bayes_metrics.estimate(metrics, *models, n_samples, pair_seed(seed, *SWEEP_LABELS))


def _median(values) -> float:
    """np.median's value, without the numpy.ma import that np.median costs."""
    v = np.sort(values)
    mid = v.size // 2
    return float(v[mid] if v.size % 2 else (v[mid - 1] + v[mid]) / 2)


@dataclass(frozen=True)
class StabilityReport:
    """Spread of pairwise distances across random stimulus subsets."""

    n_images: int
    n_repeats: int
    pool_size: int
    b: float
    a: float
    metrics: tuple[str, ...]
    pair_labels: tuple[tuple[str, str], ...]
    per_pair_sd: dict[str, dict[tuple[str, str], float]]
    median_sd: dict[str, float]
    max_sd: dict[str, float]
    values: dict[str, dict[tuple[str, str], tuple[float, ...]]] = field(repr=False, default_factory=dict)


def check_stability_args(n_images: int, n_repeats: int, metrics: Sequence[str], b: float,
                         n_samples: int, seed: int) -> float:
    """``stability_study``'s argument rules, none of which needs a kernel;
    returns the subsets' mixture weight, heuristic_a(n_images, b)."""
    if n_images < 2:
        raise ValidationError("n_images must be >= 2")
    if n_repeats < 2:
        raise ValidationError("n_repeats must be >= 2")
    check_pairwise_args(metrics, n_samples, seed)
    return heuristic_a(n_images, b)


def stability_study(layers: Sequence[tuple[str, KernelMatrix]], n_images: int,
                    n_repeats: int, metrics: Sequence[str], b: float,
                    n_samples: int, seed: int, threads: int = 1,
                    rsa_squared: bool = True) -> StabilityReport:
    """Repeatedly subsample stimuli and measure how distances vary.

    Each repeat draws a uniform subset without replacement from the
    pooled kernels, slices every layer to it, applies the proportional
    noise heuristic for the subset size, and computes all pairwise
    distances. Monte-Carlo seeds are refreshed per repeat, so reported
    spreads include estimator noise for the Bayes metrics. Pairs run one
    at a time; ``threads`` is kept for callers that still pass it, as 1.
    """
    if threads != 1:
        raise ValidationError(f"threads={threads}: pairs run one at a time, only 1 is accepted")
    a = check_stability_args(n_images, n_repeats, metrics, b, n_samples, seed)
    pool_size = _check_layers(layers)
    if n_images > pool_size:
        raise ValidationError(f"n_images={n_images} exceeds pool size {pool_size}")

    names = [name for name, _ in layers]
    pair_labels = list(itertools.combinations(names, 2))
    upper = np.triu_indices(len(names), k=1)  # the pairs' (i, j) in pair_labels' order
    runs: dict[str, list[np.ndarray]] = {m: [] for m in metrics}

    for rep in range(n_repeats):
        rng = stream_generator(derive_seed(seed, "stability-subset", rep))
        idx = np.sort(rng.choice(pool_size, size=n_images, replace=False))
        sub = [(name, kern.subset(idx)) for name, kern in layers]
        rep_seed = derive_seed(seed, "stability-repeat", rep)
        with named(f"n_images={n_images}, repeat {rep}"):
            mats = pairwise_matrix(sub, metrics, a, n_samples, rep_seed, rsa_squared=rsa_squared)
        for m in metrics:
            runs[m].append(mats[m].values[upper])

    values = {m: {p: tuple(v) for p, v in zip(pair_labels, np.transpose(runs[m]).tolist())}
              for m in metrics}
    per_pair_sd = {
        m: {p: float(np.std(v, ddof=1)) for p, v in values[m].items()} for m in metrics}
    median_sd = {m: _median(list(per_pair_sd[m].values())) for m in metrics}
    max_sd = {m: float(np.max(list(per_pair_sd[m].values()))) for m in metrics}
    return StabilityReport(
        n_images=int(n_images), n_repeats=int(n_repeats), pool_size=pool_size,
        b=float(b), a=float(a), metrics=tuple(metrics),
        pair_labels=tuple(pair_labels), per_pair_sd=per_pair_sd,
        median_sd=median_sd, max_sd=max_sd, values=values)
