"""Experiment pipelines over sets of layer kernels.

Pairwise distance matrices, grid sweeps over stimulus count and noise
level, and subsampling stability studies. Every pair gets its own seed
derived from the master seed and the unordered label pair, with the
sample stream for the lexicographically smaller label fixed, so results
are exactly symmetric and independent of pair order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import baseline_metrics, bayes_metrics
from .bayes_metrics import DistanceEstimate
from .errors import RepmetricError, ValidationError
from .kernel import (GaussianModel, KernelMatrix, RepresentationMatrix, gram,
                     predictive_covariance)
from .matrix_io import LayerManifest, MatrixKind, read_matrix
from .seeding import derive_seed, pair_seed, stream_generator

ALL_METRICS = bayes_metrics.BAYES_METRICS + baseline_metrics.BASELINE_METRICS
DEFAULT_B = 0.01  # proportional-noise constant when neither a nor b is given


def heuristic_a(n: int, b: float) -> float:
    """Noise mixture weight a = b*n / (1 + b*n).

    Models noise variance growing proportionally with the stimulus
    count, which keeps discriminability roughly flat once enough
    stimuli are used. b must be finite and >= 0; an overflowing b*n gives a = 1.
    """
    if n < 0:
        raise ValidationError("n must be >= 0")
    if not 0.0 <= b < np.inf:
        raise ValidationError(f"b={b} must be finite and >= 0")
    bn = b * n
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
    """Prefix ``what: `` to a ValidationError raised inside."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None


def load_kernel(path, kind: MatrixKind, what: str) -> KernelMatrix:
    """A representation (grammed) or kernel file as a kernel; errors past the read name ``what``."""
    if kind is MatrixKind.DISTANCE:
        raise ValidationError(f"{what}: distance matrices cannot be compared")
    loaded = read_matrix(path, kind)
    with named(what):
        if kind is MatrixKind.REPRESENTATION:
            return gram(RepresentationMatrix.from_array(loaded.values, loaded.labels))
        return KernelMatrix.from_array(loaded.values, loaded.labels)


def load_layer_kernels(manifest: LayerManifest) -> list[tuple[str, KernelMatrix]]:
    """Load every manifest entry as a kernel, gramming representations."""
    return [(e.name, load_kernel(manifest.resolve(e), e.kind, f"layer {e.name!r}"))
            for e in manifest.entries]


def _check_layers(layers: Sequence[tuple[str, KernelMatrix]]) -> int:
    if len(layers) < 2:
        raise ValidationError("need at least 2 layers")
    names = [name for name, _ in layers]
    if len(set(names)) != len(names):
        raise ValidationError("layer names must be unique")
    sizes = {k.n for _, k in layers}
    if len(sizes) != 1:
        raise ValidationError(f"layers have mixed stimulus counts: {sorted(sizes)}")
    return sizes.pop()


def _split_metrics(metrics: Sequence[str]):
    bayes = [m for m in metrics if m in bayes_metrics.BAYES_METRICS]
    base = [m for m in metrics if m in baseline_metrics.BASELINE_METRICS]
    unknown = [m for m in metrics if m not in bayes and m not in base]
    if unknown:
        raise ValidationError(f"unknown metrics: {unknown}")
    if not metrics:
        raise ValidationError("no metrics requested")
    if len(set(metrics)) < len(metrics):
        raise ValidationError(f"repeated metrics: {list(metrics)}")
    return bayes, base


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
    if on_error not in ("abort", "skip"):
        raise ValidationError("on_error must be 'abort' or 'skip'")
    _check_layers(layers)
    metrics_bayes, metrics_base = _split_metrics(metrics)

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
        errors |= {m: prepared[name].errors[m] for m in metrics_base
                   if m in prepared[name].errors}
        undefined[name] = {m: type(e)(f"layer {name!r}: {e}") for m, e in errors.items()}
        if undefined[name] and on_error == "abort":
            raise next(iter(undefined[name].values()))

    names = [name for name, _ in layers]
    order = {name: i for i, name in enumerate(names)}
    pairs = [tuple(sorted((names[i], names[j])))
             for i in range(len(names)) for j in range(i + 1, len(names))]

    def compute(pair):
        """{metric: (value, std_error, None) or (nan, nan, reason)}: one estimate call (one
        set of draws) and one compare call, on the metrics both layers define."""
        la, lb = pair
        results = {m: (np.nan, np.nan, str(e))
                   for m, e in {**undefined[lb], **undefined[la]}.items()}
        bayes = [m for m in metrics_bayes if m not in results]
        if bayes:
            ests = bayes_metrics.estimate(bayes, models[la], models[lb],
                                          n_samples, pair_seed(seed, la, lb))
            results |= {m: (e.value, e.std_error, None) for m, e in ests.items()}
        base = [m for m in metrics_base if m not in results]
        results |= {m: (r.value, 0.0, None)
                    for m, r in prepared[la].compare(prepared[lb], base).items()}
        return results

    results = [compute(p) for p in pairs]

    m = len(names)
    matrices = {}
    for metric in metrics_bayes + metrics_base:
        values = np.zeros((m, m))
        ses = np.zeros((m, m))
        holes = []
        for (la, lb), res in zip(pairs, results):
            i, j = order[la], order[lb]
            v, se, reason = res[metric]
            values[i, j] = values[j, i] = v
            ses[i, j] = ses[j, i] = se
            if reason is not None:
                holes.append((la, lb, reason))
        matrices[metric] = DistanceMatrix(
            metric=metric, labels=tuple(names), values=values,
            std_errors=ses, holes=tuple(holes))
    return matrices


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
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"a={value} outside [0, 1]")
        return float(value)
    if noise_kind == "variance":
        if not 0.0 <= value < np.inf:  # heuristic_a's rule for b
            raise ValidationError(f"noise variance {value} must be finite and >= 0")
        return float(value / (1.0 + value))
    raise ValidationError("noise_kind must be 'a' or 'variance'")


def snr_sweep(pool1: KernelMatrix, pool2: KernelMatrix, n_values: Sequence[int],
              noise_values: Sequence[float], n_samples: int, seed: int,
              b: float = DEFAULT_B, metrics: Sequence[str] = ("jsd",),
              noise_kind: str = "a") -> SweepGrid:
    """Estimate distances over every (stimulus count, noise level) cell.

    Both pools must cover the same stimulus pool; each cell uses the
    leading principal submatrices of size n. A separate slice with
    a = heuristic_a(n, b) marks the proportional-noise diagonal.
    """
    if pool1.n != pool2.n:
        raise ValidationError("kernel pools have different sizes")
    for m in metrics:
        if m not in ("jsd", "tvd"):
            raise ValidationError(f"snr_sweep supports jsd/tvd, got {m!r}")
    _split_metrics(metrics)
    n_values = [int(n) for n in n_values]
    if not n_values or not len(noise_values):
        raise ValidationError("empty sweep axes")
    if max(n_values) > pool1.n:
        raise ValidationError(f"n={max(n_values)} exceeds pool size {pool1.n}")
    if min(n_values) < 2:
        raise ValidationError("need n >= 2")

    a_grid = [_noise_to_a(v, noise_kind) for v in noise_values]
    a_props = [heuristic_a(n, b) for n in n_values]
    grid = {m: [] for m in metrics}
    proportional = {m: [] for m in metrics}
    for n, a_prop in zip(n_values, a_props):
        k1, k2 = (_leading(pool, n) for pool in (pool1, pool2))
        for m in metrics:
            grid[m].append([])
        for j, a in enumerate(a_grid):
            ests = _sweep_cell(k1, k2, a, metrics, n_samples,
                               cell_seed(seed, n, j))
            for m in metrics:
                grid[m][-1].append(ests[m])
        ests = _sweep_cell(k1, k2, a_prop, metrics, n_samples,
                           cell_seed(seed, n, "prop"))
        for m in metrics:
            proportional[m].append((a_prop, ests[m]))
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
    return KernelMatrix(K=pool.K[:n, :n], labels=pool.labels[:n])


def _sweep_cell(k1, k2, a, metrics, n_samples, seed):
    m1 = predictive_covariance(k1, a)
    m2 = predictive_covariance(k2, a)
    ps = pair_seed(seed, *SWEEP_LABELS)
    return bayes_metrics.estimate(metrics, m1, m2, n_samples, ps)


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
    pool_size = _check_layers(layers)
    if n_images > pool_size:
        raise ValidationError(f"n_images={n_images} exceeds pool size {pool_size}")
    if n_images < 2:
        raise ValidationError("n_images must be >= 2")
    if n_repeats < 2:
        raise ValidationError("n_repeats must be >= 2")
    _split_metrics(metrics)

    a = heuristic_a(n_images, b)
    names = [name for name, _ in layers]
    pair_labels = [(names[i], names[j])
                   for i in range(len(names)) for j in range(i + 1, len(names))]
    collected: dict[str, dict[tuple[str, str], list[float]]] = {
        m: {p: [] for p in pair_labels} for m in metrics}

    for rep in range(n_repeats):
        rng = stream_generator(derive_seed(seed, "stability-subset", rep))
        idx = np.sort(rng.choice(pool_size, size=n_images, replace=False))
        sub = [(name, kern.subset(idx)) for name, kern in layers]
        rep_seed = derive_seed(seed, "stability-repeat", rep)
        mats = pairwise_matrix(sub, metrics, a, n_samples, rep_seed, rsa_squared=rsa_squared)
        for m in metrics:
            dm = mats[m]
            order = {lab: i for i, lab in enumerate(dm.labels)}
            for p in pair_labels:
                collected[m][p].append(float(dm.values[order[p[0]], order[p[1]]]))

    per_pair_sd = {
        m: {p: float(np.std(v, ddof=1)) for p, v in collected[m].items()} for m in metrics}
    median_sd = {m: _median(list(per_pair_sd[m].values())) for m in metrics}
    max_sd = {m: float(np.max(list(per_pair_sd[m].values()))) for m in metrics}
    values = {m: {p: tuple(v) for p, v in collected[m].items()} for m in metrics}
    return StabilityReport(
        n_images=int(n_images), n_repeats=int(n_repeats), pool_size=pool_size,
        b=float(b), a=float(a), metrics=tuple(metrics),
        pair_labels=tuple(pair_labels), per_pair_sd=per_pair_sd,
        median_sd=median_sd, max_sd=max_sd, values=values)
