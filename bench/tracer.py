"""Outside-in span recorder for the traced run, and its per-layer summary.

Child side (run as a script)::

    python3 bench/tracer.py SPANS.json cli ARG...          # repmetric.cli.main(ARGS)
    python3 bench/tracer.py SPANS.json grad ARG...         # bench/grad_driver.py ARGS

It times ``import repmetric.cli`` (``import repmetric`` for the library
driver), then wraps every public function of every ``repmetric`` module
in each module namespace that bound it by name (``bayes_metrics``
imports ``sample``; ``harness`` imports ``gram``), plus the public
methods of repmetric classes. Each call
records a span: name, thread, start, end and the span that caused it.
Every ``ThreadPoolExecutor`` a repmetric module imported is replaced by
one whose tasks inherit the submitting span as parent, so pair work in
worker threads links back to ``harness.pairwise_matrix``. Spans stay in
memory and are written once, at exit, together with the names wrapped.

Parent side: :func:`layer_metrics` turns the spans into the per-layer
metrics. A function a later change deletes is reported in ``absent``
and contributes zero, it is not an error. Counts marked *computed* in
the README (draws, density points, gflop, bytes, distinct draws, jitter
rescues, MDS iterations) come from call arguments, results and file
sizes, not from counters inside the program.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
import types

# Functions whose spans the per-layer metrics read, by "module.qualname".
ESTIMATES = ("bayes_metrics.tvd", "bayes_metrics.jsd", "bayes_metrics.js_distance",
             "bayes_metrics.estimate")
GRADIENTS = ("bayes_metrics.jsd_gradient", "bayes_metrics.tvd_gradient")
READS = ("matrix_io.read_matrix", "matrix_io.read_manifest")
WRITES = ("matrix_io.write_matrix", "matrix_io.write_manifest")
NAMED = {
    "validate": ("kernel.KernelMatrix.from_array",),
    "gram": ("kernel.gram",),
    "factor": ("kernel.cholesky_with_jitter",),
    "sample": ("mvn.sample",),
    "log_density": ("mvn.log_density",),
    "estimate": ESTIMATES,
    "gradient": GRADIENTS,
    "read": READS,
    "write": WRITES,
    "derive": ("seeding.derive_seed",),
    "embed": ("mds.mds_embed",),
    "pairwise": ("harness.pairwise_matrix",),
}
PAIR_LAYERS = ("bayes_metrics", "baseline_metrics")


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

class _Recorder:
    def __init__(self):
        self.spans = []
        self.ids = itertools.count(1)
        self.local = threading.local()

    def stack(self):
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def current(self):
        st = self.stack()
        return st[-1] if st else 0


def _bound_args(sig, args, kwargs):
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return None


def _info(name, arguments, result):
    """Shape and size facts for the calls whose counts the summary needs."""
    get = arguments.get
    try:
        if name == "mvn.sample":
            model, n_draws = get("model"), int(get("n_draws"))
            digest = hashlib.blake2b(model.chol.tobytes(), digest_size=8).hexdigest()
            return {"n_draws": n_draws, "dim": int(model.dim),
                    "key": [str(get("seed")), str(get("stream")), n_draws, digest]}
        if name == "mvn.log_density":
            shape = getattr(get("points"), "shape", None) or (0, 0)
            rows = shape[0] if len(shape) == 2 else 1
            return {"points": int(rows), "dim": int(get("model").dim)}
        if name in GRADIENTS:
            return {"n_draws": int(get("n_draws")), "dim": int(len(get("cov1")))}
        if name == "kernel.cholesky_with_jitter":
            return {"jitter": float(result[2])}
        if name in READS:
            return {"bytes": _file_size(get("path"))}
        if name in WRITES:
            return {"bytes": _file_size(get("path"))}
        if name == "mds.mds_embed":
            return {"iterations": int(result.n_iterations)}
    except (AttributeError, IndexError, TypeError, ValueError):
        return None
    return None


def _wrap(rec, name, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        span_id = next(rec.ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            info = None
            if name in _INFO_NAMES:
                info = _info(name, _bound_args(sig, args, kwargs), result)
            rec.spans.append([span_id, parent, name, threading.get_ident(), t0, t1, info])
    return wrapper


_INFO_NAMES = {"mvn.sample", "mvn.log_density", "kernel.cholesky_with_jitter",
               "mds.mds_embed", *GRADIENTS, *READS, *WRITES}


def _linked_executor(rec):
    class LinkedThreadPoolExecutor(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = rec.current()

            def task():
                stack = rec.stack()
                saved = stack[:]
                stack[:] = [parent]
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack[:] = saved
            return super().submit(task)
    return LinkedThreadPoolExecutor


def install(rec):
    """Wrap public repmetric functions and methods; return the names wrapped."""
    modules = {n: m for n, m in list(sys.modules.items())
               if m is not None and (n == "repmetric" or n.startswith("repmetric."))}
    wrappers = {}
    executor = _linked_executor(rec)

    def short(fn):
        return fn.__module__.split(".", 1)[-1] + "." + fn.__qualname__

    def own(obj):
        return getattr(obj, "__module__", "").startswith("repmetric.")

    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if value is concurrent.futures.ThreadPoolExecutor:
                setattr(module, attr, executor)
            elif isinstance(value, types.FunctionType) and own(value):
                if value not in wrappers:
                    wrappers[value] = _wrap(rec, short(value), value)
                setattr(module, attr, wrappers[value])
            elif isinstance(value, type) and own(value) and value.__module__ == module.__name__:
                for meth, raw in list(vars(value).items()):
                    if meth.startswith("_"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = _wrap(rec, f"{short(value)}.{meth}", raw.__func__)
                        setattr(value, meth, type(raw)(wrapped))
                        wrappers[raw] = wrapped
                    elif isinstance(raw, types.FunctionType):
                        wrapped = _wrap(rec, short(raw), raw)
                        setattr(value, meth, wrapped)
                        wrappers[raw] = wrapped
    return sorted({w.__wrapped__.__module__.split(".", 1)[-1] + "." + w.__wrapped__.__qualname__
                   for w in wrappers.values()})


def child_main(argv):
    spans_path, mode, rest = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    # the import users pay for: the CLI, or the package for library use
    importlib.import_module("repmetric" if mode == "grad" else "repmetric.cli")
    import_s = time.perf_counter() - t0
    if mode == "grad":
        import grad_driver  # next to this script, so already on sys.path
        run = lambda: grad_driver.main(rest) or 0  # noqa: E731
    else:
        run = lambda: sys.modules["repmetric.cli"].main(rest)  # noqa: E731
    rec = _Recorder()
    wrapped = install(rec)
    code = run()
    doc = {"import_s": import_s, "wrapped": wrapped, "spans": rec.spans}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def _union_length(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class _SpanTree:
    def __init__(self, spans):
        self.spans = {s[0]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    @staticmethod
    def layer(span):
        return span[2].split(".", 1)[0]

    def has_ancestor(self, span, names):
        parent = self.spans.get(span[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = self.spans.get(parent[1])
        return False

    def outermost(self, names):
        names = set(names)
        return [s for s in self.spans.values()
                if s[2] in names and not self.has_ancestor(s, names)]

    def frontier(self, span, layers=None):
        """Nearest descendants outside the span's own layer."""
        own, out, todo = self.layer(span), [], list(self.children.get(span[0], []))
        while todo:
            s = todo.pop()
            if self.layer(s) != own:
                if layers is None or self.layer(s) in layers:
                    out.append(s)
            else:
                todo.extend(self.children.get(s[0], []))
        return out

    def self_time(self, layer):
        tops = [s for s in self.spans.values()
                if self.layer(s) == layer and not self._in_layer_ancestor(s)]
        total = 0.0
        for s in tops:
            covered = [(max(c[4], s[4]), min(c[5], s[5])) for c in self.frontier(s)]
            total += (s[5] - s[4]) - _union_length([iv for iv in covered if iv[1] > iv[0]])
        return total, tops

    def _in_layer_ancestor(self, span):
        own = self.layer(span)
        parent = self.spans.get(span[1])
        while parent is not None:
            if self.layer(parent) == own:
                return True
            parent = self.spans.get(parent[1])
        return False


def _duration(spans):
    return sum(s[5] - s[4] for s in spans)


def _gflop(tree):
    """Floating-point work of the estimators, computed from call shapes.

    Sampling maps N x n normals through an n x n factor (2 N n^2), a log
    density is one triangular solve with N right-hand sides (N n^2), and
    a Cholesky-adjoint gradient adds 20 N n^2 + 12 n^3 on top of its own
    sampling and densities.
    """
    est_names = set(ESTIMATES) | set(GRADIENTS)
    flop = 0.0
    for s in tree.spans.values():
        info = s[6] or {}
        if not (tree.has_ancestor(s, est_names) or s[2] in GRADIENTS):
            continue
        if s[2] == "mvn.sample" and "n_draws" in info:
            flop += 2.0 * info["n_draws"] * info["dim"] ** 2
        elif s[2] == "mvn.log_density" and "points" in info:
            flop += info["points"] * info["dim"] ** 2 + 2.0 * info["points"] * info["dim"]
        elif s[2] in GRADIENTS and "n_draws" in info:
            N, n = info["n_draws"], info["dim"]
            flop += 20.0 * N * n * n + 12.0 * n ** 3
    return flop / 1e9


def layer_metrics(doc):
    """Per-layer metrics of one traced child, plus the names found absent."""
    tree = _SpanTree(doc["spans"])
    wrapped = set(doc["wrapped"])
    absent = sorted({n for names in NAMED.values() for n in names if n not in wrapped})

    def named(key):
        return [s for s in tree.spans.values() if s[2] in NAMED[key]]

    def infos(key):
        return [s[6] for s in named(key) if s[6]]

    out = {"cli.import_s": doc["import_s"]}

    reads, writes = tree.outermost(READS), tree.outermost(WRITES)
    out["matrix_io.read_s"] = _duration(reads)
    out["matrix_io.read_mb"] = sum(i.get("bytes") or 0 for i in infos("read")) / 1e6
    out["matrix_io.write_s"] = _duration(writes)
    out["matrix_io.write_mb"] = sum(i.get("bytes") or 0 for i in infos("write")) / 1e6

    out["kernel.validate_s"] = _duration(tree.outermost(NAMED["validate"]))
    out["kernel.gram_s"] = _duration(tree.outermost(NAMED["gram"]))
    out["kernel.factor_s"] = _duration(tree.outermost(NAMED["factor"]))
    out["kernel.factor_calls"] = len(named("factor"))
    out["kernel.jitter_rescues"] = sum(1 for i in infos("factor") if i.get("jitter", 0) > 0)

    samples = infos("sample")
    keys = {tuple(i["key"]) for i in samples if "key" in i}
    out["mvn.sample_s"] = _duration(tree.outermost(NAMED["sample"]))
    out["mvn.draws"] = sum(i["n_draws"] * i["dim"] for i in samples if "n_draws" in i)
    out["mvn.log_density_s"] = _duration(tree.outermost(NAMED["log_density"]))
    out["mvn.density_points"] = sum(i["points"] for i in infos("log_density") if "points" in i)
    out["mvn.distinct_draw_frac"] = len(keys) / len(samples) if samples else 0.0

    estimates = tree.outermost(ESTIMATES)
    gradients = tree.outermost(GRADIENTS)
    out["bayes_metrics.estimate_s"] = _duration(estimates)
    out["bayes_metrics.self_s"] = tree.self_time("bayes_metrics")[0]
    out["bayes_metrics.estimates"] = len(estimates)
    out["bayes_metrics.gradient_s"] = _duration(gradients)
    gflop = _gflop(tree)
    busy = out["bayes_metrics.estimate_s"] + out["bayes_metrics.gradient_s"]
    out["bayes_metrics.gflop"] = gflop
    out["bayes_metrics.gflop_per_s"] = gflop / busy if busy > 0 else 0.0

    base = [s for s in tree.spans.values()
            if tree.layer(s) == "baseline_metrics" and not tree._in_layer_ancestor(s)]
    out["baseline_metrics.s"] = _duration(base)
    out["baseline_metrics.calls"] = len(base)

    harness_self, harness_tops = tree.self_time("harness")
    pair_work = [c for s in tree.outermost(NAMED["pairwise"])
                 for c in tree.frontier(s, PAIR_LAYERS)]
    busy_pairs = _duration(pair_work)
    out["harness.s"] = _duration(harness_tops)
    out["harness.self_s"] = harness_self
    out["harness.pair_busy_s"] = busy_pairs
    covered = _union_length([(s[4], s[5]) for s in pair_work])
    out["harness.parallelism"] = busy_pairs / covered if covered > 0 else 0.0

    out["seeding.derive_calls"] = len(named("derive"))
    out["mds.embed_s"] = _duration(tree.outermost(NAMED["embed"]))
    out["mds.iterations"] = sum(i.get("iterations", 0) for i in infos("embed"))
    return out, absent


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
