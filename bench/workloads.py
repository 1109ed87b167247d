"""The five benchmark workloads: inputs, program invocation and output checks.

Each workload writes its inputs from the seed once, names the child
command a user would run, and checks one run's output directory. A
check returns how many operations the run attempted (one estimate,
gradient, per-pair spread or embedding each), the failures among them
with a reason, and the quality metrics read from the outputs.

The program is imported in this process only by the checks that must
call it: the gradient finite differences, the MDS stress history and
the stability per-repeat values, which the CLI does not write.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

import inputs
from reference import heuristic_a, reference_pair

Z_TOL = 5.0                # estimates must lie within 5 combined standard errors
REF_DRAWS = 20_000         # reference Monte-Carlo draws per pair
B = 0.01                   # proportional-noise constant of every Monte-Carlo workload
SATURATED = 0.98           # reference values above this are left out of the SE calibration
SE_RATIO = (0.8, 1.25)     # allowed median of reported SE over reference-predicted SE


def _read_labelled(path: Path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=np.float64)


def _read_rows(path: Path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_record(out: Path) -> dict:
    return json.loads((out / "record.json").read_text(encoding="utf-8"))


def _z_check(what, est, se, ref, n_draws, failures):
    """Estimate within Z_TOL combined SE of the reference.

    The program's SE is the larger of the one it reports and the one the
    reference's summand variance predicts for its N: near saturation
    (JSD > 0.98) the summands are heavy-tailed and at N ~ 1000 the
    reported SE often understates the error.
    """
    se_prog = max(se, math.sqrt(ref["summand_variance"] / n_draws))
    tol = Z_TOL * math.hypot(se_prog, ref["std_error"])
    if not (math.isfinite(est) and math.isfinite(se) and abs(est - ref["value"]) <= tol):
        failures.append(f"{what}: {est:.6g} (se {se:.3g}) vs reference "
                        f"{ref['value']:.6g} (se {ref['std_error']:.3g})")


def _se_calibration(metric, pairs, n_draws, failures):
    """The reported SE must match the SE the reference predicts for N draws.

    ``pairs`` holds (reported SE, reference) for every estimate of one
    metric in a run. The z-test above takes the larger SE, so it cannot
    catch an SE that is reported too small; this check can. It uses the
    median ratio over the estimates whose reference is below SATURATED,
    where the reported SE is known to be reliable.
    """
    ratios = [se / math.sqrt(ref["summand_variance"] / n_draws)
              for se, ref in pairs if ref["value"] < SATURATED]
    ratio = statistics.median(ratios) if ratios else float("nan")
    if not SE_RATIO[0] <= ratio <= SE_RATIO[1]:
        failures.append(f"{metric}: median reported SE / reference-predicted SE is "
                        f"{ratio:.3g} over {len(ratios)} estimates, outside {SE_RATIO}")


class Workload:
    name = ""
    why = ""
    mode = "cli"  # or "grad": bench/grad_driver.py

    def __init__(self, seed: int, directory: Path):
        self.seed = seed
        self.dir = directory
        self.rng = np.random.default_rng([seed, self.index])
        self._reference = None
        self.prepare()

    def reference(self):
        """Computed once per invocation, outside every timed region."""
        if self._reference is None:
            self._reference = self.compute_reference(np.random.default_rng([self.seed, 99]))
        return self._reference

    # subclasses: index, prepare(), args(out), setup_spec(), compute_reference(rng),
    # check(out) -> (attempted, failures, quality)


class CompareN300(Workload):
    name, index = "compare_n300", 0
    why = ("CLI compare, 6 layers n=300: main user path; estimator-bound, tvd/jsd "
           "redraw the same samples, pair threads over BLAS threads, baselines ~20%")
    layers, n, k, t, samples = 6, 300, 50, 0.2, 1000
    metrics = "jsd,tvd,cka,shape,rsa_corr,rsa_arccos"

    def prepare(self):
        self.X = dict(inputs.layers_same_stimuli(self.rng, self.dir, self.n, self.k,
                                                    self.layers, self.t))

    def args(self, out):
        return ["compare", "--manifest", str(self.dir / "layers.json"), "--metrics", self.metrics,
                "--b", str(B), "--samples", str(self.samples), "--seed", str(self.seed),
                "--out", str(out)]

    def setup_spec(self):
        return {"manifests": [str(self.dir / "layers.json")]}

    def compute_reference(self, rng):
        a = heuristic_a(self.n, B)
        names = sorted(self.X)
        return {(p, q): reference_pair(self.X[p], self.X[q], a, REF_DRAWS, rng)
                for i, p in enumerate(names) for q in names[i + 1:]}

    def check(self, out):
        failures, quality = [], {}
        record = _read_record(out)
        if record.get("holes"):
            failures.append(f"holes: {record['holes']}")
        missing = [m for m in self.metrics.split(",") if m not in record.get("outputs", {})]
        if missing:
            failures.append(f"missing outputs: {missing}")
        attempted = 0
        for metric in ("jsd", "tvd"):
            labels, values = _read_labelled(out / f"{metric}.csv")
            _, ses = _read_labelled(out / f"{metric}.se.csv")
            pairs = []
            for (p, q), ref in self.reference().items():
                i, j = labels.index(p), labels.index(q)
                attempted += 1
                _z_check(f"{metric}({p},{q})", values[i, j], ses[i, j], ref[metric],
                         self.samples, failures)
                pairs.append((ses[i, j], ref[metric]))
            _se_calibration(metric, pairs, self.samples, failures)
            quality[f"{metric}_se_median"] = statistics.median(se for se, _ in pairs)
        return attempted, failures, quality


class SweepN1000(Workload):
    name, index = "sweep_n1000", 1
    why = ("CLI sweep of two rank-50 binary 1000x1000 pooled kernels: large n at low "
           "rank, jsd only so no draws repeat; n=1000 factorization and PSD checks")
    n_values, noise_values, samples = (100, 250, 500, 1000), (0.1, 0.5, 0.9), 1000

    def prepare(self):
        self.X = inputs.pooled_kernel_pair(self.rng, self.dir)

    def args(self, out):
        return ["sweep", "--kernel1", str(self.dir / "pool1.rmx"),
                "--kernel2", str(self.dir / "pool2.rmx"),
                "--n-values", ",".join(map(str, self.n_values)),
                "--noise-values", ",".join(map(str, self.noise_values)),
                "--b", str(B), "--metrics", "jsd", "--samples", str(self.samples),
                "--seed", str(self.seed), "--out", str(out)]

    def setup_spec(self):
        return {"matrices": [[str(self.dir / f"pool{i}.rmx"), "kernel"] for i in (1, 2)]}

    def cells(self):
        for n in self.n_values:
            for a in self.noise_values:
                yield n, "grid", a
            yield n, "proportional", heuristic_a(n, B)

    def compute_reference(self, rng):
        X1, X2 = self.X
        return {(n, src, a): reference_pair(X1[:n], X2[:n], a, REF_DRAWS, rng)
                for n, src, a in self.cells()}

    def check(self, out):
        failures = []
        rows = _read_rows(out / "sweep.csv")
        got = {}
        for r in rows:
            got.setdefault((int(r["n"]), r["source"]), []).append(r)
        pairs = []
        attempted = 0
        for n, src, a in self.cells():
            attempted += 1
            cands = [r for r in got.get((n, src), []) if abs(float(r["a"]) - a) <= 1e-12]
            if len(cands) != 1 or cands[0]["metric"] != "jsd":
                failures.append(f"cell n={n} {src} a={a}: {len(cands)} rows")
                continue
            est, se = float(cands[0]["value"]), float(cands[0]["std_error"])
            ref = self.reference()[(n, src, a)]["jsd"]
            _z_check(f"jsd(n={n},{src},a={a:.4g})", est, se, ref, self.samples, failures)
            pairs.append((se, ref))
        if len(rows) != attempted:
            failures.append(f"sweep.csv has {len(rows)} cells, expected {attempted}")
        _se_calibration("jsd", pairs, self.samples, failures)
        ses = [se for se, _ in pairs]
        quality = {"jsd_se_median": statistics.median(ses) if ses else float("nan")}
        return attempted, failures, quality


class StabilityC09(Workload):
    name, index = "stability_c09", 2
    why = ("CLI stability, 4 binary kernels pool 1000 k=8, --threads 1: many small-n "
           "calls where per-call overhead and drawing dominate, not BLAS")
    n_images, repeats, samples = (25, 100), 4, 2000
    metrics = ("jsd", "tvd", "cka")

    def prepare(self):
        self.X = dict(inputs.pooled_layer_family(self.rng, self.dir))

    def args(self, out):
        return ["stability", "--manifest", str(self.dir / "layers.json"),
                "--n-images", ",".join(map(str, self.n_images)),
                "--repeats", str(self.repeats), "--metrics", ",".join(self.metrics),
                "--b", str(B), "--samples", str(self.samples), "--seed", str(self.seed),
                "--threads", "1", "--out", str(out)]

    def setup_spec(self):
        return {"manifests": [str(self.dir / "layers.json")]}

    def compute_reference(self, rng):
        """The library's per-repeat values and a reference for each of them.

        The CLI writes only the per-pair spread over repeats, so the
        library's ``stability_study`` is run here with the CLI's arguments;
        the check then ties the CLI's spreads to these values. Each value
        gets an independent reference on the same subset: the
        generalized-eigenvalue Monte-Carlo for jsd/tvd, feature-space CKA
        for cka.
        """
        from repmetric import read_manifest, stability_study
        from repmetric.harness import load_layer_kernels
        from repmetric.seeding import derive_seed, stream_generator
        layers = load_layer_kernels(read_manifest(self.dir / "layers.json"))
        pool = layers[0][1].n
        ref = {}
        for n_img in self.n_images:
            study = stability_study(layers, n_img, self.repeats, self.metrics, B,
                                       self.samples, self.seed, threads=1)
            a = heuristic_a(n_img, B)
            for rep in range(self.repeats):
                sub_rng = stream_generator(derive_seed(self.seed, "stability-subset", rep))
                idx = np.sort(sub_rng.choice(pool, size=n_img, replace=False))
                for p, q in study.pair_labels:
                    X1, X2 = self.X[p][idx], self.X[q][idx]
                    r = reference_pair(X1, X2, a, REF_DRAWS, rng)
                    r["cka"] = 1.0 - _feature_cka(X1, X2)
                    for m in self.metrics:
                        ref.setdefault((m, n_img, p, q), []).append(
                            (study.values[m][(p, q)][rep], r[m]))
        return ref

    def check(self, out):
        """Every per-repeat value against its reference; every CLI spread against them."""
        failures = []
        attempted = 0
        for (m, n_img, p, q), reps in self.reference().items():
            for rep, (value, ref) in enumerate(reps):
                attempted += 1
                what = f"{m}(n={n_img},{p},{q},repeat {rep})"
                if m == "cka":
                    if not abs(value - ref) <= 1e-9:
                        failures.append(f"{what}: {value!r} vs feature-space {ref!r}")
                else:  # the library's values carry no SE: take the one the reference predicts
                    se = math.sqrt(ref["summand_variance"] / self.samples)
                    _z_check(what, value, se, ref, self.samples, failures)
        rows = _read_rows(out / "stability_pairs.csv")
        seen = set()
        for r in rows:
            key = (r["metric"], int(r["n_images"]), r["label1"], r["label2"])
            seen.add(key)
            attempted += 1
            reps = self.reference().get(key)
            want = float(np.std([v for v, _ in reps], ddof=1)) if reps else None
            sd = float(r["sd"])
            if want is None or not abs(sd - want) <= 1e-9 * abs(want) + 1e-15:
                failures.append(f"sd{key}: CLI {sd!r} vs library repeats {want!r}")
        missing = set(self.reference()) - seen
        if missing:
            failures.append(f"missing spreads: {sorted(missing)}")
        return attempted, failures, {}


def _feature_cka(X1, X2):
    """Linear CKA from centered features: ||X1ᵀX2||² / (||X1ᵀX1|| ||X2ᵀX2||)."""
    X1 = X1 - X1.mean(axis=0)
    X2 = X2 - X2.mean(axis=0)
    num = np.linalg.norm(X1.T @ X2) ** 2
    return float(num / (np.linalg.norm(X1.T @ X1) * np.linalg.norm(X2.T @ X2)))


class GradN300(Workload):
    name, index = "grad_n300", 3
    why = ("library jsd, tvd, jsd_gradient, tvd_gradient on n=300 predictive "
           "covariances: the only path through the Cholesky-adjoint gradient")
    mode = "grad"
    n, k, t, samples = 300, 50, 0.3, 4000

    def prepare(self):
        self.X = inputs.representation_pair(self.rng, self.dir, self.n, self.k, self.t)

    def args(self, out):
        return [str(self.dir / "rep1.csv"), str(self.dir / "rep2.csv"),
                "--samples", str(self.samples), "--seed", str(self.seed),
                "--b", str(B), "--out", str(out)]

    def setup_spec(self):
        return {"matrices": [[str(self.dir / f"rep{i}.csv"), "representation"] for i in (1, 2)]}

    def compute_reference(self, rng):
        return reference_pair(*self.X, heuristic_a(self.n, B), REF_DRAWS, rng)

    def finite_difference(self, metric, grads):
        """Same-seed central difference along a random symmetric direction.

        Returns (directional derivative from the gradient, difference quotient).
        The step is tiny because the TVD summand has a kink where p1 = p2: at
        h = 1e-6 a draw crosses it often enough to move the quotient by a few
        percent, while at 1e-9 rounding costs at most ~2e-5 relative.
        """
        import repmetric as rm
        from grad_driver import load_covariance
        covs = [load_covariance(self.dir / f"rep{i}.csv", B).C for i in (1, 2)]
        rng = np.random.default_rng([self.seed, 7])
        dirs = []
        for C in covs:
            E = rng.standard_normal(C.shape)
            E = E + E.T
            dirs.append(E * (np.linalg.norm(C) / np.linalg.norm(E)))
        h = 1e-9
        fn = {"jsd": rm.jsd, "tvd": rm.tvd}[metric]

        def value(sign):
            m1, m2 = (rm.GaussianModel.from_covariance(C + sign * h * E)
                      for C, E in zip(covs, dirs))
            return fn(m1, m2, self.samples, self.seed).raw_value

        analytic = float(sum(np.sum(g * E) for g, E in zip(grads, dirs)))
        return analytic, (value(1.0) - value(-1.0)) / (2.0 * h)

    def check(self, out):
        failures = []
        estimates = json.loads((out / "estimates.json").read_text(encoding="utf-8"))
        ref = self.reference()
        for metric in ("jsd", "tvd"):
            est = estimates[metric]
            _z_check(metric, est["value"], est["std_error"], ref[metric], self.samples, failures)
            _se_calibration(metric, [(est["std_error"], ref[metric])], self.samples, failures)
            grads = np.load(out / f"{metric}_gradient.npy")
            analytic, numeric = self.finite_difference(metric, grads)
            if not (np.all(np.isfinite(grads))
                    and abs(analytic - numeric) <= 1e-4 * abs(numeric) + 1e-6):
                failures.append(f"{metric}_gradient: directional derivative {analytic:.9g} "
                                f"vs finite difference {numeric:.9g}")
        quality = {"jsd_se_median": estimates["jsd"]["std_error"],
                   "tvd_se_median": estimates["tvd"]["std_error"]}
        return 4, failures, quality


class EmbedM150(Workload):
    name, index = "embed_m150", 4
    why = ("CLI embed of 150 points from 6-D: not 2-D embeddable, SMACOF runs its "
           "300-iteration cap in all 8 restarts; the only mds path, no Monte-Carlo")
    m, dims, max_iter = 150, 6, 300

    def prepare(self):
        self.D = inputs.point_distances(self.rng, self.dir, self.m, self.dims)

    def args(self, out):
        # --tol 0: every restart runs the full cap, so the work does not depend on the seed
        return ["embed", "--input", str(self.dir / "distances.csv"), "--max-iter",
                str(self.max_iter), "--tol", "0", "--seed", str(self.seed), "--out", str(out)]

    def setup_spec(self):
        return {"matrices": [[str(self.dir / "distances.csv"), "distance"]]}

    def compute_reference(self, rng):
        """The library's own run: its stress history is not in the CLI output."""
        from repmetric.mds import mds_embed
        emb = mds_embed(self.D, dims=2, seed=self.seed, max_iter=self.max_iter, tol=0.0)
        return {"stress": emb.stress, "history": np.asarray(emb.stress_history)}

    def check(self, out):
        failures = []
        record = _read_record(out)
        rows = _read_rows(out / "embedding.csv")
        labels = [r["label"] for r in rows]
        X = np.array([[float(r["dim0"]), float(r["dim1"])] for r in rows])
        stress = float(record["stress"])
        if labels != [f"p{i}" for i in range(self.m)] or not np.all(np.isfinite(X)):
            failures.append("embedding.csv labels or coordinates wrong")
        else:
            diff = X[:, None, :] - X[None, :, :]
            E = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            iu = np.triu_indices(self.m, k=1)
            own = math.sqrt(np.sum((E[iu] - self.D[iu]) ** 2) / np.sum(self.D[iu] ** 2))
            if not (math.isfinite(stress) and abs(own - stress) <= 1e-9 * stress):
                failures.append(f"stress {stress!r} but coordinates give {own!r}")
        ref = self.reference()
        if np.any(np.diff(ref["history"]) > 1e-12) or abs(ref["stress"] - stress) > 1e-9 * stress:
            failures.append("library stress history increases or disagrees with the CLI")
        return 1, failures, {"mds_stress": stress}


WORKLOADS = {w.name: w for w in (CompareN300, SweepN1000, StabilityC09, GradN300, EmbedM150)}
