"""Library driver for the grad_n300 workload.

Loads two representation CSVs, builds their predictive covariances at
the proportional-noise weight and calls ``jsd``, ``tvd``,
``jsd_gradient`` and ``tvd_gradient`` with one seed, through the
documented library API. Writes ``estimates.json`` and one ``.npy`` per
gradient (d_cov1 stacked on d_cov2) into the output directory.

    python3 bench/grad_driver.py REP1 REP2 --samples N --seed S --b B --out DIR
"""

import argparse
import json
from pathlib import Path

import numpy as np

import repmetric as rm


def load_covariance(path: Path, b: float):
    loaded = rm.read_matrix(path, rm.MatrixKind.REPRESENTATION)
    kern = rm.gram(rm.RepresentationMatrix.from_array(loaded.values, loaded.labels))
    return rm.predictive_covariance(kern, rm.heuristic_a(kern.n, b))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("rep1", type=Path)
    ap.add_argument("rep2", type=Path)
    ap.add_argument("--samples", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--b", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    pc1 = load_covariance(args.rep1, args.b)
    pc2 = load_covariance(args.rep2, args.b)
    m1 = rm.GaussianModel.from_predictive(pc1)
    m2 = rm.GaussianModel.from_predictive(pc2)
    estimates = {}
    for name, fn in (("jsd", rm.jsd), ("tvd", rm.tvd)):
        est = fn(m1, m2, args.samples, args.seed)
        estimates[name] = {"value": est.value, "std_error": est.std_error}
    args.out.mkdir(parents=True, exist_ok=True)
    for name, fn in (("jsd", rm.jsd_gradient), ("tvd", rm.tvd_gradient)):
        g = fn(pc1.C, pc2.C, args.samples, args.seed)
        np.save(args.out / f"{name}_gradient.npy", np.stack([g.d_cov1, g.d_cov2]))
    (args.out / "estimates.json").write_text(
        json.dumps(estimates, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
