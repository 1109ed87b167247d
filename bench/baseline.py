"""Run every workload over seeds 1-10 and record the spread of each metric.

    python3 bench/baseline.py [--out FILE]

Each (workload, seed) is one ``bench/run.py`` invocation with ``--trace 0``
and ``run_seconds`` from BENCHMARK.json; seeds 1-3 also run with
``--trace 1``. For every metric it records the median, the quartiles from
``statistics.quantiles(values, n=4)``, the sample count and the spread
(q3 - q1) / median, together with the machine it ran on. With ``--out``
the record is written as JSON (bench/baseline.json holds the committed
one); a summary table goes to standard error either way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 4)


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        info = numpy.show_config(mode="dicts")
        blas = info.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 2 has no mode argument
        pass
    def command(*args):
        out = subprocess.run(args, capture_output=True, text=True).stdout.strip()
        return int(out) if out.isdigit() else None

    llc = command("getconf", "LEVEL3_CACHE_SIZE") or command("getconf", "LEVEL2_CACHE_SIZE")
    return {"nproc": command("nproc"),
            "os_cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "llc_bytes": llc, "machine": platform.machine()}


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            res = run_once(name, seed, seconds)
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"{res['failed']}/{res['attempted']} failed", file=sys.stderr, flush=True)
            results.append(res)
        metrics = {m: summarize([r["metrics"][m]["value"] for r in results]) for m in bounds}
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}
        traced = [run_once(name, seed, seconds, trace=1) for seed in TRACE_SEEDS]
        record["workloads"][name]["per_layer"] = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in traced])
            for m in spec["per_layer"]}
        for m, s in metrics.items():
            flag = "" if s["spread"] <= bounds[m] / 3 else "  > bound/3"
            print(f"  {m:15s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {bounds[m]}){flag}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
