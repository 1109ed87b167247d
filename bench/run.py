"""repmetric benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory. Inputs are generated from ``--seed`` and written to disk once,
then every repetition is a fresh child process, the cost a user pays.
Repetitions and set-up children run back to back for about
``--seconds`` of child wall time and each metric is the median over
them. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced children and prints the per-layer
metrics. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 10         # set-up children per untraced invocation, at least; setup_s is their median
CHILD_TIMEOUT_S = 150      # a child still running after this is killed and counted failed
NOT_APPLICABLE = 1.0       # value of a quality metric the workload does not produce

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "jsd_se_median": "bits", "tvd_se_median": "1", "mds_stress": "1"}
PER_LAYER = {
    "cli.import_s": "s", "cli.cpu_s": "s", "cli.cpu_per_wall": "1",
    "matrix_io.read_s": "s", "matrix_io.read_mb": "MB",
    "matrix_io.write_s": "s", "matrix_io.write_mb": "MB",
    "kernel.validate_s": "s", "kernel.gram_s": "s", "kernel.factor_s": "s",
    "kernel.factor_calls": "count", "kernel.jitter_rescues": "count",
    "mvn.sample_s": "s", "mvn.draws": "count", "mvn.log_density_s": "s",
    "mvn.density_points": "count", "mvn.distinct_draw_frac": "1",
    "bayes_metrics.estimate_s": "s", "bayes_metrics.self_s": "s",
    "bayes_metrics.estimates": "count", "bayes_metrics.gradient_s": "s",
    "bayes_metrics.gflop": "GFLOP", "bayes_metrics.gflop_per_s": "GFLOP/s",
    "baseline_metrics.s": "s", "baseline_metrics.calls": "count",
    "harness.s": "s", "harness.self_s": "s", "harness.pair_busy_s": "s",
    "harness.parallelism": "1",
    "seeding.derive_calls": "count",
    "mds.embed_s": "s", "mds.iterations": "count",
    "trace.overhead_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPMETRIC_THREADS", None)
    # cache bytecode as Python does by default, so every child after the
    # first imports the program as an installed copy is imported; the
    # caches go under .bench_work, never next to a library outside the tree
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_work" / "pycache")
    return env


def run_child(cmd, log_path: Path) -> dict:
    """Run one child to completion; wall time, peak RSS and CPU from wait4."""
    with open(log_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "cpu": usage.ru_utime + usage.ru_stime, "code": proc.returncode}


def program_cmd(workload, out: Path, spans: Path | None):
    args = workload.args(out)
    if spans is not None:
        return [sys.executable, str(BENCH / "tracer.py"), str(spans), workload.mode, *args]
    if workload.mode == "grad":
        return [sys.executable, str(BENCH / "grad_driver.py"), *args]
    return [sys.executable, "-c",
            "import sys; from repmetric.cli import main; sys.exit(main(sys.argv[1:]))", *args]


def output_digest(out: Path) -> dict:
    """sha256 of every output file except record.json (it names the run's paths)."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "record.json"}


class Outcome:
    """Operations attempted and failed over all repetitions of one invocation."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first = None  # (digest, ops, failures, quality) of the first clean run
        self.messages = []

    def add(self, out: Path, code: int) -> None:
        if code != 0:
            ops = self.first[1] if self.first else 1
            self.attempted += ops
            self.failed += ops
            self.messages.append(f"{out.name}: exit code {code}: "
                                 + (out.parent / f"{out.name}.log").read_text(errors="replace")[-400:])
            return
        digest = output_digest(out)
        if self.first is None:
            try:
                ops, failures, quality = self.workload.check(out)
            except Exception as exc:  # a malformed output must not stop the run
                ops, failures, quality = 1, [f"check raised {type(exc).__name__}: {exc}"], {}
            self.first = (digest, ops, failures, quality)
            self.messages += [f"{out.name}: {f}" for f in failures]
            self.attempted += ops
            self.failed += min(len(failures), ops)
            return
        ops, failures = self.first[1], self.first[2]
        self.attempted += ops
        if digest != self.first[0]:
            self.failed += ops
            self.messages.append(f"{out.name}: outputs differ from the first run")
        else:
            self.failed += min(len(failures), ops)


def setup_child(work: Path, i: int) -> float:
    """Wall time of one set-up child (see setup_child.py)."""
    log_path = work / f"setup{i}.log"
    r = run_child([sys.executable, str(BENCH / "setup_child.py"), str(work / "setup.json")],
                  log_path)
    if r["code"] != 0:
        raise RuntimeError("set-up child failed: " + log_path.read_text(errors="replace")[-400:])
    return r["wall"]


def measure(workload, seconds: float, trace: bool, work: Path, outcome: Outcome):
    """Back-to-back children until about ``seconds`` of child wall time is spent.

    Untraced, a set-up child runs before each program child, so set-up
    samples span the run as the program's do, and the budget counts it;
    the run ends with at least SETUP_REPEATS of them.
    Returns the program runs and the set-up wall times.
    """
    (work / "setup.json").write_text(json.dumps(workload.setup_spec()), encoding="utf-8")
    runs, setups = [], []
    spent = 0.0
    while True:
        i = len(runs)
        step = 0.0
        if not trace:
            setups.append(setup_child(work, len(setups)))
            step += setups[-1]
        traced = trace and i % 2 == 1
        out = work / f"out{i}"
        spans = work / f"spans{i}.json" if traced else None
        r = run_child(program_cmd(workload, out, spans), work / f"out{i}.log")
        r["traced"] = traced
        if traced and r["code"] == 0:
            from tracer import layer_metrics
            r["layers"], r["absent"] = layer_metrics(json.loads(spans.read_text()))
        runs.append(r)
        step += r["wall"]
        spent += step
        outcome.add(out, r["code"])
        log(f"  {'traced ' if traced else ''}run {i}: {r['wall']:.3f} s, "
            f"{r['rss_mb']:.1f} MB, cpu {r['cpu']:.2f} s, exit {r['code']}")
        enough = len(runs) >= (2 if trace else 1)
        if enough and spent + step > seconds:
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(setup_child(work, len(setups)))
    if setups:
        log(f"  setup: {', '.join(f'{w:.3f}' for w in setups)} s")
    return runs, setups


def end_to_end(runs, setup_walls, outcome: Outcome) -> dict:
    quality = outcome.first[3] if outcome.first else {}
    values = {"wall_s": statistics.median(r["wall"] for r in runs),
              "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
              "setup_s": statistics.median(setup_walls)}
    for name in ("jsd_se_median", "tvd_se_median", "mds_stress"):
        values[name] = quality.get(name, NOT_APPLICABLE)
    return values


def per_layer(runs) -> dict:
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"] and "layers" in r]
    values = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
              if traced else 0.0 for name in PER_LAYER}
    values["cli.cpu_s"] = statistics.median(r["cpu"] for r in plain)
    values["cli.cpu_per_wall"] = statistics.median(r["cpu"] / r["wall"] for r in plain)
    values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                  - statistics.median(r["wall"] for r in plain)) if traced else 0.0
    absent = sorted({n for r in traced for n in r["absent"]})
    if absent:
        print("absent (counted as zero): " + ", ".join(absent), flush=True)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repmetric" / "__init__.py").is_file():
        log(f"error: no repmetric sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        log(f"{args.workload}, seed {args.seed}: writing inputs")
        workload = WORKLOADS[args.workload](args.seed, work / "inputs")
        workload.reference()
        outcome = Outcome(workload)
        runs, setup_walls = measure(workload, args.seconds, bool(args.trace), work, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for msg in outcome.messages[:20]:
        log("FAILED " + msg)
    values = per_layer(runs) if args.trace else end_to_end(runs, setup_walls, outcome)
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": outcome.failed == 0 and outcome.attempted > 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
