"""Command-line front end.

Every command writes its numeric outputs plus a JSON run record holding
all parameters needed to reproduce the run. Records carry no timestamps
so reruns with the same configuration are byte-identical.

All five commands publish through `_writes_out`: `--out` is created
before any input is read, the files appear there together with
`record.json` moved in last, and a failed run changes nothing there.
Only a killed run can leave a hidden `.partial-*` directory behind.
Every command settles its run arguments, with the manifest's defaults,
through its pipeline's argument check (`harness.check_pairwise_args`,
`check_sweep_args`, `check_stability_args`, `mds.check_embed_args`)
before any layer, kernel or distance file is read; only rules that need
the data come after.
`gram` refuses inputs that share a stem, since each kernel is named
after its input's stem. List flags ignore spaces around each item.

Exit codes: 0 success, 1 usage error, 2 validation or file error, 3
numerical failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import __version__, harness, mds
from .bayes_metrics import BAYES_METRICS
from .errors import RepmetricError, ValidationError
from .kernel import RepresentationMatrix, gram
from .matrix_io import MatrixKind, format_value, read_manifest, read_matrix, write_matrix

CSV_SIZE_LIMIT = 200  # matrices up to this order default to CSV output

# Importing numpy, click and repmetric leaves ~24,000 objects that live until
# exit, and the interpreter's collections at exit walk every one. Frozen, no
# collection visits them again: a stability run's exit took 10 ms instead of
# 43 ms (medians of 12 runs on 2 cores). Done here, once per process, and not
# in the package, so a library user's GC is left as it is.
gc.freeze()


def _parse_list(text, cast, what):
    try:
        return [cast(tok.strip()) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse {what}: {text!r}") from None


def _matrix_path(out_dir: Path, stem: str, n: int, fmt: str) -> Path:
    if fmt == "csv" or (fmt == "auto" and n <= CSV_SIZE_LIMIT):
        return out_dir / f"{stem}.csv"
    return out_dir / f"{stem}.rmx"


def _writes_out(command):
    """Give `command` its `--out` and publish what it writes (module docstring).

    The command writes into a staging directory inside `--out`, so every
    move below stays on one file system, and returns its record.
    """
    @functools.wraps(command)
    def run(out_dir, **kwargs):
        made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=out_dir, prefix=".partial-") as stage:
                stage = Path(stage)
                record = dict(command(out_dir=stage, **kwargs), version=__version__)
                (stage / "record.json").write_text(
                    json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
                (out_dir / "record.json").unlink(missing_ok=True)
                for path in sorted(stage.iterdir(), key=lambda p: p.name == "record.json"):
                    os.replace(path, out_dir / path.name)
        except BaseException:
            for path in made:  # deepest first
                with contextlib.suppress(OSError):
                    path.rmdir()
            raise
    return click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path),
                        help="output directory, created before any input is read")(run)


@click.group()
@click.version_option(version=__version__, prog_name="repmetric")
def cli():
    """Distances between neural-network representations, from kernel matrices."""


@cli.command("gram")
@click.argument("inputs", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--format", "fmt", type=click.Choice(["auto", "csv", "binary"]), default="auto")
@_writes_out
def cmd_gram(inputs, out_dir, fmt):
    """Compute linear kernel matrices for representation files."""
    stems = {}
    for path in inputs:  # each input's kernel is named after its stem
        if path.stem in stems:
            raise ValidationError(f"{stems[path.stem]} and {path} would both write "
                                  f"{path.stem}.kernel; rename one")
        stems[path.stem] = path
    outputs = {}
    for path in inputs:
        loaded = read_matrix(path, MatrixKind.REPRESENTATION)
        with harness.named(str(path)):
            rep = RepresentationMatrix.from_array(loaded.values, loaded.labels)
            kern = gram(rep)
        # matrix_rank's hermitian rule on K, |λ| > |λ|_max·n·ε, from the
        # smaller Gram: XᵀX shares K's nonzero eigenvalues
        X = rep.X
        lam = np.abs(np.linalg.eigvalsh(X.T @ X if X.shape[1] < kern.n else kern.K))
        rank = int(np.count_nonzero(lam > lam.max() * kern.n * np.finfo(float).eps))
        target = _matrix_path(out_dir, f"{path.stem}.kernel", kern.n, fmt)
        write_matrix(kern.K, target, MatrixKind.KERNEL, labels=kern.labels)
        outputs[path.stem] = target.name
        click.echo(f"{path.name}: n={kern.n} k={rep.X.shape[1]} "
                   f"trace={np.trace(kern.K):.6g} rank={rank} -> {target.name}")
    return {"command": "gram", "inputs": [str(p) for p in inputs],
            "format": fmt, "outputs": outputs}


def _read_manifest_run(manifest_path, n_samples, seed):
    """(manifest, n_samples, seed), flags beating manifest defaults."""
    manifest = read_manifest(manifest_path)
    if n_samples is None:
        n_samples = harness.DEFAULT_SAMPLES if manifest.n_samples is None else manifest.n_samples
    if seed is None:
        seed = 0 if manifest.seed is None else manifest.seed
    return manifest, n_samples, seed


def _resolve_noise(a, b, manifest):
    """(a, b): the flags, else the manifest's a/b, else b = DEFAULT_B. a is
    None when b sets it, since heuristic_a needs the stimulus count."""
    if a is None and b is None:
        a, b = manifest.a, manifest.b
    if a is None and b is None:
        b = harness.DEFAULT_B
    return a, b


@cli.command("compare")
@click.option("--manifest", "manifest_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--metrics", default="jsd,tvd", show_default=True,
              help="comma-separated subset of: " + ",".join(harness.ALL_METRICS))
@click.option("--a", "a", type=float, default=None, help="noise mixture weight in [0,1]")
@click.option("--b", "b", type=float, default=None,
              help="proportional-noise constant; sets a = b*n/(1+b*n)")
@click.option("--samples", "n_samples", type=int, default=None, help="Monte-Carlo draws per pair")
@click.option("--seed", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["auto", "csv", "binary"]), default="auto")
@click.option("--rsa-squared/--no-rsa-squared", default=True,
              help="compare squared Euclidean distances in the RSA measures")
@click.option("--on-error", type=click.Choice(["abort", "skip"]), default="abort")
@_writes_out
def cmd_compare(manifest_path, metrics, a, b, n_samples, seed, out_dir, fmt,
                rsa_squared, on_error):
    """Pairwise distance matrices over the layers of a manifest."""
    metric_list = _parse_list(metrics, str, "--metrics")
    if a is not None and b is not None:
        raise click.UsageError("--a and --b are mutually exclusive")
    manifest, n_samples, seed = _read_manifest_run(manifest_path, n_samples, seed)
    a, b = _resolve_noise(a, b, manifest)
    harness.check_pairwise_args(metric_list, n_samples, seed, a=a, b=b, on_error=on_error)
    layers = harness.load_layer_kernels(manifest)
    n = layers[0][1].n
    if a is None:
        a = harness.heuristic_a(n, b)

    matrices = harness.pairwise_matrix(
        layers, metric_list, a, n_samples, seed, rsa_squared=rsa_squared, on_error=on_error)

    outputs, holes = {}, {}
    for metric, dm in matrices.items():
        if dm.holes:
            holes[metric] = [list(h) for h in dm.holes]
            click.echo(f"{metric}: skipped {len(dm.holes)} pair(s), matrix not written", err=True)
            continue
        target = _matrix_path(out_dir, metric, len(dm.labels), fmt)
        write_matrix(dm.values, target, MatrixKind.DISTANCE, labels=dm.labels)
        outputs[metric] = target.name
        if metric in BAYES_METRICS:
            se_target = out_dir / f"{metric}.se.csv"
            write_matrix(dm.std_errors, se_target, MatrixKind.DISTANCE, labels=dm.labels)
            outputs[f"{metric}.se"] = se_target.name
        click.echo(f"{metric}: wrote {target.name}")
    return {
        "command": "compare", "manifest": str(manifest_path),
        "labels": [name for name, _ in layers], "metrics": metric_list,
        "a": a, "b": b, "n_samples": n_samples, "seed": seed,
        "rsa_squared": rsa_squared, "on_error": on_error,
        "format": fmt, "n_stimuli": n, "outputs": outputs, "holes": holes,
        "pair_seed_scheme": "blake2b(master_seed, 'pair', sorted labels)"}


@cli.command("sweep")
@click.option("--kernel1", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--kernel2", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--n-values", required=True, help="comma-separated stimulus counts")
@click.option("--noise-values", required=True, help="comma-separated noise levels")
@click.option("--noise-kind", type=click.Choice(["a", "variance"]), default="a", show_default=True)
@click.option("--b", type=float, default=harness.DEFAULT_B, show_default=True,
              help="constant for the proportional-noise slice")
@click.option("--metrics", default="jsd", show_default=True, help="subset of jsd,tvd")
@click.option("--samples", "n_samples", type=int, default=harness.DEFAULT_SAMPLES,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_writes_out
def cmd_sweep(kernel1, kernel2, n_values, noise_values, noise_kind, b, metrics,
              n_samples, seed, out_dir):
    """Distance grid over stimulus counts and noise levels for two pooled kernels."""
    ns = _parse_list(n_values, int, "--n-values")
    noises = _parse_list(noise_values, float, "--noise-values")
    metric_list = _parse_list(metrics, str, "--metrics")
    harness.check_sweep_args(ns, noises, n_samples, seed, b, metric_list, noise_kind)
    pool1, pool2 = (harness.load_kernel(path, MatrixKind.KERNEL, str(path))
                    for path in (kernel1, kernel2))

    grid = harness.snr_sweep(pool1, pool2, ns, noises, n_samples, seed,
                             b=b, metrics=metric_list, noise_kind=noise_kind)

    lines = ["metric,n,a,source,value,std_error"]
    for metric in metric_list:
        for i, n in enumerate(grid.n_values):
            for est, a_val in zip(grid.grid[metric][i], grid.a_values):
                lines.append(f"{metric},{n},{format_value(a_val)},grid,"
                             f"{format_value(est.value)},{format_value(est.std_error)}")
            a_prop, est = grid.proportional[metric][i]
            lines.append(f"{metric},{n},{format_value(a_prop)},proportional,"
                         f"{format_value(est.value)},{format_value(est.std_error)}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(f"wrote sweep.csv ({len(lines) - 1} cells)")
    return {
        "command": "sweep", "kernel1": str(kernel1), "kernel2": str(kernel2),
        "n_values": ns, "noise_values": noises, "noise_kind": noise_kind,
        "b": b, "metrics": metric_list, "n_samples": n_samples, "seed": seed,
        "outputs": {"sweep": "sweep.csv"}}


@cli.command("stability")
@click.option("--manifest", "manifest_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--n-images", "n_images", required=True, help="comma-separated subset sizes")
@click.option("--repeats", type=int, required=True)
@click.option("--metrics", default="jsd,tvd", show_default=True)
@click.option("--b", type=float, default=None,
              help=f"[default: manifest b, else {harness.DEFAULT_B}]")
@click.option("--samples", "n_samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
# accepted as 1 only, for callers that still pass it; pairs run one at a time
@click.option("--threads", type=click.IntRange(1, 1), hidden=True, expose_value=False)
@click.option("--rsa-squared/--no-rsa-squared", default=True)
@_writes_out
def cmd_stability(manifest_path, n_images, repeats, metrics, b, n_samples, seed,
                  rsa_squared, out_dir):
    """Stability of pairwise distances across random image subsets."""
    sizes = _parse_list(n_images, int, "--n-images")
    if not sizes:
        raise ValidationError("--n-images lists no subset size")
    metric_list = _parse_list(metrics, str, "--metrics")
    manifest, n_samples, seed = _read_manifest_run(manifest_path, n_samples, seed)
    if b is None:
        b = manifest.b if manifest.b is not None else harness.DEFAULT_B
    for n in sizes:
        harness.check_stability_args(n, repeats, metric_list, b, n_samples, seed)
    layers = harness.load_layer_kernels(manifest)

    reports = [harness.stability_study(layers, n, repeats, metric_list, b, n_samples, seed,
                                       rsa_squared=rsa_squared)
               for n in sizes]

    pair_lines = ["metric,n_images,label1,label2,sd"]
    for rep in reports:
        for metric in metric_list:
            for (la, lb), sd in rep.per_pair_sd[metric].items():
                pair_lines.append(f"{metric},{rep.n_images},{la},{lb},{format_value(sd)}")
    (out_dir / "stability_pairs.csv").write_text("\n".join(pair_lines) + "\n", encoding="utf-8")

    # summary in the median/max table layout: one row per subset size
    summary = ["n_images," + ",".join(metric_list)]
    for rep in reports:
        cells = [f"{rep.median_sd[m]:.6g}/{rep.max_sd[m]:.6g}" for m in metric_list]
        summary.append(f"{rep.n_images}," + ",".join(cells))
    (out_dir / "stability_summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")
    click.echo("\n".join(summary))
    return {
        "command": "stability", "manifest": str(manifest_path),
        "labels": [name for name, _ in layers], "n_images": sizes,
        "repeats": repeats, "metrics": metric_list, "b": b,
        "n_samples": n_samples, "seed": seed, "rsa_squared": rsa_squared,
        "outputs": {"pairs": "stability_pairs.csv", "summary": "stability_summary.csv"}}


@cli.command("embed")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--dims", type=int, default=2, show_default=True)
@click.option("--restarts", type=int, default=1, show_default=True)
@click.option("--max-iter", type=int, default=500, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_writes_out
def cmd_embed(input_path, dims, restarts, max_iter, tol, seed, out_dir):
    """Metric MDS embedding of a distance matrix."""
    mds.check_embed_args(dims, seed, restarts, max_iter, tol)
    loaded = read_matrix(input_path, MatrixKind.DISTANCE)
    emb = mds.mds_embed(loaded.values, dims=dims, seed=seed, restarts=restarts,
                        max_iter=max_iter, tol=tol)
    header = "label," + ",".join(f"dim{i}" for i in range(dims))
    lines = [header]
    labels = loaded.labels
    if labels is None:  # unlabelled rows are named s0, s1, ... in the label column
        labels = [f"s{i}" for i in range(len(emb.coords))]
    for lab, row in zip(labels, emb.coords):
        lines.append(lab + "," + ",".join(format_value(x) for x in row))
    (out_dir / "embedding.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(f"stress={emb.stress:.8g} iterations={emb.n_iterations}")
    return {
        "command": "embed", "input": str(input_path), "dims": dims,
        "restarts": restarts, "max_iter": max_iter, "tol": tol, "seed": seed,
        "stress": emb.stress, "n_iterations": emb.n_iterations,
        "outputs": {"embedding": "embedding.csv"}}


def main(argv=None) -> int:
    """Run the CLI, mapping exceptions to documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.Abort:  # what click makes of Ctrl-C
        click.echo("interrupted", err=True)
        return 130
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return 2
    except RepmetricError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return 3
    except OSError as exc:  # an output or input path the file system refuses
        click.echo(f"file error: {exc}", err=True)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
