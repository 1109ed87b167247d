import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synth import kernels_same_stimuli

from repmetric.cli import main
from repmetric.harness import cell_seed
from repmetric.kernel import RepresentationMatrix, gram
from repmetric.matrix_io import MatrixKind, read_matrix, write_matrix


def write_manifest_dir(tmp_path, layers, extra=None):
    entries = []
    for name, kern in layers:
        path = f"{name}.csv"
        write_matrix(kern.K, tmp_path / path, MatrixKind.KERNEL, labels=kern.labels)
        entries.append({"name": name, "path": path, "kind": "kernel"})
    doc = {"entries": entries}
    if extra:
        doc.update(extra)
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(doc))
    return mpath


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestGramCommand:
    def test_identity_representation(self, tmp_path, capsys):
        rep = tmp_path / "rep.csv"
        write_matrix(np.eye(4), rep, MatrixKind.REPRESENTATION)
        out = tmp_path / "out"
        assert main(["gram", str(rep), "--out", str(out)]) == 0
        loaded = read_matrix(out / "rep.kernel.csv", MatrixKind.KERNEL)
        assert np.array_equal(loaded.values, np.eye(4))
        assert "rank=4" in capsys.readouterr().out

    def test_two_inputs_two_outputs(self, tmp_path):
        rng = np.random.default_rng(0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix(rng.standard_normal((5, 3)), p1, MatrixKind.REPRESENTATION)
        write_matrix(rng.standard_normal((5, 3)), p2, MatrixKind.REPRESENTATION)
        out = tmp_path / "out"
        assert main(["gram", str(p1), str(p2), "--out", str(out)]) == 0
        assert (out / "a.kernel.csv").exists()
        assert (out / "b.kernel.csv").exists()

    def test_empty_input_fails_validation(self, tmp_path):
        import struct
        from repmetric.matrix_io import MAGIC
        rep = tmp_path / "empty.rmx"
        rep.write_bytes(struct.pack("<4sBII", MAGIC, 1, 0, 3))
        code = main(["gram", str(rep), "--out", str(tmp_path / "out")])
        assert code == 2


class TestCompareCommand:
    def test_duplicate_layer_near_zero(self, tmp_path):
        rng = np.random.default_rng(1)
        K = gram(RepresentationMatrix.from_array(rng.standard_normal((10, 5))))
        mpath = write_manifest_dir(tmp_path, [("one", K), ("two", K)])
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(mpath), "--metrics", "jsd,cka",
                     "--a", "0.5", "--samples", "1000", "--seed", "3",
                     "--out", str(out)]) == 0
        jsd = read_matrix(out / "jsd.csv", MatrixKind.DISTANCE)
        assert jsd.values[0, 1] == 0.0  # identical kernels share the model
        cka = read_matrix(out / "cka.csv", MatrixKind.DISTANCE)
        assert cka.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_six_metric_panel(self, tmp_path):
        rng = np.random.default_rng(2)
        layers = kernels_same_stimuli(rng, 10, 5, 3)
        mpath = write_manifest_dir(tmp_path, layers)
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(mpath),
                     "--metrics", "jsd,tvd,cka,shape,rsa_corr,rsa_arccos",
                     "--a", "0.5", "--samples", "500", "--seed", "1",
                     "--out", str(out)]) == 0
        for metric in ("jsd", "tvd", "cka", "shape", "rsa_corr", "rsa_arccos"):
            assert (out / f"{metric}.csv").exists()
        record = json.loads((out / "record.json").read_text())
        assert record["labels"] == ["layer0", "layer1", "layer2"]
        assert record["a"] == 0.5 and record["seed"] == 1

    def test_a_and_b_conflict_is_usage_error(self, tmp_path):
        rng = np.random.default_rng(3)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 8, 4, 2))
        code = main(["compare", "--manifest", str(mpath), "--a", "0.5",
                     "--b", "0.01", "--out", str(tmp_path / "out")])
        assert code == 1

    def test_b_flag_uses_heuristic(self, tmp_path):
        rng = np.random.default_rng(4)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 100, 4, 2))
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(mpath), "--b", "0.01",
                     "--metrics", "cka", "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["a"] == 0.5  # 100 stimuli at b = 1/100
        assert record["b"] == 0.01

    def test_manifest_defaults_apply(self, tmp_path):
        rng = np.random.default_rng(5)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 8, 4, 2),
                                   extra={"seed": 9, "a": 0.25, "n_samples": 600})
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(mpath), "--metrics", "jsd",
                     "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["seed"] == 9
        assert record["a"] == 0.25
        assert record["n_samples"] == 600

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 10, 5, 3))
        args = ["compare", "--manifest", str(mpath), "--metrics", "jsd,tvd,cka",
                "--a", "0.4", "--samples", "800", "--seed", "11", "--threads", "2"]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_thread_count_does_not_change_results(self, tmp_path):
        rng = np.random.default_rng(7)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 10, 5, 4))
        base = ["compare", "--manifest", str(mpath), "--metrics", "jsd,tvd",
                "--a", "0.4", "--samples", "800", "--seed", "11"]
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "4", "--out", str(out2)]) == 0
        for name in ("jsd.csv", "tvd.csv", "jsd.se.csv", "tvd.se.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 8, 4, 2))
        monkeypatch.setenv("REPMETRIC_THREADS", "2")
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(mpath), "--metrics", "cka",
                     "--a", "0.5", "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["threads"] == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # constant layer: zero centered kernel breaks cka in abort mode
        flat = gram(RepresentationMatrix.from_array(np.ones((6, 3))))
        rng = np.random.default_rng(9)
        good = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        mpath = write_manifest_dir(tmp_path, [("flat", flat), ("good", good)])
        code = main(["compare", "--manifest", str(mpath), "--metrics", "cka",
                     "--a", "0.5", "--out", str(tmp_path / "out")])
        assert code == 3

    def test_skip_mode_omits_matrix_and_records_holes(self, tmp_path):
        flat = gram(RepresentationMatrix.from_array(np.ones((6, 3))))
        rng = np.random.default_rng(10)
        good = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        mpath = write_manifest_dir(tmp_path, [("flat", flat), ("good", good)])
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(mpath), "--metrics", "cka,jsd",
                     "--a", "0.5", "--samples", "400", "--on-error", "skip",
                     "--out", str(out)]) == 0
        assert not (out / "cka.csv").exists()
        assert (out / "jsd.csv").exists()
        record = json.loads((out / "record.json").read_text())
        assert record["holes"]["cka"] == [["flat", "good",
                                           "centered kernel has zero norm (constant representation)"]]

    def test_binary_output_above_size_limit(self, tmp_path):
        rng = np.random.default_rng(11)
        rep = tmp_path / "big.csv"
        write_matrix(rng.standard_normal((201, 3)), rep, MatrixKind.REPRESENTATION)
        out = tmp_path / "out"
        assert main(["gram", str(rep), "--out", str(out)]) == 0
        assert (out / "big.kernel.rmx").exists()
        small = tmp_path / "small.csv"
        write_matrix(rng.standard_normal((20, 3)), small, MatrixKind.REPRESENTATION)
        assert main(["gram", str(small), "--out", str(out), "--format", "binary"]) == 0
        assert (out / "small.kernel.rmx").exists()


class TestSweepCommand:
    def test_grid_cell_matches_compare(self, tmp_path):
        rng = np.random.default_rng(12)
        layers = kernels_same_stimuli(rng, 30, 6, 2, t=0.9)
        (_, K1), (_, K2) = layers
        write_matrix(K1.K, tmp_path / "k1.csv", MatrixKind.KERNEL)
        write_matrix(K2.K, tmp_path / "k2.csv", MatrixKind.KERNEL)
        out = tmp_path / "sweep"
        assert main(["sweep", "--kernel1", str(tmp_path / "k1.csv"),
                     "--kernel2", str(tmp_path / "k2.csv"),
                     "--n-values", "20", "--noise-values", "0.5",
                     "--samples", "700", "--seed", "21", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        header, grid_row = rows[0], rows[1]
        assert header == "metric,n,a,source,value,std_error"
        sweep_value = float(grid_row.split(",")[4])

        # same cell through compare: two-layer manifest over the leading
        # 20x20 submatrices, seeded with the cell's master seed
        sub = tmp_path / "sub"
        sub.mkdir()
        write_matrix(K1.K[:20, :20], sub / "kernel1.csv", MatrixKind.KERNEL)
        write_matrix(K2.K[:20, :20], sub / "kernel2.csv", MatrixKind.KERNEL)
        mpath = sub / "manifest.json"
        mpath.write_text(json.dumps({"entries": [
            {"name": "kernel1", "path": "kernel1.csv", "kind": "kernel"},
            {"name": "kernel2", "path": "kernel2.csv", "kind": "kernel"}]}))
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--manifest", str(mpath), "--metrics", "jsd",
                     "--a", "0.5", "--samples", "700",
                     "--seed", str(cell_seed(21, 20, 0)),
                     "--out", str(cmp_out)]) == 0
        cmp_matrix = read_matrix(cmp_out / "jsd.csv", MatrixKind.DISTANCE)
        assert cmp_matrix.values[0, 1] == sweep_value

    def test_proportional_rows_marked(self, tmp_path):
        rng = np.random.default_rng(13)
        layers = kernels_same_stimuli(rng, 25, 5, 2)
        (_, K1), (_, K2) = layers
        write_matrix(K1.K, tmp_path / "k1.csv", MatrixKind.KERNEL)
        write_matrix(K2.K, tmp_path / "k2.csv", MatrixKind.KERNEL)
        out = tmp_path / "sweep"
        assert main(["sweep", "--kernel1", str(tmp_path / "k1.csv"),
                     "--kernel2", str(tmp_path / "k2.csv"),
                     "--n-values", "10,20", "--noise-values", "0.2,0.8",
                     "--samples", "300", "--seed", "5", "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_text()
        assert text.count("proportional") == 2
        assert text.count("grid") == 4


class TestStabilityCommand:
    def test_single_repeat_is_usage_error(self, tmp_path):
        rng = np.random.default_rng(14)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 10, 4, 2))
        code = main(["stability", "--manifest", str(mpath), "--n-images", "5",
                     "--repeats", "1", "--out", str(tmp_path / "out")])
        assert code == 1

    def test_summary_layout(self, tmp_path):
        rng = np.random.default_rng(15)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 30, 5, 3))
        out = tmp_path / "out"
        assert main(["stability", "--manifest", str(mpath), "--n-images", "8,16",
                     "--repeats", "3", "--metrics", "cka,rsa_arccos",
                     "--samples", "200", "--seed", "2", "--out", str(out)]) == 0
        summary = (out / "stability_summary.csv").read_text().strip().splitlines()
        assert summary[0] == "n_images,cka,rsa_arccos"
        assert summary[1].startswith("8,") and summary[2].startswith("16,")
        assert all("/" in cell for cell in summary[1].split(",")[1:])
        pairs = (out / "stability_pairs.csv").read_text().strip().splitlines()
        assert pairs[0] == "metric,n_images,label1,label2,sd"
        assert len(pairs) == 1 + 2 * 2 * 3  # metrics x sizes x pairs


class TestEmbedCommand:
    def test_triangle_embedding(self, tmp_path, capsys):
        D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        write_matrix(D, tmp_path / "d.csv", MatrixKind.DISTANCE,
                     labels=["p0", "p1", "p2"])
        out = tmp_path / "out"
        assert main(["embed", "--input", str(tmp_path / "d.csv"),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "stress=" in stdout
        record = json.loads((out / "record.json").read_text())
        assert record["stress"] < 1e-6
        lines = (out / "embedding.csv").read_text().strip().splitlines()
        assert lines[0] == "label,dim0,dim1"
        assert lines[1].startswith("p0,")

    def test_invalid_distance_matrix_exit_code(self, tmp_path):
        (tmp_path / "d.csv").write_text("0.0,1.0\n2.0,0.0\n")
        code = main(["embed", "--input", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 2


BIG_SEED = str(2 ** 200)
HUGE_SAMPLES = str(10 ** 30)  # a draw block numpy cannot even shape


class TestSingleLineValidationErrors:
    """Malformed input exits 2 with one stderr line, never a traceback."""

    @pytest.mark.parametrize("args, manifest_extra", [
        (["compare", "--manifest", "{manifest}", "--metrics", "jsd", "--a", "0.5",
          "--samples", "100", "--seed", BIG_SEED], None),
        (["stability", "--manifest", "{manifest}", "--n-images", "5", "--repeats", "2",
          "--metrics", "cka", "--seed", BIG_SEED], None),
        (["sweep", "--kernel1", "{kernel}", "--kernel2", "{kernel}", "--n-values", "5",
          "--noise-values", "0.5", "--samples", "100", "--seed", BIG_SEED], None),
        (["embed", "--input", "{distance}", "--seed", "-" + BIG_SEED], None),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka", "--a", "0.5"],
         {"seed": "seven"}),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka"], {"a": "half"}),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka"], {"b": [0.01]}),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka", "--a", "0.5"],
         {"n_samples": "many"}),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka", "--a", "0.5"],
         {"entries": 5}),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka", "--a", "0.5"],
         {"entries": [{"name": [1], "path": "layer0.csv", "kind": "kernel"}]}),
        (["compare", "--manifest", "{manifest}", "--metrics", "jsd", "--a", "0.5",
          "--samples", HUGE_SAMPLES], None),
        (["stability", "--manifest", "{manifest}", "--n-images", "5", "--repeats", "2",
          "--metrics", "jsd", "--samples", HUGE_SAMPLES], None),
        (["sweep", "--kernel1", "{kernel}", "--kernel2", "{kernel}", "--n-values", "5",
          "--noise-values", "0.5", "--samples", HUGE_SAMPLES], None),
        (["embed", "--input", "{distance}", "--max-iter", "0"], None),
        (["sweep", "--kernel1", "{kernel}", "--kernel2", "{kernel}", "--n-values", "5",
          "--noise-values", "0.5", "--metrics", ""], None),
    ], ids=["compare-seed", "stability-seed", "sweep-seed", "embed-seed",
            "manifest-seed", "manifest-a", "manifest-b", "manifest-n_samples",
            "manifest-entries", "manifest-name", "compare-samples", "stability-samples",
            "sweep-samples", "embed-max-iter", "sweep-metrics"])
    def test_exit_2_one_line(self, tmp_path, capsys, args, manifest_extra):
        rng = np.random.default_rng(30)
        layers = kernels_same_stimuli(rng, 8, 4, 2)
        paths = {"manifest": str(write_manifest_dir(tmp_path, layers, manifest_extra)),
                 "kernel": str(tmp_path / "layer0.csv"),
                 "distance": str(tmp_path / "d.csv")}
        write_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "d.csv",
                     MatrixKind.DISTANCE)
        argv = [a.format(**paths) for a in args] + ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("seed", [2 ** 127 - 1, -2 ** 127])
    def test_seed_range_limits_accepted(self, tmp_path, seed):
        write_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "d.csv",
                     MatrixKind.DISTANCE)
        assert main(["embed", "--input", str(tmp_path / "d.csv"), "--seed", str(seed),
                     "--restarts", "1", "--out", str(tmp_path / "out")]) == 0


class TestSingleBlas:
    def test_cli_import_loads_no_scipy(self):
        # scipy would load a second OpenBLAS with its own thread pool
        import repmetric
        src = str(Path(repmetric.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, repmetric.cli; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1
