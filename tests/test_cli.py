import contextlib
import io
import json
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import kernels_same_stimuli

from repmetric import cli, harness
from repmetric.cli import main
from repmetric.harness import cell_seed
from repmetric.kernel import RepresentationMatrix, gram
from repmetric.matrix_io import MAGIC, MatrixKind, read_matrix, write_matrix


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


COMMANDS = ["gram", "compare", "sweep", "stability", "embed"]


def small_run(tmp_path, command):
    """argv, without --out, of a quick successful run of `command` on files it writes."""
    rng = np.random.default_rng(32)
    mpath = str(write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 8, 4, 2)))
    for name in ("a", "b"):
        write_matrix(rng.standard_normal((5, 3)), tmp_path / f"{name}.csv",
                     MatrixKind.REPRESENTATION)
    X = rng.standard_normal((4, 3))
    write_matrix(np.sqrt(((X[:, None] - X[None]) ** 2).sum(-1)), tmp_path / "d.csv",
                 MatrixKind.DISTANCE)
    return {"gram": ["gram", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")],
            "compare": ["compare", "--manifest", mpath, "--metrics", "jsd", "--a", "0.5",
                        "--samples", "100"],
            "sweep": ["sweep", "--kernel1", str(tmp_path / "layer0.csv"), "--kernel2",
                      str(tmp_path / "layer1.csv"), "--n-values", "3,5", "--noise-values",
                      "0.5", "--samples", "100"],
            "stability": ["stability", "--manifest", mpath, "--n-images", "4", "--repeats",
                          "2", "--metrics", "jsd", "--samples", "100"],
            "embed": ["embed", "--input", str(tmp_path / "d.csv"), "--restarts", "1"]}[command]


class TestGramCommand:
    def test_identity_representation(self, tmp_path, capsys):
        rep = tmp_path / "rep.csv"
        write_matrix(np.eye(4), rep, MatrixKind.REPRESENTATION)
        out = tmp_path / "out"
        assert main(["gram", str(rep), "--out", str(out)]) == 0
        loaded = read_matrix(out / "rep.kernel.csv", MatrixKind.KERNEL)
        assert np.array_equal(loaded.values, np.eye(4))
        assert "rank=4" in capsys.readouterr().out

    def test_unlabelled_input_gives_no_label_row(self, tmp_path):
        # a kernel without a label row is taken in row order beside labelled layers
        rep = tmp_path / "rep.csv"
        rep.write_text("1,0\n0,2\n")
        out = tmp_path / "out"
        assert main(["gram", str(rep), "--out", str(out)]) == 0
        assert (out / "rep.kernel.csv").read_text() == "1,0\n0,4\n"
        assert read_matrix(out / "rep.kernel.csv", MatrixKind.KERNEL).labels is None

    def test_feature_name_row_refused(self, tmp_path, capsys):
        rep = tmp_path / "rep.csv"
        rep.write_text("x,y\n1,2\n3,4\n")
        out = tmp_path / "out"
        assert main(["gram", str(rep), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {rep}: could not convert string 'x' to float64 "
            "at row 0, column 1.\n")

    def test_two_inputs_two_outputs(self, tmp_path):
        rng = np.random.default_rng(0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix(rng.standard_normal((5, 3)), p1, MatrixKind.REPRESENTATION)
        write_matrix(rng.standard_normal((5, 3)), p2, MatrixKind.REPRESENTATION)
        out = tmp_path / "out"
        assert main(["gram", str(p1), str(p2), "--out", str(out)]) == 0
        assert (out / "a.kernel.csv").exists()
        assert (out / "b.kernel.csv").exists()

    @pytest.mark.parametrize("shape", ["duplicated-column", "more-features-than-rows"])
    def test_rank_follows_the_hermitian_rule_on_k(self, tmp_path, capsys, shape):
        rng = np.random.default_rng(5)
        if shape == "duplicated-column":
            X = rng.standard_normal((12, 6))
            X[:, 5] = X[:, 2]
        else:
            X = rng.standard_normal((8, 20))
        rep = tmp_path / "rep.csv"
        write_matrix(X, rep, MatrixKind.REPRESENTATION)
        assert main(["gram", str(rep), "--out", str(tmp_path / "out")]) == 0
        K = gram(RepresentationMatrix.from_array(read_matrix(rep, MatrixKind.REPRESENTATION).values)).K
        expected = np.linalg.matrix_rank(K, hermitian=True)
        assert expected == (5 if shape == "duplicated-column" else 8)
        assert f"rank={expected} " in capsys.readouterr().out

    def test_empty_input_fails_validation(self, tmp_path):
        import struct
        from repmetric.matrix_io import MAGIC
        rep = tmp_path / "empty.rmx"
        rep.write_bytes(struct.pack("<4sBII", MAGIC, 1, 0, 3))
        code = main(["gram", str(rep), "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("same", ["same-stem", "same-file"])
    def test_inputs_sharing_an_output_name_refused(self, tmp_path, capsys, same):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            write_matrix(np.eye(3), tmp_path / sub / "x.csv", MatrixKind.REPRESENTATION)
        first = tmp_path / "a" / "x.csv"
        second = tmp_path / ("a" if same == "same-file" else "b") / "x.csv"
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["gram", str(first), str(second), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"validation error: {first} and {second} would both write x.kernel; "
                       "rename one\n")
        assert not out.exists()


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

    def test_overflowing_b_gives_pure_noise(self, tmp_path):
        rng = np.random.default_rng(7)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 8, 4, 2))
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(mpath), "--b", "1e308",
                     "--metrics", "jsd,cka", "--samples", "100", "--out", str(out)]) == 0
        assert json.loads((out / "record.json").read_text())["a"] == 1.0
        jsd = read_matrix(out / "jsd.csv", MatrixKind.DISTANCE)
        assert not np.any(jsd.values)  # both layers are N(0, I)

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
                "--a", "0.4", "--samples", "800", "--seed", "11"]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_threads_only_as_stability_one(self, tmp_path, capsys):
        # pairs run one at a time: compare has no --threads, stability keeps a hidden 1
        rng = np.random.default_rng(8)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 8, 4, 2))
        out = tmp_path / "out"
        compare = ["compare", "--manifest", str(mpath), "--metrics", "cka", "--a", "0.5"]
        stability = ["stability", "--manifest", str(mpath), "--n-images", "4",
                     "--repeats", "2", "--metrics", "cka"]
        capsys.readouterr()
        for argv in (compare + ["--threads", "1"], stability + ["--threads", "2"]):
            assert main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and len(err.splitlines()) == 1
        assert main(stability + ["--threads", "1", "--out", str(out)]) == 0
        assert "threads" not in json.loads((out / "record.json").read_text())

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
        assert record["holes"]["cka"] == [
            ["flat", "good",
             "layer 'flat': centered kernel has zero norm (constant representation)"]]

    def test_skip_mode_holes_for_a_near_constant_layer(self, tmp_path):
        # spread at rounding level of the layer's scale: every baseline is a hole
        rng = np.random.default_rng(34)
        near = gram(RepresentationMatrix.from_array(1.0 + 1e-8 * rng.standard_normal((20, 3))))
        good = gram(RepresentationMatrix.from_array(rng.standard_normal((20, 3))))
        mpath = write_manifest_dir(tmp_path, [("good", good), ("near", near)])
        out = tmp_path / "out"
        assert main(["compare", "--manifest", str(mpath), "--metrics", "cka,rsa_corr,rsa_arccos",
                     "--a", "0.5", "--on-error", "skip", "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        reasons = {"cka": "centered kernel has zero norm (constant representation)",
                   "rsa_corr": "distance vector has zero variance",
                   "rsa_arccos": "distance vector is zero"}
        assert record["holes"] == {m: [["good", "near", f"layer 'near': {r}"]]
                                   for m, r in reasons.items()}
        assert record["outputs"] == {}

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


class TestListFlags:
    """Comma-separated flags ignore spaces around each item."""

    @pytest.mark.parametrize("command", ["compare", "sweep", "stability"])
    def test_spaces_around_items(self, tmp_path, command):
        rng = np.random.default_rng(33)
        mpath = str(write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 8, 4, 2)))
        layer0, layer1 = str(tmp_path / "layer0.csv"), str(tmp_path / "layer1.csv")
        args = {"compare": ["--manifest", mpath, "--metrics", "jsd, cka", "--samples", "50"],
                "sweep": ["--kernel1", layer0, "--kernel2", layer1, "--n-values", " 3, 5 ",
                          "--noise-values", "0.2, 0.5", "--metrics", "jsd, tvd",
                          "--samples", "50"],
                "stability": ["--manifest", mpath, "--n-images", "4, 6", "--repeats", "2",
                              "--metrics", "jsd, cka", "--samples", "50"]}
        out = tmp_path / "out"
        assert main([command] + args[command] + ["--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        if command == "sweep":
            assert (record["n_values"], record["noise_values"]) == ([3, 5], [0.2, 0.5])
        if command == "stability":
            assert record["n_images"] == [4, 6]
        assert record["metrics"] == (["jsd", "tvd"] if command == "sweep" else ["jsd", "cka"])


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

    @pytest.mark.parametrize("noise, zero_pool, where", [
        ("0.5", 1, "kernel1, n=5, a=0.5"), ("1", 2, "kernel2, n=5, proportional")],
        ids=["kernel1-grid", "kernel2-proportional"])
    def test_failing_cell_named(self, tmp_path, capsys, noise, zero_pool, where):
        # the pool's first 10 stimuli carry no signal, so n=5 has no predictive
        # distribution at a < 1 (a = 1 is pure noise and needs none)
        rng = np.random.default_rng(36)
        for i in (1, 2):
            X = rng.standard_normal((40, 5))
            if i == zero_pool:
                X[:10] = 0.0
            write_matrix(X @ X.T, tmp_path / f"k{i}.csv", MatrixKind.KERNEL)
        out = tmp_path / "out"
        assert main(["sweep", "--kernel1", str(tmp_path / "k1.csv"),
                     "--kernel2", str(tmp_path / "k2.csv"), "--n-values", "20,5",
                     "--noise-values", noise, "--samples", "50", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"numerical error: {where}: kernel trace is not positive; "
            "cannot build a predictive distribution\n")
        assert not out.exists()


class TestStabilityCommand:
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


    def test_failing_repeat_named(self, tmp_path, capsys):
        # one signal-carrying stimulus in 12: every subset of 12 holds it; at seed 10
        # the first subset of 2 holds it and the second misses it
        rng = np.random.default_rng(37)
        X = np.zeros((12, 3))
        X[7] = 1.0
        layers = kernels_same_stimuli(rng, 12, 3, 1) + [
            ("sparse", gram(RepresentationMatrix.from_array(X)))]
        mpath = write_manifest_dir(tmp_path, layers)
        out = tmp_path / "out"
        assert main(["stability", "--manifest", str(mpath), "--n-images", "12,2",
                     "--repeats", "4", "--metrics", "jsd", "--samples", "50",
                     "--seed", "10", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical error: n_images=2, repeat 1: layer 'sparse': kernel trace is not "
            "positive; cannot build a predictive distribution\n")
        assert not out.exists()

    def test_manifest_b_applies_unless_flag_given(self, tmp_path):
        rng = np.random.default_rng(16)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 12, 4, 2),
                                   extra={"b": 0.5})
        args = ["stability", "--manifest", str(mpath), "--n-images", "6", "--repeats", "2",
                "--metrics", "jsd", "--samples", "50"]
        for flags, b in (([], 0.5), (["--b", "0.2"], 0.2)):
            out = tmp_path / f"out{b}"
            assert main(args + flags + ["--out", str(out)]) == 0
            assert json.loads((out / "record.json").read_text())["b"] == b


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

    def test_byte_order_mark_accepted(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one; the first row stays data
        (tmp_path / "d.csv").write_text("\ufeff0,1\n1,0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["embed", "--input", str(tmp_path / "d.csv"), "--out", str(out)]) == 0
        lines = (out / "embedding.csv").read_text().strip().splitlines()
        assert [ln.split(",")[0] for ln in lines] == ["label", "s0", "s1"]

    def test_invalid_distance_matrix_exit_code(self, tmp_path):
        (tmp_path / "d.csv").write_text("0.0,1.0\n2.0,0.0\n")
        code = main(["embed", "--input", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 2


class TestStimulusOrder:
    """Layers with label rows list their stimuli in one order."""

    REFUSALS = [("compare", ("layer 'k2'", "layer 'k1'")),
                ("stability", ("layer 'k2'", "layer 'k1'")), ("sweep", ("kernel2", "kernel1"))]

    @staticmethod
    def files(tmp_path, second, labels="abcdef"):
        # k2 is k1 with its rows and columns reversed; k3 is k1 without a label row
        rng = np.random.default_rng(42)
        X = rng.standard_normal((6, 3))
        K, labels = X @ X.T, list(labels)
        write_matrix(K, tmp_path / "k1.csv", MatrixKind.KERNEL, labels=labels)
        write_matrix(K[::-1, ::-1], tmp_path / "k2.csv", MatrixKind.KERNEL, labels=labels[::-1])
        write_matrix(K, tmp_path / "k3.csv", MatrixKind.KERNEL)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"entries": [
            {"name": name, "path": f"{name}.csv", "kind": "kernel"} for name in ("k1", second)]}))
        return {"compare": ["compare", "--manifest", str(mpath), "--metrics", "cka,jsd",
                            "--samples", "2000"],
                "stability": ["stability", "--manifest", str(mpath), "--n-images", "4",
                              "--repeats", "2", "--metrics", "cka,jsd", "--samples", "100"],
                "sweep": ["sweep", "--kernel1", str(tmp_path / "k1.csv"), "--kernel2",
                          str(tmp_path / f"{second}.csv"), "--n-values", "4",
                          "--noise-values", "0.5", "--samples", "100"]}

    @pytest.mark.parametrize("command, names", REFUSALS)
    def test_permuted_labelled_layer_refused(self, tmp_path, capsys, command, names):
        out = tmp_path / "out"
        assert main(self.files(tmp_path, "k2")[command] + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {names[0]}: stimulus labels differ from {names[1]}'s "
            "(row 0: 'f' vs 'a')\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, names", REFUSALS)
    def test_label_row_spelling_row_names_refused(self, tmp_path, capsys, command, names):
        # a label row s0, s1, ... names stimuli like any other label row
        out = tmp_path / "out"
        labels = [f"s{i}" for i in range(6)]
        assert main(self.files(tmp_path, "k2", labels)[command] + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {names[0]}: stimulus labels differ from {names[1]}'s "
            "(row 0: 's5' vs 's0')\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "stability", "sweep"])
    def test_unlabelled_layer_beside_a_labelled_one_runs(self, tmp_path, command):
        out = tmp_path / "out"
        assert main(self.files(tmp_path, "k3")[command] + ["--out", str(out)]) == 0
        if command == "compare":  # the same kernel, taken in row order
            assert read_matrix(out / "cka.csv", MatrixKind.DISTANCE).values[0, 1] == 0.0


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
        (["compare", "--manifest", "{manifest}", "--metrics", "jsd", "--a", "0.5"],
         {"n_samples": 0}),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka", "--a", "0.5"],
         {"seed": 1.7}),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka", "--a", "0.5"],
         {"seed": True}),
        (["compare", "--manifest", "{manifest}", "--metrics", "jsd", "--a", "0.5"],
         {"n_samples": 2.9}),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka"], {"a": True}),
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
        (["compare", "--manifest", "{manifest}", "--metrics", "jsd,cka", "--a", "0.5",
          "--samples", HUGE_SAMPLES, "--on-error", "skip"], None),
        (["compare", "--manifest", "{manifest}", "--metrics", "jsd,cka", "--a", "0.5",
          "--samples", "1", "--on-error", "skip"], None),
        (["compare", "--manifest", "{manifest}", "--metrics", "jsd", "--samples", "1"],
         {"entries": [{"name": "x\ny", "path": "layer0.csv", "kind": "kernel"},
                      {"name": "z", "path": "layer1.csv", "kind": "kernel"}]}),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka"],
         {"entries": [{"name": "here", "path": ".", "kind": "kernel"},
                      {"name": "z", "path": "layer1.csv", "kind": "kernel"}]}),
        (["embed", "--input", "{not_utf8_csv}"], None),
        (["compare", "--manifest", "{not_utf8_manifest}", "--metrics", "cka"], None),
        (["embed", "--input", "{distance}", "--dims", str(10 ** 20)], None),
        (["embed", "--input", "{distance}", "--tol", "nan"], None),
        (["embed", "--input", "{distance}", "--tol", "inf"], None),
        (["stability", "--manifest", "{manifest}", "--n-images", "5", "--repeats", "2",
          "--metrics", "cka", "--b", "nan"], None),
        (["stability", "--manifest", "{manifest}", "--n-images", "", "--repeats", "2",
          "--b", "nan"], None),
        (["compare", "--manifest", "{manifest}", "--metrics", "jsd,jsd", "--samples", "100"],
         None),
        (["sweep", "--kernel1", "{kernel}", "--kernel2", "{kernel}", "--n-values", "3,4",
          "--noise-values", "0.2,0.5", "--metrics", "jsd,jsd", "--samples", "100"], None),
        (["stability", "--manifest", "{manifest}", "--n-images", "4", "--repeats", "3",
          "--metrics", "cka,cka"], None),
        (["compare", "--manifest", "{manifest}", "--metrics", "cka"],
         {"entries": [{"name": "tiny", "path": "tiny.csv", "kind": "kernel"},
                      {"name": "eye", "path": "eye3.csv", "kind": "kernel"}]}),
        (["sweep", "--kernel1", "{kernel}", "--kernel2", "{kernel}", "--n-values", "5",
          "--noise-kind", "variance", "--noise-values", "inf", "--samples", "100"], None),
        (["sweep", "--kernel1", "{kernel}", "--kernel2", "{kernel}", "--n-values", "5",
          "--noise-kind", "variance", "--noise-values", "nan", "--samples", "100"], None),
        (["gram", "{huge_rep}"], None),
    ], ids=["compare-seed", "stability-seed", "sweep-seed", "embed-seed",
            "manifest-seed", "manifest-a", "manifest-b", "manifest-n_samples",
            "manifest-n_samples-zero", "manifest-seed-float", "manifest-seed-bool",
            "manifest-n_samples-float", "manifest-a-bool",
            "manifest-entries", "manifest-name", "compare-samples", "stability-samples",
            "sweep-samples", "embed-max-iter", "sweep-metrics", "compare-samples-skip",
            "compare-one-sample-skip", "manifest-name-newline", "manifest-directory",
            "csv-not-utf8", "manifest-not-utf8", "embed-dims", "embed-tol",
            "embed-tol-inf", "stability-b-nan", "stability-no-sizes", "compare-repeated-metric",
            "sweep-repeated-metric", "stability-repeated-metric", "compare-tiny-not-psd",
            "sweep-variance-inf", "sweep-variance-nan", "gram-trace"])
    def test_exit_2_one_line(self, tmp_path, capsys, args, manifest_extra):
        rng = np.random.default_rng(30)
        layers = kernels_same_stimuli(rng, 8, 4, 2)
        paths = {"manifest": str(write_manifest_dir(tmp_path, layers, manifest_extra)),
                 "kernel": str(tmp_path / "layer0.csv"),
                 "distance": str(tmp_path / "d.csv"),
                 "not_utf8_csv": str(tmp_path / "utf16.csv"),
                 "not_utf8_manifest": str(tmp_path / "not_utf8.json"),
                 "huge_rep": str(tmp_path / "huge_rep.csv")}
        write_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "d.csv",
                     MatrixKind.DISTANCE)
        # eigenvalue -1e-12: as far below zero, relative to its scale, as -1 in the unscaled K
        write_matrix(1e-12 * np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                     tmp_path / "tiny.csv", MatrixKind.KERNEL)
        write_matrix(np.eye(3), tmp_path / "eye3.csv", MatrixKind.KERNEL)
        write_matrix(np.full((2, 2), 1e200), tmp_path / "huge_rep.csv",
                     MatrixKind.REPRESENTATION)  # its Gram trace overflows
        (tmp_path / "utf16.csv").write_bytes("0,1\n1,0\n".encode("utf-16"))  # BOM ff fe
        (tmp_path / "not_utf8.json").write_bytes(
            b'{"entries": [{"name": "\xff", "path": "layer0.csv", "kind": "kernel"}]}')
        argv = [a.format(**paths) for a in args] + ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert len(err.splitlines()) == 1

    def test_module_entry_point(self, tmp_path):
        rng = np.random.default_rng(31)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 8, 4, 2))
        import repmetric
        env = dict(os.environ, PYTHONPATH=str(Path(repmetric.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-m", "repmetric.cli", "compare", "--manifest",
                               str(mpath), "--samples", "1", "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("validation error: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("seed", [2 ** 127 - 1, -2 ** 127])
    def test_seed_range_limits_accepted(self, tmp_path, seed):
        write_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "d.csv",
                     MatrixKind.DISTANCE)
        assert main(["embed", "--input", str(tmp_path / "d.csv"), "--seed", str(seed),
                     "--restarts", "1", "--out", str(tmp_path / "out")]) == 0


class TestInterrupt:
    def test_ctrl_c_ends_a_huge_run_with_one_line(self, tmp_path):
        rng = np.random.default_rng(33)
        mpath = write_manifest_dir(tmp_path, kernels_same_stimuli(rng, 8, 4, 2))
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("before")
        import repmetric
        env = dict(os.environ, PYTHONPATH=str(Path(repmetric.__file__).resolve().parent.parent))
        proc = subprocess.Popen([sys.executable, "-m", "repmetric.cli", "compare", "--manifest",
                                 str(mpath), "--samples", str(10 ** 9), "--out", str(out)],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            time.sleep(2.0)  # inside the pair's draws, which would take minutes
            assert proc.poll() is None
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=5)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130, err
        assert err.splitlines()[-1] == "interrupted"
        assert "Traceback" not in err
        assert tree_bytes(out) == {"keep.txt": b"before"}


SEED_2_130 = str(2 ** 130)


class TestFlagsBeforeInputs:
    """A run its arguments (with the manifest's defaults) refuse reads no kernel,
    representation or distance matrix."""

    @pytest.mark.parametrize("command, bad, code, message", [
        ("stability", ["--samples", "1"], 2,
         "validation error: need at least 2 draws for a standard error"),
        ("compare", ["--metrics", "nope"], 2, "validation error: unknown metrics: ['nope']"),
        ("sweep", ["--metrics", "cka"], 2,
         "validation error: snr_sweep supports jsd/tvd, got 'cka'"),
        ("compare", ["--b", "0.01"], 1, "usage error: --a and --b are mutually exclusive"),
        ("stability", ["--n-images", "x"], 1, "usage error: cannot parse --n-images: 'x'"),
        ("sweep", ["--n-values", "x"], 1, "usage error: cannot parse --n-values: 'x'"),
        ("stability", ["--b", "nan"], 2, "validation error: b=nan must be finite and >= 0"),
        ("stability", ["--n-images", "1"], 2, "validation error: n_images must be >= 2"),
        ("stability", ["--repeats", "1"], 2, "validation error: n_repeats must be >= 2"),
        ("sweep", ["--noise-values", "nan"], 2, "validation error: a=nan outside [0, 1]"),
        ("sweep", ["--n-values", "1"], 2, "validation error: need n >= 2"),
        ("sweep", ["--n-values", ""], 2, "validation error: empty sweep axes"),
        ("sweep", ["--b", "-1"], 2, "validation error: b=-1.0 must be finite and >= 0"),
        ("sweep", ["--noise-kind", "variance", "--noise-values", "-1"], 2,
         "validation error: noise variance -1.0 must be finite and >= 0"),
        ("compare", ["--a", None, "--b", "nan"], 2,
         "validation error: b=nan must be finite and >= 0"),
        ("compare", ["--a", "2"], 2, "validation error: a=2.0 outside [0, 1]"),
        ("compare", ["--seed", SEED_2_130], 2,
         f"validation error: seed {SEED_2_130} outside [-2**127, 2**127 - 1]"),
        ("sweep", ["--seed", SEED_2_130], 2,
         f"validation error: seed {SEED_2_130} outside [-2**127, 2**127 - 1]"),
        ("stability", ["--seed", SEED_2_130], 2,
         f"validation error: seed {SEED_2_130} outside [-2**127, 2**127 - 1]"),
        ("embed", ["--seed", SEED_2_130], 2,
         f"validation error: seed {SEED_2_130} outside [-2**127, 2**127 - 1]"),
        ("embed", ["--restarts", "0"], 2, "validation error: restarts must be >= 1"),
        ("embed", ["--max-iter", "0"], 2, "validation error: max_iter must be >= 1"),
        ("embed", ["--tol", "-1"], 2, "validation error: tol=-1.0 must be finite and >= 0")],
        ids=["stability-samples", "compare-metrics", "sweep-metrics", "compare-a-and-b",
             "stability-n-images", "sweep-n-values", "stability-b-nan", "stability-one-image",
             "stability-one-repeat",
             "sweep-noise-nan", "sweep-one-stimulus", "sweep-no-n-values", "sweep-b-negative",
             "sweep-variance-negative", "compare-b-nan", "compare-a-above-one", "compare-seed",
             "sweep-seed", "stability-seed", "embed-seed", "embed-restarts", "embed-max-iter",
             "embed-tol"])
    def test_refused_before_any_input_is_read(self, tmp_path, monkeypatch, capsys, command,
                                              bad, code, message):
        argv = small_run(tmp_path, command)
        for flag, value in zip(bad[::2], bad[1::2]):  # a value replaces the flag's, None drops it
            if flag in argv:
                del argv[argv.index(flag):argv.index(flag) + 2]
            argv += [] if value is None else [flag, value]
        argv += ["--out", str(tmp_path / "out")]

        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(harness, "load_kernel", unread)
        monkeypatch.setattr(cli, "read_matrix", unread)
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().err == message + "\n"


class TestFileErrors:
    """A path the file system refuses exits 2 with one line naming it, never a traceback."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_under_a_regular_file(self, tmp_path, capsys, command):
        out = tmp_path / "d.csv" / "out"
        capsys.readouterr()
        assert main(small_run(tmp_path, command) + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and str(out) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_names_a_regular_file(self, tmp_path, capsys, command):
        argv = small_run(tmp_path, command)
        out = tmp_path / "d.csv"
        before = out.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and str(out) in err
        assert len(err.splitlines()) == 1
        assert out.read_bytes() == before


class TestOutputPath:
    """--out is made first; its files appear together, record.json last, or not at all."""

    def test_refused_out_runs_no_pair(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "pairwise_matrix", lambda *a, **k: calls.append(a))
        argv = small_run(tmp_path, "compare") + ["--out", str(tmp_path / "d.csv" / "out")]
        assert main(argv) == 2
        assert calls == []

    @pytest.mark.parametrize("command, bad", [
        ("gram", None), ("compare", ["--metrics", "foo"]),
        ("sweep", ["--metrics", "foo"]), ("stability", ["--metrics", "foo"]),
        ("embed", ["--max-iter", "0"])])
    def test_failed_run_leaves_no_directory(self, tmp_path, command, bad):
        if bad is None:  # gram on a representation whose Gram trace overflows
            write_matrix(np.full((2, 2), 1e200), tmp_path / "huge.csv", MatrixKind.REPRESENTATION)
            argv = ["gram", str(tmp_path / "huge.csv")]
        else:
            argv = small_run(tmp_path, command) + bad
        before = sorted(tmp_path.iterdir())
        assert main(argv + ["--out", str(tmp_path / "new" / "deeper")]) == 2
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", COMMANDS)
    def test_success_publishes_only_the_recorded_files(self, tmp_path, command):
        out = tmp_path / "new" / "out"
        assert main(small_run(tmp_path, command) + ["--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*record["outputs"].values(), "record.json"])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_failed_rerun_keeps_earlier_outputs(self, tmp_path, monkeypatch, command):
        out = tmp_path / "out"
        assert main(small_run(tmp_path, command) + ["--out", str(out)]) == 0
        before = tree_bytes(out)
        # outputs that differ from the first run's: another seed, or binary kernels
        rerun = ["--format", "binary"] if command == "gram" else ["--seed", "1"]
        argv = small_run(tmp_path, command) + rerun + ["--out", str(out)]
        writes = []

        def failing(write):
            def wrapper(*args, **kwargs):
                writes.append(args)
                if len(writes) == 2:
                    raise OSError(28, "No space left on device")
                return write(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "write_matrix", failing(cli.write_matrix))
        monkeypatch.setattr(Path, "write_text", failing(Path.write_text))
        assert main(argv) == 2
        assert len(writes) == 2
        assert tree_bytes(out) == before  # no .partial-* entry either


class TestTopOfDoubleRange:
    """Entries near 1.8e308 are either handled exactly or rejected by name."""

    def huge_kernel_manifest(self, tmp_path, diagonal):
        layers = [("big", np.diag(diagonal)), ("small", np.diag([2.0, 1.0, 1.0]))]
        entries = []
        for name, K in layers:
            write_matrix(K, tmp_path / f"{name}.csv", MatrixKind.KERNEL)
            entries.append({"name": name, "path": f"{name}.csv", "kind": "kernel"})
        (tmp_path / "m.json").write_text(json.dumps({"entries": entries}))
        return str(tmp_path / "m.json")

    def test_huge_diagonal_entry_is_compared(self, tmp_path):
        # (K + Kᵀ)/2 used to overflow to inf here
        mpath = self.huge_kernel_manifest(tmp_path, [1e308, 1.0, 1.0])
        assert main(["compare", "--manifest", mpath, "--metrics", "jsd,tvd", "--a", "0.5",
                     "--samples", "200", "--out", str(tmp_path / "out")]) == 0
        values = read_matrix(tmp_path / "out" / "jsd.csv", MatrixKind.DISTANCE).values
        assert np.isfinite(values).all() and values[0, 1] > 0.0

    def test_overflowing_trace_names_the_layer(self, tmp_path, capsys):
        mpath = self.huge_kernel_manifest(tmp_path, [1e308, 1e308, 1.0])
        capsys.readouterr()
        assert main(["compare", "--manifest", mpath, "--metrics", "jsd", "--a", "0.5",
                     "--samples", "200", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "validation error: layer 'big': kernel trace overflows the double range\n"
        assert main(["sweep", "--kernel1", str(tmp_path / "big.csv"), "--kernel2",
                     str(tmp_path / "small.csv"), "--n-values", "3", "--noise-values", "0.5",
                     "--samples", "200", "--out", str(tmp_path / "sweep")]) == 2
        assert "big.csv: kernel trace overflows" in capsys.readouterr().err
        rep = tmp_path / "rep.csv"
        write_matrix(np.full((2, 2), 1e200), rep, MatrixKind.REPRESENTATION)
        assert main(["gram", str(rep), "--out", str(tmp_path / "gram")]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {rep}: kernel trace overflows the double range\n")

    def test_huge_diagonal_entry_baselines(self, tmp_path):
        # centering and squared distances used to overflow: cka 1, shape π/2, rsa_corr NaN
        mpath = self.huge_kernel_manifest(tmp_path, [1e308, 1.0, 1.0])
        assert main(["compare", "--manifest", mpath, "--metrics", "cka,shape,rsa_corr",
                     "--out", str(tmp_path / "out")]) == 0
        cka = read_matrix(tmp_path / "out" / "cka.csv", MatrixKind.DISTANCE).values[0, 1]
        assert cka == pytest.approx(0.14250707428745557, rel=1e-12)
        shape = read_matrix(tmp_path / "out" / "shape.csv", MatrixKind.DISTANCE).values[0, 1]
        assert shape == pytest.approx(np.arccos(1.0 - cka), rel=1e-12)

    def test_header_beyond_the_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.rmx"
        path.write_bytes(struct.pack("<4sBII", MAGIC, 2, 10**9, 10**9) + bytes(8))
        capsys.readouterr()
        assert main(["sweep", "--kernel1", str(path), "--kernel2", str(path), "--n-values", "3",
                     "--noise-values", "0.5", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {path}: payload is 8 bytes, header implies 8000000000000000000\n")

    def test_huge_distances_embed(self, tmp_path):
        write_matrix(np.array([[0.0, 1e308], [1e308, 0.0]]), tmp_path / "d.csv",
                     MatrixKind.DISTANCE)
        out = tmp_path / "out"
        assert main(["embed", "--input", str(tmp_path / "d.csv"), "--out", str(out)]) == 0
        assert json.loads((out / "record.json").read_text())["stress"] < 1e-12  # NaN fails
        rows = (out / "embedding.csv").read_text().splitlines()[1:]
        (x0, y0), (x1, y1) = ([float(v) for v in row.split(",")[1:]] for row in rows)
        assert np.hypot(x0 - x1, y0 - y1) == pytest.approx(1e308, rel=1e-12)


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


    def test_import_holds_openblas_to_one_thread(self):
        # an idle OpenBLAS worker would spin on the core a pair's second side needs
        import repmetric
        src = str(Path(repmetric.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import ctypes, repmetric\n"
                "paths = sorted({line.split()[-1] for line in open('/proc/self/maps')\n"
                "                if 'openblas' in line.split()[-1].rsplit('/', 1)[-1]})\n"
                "for path in paths:\n"
                "    lib = ctypes.CDLL(path)\n"
                "    for name in ('openblas_get_num_threads', 'openblas_get_num_threads64_',\n"
                "                 'scipy_openblas_get_num_threads',\n"
                "                 'scipy_openblas_get_num_threads64_'):\n"
                "        if hasattr(lib, name):\n"
                "            print(getattr(lib, name)())\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        if not out.stdout.split():
            pytest.skip("numpy loads no OpenBLAS here")
        assert set(out.stdout.split()) == {"1"}


def test_gc_frozen_by_the_cli_not_the_package():
    # the CLI spares its exit a walk over every imported object; library users keep their GC
    import repmetric
    env = dict(os.environ, PYTHONPATH=str(Path(repmetric.__file__).resolve().parent.parent))
    code = ("import gc, repmetric\n"
            "package = gc.get_freeze_count()\n"
            "import repmetric.cli\n"
            "print(package, gc.get_freeze_count())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    package, cli = map(int, out.stdout.split())
    assert package == 0 and cli > 0


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Small valid and malformed CSVs and manifests, keyed by a short name."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(40)
    for name, kern in kernels_same_stimuli(rng, 6, 3, 3):
        write_matrix(kern.K, root / f"{name}.csv", MatrixKind.KERNEL, labels=kern.labels)
    write_matrix(np.zeros((6, 6)), root / "zero.csv", MatrixKind.KERNEL)
    asym = np.eye(6)
    asym[0, 1] = 0.5
    write_matrix(asym, root / "asym.csv", MatrixKind.REPRESENTATION)  # unchecked as a kernel
    write_matrix(rng.standard_normal((6, 3)), root / "rep.csv", MatrixKind.REPRESENTATION)
    X = rng.standard_normal((4, 3))
    D = np.sqrt(((X[:, None] - X[None]) ** 2).sum(-1))
    write_matrix(D, root / "dist.csv", MatrixKind.DISTANCE, labels=["p0", "p1", "p2", "p3"])
    raw = {"ragged.csv": b"0,1\n1\n", "empty.csv": b"", "text.csv": b"0,1\nx,0\n",
           "utf16.csv": "0,1\n1,0\n".encode("utf-16"), "trunc.rmx": MAGIC,
           "empty.json": b"", "brace.json": b"{", "not_utf8.json": b'{"entries": "\xff"}'}
    for name, data in raw.items():
        (root / name).write_bytes(data)

    def entry(name, path, kind="kernel"):
        return {"name": name, "path": path, "kind": kind}

    good = [entry(f"layer{j}", f"layer{j}.csv") for j in range(3)]
    manifests = {
        "good": {"entries": good},
        "mixed": {"entries": [entry("layer0", "layer0.csv"), entry("rep", "rep.csv",
                                                                    "representation"),
                              entry("zero", "zero.csv")]},
        "defaults": {"entries": good, "seed": 5, "n_samples": 50, "a": 0.5},
        "bad-defaults": {"entries": good, "b": -1, "seed": 2 ** 200},
        "b-half": {"entries": good, "b": 0.5},
        "b-huge": {"entries": good, "b": 1e308},
        "b-nan": {"entries": good, "b": float("nan")},
        "b-inf": {"entries": good, "b": float("inf")},
        "a-nan": {"entries": good, "a": float("nan")},
        "a-inf": {"entries": good, "a": float("inf")},
        "a-huge": {"entries": good, "a": 1e308},
        "asymmetric": {"entries": [entry("layer0", "layer0.csv"), entry("s", "asym.csv")]},
        "ragged": {"entries": [entry("layer0", "layer0.csv"), entry("r", "ragged.csv")]},
        "not-utf8-layer": {"entries": [entry("layer0", "layer0.csv"), entry("u", "utf16.csv")]},
        "missing": {"entries": [entry("layer0", "layer0.csv"), entry("m", "nope.csv")]},
        "directory": {"entries": [entry("layer0", "layer0.csv"), entry("d", ".")]},
        "distance": {"entries": [entry("layer0", "layer0.csv"), entry("d", "dist.csv",
                                                                       "distance")]},
        "odd-names": {"entries": [entry("x\ny", "layer0.csv"), entry("z,w", "layer1.csv"),
                                  entry("\u2028", "layer2.csv")]},
        "one-layer": {"entries": good[:1]},
        "no-entries": {"entries": []},
    }
    for name, doc in manifests.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


def _command(words, required, optional):
    """argv for one command; each optional flag is left out or takes one value."""
    parts = [values.map(lambda v, f=flag: [f, v]) for flag, values in required.items()]
    parts += [st.one_of(st.none(), values).map(lambda v, f=flag: [] if v is None else [f, v])
              for flag, values in optional.items()]
    return st.tuples(*parts).map(lambda groups: words + [tok for g in groups for tok in g])


def _mostly(valid, invalid):
    """Valid values in about half the draws, so runs get past validation too."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


_KERNEL_CSVS = ["layer0.csv", "layer1.csv"]
_BAD_CSVS = ["zero.csv", "rep.csv", "dist.csv", "ragged.csv", "empty.csv", "text.csv",
             "utf16.csv", "trunc.rmx", "asym.csv"]
_MANIFESTS = _mostly(["good.json", "defaults.json", "b-half.json"], [
    "mixed.json", "bad-defaults.json", "b-huge.json", "b-nan.json", "b-inf.json",
    "a-nan.json", "a-inf.json", "a-huge.json", "asymmetric.json", "ragged.json",
    "not-utf8-layer.json", "missing.json",
    "directory.json", "distance.json", "odd-names.json", "one-layer.json",
    "no-entries.json", "empty.json", "brace.json", "not_utf8.json"])
_SEEDS = st.one_of(
    st.sampled_from([0, 7, -1, 2 ** 127 - 1, -2 ** 127, 2 ** 127, -2 ** 127 - 1]),
    st.integers(-2 ** 130, 2 ** 130)).map(str)
_WEIGHTS = _mostly(["0", "0.5", "1"], ["-0.5", "2", "nan", "inf", "-inf", "1e308", "x"])
_SAMPLES = st.sampled_from(["0", "1", "2", "50", str(10 ** 30)])
_METRICS = _mostly(["jsd", "tvd,js_distance", "cka,shape", "rsa_corr,rsa_arccos",
                    "jsd,tvd,js_distance,cka,shape,rsa_corr,rsa_arccos"],
                   ["", "nope", "jsd,,cka", " jsd", "jsd,jsd"])
_THREADS = _mostly(["1"], ["-1", "0", "2"])  # stability's hidden --threads

_ARGV = st.one_of(
    st.tuples(st.lists(_mostly(["rep.csv", "layer0.csv"], _BAD_CSVS), min_size=1, max_size=2),
              _command([], {}, {"--format": st.sampled_from(["auto", "csv", "binary", "x"])})
              ).map(lambda t: ["gram"] + t[0] + t[1]),
    _command(["compare"], {"--manifest": _MANIFESTS}, {
        "--metrics": _METRICS, "--a": _WEIGHTS, "--b": _WEIGHTS, "--samples": _SAMPLES,
        "--seed": _SEEDS, "--on-error": st.sampled_from(["abort", "skip"]),
        "--format": st.sampled_from(["auto", "binary"])}),
    _command(["sweep"], {
        "--kernel1": _mostly(_KERNEL_CSVS, _BAD_CSVS), "--kernel2": st.just("layer1.csv"),
        "--n-values": _mostly(["2", "3,6"], ["1", "7", "", "x", "-3"]),
        "--noise-values": _mostly(["0.5", "0,1"], ["-1", "nan", "inf", "1e308", "x"])}, {
        "--noise-kind": st.sampled_from(["a", "variance"]), "--b": _WEIGHTS,
        "--metrics": _mostly(["jsd", "tvd", "jsd,tvd"], ["", "cka", "js_distance"]),
        "--samples": _SAMPLES, "--seed": _SEEDS}),
    _command(["stability"], {
        "--manifest": _MANIFESTS, "--n-images": _mostly(["2", "3,5", "6"], ["7", "0", "", "x"]),
        "--repeats": _mostly(["2", "3"], ["-1", "1"])}, {
        "--metrics": _METRICS, "--b": _WEIGHTS, "--samples": _SAMPLES, "--seed": _SEEDS,
        "--threads": _THREADS}),
    _command(["embed"], {
        "--input": _mostly(["dist.csv"], ["layer0.csv"] + _BAD_CSVS),
        "--restarts": _mostly(["1", "2"], ["0"]),
        "--max-iter": _mostly(["1", "20"], ["-1", "0"])}, {
        "--dims": st.sampled_from(["-1", "0", "1", "3", "5", str(10 ** 20)]), "--seed": _SEEDS, "--tol": _WEIGHTS}),
)


def _reject_constant(name):
    raise ValueError(f"record.json holds {name}")


class TestFuzzedCommandLine:
    """Any argv over the five commands exits 0-3; a failure is one stderr line."""

    @settings(max_examples=300, deadline=None)
    @given(argv=_ARGV)
    def test_exit_code_contract(self, fuzz_files, argv):
        # file arguments are relative to the fixture directory
        argv = [str(fuzz_files / a) if (fuzz_files / a).is_file() else a for a in argv]
        record = fuzz_files / "out" / "record.json"
        record.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(fuzz_files / "out")])
        assert code in (0, 1, 2, 3)
        if code:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        else:  # strict JSON: NaN and Infinity are not numbers there
            json.loads(record.read_text(), parse_constant=_reject_constant)
