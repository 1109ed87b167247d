import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repmetric.errors import ValidationError
from repmetric.matrix_io import (MAGIC, LayerManifest, ManifestEntry, MatrixKind,
                                 read_manifest, read_matrix, write_manifest,
                                 write_matrix)


def roundtrip(tmp_path, values, kind, ext, labels=None, name="m"):
    path = tmp_path / f"{name}{ext}"
    write_matrix(values, path, kind, labels=labels)
    return read_matrix(path, kind)


class TestBinaryRoundTrip:
    def test_identity_bit_exact(self, tmp_path):
        m = np.eye(2)
        loaded = roundtrip(tmp_path, m, MatrixKind.KERNEL, ".rmx")
        assert loaded.values.tobytes() == m.tobytes()

    def test_random_representation(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((100, 512))
        loaded = roundtrip(tmp_path, m, MatrixKind.REPRESENTATION, ".rmx")
        assert loaded.values.tobytes() == m.tobytes()
        assert loaded.labels == tuple(f"s{i}" for i in range(100))

    def test_5x5_kernel(self, tmp_path):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5))
        K = A @ A.T
        loaded = roundtrip(tmp_path, K, MatrixKind.KERNEL, ".rmx")
        assert np.array_equal(loaded.values, K)


class TestCsvRoundTrip:
    def test_literal_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.5,2.0\n3.0,4.0\n")
        loaded = read_matrix(path, MatrixKind.REPRESENTATION)
        assert np.array_equal(loaded.values, [[1.5, 2.0], [3.0, 4.0]])

    def test_full_precision(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-200, 200, (7, 3))
        loaded = roundtrip(tmp_path, m, MatrixKind.REPRESENTATION, ".csv")
        assert loaded.values.tobytes() == m.tobytes()

    def test_header_labels(self, tmp_path):
        K = np.array([[2.0, 1.0], [1.0, 2.0]])
        loaded = roundtrip(tmp_path, K, MatrixKind.KERNEL, ".csv",
                           labels=["conv1", "conv2"])
        assert loaded.labels == ("conv1", "conv2")
        assert np.array_equal(loaded.values, K)

    @pytest.mark.parametrize("kind", [MatrixKind.KERNEL, MatrixKind.DISTANCE])
    def test_numeric_header_labels(self, tmp_path, kind):
        # labels that parse as numbers are still a header: they leave a square matrix
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        loaded = roundtrip(tmp_path, D, kind, ".csv", labels=["1", "2", "3"])
        assert loaded.labels == ("1", "2", "3")
        assert loaded.values.tobytes() == D.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=4, max_size=4))
    def test_any_finite_doubles_roundtrip(self, tmp_path_factory, vals):
        tmp = tmp_path_factory.mktemp("hyp")
        m = np.array(vals).reshape(2, 2)
        path = tmp / "m.csv"
        write_matrix(m, path, MatrixKind.REPRESENTATION)
        loaded = read_matrix(path, MatrixKind.REPRESENTATION)
        assert loaded.values.tobytes() == m.tobytes()


class TestValidation:
    def test_kernel_must_be_square(self, tmp_path):
        path = tmp_path / "k.rmx"
        write_matrix(np.ones((3, 2)), path, MatrixKind.REPRESENTATION)
        # craft the same payload with a kernel kind byte
        raw = bytearray(path.read_bytes())
        raw[4] = 2
        bad = tmp_path / "bad.rmx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="square"):
            read_matrix(bad, MatrixKind.KERNEL)

    def test_write_kernel_nonsquare_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="square"):
            write_matrix(np.ones((3, 2)), tmp_path / "k.rmx", MatrixKind.KERNEL)

    def test_negative_distance_rejected(self, tmp_path):
        D = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(ValidationError, match="nonnegative"):
            write_matrix(D, tmp_path / "d.rmx", MatrixKind.DISTANCE)

    def test_nan_rejected_on_write(self, tmp_path):
        m = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="finite"):
            write_matrix(m, tmp_path / "m.rmx", MatrixKind.REPRESENTATION)

    def test_nan_rejected_on_read(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,nan\n2.0,3.0\n")
        with pytest.raises(ValidationError, match="finite"):
            read_matrix(path, MatrixKind.REPRESENTATION)

    def test_inf_rejected_on_read_binary(self, tmp_path):
        path = tmp_path / "m.rmx"
        write_matrix(np.ones((2, 2)), path, MatrixKind.REPRESENTATION)
        raw = bytearray(path.read_bytes())
        raw[13:21] = np.array([np.inf]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="finite"):
            read_matrix(path, MatrixKind.REPRESENTATION)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.rmx"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValidationError, match="magic"):
            read_matrix(path, MatrixKind.KERNEL)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.rmx"
        write_matrix(np.ones((2, 2)), path, MatrixKind.REPRESENTATION)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError, match="payload"):
            read_matrix(path, MatrixKind.REPRESENTATION)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "m.rmx"
        write_matrix(np.eye(2), path, MatrixKind.KERNEL)
        with pytest.raises(ValidationError, match="kind mismatch"):
            read_matrix(path, MatrixKind.REPRESENTATION)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            read_matrix(tmp_path / "absent.rmx", MatrixKind.KERNEL)

    def test_empty_matrix_rejected(self, tmp_path):
        import struct
        path = tmp_path / "m.rmx"
        path.write_bytes(struct.pack("<4sBII", MAGIC, 1, 0, 3))
        with pytest.raises(ValidationError, match="empty"):
            read_matrix(path, MatrixKind.REPRESENTATION)

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError, match="columns"):
            read_matrix(path, MatrixKind.REPRESENTATION)


class TestLabelRule:
    """CSV labels and manifest names: no comma and no line break of str.splitlines."""

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "a\r", "a\x0bb", "a\x1cb",
                                       "a\x85b", "a\u2028b"])
    def test_rejected_by_writer_and_manifest(self, tmp_path, label):
        K = np.eye(2)
        with pytest.raises(ValidationError, match="separator"):
            write_matrix(K, tmp_path / "k.csv", MatrixKind.KERNEL, labels=[label, "z"])
        write_manifest(LayerManifest(entries=(ManifestEntry(label, "k.csv", MatrixKind.KERNEL),)),
                       tmp_path / "m.json")
        with pytest.raises(ValidationError, match="separator"):
            read_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("label", [" a", "a ", "\t", "a\u00a0", "\u3000a"])
    def test_surrounding_whitespace_rejected(self, tmp_path, label):
        # the CSV reader strips it, so such a label could not round-trip
        K = np.eye(2)
        with pytest.raises(ValidationError, match="whitespace"):
            write_matrix(K, tmp_path / "k.csv", MatrixKind.KERNEL, labels=[label, "z"])
        write_manifest(LayerManifest(entries=(ManifestEntry(label, "k.csv", MatrixKind.KERNEL),)),
                       tmp_path / "m.json")
        with pytest.raises(ValidationError, match="whitespace"):
            read_manifest(tmp_path / "m.json")

    def test_accepted_labels_round_trip(self, tmp_path):
        labels = ["a b", "x\ty", "x;y", "\u00e9"]
        loaded = roundtrip(tmp_path, np.eye(4), MatrixKind.KERNEL, ".csv", labels=labels)
        assert loaded.labels == tuple(labels)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        write_matrix(np.eye(3), tmp_path / "k1.rmx", MatrixKind.KERNEL)
        manifest = LayerManifest(
            entries=(ManifestEntry("a", "k1.rmx", MatrixKind.KERNEL),),
            seed=7, a=0.5, n_samples=1000)
        write_manifest(manifest, tmp_path / "m.json")
        got = read_manifest(tmp_path / "m.json")
        assert got.entries[0].name == "a"
        assert got.seed == 7 and got.a == 0.5 and got.n_samples == 1000
        assert got.resolve(got.entries[0]) == tmp_path / "k1.rmx"

    def test_duplicate_names_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text(
            '{"entries": [{"name": "a", "path": "x", "kind": "kernel"},'
            ' {"name": "a", "path": "y", "kind": "kernel"}]}')
        with pytest.raises(ValidationError, match="duplicate"):
            read_manifest(tmp_path / "m.json")

    def test_a_and_b_conflict(self, tmp_path):
        (tmp_path / "m.json").write_text(
            '{"entries": [{"name": "a", "path": "x", "kind": "kernel"}],'
            ' "a": 0.5, "b": 0.01}')
        with pytest.raises(ValidationError, match="both"):
            read_manifest(tmp_path / "m.json")

    def test_invalid_json(self, tmp_path):
        (tmp_path / "m.json").write_text("{nope")
        with pytest.raises(ValidationError, match="JSON"):
            read_manifest(tmp_path / "m.json")
