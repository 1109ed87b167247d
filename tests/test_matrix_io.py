import json
import re
import struct
from unittest import mock

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
        assert loaded.labels is None  # binary files store no labels

    def test_values_owned_writeable_and_bit_exact(self, tmp_path):
        m = np.random.default_rng(3).standard_normal((1000, 1000))
        loaded = roundtrip(tmp_path, m, MatrixKind.KERNEL, ".rmx")
        assert loaded.values.flags.writeable and loaded.values.flags.owndata
        assert loaded.values.dtype == np.float64 and loaded.values.shape == (1000, 1000)
        assert loaded.values.tobytes() == m.tobytes()

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


class TestNumpyTextFormat:
    """CSV cells go through np.loadtxt and np.savetxt, labels are UTF-8."""

    EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                      np.finfo(float).max, -np.finfo(float).max, 0.1, -1.0 / 3.0])

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_edge_doubles_round_trip_bitwise(self, tmp_path, kind):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((10, 10)) * 10.0 ** rng.integers(-300, 300, (10, 10))
        m.flat[rng.permutation(100)[:self.EDGES.size]] = self.EDGES
        if kind is MatrixKind.DISTANCE:
            m = np.abs(m)
        labels = ["层1"] + [f"s{i}" for i in range(1, 10)]
        loaded = roundtrip(tmp_path, m, kind, ".csv", labels=labels)
        assert loaded.values.tobytes() == m.tobytes()
        if kind is MatrixKind.REPRESENTATION:  # representation CSVs carry no label row
            assert loaded.labels is None
        else:
            assert loaded.labels == tuple(labels)
            assert (tmp_path / "m.csv").read_bytes().startswith("层1,s1,".encode("utf-8"))

    def test_parses_as_python_float_does(self, tmp_path):
        # reference: the per-cell float() loop this reader replaced
        rng = np.random.default_rng(13)
        cells = [f"{rng.choice(['', '-', '+'])}{rng.integers(0, 10 ** 9)}"
                 f".{rng.integers(0, 10 ** 18):0{rng.integers(1, 19)}d}e{rng.integers(-340, 299)}"
                 for _ in range(600)] + [repr(float(x)) for x in rng.standard_normal(600)]
        rows = [cells[i:i + 40] for i in range(0, len(cells), 40)]
        path = tmp_path / "m.csv"
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        expected = np.array([[float(c) for c in r] for r in rows])
        assert read_matrix(path, MatrixKind.REPRESENTATION).values.tobytes() == expected.tobytes()

    def test_writes_17_significant_digits(self, tmp_path):
        write_matrix(np.array([[0.1, -0.0], [1e300, 5e-324]]), tmp_path / "d.csv",
                     MatrixKind.DISTANCE, labels=["a", "b"])
        assert (tmp_path / "d.csv").read_bytes() == (
            b"a,b\n0.10000000000000001,-0\n1.0000000000000001e+300,4.9406564584124654e-324\n")

    def test_accepted_syntax(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b" 1 ,\t+1\t, 1e5\r\n\r\n  \n.5,-2.5E-1,  3.\r\n\n")
        loaded = read_matrix(path, MatrixKind.REPRESENTATION)
        assert loaded.values.tobytes() == np.array([[1.0, 1.0, 1e5],
                                                    [0.5, -0.25, 3.0]]).tobytes()

    @pytest.mark.parametrize("row, match", [
        ("1_0,2", "could not convert string '1_0' to float64 at row 1, column 1"),
        ("\uff11,2", "could not convert string '\uff11' to float64 at row 1, column 1"),
        ("1,#2", "could not convert string '#2' to float64 at row 1, column 2"),
        ("1,2,", "row 1 has 3 columns, expected 2"),
        ("1,", "could not convert string '' to float64 at row 1, column 2"),
        ("1", "row 1 has 1 columns, expected 2"),
    ], ids=["underscore", "full-width-digit", "hash", "trailing-comma", "empty-cell",
            "ragged"])
    def test_rejected_syntax_one_line_naming_the_path(self, tmp_path, row, match):
        path = tmp_path / "m.csv"
        path.write_text(f"3,4\n{row}\n5,6\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(match)) as info:
            read_matrix(path, MatrixKind.REPRESENTATION)
        assert str(info.value).startswith(f"{path}: ")
        assert len(str(info.value).splitlines()) == 1

    def test_trailing_comma_on_every_row_is_an_empty_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,\n3,4,\n")
        with pytest.raises(ValidationError,
                           match="could not convert string '' to float64 at row 0, column 3"):
            read_matrix(path, MatrixKind.REPRESENTATION)


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

    @pytest.mark.parametrize("cut, size", [(-8, 24), (8, 40)], ids=["truncated", "oversized"])
    def test_payload_size_message(self, tmp_path, cut, size):
        path = tmp_path / "m.rmx"
        write_matrix(np.ones((2, 2)), path, MatrixKind.REPRESENTATION)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        with pytest.raises(ValidationError, match=f"payload is {size} bytes, header implies 32"):
            read_matrix(path, MatrixKind.REPRESENTATION)

    def test_huge_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "m.rmx"
        path.write_bytes(struct.pack("<4sBII", MAGIC, 2, 10**9, 10**9) + bytes(8))
        with mock.patch("numpy.empty", side_effect=AssertionError("allocated")), \
                pytest.raises(ValidationError,
                              match="payload is 8 bytes, header implies 8000000000000000000"):
            read_matrix(path, MatrixKind.KERNEL)

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

    @pytest.mark.parametrize("name, content, kind, match", [
        ("m.csv", "1,2\n3,4\n", "tensor", "unknown matrix kind: 'tensor'"),
        ("m.csv", "x,y,z\n1,2,3\n", MatrixKind.REPRESENTATION,  # no label row: a bad cell
         r"m\.csv: could not convert string 'x' to float64 at row 0, column 1\.$"),
        ("m.rmx", struct.pack("<4sBII", MAGIC, 9, 1, 1) + bytes(8), MatrixKind.KERNEL,
         "unknown kind code 9"),
        ("m.csv", "x,y\n", MatrixKind.KERNEL, "header but no data rows"),
        ("m.csv", "1,2\n3,x\n", MatrixKind.REPRESENTATION,
         r"m\.csv: could not convert string 'x' to float64 at row 1, column 2\.$"),
    ], ids=["kind-string", "header-width", "kind-code", "header-only", "non-numeric-cell"])
    def test_malformed_file_rejected(self, tmp_path, name, content, kind, match):
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            path.write_bytes(content)
        with pytest.raises(ValidationError, match=match):
            read_matrix(path, kind)

    def test_representation_csv_has_no_label_row(self, tmp_path):
        # a first row of feature names fails as any bad cell, even when it is as
        # wide as the file is long
        path = tmp_path / "m.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        with pytest.raises(ValidationError,
                           match=r"m\.csv: could not convert string 'x' to float64 at row 0, "
                                 r"column 1\.$"):
            read_matrix(path, MatrixKind.REPRESENTATION)

    @pytest.mark.parametrize("values, labels, match", [
        (np.ones(3), None, "expected a 2-D matrix, got ndim=1"),
        (np.eye(2), ["a"], "1 labels for 2 rows"),
    ], ids=["one-dimensional", "label-count"])
    def test_malformed_write_rejected(self, tmp_path, values, labels, match):
        with pytest.raises(ValidationError, match=match):
            write_matrix(values, tmp_path / "m.csv", MatrixKind.KERNEL, labels=labels)


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

    @pytest.mark.parametrize("kind", [MatrixKind.KERNEL, MatrixKind.DISTANCE])
    def test_lone_empty_label_rejected(self, tmp_path, kind):
        # its label row would be blank, and a blank line is skipped on reading
        path = tmp_path / "one.csv"
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: a lone empty")) as exc:
            write_matrix(np.zeros((1, 1)), path, kind, labels=[""])
        assert len(str(exc.value).splitlines()) == 1
        assert not path.exists()
        loaded = roundtrip(tmp_path, np.zeros((2, 2)), kind, ".csv", labels=["", ""])
        assert loaded.labels == ("", "")


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

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError, match="no such manifest"):
            read_manifest(tmp_path / "absent.json")

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.7), ("seed", True), ("seed", "12"), ("n_samples", 2.9),
        ("n_samples", False), ("a", True), ("b", "0.01"), ("a", 10 ** 400), ("seed", 1.5),
    ])
    def test_defaults_must_be_json_numbers(self, tmp_path, key, value):
        doc = {"entries": [{"name": "a", "path": "x", "kind": "kernel"}], key: value}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        # seed and n_samples are counts: a JSON number with a fraction is not one
        what = "an integer" if type(value) is float else "a number"
        with pytest.raises(ValidationError,
                           match=re.escape(f"manifest {key!r} is not {what}: {value!r}")):
            read_manifest(tmp_path / "m.json")

    def test_integer_a_and_b_read_as_floats(self, tmp_path):
        for key in ("a", "b"):
            doc = {"entries": [{"name": "a", "path": "x", "kind": "kernel"}], key: 1}
            (tmp_path / "m.json").write_text(json.dumps(doc))
            value = getattr(read_manifest(tmp_path / "m.json"), key)
            assert type(value) is float and value == 1.0

    @pytest.mark.parametrize("entry", ['{"name": "a", "path": "x"}', '"a"'],
                             ids=["missing-key", "not-an-object"])
    def test_entry_without_its_keys_rejected(self, tmp_path, entry):
        (tmp_path / "m.json").write_text(f'{{"entries": [{entry}]}}')
        with pytest.raises(ValidationError, match="needs name, path and kind"):
            read_manifest(tmp_path / "m.json")


BOM = "\ufeff"


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as Windows editors and Excel write, is dropped."""

    def test_manifest(self, tmp_path):
        doc = {"entries": [{"name": "a", "path": "x.csv", "kind": "kernel"}], "seed": 3}
        (tmp_path / "m.json").write_text(BOM + json.dumps(doc), encoding="utf-8")
        got = read_manifest(tmp_path / "m.json")
        assert got.entries[0].name == "a" and got.seed == 3

    def test_kernel_csv_without_label_row(self, tmp_path):
        (tmp_path / "k.csv").write_text(BOM + "2,1\n1,2\n", encoding="utf-8")
        got = read_matrix(tmp_path / "k.csv", MatrixKind.KERNEL)
        assert np.array_equal(got.values, [[2.0, 1.0], [1.0, 2.0]])
        assert got.labels is None

    def test_kernel_csv_label_row(self, tmp_path):
        (tmp_path / "k.csv").write_text(BOM + "a,b\n2,1\n1,2\n", encoding="utf-8")
        got = read_matrix(tmp_path / "k.csv", MatrixKind.KERNEL)
        assert got.labels == ("a", "b")
        assert np.array_equal(got.values, [[2.0, 1.0], [1.0, 2.0]])
