"""Reading and writing of matrices and layer manifests.

Two on-disk formats are supported, selected by file extension:

* binary (any extension other than ``.csv``); layout::

      bytes 0..3   magic "RMX1"
      byte  4      kind code (1 representation, 2 kernel, 3 distance)
      bytes 5..8   n_rows, unsigned 32-bit little-endian
      bytes 9..12  n_cols, unsigned 32-bit little-endian
      bytes 13..   payload, row-major IEEE-754 float64 little-endian

* CSV (``.csv``): UTF-8 text written by ``np.savetxt`` with 17 significant
  digits, so every finite double round-trips exactly, and read by
  ``np.loadtxt``, which rejects ``_`` separators, non-ASCII digits and empty
  cells; ``#`` is not a comment. Kernel and distance files may carry a first
  row of labels. It is read as labels when it does not parse as numbers or,
  for kernel and distance files, when the file has one more row than columns.

Values must be finite; kernel and distance matrices must be square and
distance entries nonnegative. Binary files do not store labels, so
reading one yields default labels ``s0, s1, ...``.

A layer manifest is a JSON file mapping layer names to matrix files,
with optional run-level defaults (seed, a, b, n_samples). Paths are
resolved relative to the manifest's directory. CSV and manifest readers
drop a leading UTF-8 byte-order mark, as Windows editors write one.
"""

from __future__ import annotations

import enum
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .kernel import default_labels

MAGIC = b"RMX1"
_HEADER = struct.Struct("<4sBII")


class MatrixKind(str, enum.Enum):
    REPRESENTATION = "representation"
    KERNEL = "kernel"
    DISTANCE = "distance"


_KIND_CODES = {
    MatrixKind.REPRESENTATION: 1,
    MatrixKind.KERNEL: 2,
    MatrixKind.DISTANCE: 3,
}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


@dataclass(frozen=True)
class LoadedMatrix:
    """A matrix read from disk, with row labels and its declared kind."""

    values: np.ndarray
    labels: tuple[str, ...]
    kind: MatrixKind


def _coerce_kind(kind) -> MatrixKind:
    if isinstance(kind, MatrixKind):
        return kind
    try:
        return MatrixKind(str(kind))
    except ValueError:
        raise ValidationError(f"unknown matrix kind: {kind!r}") from None


def _validate_values(values: np.ndarray, kind: MatrixKind, origin: str) -> None:
    if values.ndim != 2:
        raise ValidationError(f"{origin}: expected a 2-D matrix, got ndim={values.ndim}")
    n_rows, n_cols = values.shape
    if n_rows < 1 or n_cols < 1:
        raise ValidationError(f"{origin}: empty matrix ({n_rows}x{n_cols})")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{origin}: matrix contains non-finite values")
    if kind in (MatrixKind.KERNEL, MatrixKind.DISTANCE) and n_rows != n_cols:
        raise ValidationError(f"{origin}: {kind.value} must be square, got {n_rows}x{n_cols}")
    if kind is MatrixKind.DISTANCE and np.any(values < 0):
        raise ValidationError(f"{origin}: distances must be nonnegative")


def _is_csv(path: Path) -> bool:
    return path.suffix.lower() == ".csv"


def read_matrix(path, expected_kind) -> LoadedMatrix:
    """Read a matrix file and validate it against the expected kind.

    The format is auto-detected from the extension. Binary files carry
    their kind and it must match; CSV files are validated against
    ``expected_kind`` directly.
    """
    path = Path(path)
    kind = _coerce_kind(expected_kind)
    if not path.is_file():
        raise ValidationError(f"{path}: no such file")
    if _is_csv(path):
        values, labels = _read_csv(path, kind)
    else:
        values, labels = _read_binary(path, kind)
    _validate_values(values, kind, str(path))
    if labels is None:
        labels = default_labels(values.shape[0])
    elif len(labels) != values.shape[0]:
        raise ValidationError(
            f"{path}: header has {len(labels)} labels for {values.shape[0]} rows"
        )
    return LoadedMatrix(values=values, labels=tuple(labels), kind=kind)


def _read_binary(path: Path, expected: MatrixKind):
    """Check the header, and the payload size against the file size, before
    allocating; then read the payload straight into the returned array."""
    with path.open("rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValidationError(f"{path}: truncated header")
        magic, code, n_rows, n_cols = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, not a matrix file")
        if code not in _CODE_KINDS:
            raise ValidationError(f"{path}: unknown kind code {code}")
        stored = _CODE_KINDS[code]
        if stored is not expected:
            raise ValidationError(
                f"{path}: kind mismatch, file holds {stored.value}, expected {expected.value}"
            )
        payload_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
        expected_bytes = n_rows * n_cols * 8
        if payload_bytes == expected_bytes:
            values = np.empty((n_rows, n_cols), dtype="<f8")
            payload_bytes = fh.readinto(values)  # fewer if the file shrank meanwhile
        if payload_bytes != expected_bytes:
            raise ValidationError(
                f"{path}: payload is {payload_bytes} bytes, header implies {expected_bytes}"
            )
    return values.astype(np.float64, copy=False), None  # a copy only on big-endian hosts


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")  # drops a leading byte-order mark
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None


def _parse_rows(lines: Sequence[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", ndmin=2, dtype=np.float64, comments=None)


def _read_csv(path: Path, kind: MatrixKind):
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty CSV file")
    labels = None
    first = lines[0].split(",")
    try:
        _parse_rows(lines[:1])
        # numeric labels: the row is a header when it leaves a square matrix
        is_header = (kind in (MatrixKind.KERNEL, MatrixKind.DISTANCE)
                     and len(lines) == len(first) + 1)
    except ValueError:
        is_header = True
    if is_header:
        labels = [tok.strip() for tok in first]
        lines = lines[1:]
        if not lines:
            raise ValidationError(f"{path}: CSV has a header but no data rows")
    width = lines[0].count(",") + 1
    for i, ln in enumerate(lines):
        if ln.count(",") + 1 != width:
            raise ValidationError(
                f"{path}: row {i} has {ln.count(',') + 1} columns, expected {width}")
    try:
        return _parse_rows(lines), labels
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_matrix(values, path, kind, labels: Optional[Sequence[str]] = None) -> None:
    """Write a matrix so that reading it back reproduces it bit-exactly.

    A CSV gets a label row exactly when labels are given and the kind
    is kernel or distance; a lone empty label, which would make that row
    blank, is refused. Binary files never store labels.
    """
    path = Path(path)
    kind = _coerce_kind(kind)
    values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    _validate_values(values, kind, str(path))
    if labels is not None and len(labels) != values.shape[0]:
        raise ValidationError(f"{path}: {len(labels)} labels for {values.shape[0]} rows")
    if _is_csv(path):
        header = kind in (MatrixKind.KERNEL, MatrixKind.DISTANCE)
        _write_csv(path, values, labels if header else None)
    else:
        _write_binary(path, values, kind)


def _write_binary(path: Path, values: np.ndarray, kind: MatrixKind) -> None:
    n_rows, n_cols = values.shape
    header = _HEADER.pack(MAGIC, _KIND_CODES[kind], n_rows, n_cols)
    payload = values.astype("<f8", copy=False).tobytes(order="C")
    path.write_bytes(header + payload)


CSV_FORMAT = "%.17g"  # 17 significant digits: any finite double round-trips exactly


def format_value(x: float) -> str:
    return CSV_FORMAT % x


def _check_label(label: str, what: str) -> None:
    """Labels are CSV cells and one-line message context: no comma, no line
    break, and no surrounding whitespace, which the CSV reader strips."""
    if "," in label or "".join(label.splitlines()) != label:
        raise ValidationError(f"{what} {label!r} contains a separator")
    if label.strip() != label:
        raise ValidationError(f"{what} {label!r} has leading or trailing whitespace")


def _write_csv(path: Path, values: np.ndarray, labels: Optional[Sequence[str]]) -> None:
    for lab in labels or ():
        _check_label(lab, "label")
    header = ",".join(labels or ())
    if labels and not header:  # np.savetxt writes no line for an empty header
        raise ValidationError(f"{path}: a lone empty label would leave the label row blank")
    np.savetxt(path, values, fmt=CSV_FORMAT, delimiter=",",
               header=header, comments="", encoding="utf-8")


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    path: str
    kind: MatrixKind


@dataclass(frozen=True)
class LayerManifest:
    """Named matrix files plus optional run-level defaults."""

    entries: tuple[ManifestEntry, ...]
    seed: Optional[int] = None
    a: Optional[float] = None
    b: Optional[float] = None
    n_samples: Optional[int] = None
    base_dir: Path = Path(".")

    def resolve(self, entry: ManifestEntry) -> Path:
        p = Path(entry.path)
        return p if p.is_absolute() else self.base_dir / p


def read_manifest(path) -> LayerManifest:
    """Parse a JSON layer manifest and check entry-name uniqueness."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{path}: no such manifest")
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValidationError(f"{path}: manifest must be an object with an 'entries' list")
    entries = []
    seen = set()
    for item in doc["entries"]:
        try:
            name, epath, kind = item["name"], item["path"], item["kind"]
        except (TypeError, KeyError):
            raise ValidationError(f"{path}: each entry needs name, path and kind") from None
        if not isinstance(name, str):
            raise ValidationError(f"{path}: entry name must be a string, got {name!r}")
        _check_label(name, f"{path}: entry name")
        if name in seen:
            raise ValidationError(f"{path}: duplicate entry name {name!r}")
        seen.add(name)
        entries.append(ManifestEntry(name=name, path=str(epath), kind=_coerce_kind(kind)))
    if not entries:
        raise ValidationError(f"{path}: manifest has no entries")
    if doc.get("a") is not None and doc.get("b") is not None:
        raise ValidationError(f"{path}: manifest sets both 'a' and 'b'")
    defaults = {}
    for key, cast in (("seed", int), ("a", float), ("b", float), ("n_samples", int)):
        value = doc.get(key)
        try:
            if type(value) not in (type(None), int, float):  # JSON numbers, not bools or strings
                raise TypeError
            if type(value) is float and cast is int:
                raise ValidationError(f"{path}: manifest {key!r} is not an integer: {value!r}")
            defaults[key] = None if value is None else cast(value)
        except (TypeError, OverflowError):
            raise ValidationError(f"{path}: manifest {key!r} is not a number: {value!r}") from None
    return LayerManifest(entries=tuple(entries), base_dir=path.parent, **defaults)


def write_manifest(manifest: LayerManifest, path) -> None:
    doc = {
        "entries": [
            {"name": e.name, "path": e.path, "kind": e.kind.value} for e in manifest.entries
        ]
    }
    for key in ("seed", "a", "b", "n_samples"):
        val = getattr(manifest, key)
        if val is not None:
            doc[key] = val
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
