"""File formats: matrix CSV, OTM1 binary matrices, adjacency triplets.

CSV matrices carry a "rows,cols" header line followed by one comma-separated
row per line. The binary format is magic "OTM1", two 64-bit little-endian
unsigned dims, then rows*cols float64 little-endian values, row-major.
Adjacency files are triplet CSVs with an "i,j,value" header.

All writers go through an atomic temp-file rename so failures never leave
partial artifacts.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"OTM1"


class FormatError(ValueError):
    pass


@contextmanager
def atomic_open(path, mode="w"):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype=float)
    with atomic_open(path) as fh:
        fh.write(f"{m.shape[0]},{m.shape[1]}\n")
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(x) for x in header.split(","))
        except ValueError as exc:
            raise FormatError(f"bad matrix header {header!r}: expected 'rows,cols'") from exc
        if rows < 0 or cols < 0:
            raise FormatError(f"bad matrix header {header!r}: dimensions must be >= 0")
        data = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != cols:
                raise FormatError(f"line {lineno}: expected {cols} values, got {len(parts)}")
            try:
                data.append([float(p) for p in parts])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-numeric value") from exc
    if cols == 0:  # its rows are the empty lines the loop skips: the header alone gives the shape
        return np.empty((rows, 0))
    if len(data) != rows:
        raise FormatError(f"expected {rows} data rows, got {len(data)}")
    return np.asarray(data, dtype=float).reshape(rows, cols)


def write_matrix_bin(path, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(matrix, dtype="<f8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def read_matrix_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}; expected {MAGIC!r}")
        dims = fh.read(16)
        if len(dims) != 16:
            raise FormatError(f"truncated header: expected 16 dimension bytes, got {len(dims)}")
        rows, cols = struct.unpack("<QQ", dims)
        payload = fh.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise FormatError(f"expected {expected} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(float)


def read_matrix(path) -> np.ndarray:
    """Dispatch on extension: .bin/.otm -> binary, otherwise CSV."""
    suffix = Path(path).suffix.lower()
    if suffix in (".bin", ".otm"):
        return read_matrix_bin(path)
    return read_matrix_csv(path)


def write_matrix(path, matrix) -> None:
    suffix = Path(path).suffix.lower()
    if suffix in (".bin", ".otm"):
        write_matrix_bin(path, matrix)
    else:
        write_matrix_csv(path, matrix)


def write_triplets_csv(path, rows, cols, values) -> None:
    with atomic_open(path) as fh:
        fh.write("i,j,value\n")
        for i, j, v in zip(rows, cols, values):
            fh.write(f"{int(i)},{int(j)},{repr(float(v))}\n")


def read_triplets_csv(path):
    rows, cols, vals = [], [], []
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["i", "j", "value"]:
            raise FormatError("triplet CSV must start with header 'i,j,value'")
        for lineno, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 3 fields")
            try:
                rows.append(int(parts[0]))
                cols.append(int(parts[1]))
                vals.append(float(parts[2]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad triplet") from exc
    return np.asarray(rows, dtype=int), np.asarray(cols, dtype=int), np.asarray(vals, dtype=float)


def read_labels(path) -> np.ndarray:
    """One integer label per line."""
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: label must be an integer") from exc
    if not labels:
        raise FormatError("label file is empty")
    return np.asarray(labels, dtype=int)


def write_labels(path, labels) -> None:
    with atomic_open(path) as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def write_json(path, payload) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv_rows(path, rows) -> None:
    with atomic_open(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerows(rows)
