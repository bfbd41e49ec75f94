import os

import numpy as np
import numpy.testing as npt
import pytest

from sppot import io as io_mod
from sppot.io import (
    FormatError,
    atomic_open,
    read_labels,
    read_matrix,
    read_matrix_bin,
    read_matrix_csv,
    read_triplets_csv,
    write_csv_rows,
    write_json,
    write_labels,
    write_matrix,
    write_matrix_bin,
    write_matrix_csv,
    write_triplets_csv,
)


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        m = np.random.default_rng(0).normal(size=(4, 3))
        p = tmp_path / "m.csv"
        write_matrix_csv(p, m)
        npt.assert_array_equal(read_matrix_csv(p), m)  # repr() roundtrips exactly

    def test_header_present(self, tmp_path):
        p = tmp_path / "m.csv"
        write_matrix_csv(p, np.zeros((2, 5)))
        assert p.read_text().splitlines()[0] == "2,5"

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("hello\n1,2\n")
        with pytest.raises(FormatError):
            read_matrix_csv(p)

    @pytest.mark.parametrize("header", ["0,-1", "-1,2"])
    def test_negative_dimension_rejected(self, tmp_path, header):
        p = tmp_path / "m.csv"
        p.write_text(header + "\n")
        with pytest.raises(FormatError, match="bad matrix header"):
            read_matrix_csv(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,3\n1.0,2.0\n")
        with pytest.raises(FormatError):
            read_matrix_csv(p)

    def test_wrong_row_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("2,2\n1.0,2.0\n")
        with pytest.raises(FormatError):
            read_matrix_csv(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n1.0,abc\n")
        with pytest.raises(FormatError):
            read_matrix_csv(p)

    def test_no_rows_keeps_the_header_shape(self, tmp_path):
        # as the binary reader does for the same matrix
        p = tmp_path / "m.csv"
        p.write_text("0,3\n")
        assert read_matrix_csv(p).shape == (0, 3)
        write_matrix_bin(tmp_path / "m.bin", np.zeros((0, 3)))
        assert read_matrix_bin(tmp_path / "m.bin").shape == (0, 3)

    def test_no_columns_round_trips(self, tmp_path):
        # the writer gives each of the N rows an empty line, which the reader used to skip and then
        # refuse the file for holding no data rows; the binary pair returns the same (2, 0)
        write_matrix_csv(tmp_path / "m.csv", np.zeros((2, 0)))
        assert read_matrix_csv(tmp_path / "m.csv").shape == (2, 0)
        write_matrix_bin(tmp_path / "m.bin", np.zeros((2, 0)))
        assert read_matrix_bin(tmp_path / "m.bin").shape == (2, 0)

    def test_value_under_a_no_column_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("2,0\n\n1.0\n")
        with pytest.raises(FormatError, match="line 3: expected 0 values, got 1"):
            read_matrix_csv(p)


class TestMatrixBin:
    def test_roundtrip_exact(self, tmp_path):
        m = np.random.default_rng(1).normal(size=(5, 7))
        p = tmp_path / "m.bin"
        write_matrix_bin(p, m)
        npt.assert_array_equal(read_matrix_bin(p), m)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_matrix_bin(p)

    def test_truncated_payload(self, tmp_path):
        m = np.zeros((2, 2))
        p = tmp_path / "m.bin"
        write_matrix_bin(p, m)
        data = p.read_bytes()
        p.write_bytes(data[:-4])
        with pytest.raises(FormatError):
            read_matrix_bin(p)

    def test_truncated_header(self, tmp_path):
        # shorter than the 20-byte header: a FormatError, not struct.error
        p = tmp_path / "m.bin"
        p.write_bytes(b"OTM1" + b"\x00" * 3)
        with pytest.raises(FormatError, match="truncated header"):
            read_matrix_bin(p)

    def test_dispatch_by_extension(self, tmp_path):
        m = np.random.default_rng(2).normal(size=(3, 3))
        for name in ("a.csv", "b.bin", "c.otm"):
            p = tmp_path / name
            write_matrix(p, m)
            npt.assert_array_equal(read_matrix(p), m)


class TestTriplets:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "g.csv"
        write_triplets_csv(p, [0, 1, 2], [1, 2, 0], [0.5, 0.25, 1.0])
        r, c, v = read_triplets_csv(p)
        npt.assert_array_equal(r, [0, 1, 2])
        npt.assert_array_equal(c, [1, 2, 0])
        npt.assert_array_equal(v, [0.5, 0.25, 1.0])

    def test_missing_header(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,0.5\n")
        with pytest.raises(FormatError):
            read_triplets_csv(p)

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("i,j,value\n0,1\n")
        with pytest.raises(FormatError):
            read_triplets_csv(p)


class TestLabels:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "l.txt"
        write_labels(p, [3, 1, 4, 1, 5])
        npt.assert_array_equal(read_labels(p), [3, 1, 4, 1, 5])

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("\n\n")
        with pytest.raises(FormatError):
            read_labels(p)

    def test_non_integer_rejected(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("1\nx\n")
        with pytest.raises(FormatError):
            read_labels(p)


class TestAtomicity:
    def test_failure_leaves_no_artifact(self, tmp_path):
        p = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_open(p) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert not p.exists()
        assert os.listdir(tmp_path) == []  # no temp files left behind

    def test_existing_file_untouched_on_failure(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_open(p) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert p.read_text() == "original"

    def test_creates_parent_dirs(self, tmp_path):
        p = tmp_path / "a" / "b" / "out.json"
        write_json(p, {"x": 1})
        assert p.exists()


class TestJsonCsv:
    def test_json_roundtrip(self, tmp_path):
        import json

        p = tmp_path / "o.json"
        payload = {"b": [1, 2], "a": {"nested": True}}
        write_json(p, payload)
        assert json.loads(p.read_text()) == payload

    def test_csv_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv_rows(p, [["h1", "h2"], [1, 2.5]])
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "h1,h2"
        assert lines[1] == "1,2.5"
