"""File format tests: PGM parsing, CSV precision, bucket sidecars."""

import numpy as np
import pytest

from hybridgi import (
    BucketSignals,
    HybridSpec,
    ImageParseError,
    ResourceLimitError,
)
from hybridgi import fileio


class TestPgm:
    def test_header_format(self, tmp_path):
        path = tmp_path / "out.pgm"
        fileio.write_pgm(path, np.arange(6, dtype=np.uint8).reshape(2, 3))
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data[len(b"P5\n3 2\n255\n") :] == bytes(range(6))

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.pgm"
        raw = np.random.default_rng(0).integers(0, 256, (5, 7), dtype=np.uint8)
        fileio.write_pgm(path, raw)
        assert np.array_equal(fileio.read_pgm(path), raw)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "commented.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n\x00\x01\x02\x03")
        assert np.array_equal(fileio.read_pgm(path), [[0, 1], [2, 3]])

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(ImageParseError) as err:
            fileio.read_pgm(path)
        assert err.value.offset == 0

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ImageParseError) as err:
            fileio.read_pgm(path)
        assert err.value.offset is not None

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ImageParseError):
            fileio.read_pgm(path)

    def test_nonnumeric_dimension(self, tmp_path):
        path = tmp_path / "dims.pgm"
        path.write_bytes(b"P5\nx 2\n255\n\x00\x00")
        with pytest.raises(ImageParseError):
            fileio.read_pgm(path)

    def test_pixel_cap(self, tmp_path):
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n100000 100000\n255\n")
        with pytest.raises(ResourceLimitError):
            fileio.read_pgm(path)


class TestCsvMatrix:
    def test_full_precision_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        rng = np.random.default_rng(1)
        matrix = rng.normal(scale=1e-7, size=(4, 6)) + rng.normal(size=(4, 6))
        fileio.write_csv_matrix(path, matrix)
        assert np.array_equal(fileio.read_csv_matrix(path), matrix)

    def test_complex_roundtrip(self, tmp_path):
        path = tmp_path / "c.csv"
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        fileio.write_csv_matrix(path, matrix)
        assert np.array_equal(fileio.read_csv_matrix(path), matrix)

    def test_one_row_per_line(self, tmp_path):
        path = tmp_path / "m.csv"
        fileio.write_csv_matrix(path, np.eye(3))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].split(",")[0] == "1"

    def test_bad_token_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ImageParseError) as err:
            fileio.read_csv_matrix(path)
        assert err.value.offset == len("1.0,2.0\n3.0,")

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ImageParseError):
            fileio.read_csv_matrix(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ImageParseError):
            fileio.read_csv_matrix(path)


def format_value(v) -> str:
    """The per-value CSV format: 17 significant digits, complex as a literal."""
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return f"{v:.17g}"


def oracle_csv(matrix) -> str:
    lines = [",".join(format_value(v) for v in row.tolist()) for row in matrix]
    return "\n".join(lines) + "\n"


EDGE_REALS = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                       1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e22])


def edge_matrix(seed: int, shape, dtype):
    """Edge values drawn at random, in both parts of a complex matrix."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros(shape, dtype)
    matrix.real = EDGE_REALS[rng.integers(len(EDGE_REALS), size=shape)]
    if matrix.dtype.kind == "c":
        matrix.imag = EDGE_REALS[rng.integers(len(EDGE_REALS), size=shape)]
    return matrix


class TestCsvEdgeCases:
    @pytest.mark.parametrize(
        "matrix",
        [
            EDGE_REALS.reshape(3, 4),
            np.array([[0, -7, 2**53 + 1], [3, 4, -(2**62)]]),
            np.array([[True, False], [False, True]]),
            np.array([[0.0, -0.0, 1.5], [-2.5, np.inf, np.nan]])[:, ::-1],
            np.zeros((0, 3)),
        ],
        ids=["specials", "integers", "bools", "strided", "no-rows"],
    )
    def test_real_bytes_equal_per_value_format(self, tmp_path, matrix):
        path = tmp_path / "m.csv"
        fileio.write_csv_matrix(path, matrix)
        assert path.read_text() == oracle_csv(matrix)

    def test_complex_bytes_equal_per_value_format(self, tmp_path):
        matrix = edge_matrix(5, (6, 5), np.complex128)
        matrix[0, :4] = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), -2.5j]
        path = tmp_path / "c.csv"
        fileio.write_csv_matrix(path, matrix)
        assert path.read_text() == oracle_csv(matrix)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_read_back_is_bitwise(self, tmp_path, dtype):
        matrix = edge_matrix(6, (4, 7), dtype)
        path = tmp_path / "m.csv"
        fileio.write_csv_matrix(path, matrix)
        read = fileio.read_csv_matrix(path)
        assert read.dtype == matrix.dtype
        assert read.tobytes() == matrix.tobytes()

    def test_crlf_blank_lines_and_spaces_parse(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_bytes(b"\r\n 1.5 , -2\r\n\n  \r\n\t3e2,nan \r\n\n")
        read = fileio.read_csv_matrix(path)
        assert read.dtype == np.float64
        assert np.array_equal(read, [[1.5, -2.0], [300.0, np.nan]], equal_nan=True)

    def test_mixed_real_and_complex_tokens(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("1.5, 2-0.5j\n-inf,0j\n")
        read = fileio.read_csv_matrix(path)
        assert read.dtype == np.complex128
        assert np.array_equal(read, [[1.5, 2 - 0.5j], [-np.inf, 0]])

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("1+2j,3-4j\n5+6j, 7+oopsj\n", len("1+2j,3-4j\n5+6j, ")),
            ("1+2j,3-4j\r\n\r\n5,x\r\n", len("1+2j,3-4j\n\n5,")),
            ("1j, 2j \n 3j,x j\n", len("1j, 2j \n 3j,")),
        ],
        ids=["bad-imaginary", "crlf-real-token", "spaced-token"],
    )
    def test_bad_token_in_complex_file_offset(self, tmp_path, text, offset):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ImageParseError) as err:
            fileio.read_csv_matrix(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text, offset",
        [("1+2j,,3j\n", 5), ("1,2\n3,,4\n", 6), ("1,2,\n", 4), ("1e5,e5\n", 4)],
        ids=["empty-complex", "empty-second-line", "trailing-comma", "repeated-text"],
    )
    def test_bad_token_offset_is_its_column(self, tmp_path, text, offset):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ImageParseError) as err:
            fileio.read_csv_matrix(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text", ["1,2\n3\n", "1j,2j\n3j,4j,5j\n", "1,2\n\n3,4,\n"])
    def test_ragged_rows_are_parse_errors(self, tmp_path, text):
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(ImageParseError):
            fileio.read_csv_matrix(path)


class TestBuckets:
    def test_roundtrip_with_sidecar(self, tmp_path):
        spec = HybridSpec.pair("hadamard", 8, "dct", 4, left_kept=5)
        values = np.random.default_rng(3).normal(size=(5, 4))
        buckets = BucketSignals(values, 0.25, 42, spec)
        path = tmp_path / "buckets.csv"
        fileio.write_buckets(path, buckets)
        assert fileio.sidecar_path(path).exists()
        loaded = fileio.read_buckets(path)
        assert np.array_equal(loaded.values, values)
        assert loaded.noise_sigma == 0.25
        assert loaded.seed == 42
        assert loaded.spec == spec
