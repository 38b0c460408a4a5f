"""File format tests: PGM parsing, CSV precision, bucket sidecars."""

import tracemalloc
from pathlib import Path

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


PGM_WHITESPACE = b" \t\r\n\v\f"


def byte_loop_next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """The PGM header tokenizer as a loop over single bytes."""
    while pos < len(data):
        byte = data[pos : pos + 1]
        if byte == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
        elif byte in PGM_WHITESPACE:
            pos += 1
        else:
            break
    if pos >= len(data):
        raise ImageParseError("unexpected end of PGM header", offset=pos)
    start = pos
    while pos < len(data) and data[pos : pos + 1] not in PGM_WHITESPACE:
        pos += 1
    return data[start:pos], pos


def token_walk(next_token, data: bytes) -> tuple[list, str, int]:
    """Every (token, end) of ``data`` in turn, then the error that ends the walk."""
    tokens, pos = [], 0
    while True:
        try:
            token, pos = next_token(data, pos)
        except ImageParseError as exc:
            return tokens, str(exc), exc.offset
        tokens.append((token, pos))


PGM_HEADERS = {
    **{f"separator-{byte:#04x}": b"P5%c2%c1%c255%c\x07\x08" % ((byte,) * 4)
       for byte in PGM_WHITESPACE},
    "separator-runs": b" \t\r\n\v\fP5\r\n\r\n2\t\t1 \v255\f\f",
    "comments": b"P5#c\n2 # one\r\n# two # three\n1\n#\n255\n\x00\x01",
    "comment-at-eof": b"P5\n2 1\n# no newline",
    "comment-only": b"#",
    "hash-inside-a-token": b"P5\n2#x 1#\n255\n..",
    "truncated-header": b"P5\n2 ",
    "empty": b"",
    "non-ascii-token": b"P5\n\xff\xfe 1 255\n\x80",
}


class TestPgmTokens:
    @pytest.mark.parametrize("data", PGM_HEADERS.values(), ids=PGM_HEADERS.keys())
    def test_tokens_equal_the_byte_loop(self, data):
        assert token_walk(fileio._next_token, data) == token_walk(byte_loop_next_token, data)


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
            np.array([[0.1], [-2.5], [np.nan]]),
        ],
        ids=["specials", "integers", "bools", "strided", "no-rows", "one-column"],
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

    @pytest.mark.parametrize(
        "matrix",
        [np.zeros((0, 2), np.complex128), np.array([[0.1 - 2j], [-0.0j], [np.nan + 1j]])],
        ids=["no-rows", "one-column"],
    )
    def test_complex_shapes_bytes_equal_per_value_format(self, tmp_path, matrix):
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


def oracle_read_csv(path) -> np.ndarray:
    """The whole-text CSV reader: every row of tokens in memory at once."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        message = f"{path}: not {exc.encoding} text ({exc.reason})"
        raise ImageParseError(message, offset=exc.start) from None
    rows = [line.split(",") for line in text.split("\n") if line.strip()]
    parse, dtype = (complex, np.complex128) if "j" in text else (float, np.float64)
    try:
        values = np.array(list(map(parse, [token for row in rows for token in row])), dtype)
    except ValueError:
        offset = 0
        for line in text.split("\n"):
            for token in line.split(","):
                try:
                    if line.strip():
                        parse(token)
                except ValueError:
                    value = token.strip()
                    raise ImageParseError(
                        f"bad CSV value {value!r}", offset=offset + token.find(value)
                    ) from None
                offset += len(token) + 1
    if not rows:
        raise ImageParseError("empty CSV matrix", offset=0)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ImageParseError(f"ragged CSV rows (widths {sorted(widths)})", offset=0)
    return values.reshape(len(rows), widths.pop())


MIB_OF_ROWS = b"1.25,-2.5e-3\n" * ((1 << 20) // 13 + 1)
BIG_COMPLEX = b"".join(b"%d+0.5j,-%dj\n" % (k, k) for k in range(80_000))

ORACLE_CASES = {
    "real": b"1.0,2.0\n3.0,4.5e-300\n",
    "complex": b"1+2j,3-4j\n5.5+6j, -7j\n",
    "specials": b"nan,-inf,inf,-0.0\n5e-324,1e308,0.1,-0\n",
    "bad-token": b"1.0,2.0\n3.0,oops\n",
    "bad-imaginary": b"1+2j,3-4j\n5+6j, 7+oopsj\n",
    "crlf-real-token-in-complex": b"1+2j,3-4j\r\n\r\n5,x\r\n",
    "empty-token": b"1+2j,,3j\n",
    "trailing-comma": b"1,2,\n",
    "repeated-text": b"1e5,e5\n",
    "mixed-real-and-complex": b"1.5, 2-0.5j\n-inf,0j\n",
    "j-only-on-last-line": b"1,2\n3.25,-4\n5,6j\n",
    "j-only-on-last-line-big": MIB_OF_ROWS + b"7,8j\n",
    "bad-token-at-end-of-big-complex": BIG_COMPLEX + b"1j,(2\n",
    "big-complex": BIG_COMPLEX,
    "parenthesised-complex": b"(1),(2-1j)\n3j,(4)\n",
    "parenthesised-real": b"(1),2\n",
    "underscore-real": b"1_0,2_000.5\n",
    "underscore-complex": b"1_0,2_0j\n",
    "crlf-blank-and-trailing-lines": b"\r\n 1.5 , -2\r\n\n  \r\n\t3e2,nan \r\n\n\n  \n",
    "cr-only": b"1,2\r3,4\r",
    "no-final-newline": b"1,2\n3,4",
    "unicode-space": "1,2\u0085\n\u20003,4\n".encode(),
    "bad-token-after-a-mib": MIB_OF_ROWS + b"1.0,x\n",
    "bad-byte-after-a-mib": MIB_OF_ROWS + b"1.0,\xff\n",
    "bad-byte-first-line": b"1,\xff2\n",
    "bad-token-then-bad-byte-past-a-chunk": b"1.0,x\n" + MIB_OF_ROWS + b"\xff\n",
    "bad-token-on-last-line-without-newline": b"1,2\n3, oops ",
    "bad-first-token-on-last-line-without-newline": b"1+1j,2\r\n\nx,3",
    "ragged": b"1,2\n3\n",
    "ragged-complex": b"1j,2j\n3j,4j,5j\n",
    "ragged-after-blank": b"1,2\n\n3,4,\n",
    "ragged-big": MIB_OF_ROWS + b"1\n",
    "empty-file": b"",
    "newline-only": b"\n",
    "whitespace-only": b"  \n\t\r\n \n",
}


class TestCsvReaderOracle:
    @pytest.mark.parametrize("data", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_streaming_read_equals_whole_text_read(self, tmp_path, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        try:
            expected = oracle_read_csv(path)
        except ImageParseError as oracle_error:
            with pytest.raises(ImageParseError) as err:
                fileio.read_csv_matrix(path)
            assert type(err.value) is type(oracle_error)
            assert str(err.value) == str(oracle_error)
            assert err.value.offset == oracle_error.offset
        else:
            read = fileio.read_csv_matrix(path)
            assert read.dtype == expected.dtype and read.shape == expected.shape
            assert read.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_written_edge_matrix_reads_as_the_oracle_does(self, tmp_path, dtype):
        path = tmp_path / "m.csv"
        fileio.write_csv_matrix(path, edge_matrix(7, (9, 4), dtype))
        assert fileio.read_csv_matrix(path).tobytes() == oracle_read_csv(path).tobytes()


def traced_peak(call) -> tuple[int, object]:
    """The peak bytes traced while call() runs, above those held on entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


class TestCsvMemory:
    MIB = 1 << 20

    def matrix(self) -> np.ndarray:
        rng = np.random.default_rng(8)
        return rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))

    def test_complex_write_holds_about_one_matrix(self, tmp_path):
        matrix = self.matrix()  # 1 MiB
        peak, _ = traced_peak(lambda: fileio.write_csv_matrix(tmp_path / "c.csv", matrix))
        assert peak <= 2 * self.MIB

    def test_complex_read_holds_about_one_matrix_beyond_its_result(self, tmp_path):
        path = tmp_path / "c.csv"
        fileio.write_csv_matrix(path, self.matrix())
        peak, read = traced_peak(lambda: fileio.read_csv_matrix(path))
        assert read.nbytes == self.MIB
        assert peak - read.nbytes <= 3 * self.MIB


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
