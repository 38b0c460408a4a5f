"""Low-level file formats: binary PGM (P5), full-precision CSV, JSON sidecars.

CSV matrices are row-major, one matrix row per line, 17 significant digits
per value so float64 round-trips exactly. Complex values (ideal DFT bucket
signals) are written as Python complex literals like ``1.5+0.25j``.
"""

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, ImageParseError, ResourceLimitError
from .measurement import HybridSpec, as_int, as_number, fields
from .simulator import BucketSignals

MAX_PIXELS = 1 << 26

_WHITESPACE = b" \t\r\n\v\f"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # PNM tokens are separated by whitespace; '#' starts a comment to EOL.
    while pos < len(data):
        byte = data[pos : pos + 1]
        if byte == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
        elif byte in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= len(data):
        raise ImageParseError("unexpected end of PGM header", offset=pos)
    start = pos
    while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, end = _next_token(data, pos)
    if not token.isdigit():
        raise ImageParseError(f"bad {what} token {token!r}", offset=pos)
    return int(token), end


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM (P5, maxval 255) into a uint8 array."""
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise ImageParseError(f"not a binary PGM (magic {magic!r})", offset=0)
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise ImageParseError(f"bad dimensions {width}x{height}", offset=pos)
    if height * width > MAX_PIXELS:
        raise ResourceLimitError(
            f"{width}x{height} exceeds the {MAX_PIXELS}-pixel cap"
        )
    if maxval != 255:
        raise ImageParseError(f"only maxval 255 supported, got {maxval}", offset=pos)
    if pos >= len(data):
        raise ImageParseError("missing raster separator", offset=pos)
    pos += 1  # exactly one whitespace byte after maxval
    expected = height * width
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise ImageParseError(
            f"raster holds {len(raster)} of {expected} bytes", offset=pos + len(raster)
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def write_pgm(path, values: np.ndarray) -> None:
    """Write a uint8 array as a binary PGM (P5, maxval 255)."""
    values = np.asarray(values, dtype=np.uint8)
    height, width = values.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + values.tobytes())


def write_csv_matrix(path, matrix: np.ndarray) -> None:
    """Write a 2-D matrix as CSV, one row per line, full precision."""
    matrix = np.asarray(matrix)
    height, width = matrix.shape
    if np.iscomplexobj(matrix):
        row_format = ",".join(["%.17g%+.17gj"] * width)
        matrix = np.stack((matrix.real, matrix.imag), axis=-1).reshape(height, 2 * width)
    else:
        row_format = ",".join(["%.17g"] * width)
    lines = [row_format % tuple(row) for row in matrix.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def _bad_value(text: str, parse) -> ImageParseError:
    """The error for the first token ``parse`` rejects, once parsing has failed."""
    offset = 0
    for line in text.split("\n"):
        for token in line.split(","):
            try:
                if line.strip():  # a blank line holds no value
                    parse(token)
            except ValueError:
                value = token.strip()
                return ImageParseError(
                    f"bad CSV value {value!r}", offset=offset + token.find(value)
                )
            offset += len(token) + 1  # the token and its comma or newline


def read_csv_matrix(path) -> np.ndarray:
    """Read a CSV matrix written by write_csv_matrix (real or complex)."""
    text = Path(path).read_text()
    rows = [line.split(",") for line in text.split("\n") if line.strip()]
    # A complex file may hold real tokens too: complex() parses them alike.
    parse, dtype = (complex, np.complex128) if "j" in text else (float, np.float64)
    try:
        values = np.array(list(map(parse, [token for row in rows for token in row])), dtype)
    except ValueError:
        raise _bad_value(text, parse) from None
    if not rows:
        raise ImageParseError("empty CSV matrix", offset=0)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ImageParseError(f"ragged CSV rows (widths {sorted(widths)})", offset=0)
    return values.reshape(len(rows), widths.pop())


def read_finite_matrix(path) -> np.ndarray:
    """A CSV matrix of computed data, in which NaN or Inf marks a corrupt file."""
    values = read_csv_matrix(path)
    if not np.isfinite(values).all():
        raise ImageParseError(f"{path}: non-finite value in a data matrix")
    return values


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def sidecar_path(buckets_path) -> Path:
    return Path(str(buckets_path) + ".json")


def write_buckets(path, buckets) -> None:
    """Write bucket signals as CSV plus a JSON sidecar with the metadata."""
    write_csv_matrix(path, buckets.values)
    write_json(
        sidecar_path(path),
        {
            "spec": buckets.spec.to_dict(),
            "noise_sigma": buckets.noise_sigma,
            "seed": buckets.seed,
        },
    )


def read_buckets(path) -> BucketSignals:
    """Read bucket signals and their sidecar back into a BucketSignals.

    A malformed sidecar raises ImageParseError naming the sidecar and the
    offending field; a NaN or Inf bucket raises it naming the CSV.
    """
    values = read_finite_matrix(path)
    sidecar = sidecar_path(path)
    try:
        checks = {"spec": HybridSpec.from_dict, "noise_sigma": as_number, "seed": as_int}
        meta = fields(read_json(sidecar), "", checks, {})
    except (ConfigError, json.JSONDecodeError) as exc:
        raise ImageParseError(f"bucket sidecar {sidecar}: {exc}") from exc
    return BucketSignals(values, meta["noise_sigma"], meta["seed"], meta["spec"])
