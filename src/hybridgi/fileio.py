"""Low-level file formats: binary PGM (P5), full-precision CSV, JSON sidecars.

Every file the package writes is written here, and each writer makes its
file's directory right before it opens the file, so a command that fails
before its first write leaves no directory behind.

CSV matrices are row-major, one matrix row per line, 17 significant digits
per value so float64 round-trips exactly. Complex values (ideal DFT bucket
signals) are written as Python complex literals like ``1.5+0.25j``. Both
directions go one row at a time, so they hold O(one matrix) memory, and the
bytes are exactly those of formatting each value on its own.
"""

import csv
import json
import re
from pathlib import Path

import numpy as np

from .errors import ConfigError, ImageParseError, ResourceLimitError
from .measurement import HybridSpec, as_int, as_number, fields
from .simulator import BucketSignals

MAX_PIXELS = 1 << 26

# PNM tokens are separated by whitespace; '#' starts a comment to EOL.
_SEPARATORS = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*\n?)*")
_TOKEN = re.compile(rb"[^ \t\r\n\v\f]+")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    pos = _SEPARATORS.match(data, pos).end()
    token = _TOKEN.match(data, pos)
    if token is None:
        raise ImageParseError("unexpected end of PGM header", offset=pos)
    return token.group(), token.end()


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


def _new_file(path) -> Path:
    """``path`` as a Path, once its directory exists."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_pgm(path, values: np.ndarray) -> None:
    """Write a uint8 array as a binary PGM (P5, maxval 255)."""
    values = np.asarray(values, dtype=np.uint8)
    height, width = values.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    _new_file(path).write_bytes(header + values.tobytes())


def write_csv_matrix(path, matrix: np.ndarray) -> None:
    """Write a 2-D matrix as CSV, one row per line, full precision."""
    matrix = np.asarray(matrix)
    height, width = matrix.shape
    if np.iscomplexobj(matrix):
        row_format = ",".join(["%.17g%+.17gj"] * width)
        matrix = np.stack((matrix.real, matrix.imag), axis=-1).reshape(height, 2 * width)
    else:
        row_format = ",".join(["%.17g"] * width)
    with open(_new_file(path), "w") as out:
        out.writelines(row_format % tuple(row.tolist()) + "\n" for row in matrix)
        out.write("" if height else "\n")


def _raise_csv_error(path, line: str, start: int, parse):
    """Raise the error of a CSV ``line``, at text offset ``start``, that failed to parse."""
    try:
        Path(path).read_text()  # an undecodable byte anywhere wins over a bad token
    except UnicodeDecodeError as exc:
        message = f"{path}: not {exc.encoding} text ({exc.reason})"
        raise ImageParseError(message, offset=exc.start) from None
    for token in line.split(","):
        try:
            parse(token)
        except ValueError:
            break
        start += len(token) + 1  # the token and its comma
    value = token.strip()
    raise ImageParseError(f"bad CSV value {value!r}", offset=start + token.find(value)) from None


def read_csv_matrix(path) -> np.ndarray:
    """Read a CSV matrix; a ``j`` anywhere (found by a byte scan) makes it complex."""
    with open(path, "rb") as raw:
        complex_file = any(b"j" in chunk for chunk in iter(lambda: raw.read(1 << 16), b""))
    # A complex file may hold real tokens too: complex() parses them alike.
    parse, dtype = (complex, np.complex128) if complex_file else (float, np.float64)
    rows, line, start = [], "", 0
    try:
        with open(path) as text:
            for line in text:
                if line.strip():  # a blank line holds no value
                    rows.append(np.array(list(map(parse, line.split(","))), dtype))
                start += len(line)
    except ValueError:  # a bad token, or a byte that does not decode
        _raise_csv_error(path, line, start, parse)
    widths = sorted({row.size for row in rows})
    if len(widths) != 1:
        message = f"ragged CSV rows (widths {widths})" if widths else "empty CSV matrix"
        raise ImageParseError(message, offset=0)
    return np.stack(rows)


def read_finite_matrix(path) -> np.ndarray:
    """A CSV matrix of computed data, in which NaN or Inf marks a corrupt file."""
    values = read_csv_matrix(path)
    if not np.isfinite(values).all():
        raise ImageParseError(f"{path}: non-finite value in a data matrix")
    return values


def write_json(path, payload: dict) -> None:
    _new_file(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_table(path, fieldnames, rows) -> None:
    """Write dict rows as a CSV table under a header line of ``fieldnames``."""
    with open(_new_file(path), "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


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
    offending field; a NaN or Inf bucket, or a matrix whose shape is not the
    sidecar's kept rows, raises it naming the CSV.
    """
    values = read_finite_matrix(path)
    sidecar = sidecar_path(path)
    try:
        checks = {"spec": HybridSpec.from_dict, "noise_sigma": as_number, "seed": as_int}
        meta = fields(read_json(sidecar), "", checks, {})
    except (ConfigError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ImageParseError(f"bucket sidecar {sidecar}: {exc}") from exc
    kept = (meta["spec"].left_kept, meta["spec"].right_kept)
    if values.shape != kept:
        raise ImageParseError(f"{path}: bucket shape {values.shape} does not match the "
                              f"sidecar's kept rows {kept[0]}x{kept[1]}")
    return BucketSignals(values, meta["noise_sigma"], meta["seed"], meta["spec"])
