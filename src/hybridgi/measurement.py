"""Kronecker-structured measurement matrices and hybrid transform chains.

A measurement is described by a left factor L (kept_rows_L x M) acting on
image rows and a right factor R (kept_rows_R x N) acting on image columns.
The forward model is Y = L @ X @ R^H, computed by :func:`forward` alone,
and its adjoint, the recovery X' = real(L^H @ Y @ R), by :func:`backward`
alone. The one-dimensional form is A = kron(L, conj(R)): with row-major
vectorization, A @ vec_rows(X) == vec_rows(forward(L, R, X)).

Index maps (0-based): measurement k = m * kept_rows_R + n pairs left row m
with right row n; image column l = i * N + j addresses pixel (i, j).
"""

import math
from dataclasses import dataclass
from functools import reduce
from pathlib import PurePath

import numpy as np

from .errors import (
    ChainCompositionError, ConfigError, InvalidOrderError, ResourceLimitError, ShapeError,
)
from .transforms import TransformKind, TransformMatrix, build_transform

KRON_ENTRY_CAP = 1 << 28

# Kinds a spec may name; COMPOSITE only arises inside compose_chain.
CONFIG_KINDS = tuple(k.value for k in TransformKind if k is not TransformKind.COMPOSITE)

_KIND_SHORT = {
    TransformKind.HADAMARD: "had",
    TransformKind.DCT: "dct",
    TransformKind.HAAR: "haar",
    TransformKind.DFT: "dft",
    TransformKind.IDENTITY: "id",
}


def truncate(source: TransformMatrix, kept_rows: int) -> TransformMatrix:
    """Keep the first ``kept_rows`` rows of ``source``, as a read-only view."""
    if not 1 <= kept_rows <= source.kept_rows:
        raise ShapeError(f"kept_rows must be in [1, {source.kept_rows}], got {kept_rows}")
    return TransformMatrix(source.kind, source.entries[:kept_rows])


def as_factor(t) -> TransformMatrix:
    """``t`` itself, once checked to be a transform factor."""
    if not isinstance(t, TransformMatrix):
        raise ShapeError(f"expected a transform factor, got {type(t).__name__}")
    return t


@dataclass(frozen=True)
class ChainEntry:
    """One factor of a transform chain: kind, order, and optional truncation.

    ``kept_rows=None`` normalizes to the full order. Only the outermost
    factor of a chain (the last entry) may be truncated.
    """

    kind: TransformKind
    order: int
    kept_rows: int | None = None

    def __post_init__(self):
        if self.kind not in CONFIG_KINDS:
            raise ChainCompositionError(f"unknown kind {self.kind!r}; one of {CONFIG_KINDS}")
        object.__setattr__(self, "kind", TransformKind(self.kind))
        if self.kept_rows is None:
            object.__setattr__(self, "kept_rows", self.order)


@dataclass(frozen=True)
class HybridSpec:
    """One hybridization set: a left chain and a right chain of transforms.

    Entries are listed in application order: the first entry acts directly
    on the image, later entries act on the previous result. A single-entry
    chain on each side is the plain two-matrix measurement. When the two
    chains have different lengths the shorter side behaves as if padded
    with identity factors.
    """

    left_chain: tuple[ChainEntry, ...]
    right_chain: tuple[ChainEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "left_chain", tuple(self.left_chain))
        object.__setattr__(self, "right_chain", tuple(self.right_chain))
        for side, chain in (("left", self.left_chain), ("right", self.right_chain)):
            if not chain:
                raise ChainCompositionError(f"{side} chain must have at least one entry")
            orders = {entry.order for entry in chain}
            if len(orders) != 1:
                raise ChainCompositionError(
                    f"{side} chain factors must share one order, got {sorted(orders)}"
                )
            order = chain[0].order
            if order < 1:
                raise ChainCompositionError(f"{side} chain order must be positive, got {order}")
            for entry in chain[:-1]:
                if entry.kept_rows != entry.order:
                    raise ChainCompositionError(
                        f"{side} chain: only the outermost factor may be truncated"
                    )
            last = chain[-1]
            if not 1 <= last.kept_rows <= order:
                raise ChainCompositionError(
                    f"{side} chain kept_rows must be in [1, {order}], got {last.kept_rows}"
                )

    @classmethod
    def pair(
        cls,
        left_kind: TransformKind | str,
        left_order: int,
        right_kind: TransformKind | str,
        right_order: int,
        left_kept: int | None = None,
        right_kept: int | None = None,
    ) -> "HybridSpec":
        """The common two-matrix case: one factor per side."""
        return cls(
            (ChainEntry(left_kind, left_order, left_kept),),
            (ChainEntry(right_kind, right_order, right_kept),),
        )

    @property
    def left_kept(self) -> int:
        return self.left_chain[-1].kept_rows

    @property
    def right_kept(self) -> int:
        return self.right_chain[-1].kept_rows

    @property
    def sampling_rate(self) -> float:
        orders = self.left_chain[0].order * self.right_chain[0].order
        return (self.left_kept * self.right_kept) / orders

    @property
    def label(self) -> str:
        def side(chain: tuple[ChainEntry, ...]) -> str:
            return "*".join(f"{_KIND_SHORT[e.kind]}{e.order}" for e in chain)

        return f"{side(self.left_chain)}-{side(self.right_chain)}"

    def to_dict(self) -> dict:
        def side(chain: tuple[ChainEntry, ...]) -> list[dict]:
            return [
                {"kind": e.kind.value, "order": e.order, "kept_rows": e.kept_rows}
                for e in chain
            ]

        return {"left": side(self.left_chain), "right": side(self.right_chain)}

    @classmethod
    def from_dict(cls, data, path: str = "hybrid") -> "HybridSpec":
        """Validate and resolve a ``{"left": [...], "right": [...]}`` mapping.

        This is the one parser of the hybrid-spec schema, for config
        sections and bucket sidecars alike. Each chain entry names a kind
        and an order, and optionally kept_rows or sampling_rate. Any
        violation raises ConfigError with the offending field path.
        """
        chains = fields(data, path, {"left": _parse_chain, "right": _parse_chain}, {})
        try:
            spec = cls(chains["left"], chains["right"])
        except ChainCompositionError as exc:
            raise ConfigError(path, str(exc)) from exc
        for side, chain in chains.items():  # checked, not built: the order each kind admits
            for i, entry in enumerate(chain):
                try:
                    entry.kind.check_order(entry.order)
                except InvalidOrderError as exc:
                    raise ConfigError(f"{path}.{side}[{i}].order", str(exc)) from exc
        return spec


def _field_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key  # a root's fields have bare names


def fields(data, path: str, required: dict, optional: dict) -> dict:
    """Each field of the JSON object ``data``, through its check(value, field_path).

    The two tables hold every key the object may have; any other key, or a
    missing required one, is a ConfigError. An absent optional key is absent
    from the result.
    """
    as_object(data, path)
    for key in required:
        if key not in data:
            raise ConfigError(_field_path(path, key), "required field is missing")
    values = {key: check(data[key], _field_path(path, key))
              for key, check in {**required, **optional}.items() if key in data}
    for key in data:
        if key not in required and key not in optional:
            raise ConfigError(_field_path(path, key), "unknown field")
    return values


def as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path or "<root>", f"expected a JSON object, got {value!r}")
    return value


def as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def as_number(value, path: str) -> float:
    # json.loads accepts the NaN and Infinity literals and integers beyond
    # float range, where math.isfinite overflows; no field admits them.
    try:
        if not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(path, f"expected a finite number, got {value!r}")


def as_file_name(value, path: str) -> str:
    # A name that ends in a root or a "." names a directory, and a NUL no file at all.
    if not (isinstance(value, str) and PurePath(value).name and "\0" not in value):
        raise ConfigError(path, f"expected a non-empty file name, got {value!r}")
    return value


def one_of(choices: tuple, what: str):
    """The check that a value is one of ``choices``, naming it ``what``."""
    def check(value, path: str):
        if value not in choices:
            raise ConfigError(path, f"unknown {what} {value!r}; one of {choices}")
        return value
    return check


def resolve_kept_rows(rate: float, order: int) -> int:
    """Round-half-up resolution of a per-side sampling rate to kept rows."""
    return int(math.floor(rate * order + 0.5))


check_kind = one_of(CONFIG_KINDS, "kind")


def _sampling_rate(value, path: str) -> float:
    rate = as_number(value, path)
    if not 0.0 < rate <= 1.0:
        raise ConfigError(path, f"must be in (0, 1], got {rate}")
    return rate


def _parse_chain(entries, path: str) -> tuple[ChainEntry, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(path, "expected a non-empty list of chain entries")
    chain = []
    for i, entry in enumerate(entries):
        entry_path = f"{path}[{i}]"
        entry = fields(entry, entry_path, {"kind": check_kind, "order": as_int},
                       {"kept_rows": as_int, "sampling_rate": _sampling_rate})
        if "sampling_rate" in entry:
            if "kept_rows" in entry:
                raise ConfigError(entry_path, "give kept_rows or sampling_rate, not both")
            # A rate is a fraction of the order, so the order must be within float range.
            order = as_number(entry["order"], f"{entry_path}.order")
            rate = entry.pop("sampling_rate")
            entry["kept_rows"] = resolve_kept_rows(rate, order)
            if entry["kept_rows"] < 1 <= order:  # an order below 1 is the order's error
                raise ConfigError(f"{entry_path}.sampling_rate",
                                  f"{rate} of order {entry['order']} rounds to 0 kept rows")
        chain.append(ChainEntry(**entry))
    return tuple(chain)


def vec_rows(x) -> np.ndarray:
    """Stack the rows of a 2-D array into one vector (row-major order)."""
    values = np.asarray(getattr(x, "values", x))
    if values.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {values.shape}")
    return values.reshape(-1)


def unvec(v, height: int, width: int) -> np.ndarray:
    """Inverse of vec_rows: reshape a length height*width vector to 2-D."""
    v = np.asarray(v)
    if v.ndim != 1 or v.size != height * width:
        raise ShapeError(
            f"vector of length {v.size} cannot be reshaped to {height}x{width}"
        )
    return v.reshape(height, width)


def forward(left, right, x) -> np.ndarray:
    """The forward model Y = L @ X @ R^H of a factor pair.

    Entry (m, n) is the bucket of measurement (m, n): the dot product of
    the scene with pattern(left, right, m, n). A real X with exactly one
    complex factor runs in real matmuls: a complex R enters as its planes,
    Y = (L X) Rr^T - i (L X) Ri^T written into the halves of one complex
    output, and a complex L mirrors it, Lr (X R^T) + i Li (X R^T).
    """
    left, right = as_factor(left).entries, as_factor(right).entries
    if np.iscomplexobj(left) == np.iscomplexobj(right) or np.iscomplexobj(x):
        return left @ x @ right.conj().T
    y = np.empty((left.shape[0], right.shape[0]), np.complex128)
    if np.iscomplexobj(right):
        lx = left @ x
        np.matmul(lx, right.real.T, out=y.real)
        np.negative(np.matmul(lx, right.imag.T, out=y.imag), out=y.imag)
    else:
        xr = x @ right.T
        np.matmul(left.real, xr, out=y.real)
        np.matmul(left.imag, xr, out=y.imag)
    return y


def backward(left, right, y) -> np.ndarray:
    """The recovery X' = real(L^H @ Y @ R) of a factor pair, the adjoint of :func:`forward`.

    With exactly one complex factor the real part is formed in real
    matmuls: L^T (Yr Rr - Yi Ri) for a complex R, (Lr^T Yr + Li^T Yi) R
    for a complex L.
    """
    left, right = as_factor(left).entries, as_factor(right).entries
    if np.iscomplexobj(left) == np.iscomplexobj(right):
        return np.real(left.conj().T @ y @ right)
    if np.iscomplexobj(right):
        return left.T @ (y.real @ right.real - y.imag @ right.imag)
    return (left.real.T @ y.real + left.imag.T @ y.imag) @ right


def kron(left, right) -> TransformMatrix:
    """Dense measurement matrix A = kron(L, conj(R)), a COMPOSITE of order M * N.

    A[k, l] = L[m, i] * conj(R[n, j]) with k = m * rows(R) + n and
    l = i * N + j. For any X: A @ vec_rows(X) == vec_rows(forward(L, R, X)).
    A keeps rows(L) * rows(R) rows, orthonormal as the factors' rows are.
    """
    left = as_factor(left)
    right = as_factor(right)
    n_entries = left.kept_rows * right.kept_rows * left.order * right.order
    if n_entries > KRON_ENTRY_CAP:
        raise ResourceLimitError(
            f"kron would materialize {n_entries} entries (cap {KRON_ENTRY_CAP})"
        )
    entries = np.kron(left.entries, right.entries.conj())
    return TransformMatrix(TransformKind.COMPOSITE, entries)


def pattern(left, right, m: int, n: int) -> np.ndarray:
    """Projection pattern for measurement (m, n): outer(L row m, conj(R row n)).

    Equals row m * rows(R) + n of kron(L, R) reshaped to the image grid.
    """
    left = as_factor(left)
    right = as_factor(right)
    if not 0 <= m < left.kept_rows:
        raise IndexError(f"left row {m} out of range [0, {left.kept_rows})")
    if not 0 <= n < right.kept_rows:
        raise IndexError(f"right row {n} out of range [0, {right.kept_rows})")
    return left.entries[m, :, None] * right.entries[n].conj()


def compose_chain(spec: HybridSpec, build=None) -> tuple[TransformMatrix, TransformMatrix]:
    """Collapse each side's chain into one effective truncated factor.

    The first chain entry is applied first, so the effective matrix is the
    reversed product of the factors. Truncation keeps the first kept_rows
    rows of that product, which is the same as truncating the outermost
    factor. Single-entry chains come back unchanged. ``build(kind, order)``
    makes each factor, build_transform when absent: a caller that composes
    many sets may pass a memo of it.
    """
    build = build_transform if build is None else build

    def side(chain: tuple[ChainEntry, ...]) -> TransformMatrix:
        first, *later = (build(e.kind, e.order) for e in chain)
        if later:
            product = reduce(lambda p, f: f.entries @ p, later, first.entries)
            first = TransformMatrix(TransformKind.COMPOSITE, product)
        return truncate(first, chain[-1].kept_rows)

    return side(spec.left_chain), side(spec.right_chain)


@dataclass(frozen=True)
class FootprintReport:
    """Element counts for the 1-D matrix route vs the two 2-D factors."""

    one_d_matrix_entries: int
    two_d_left_entries: int
    two_d_right_entries: int


def footprint_report(height: int, width: int) -> FootprintReport:
    """RAM footprint comparison for a height x width image.

    The 1-D route stores an (M*N)^2 measurement matrix; the factored route
    stores one width^2 and one height^2 matrix. Reported with the larger
    (width-side) factor first.
    """
    if height < 1 or width < 1:
        raise ShapeError(f"image dimensions must be positive, got {height}x{width}")
    return FootprintReport(
        one_d_matrix_entries=(height * width) ** 2,
        two_d_left_entries=width**2,
        two_d_right_entries=height**2,
    )
