"""Orthonormal transform matrices and their one builder, build_transform(kind, order).

Four dense transform families are supported: Walsh-Hadamard (Sylvester
recursion, scaled orthonormal), DCT-II, Haar (constant row plus localized
step-function rows, each row unit-normalized), and the unitary DFT, plus
the identity. Every kind is built from its order, and all are
row-orthonormal: M @ M^H = I to better than 1e-10, where ^H is the
conjugate transpose (plain transpose for the real kinds).

TransformKind.check_order states the one order rule: a positive integer
at most 4096, above which dense storage is rejected rather than silently
slow, and a power of two >= 2 for Hadamard and Haar.

Indexing is 0-based everywhere in this package.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidOrderError

MAX_ORDER = 4096


class TransformKind(str, Enum):
    HADAMARD = "hadamard"
    DCT = "dct"
    HAAR = "haar"
    DFT = "dft"
    IDENTITY = "identity"
    # Built from other factors: a chain's product (measurement.compose_chain)
    # or a Kronecker product of two factors (measurement.kron).
    COMPOSITE = "composite"

    def check_order(self, order: int) -> None:
        """Raise InvalidOrderError unless a factor of this kind can have ``order``."""
        if not _is_integer(order) or order < 1:
            raise InvalidOrderError(f"order must be a positive integer, got {order!r}")
        if order > MAX_ORDER:
            raise InvalidOrderError(f"order {order} exceeds the dense cap {MAX_ORDER}")
        powers_of_two = self in (TransformKind.HADAMARD, TransformKind.HAAR)
        if powers_of_two and (order < 2 or order & (order - 1)):
            raise InvalidOrderError(f"{self.value} order must be a power of two >= 2, got {order}")


@dataclass(frozen=True)
class TransformMatrix:
    """The first ``kept_rows`` rows of an orthonormal order x order matrix.

    With kept_rows == order this is the whole matrix; fewer kept rows are
    sub-Nyquist sampling. The kept rows stay orthonormal among themselves,
    which is what makes sub-Nyquist recovery an orthogonal projection.

    Attributes
    ----------
    kind : TransformKind
        Which construction produced the matrix.
    entries : np.ndarray
        The kept rows, kept_rows x order, dense float64 (complex128 for
        DFT), marked read-only.
    order : int
        Side length of the whole matrix (order x order), derived from the
        entries: entries.shape[1].
    kept_rows : int
        Number of kept rows, derived from the entries: entries.shape[0].
    """

    kind: TransformKind
    entries: np.ndarray
    order: int = field(init=False)
    kept_rows: int = field(init=False)  # a field: pattern reads it per bucket

    def __post_init__(self):
        self.entries.setflags(write=False)
        object.__setattr__(self, "kept_rows", self.entries.shape[0])
        object.__setattr__(self, "order", self.entries.shape[1])


def _is_integer(value) -> bool:
    # bool is an int subclass, but True is no order.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _hadamard(order: int) -> np.ndarray:
    """Sylvester-recursive Walsh-Hadamard matrix.

    Each level scales h by 1/sqrt(2), then writes it into the quadrants of
    [[h, h], [h, -h]] (-(x c) is (-x) c exactly), so every entry of the
    result is +-1/sqrt(order) and the rows are orthonormal by construction.
    """
    h = np.array([[1.0]])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    while (n := h.shape[0]) < order:
        h, half = np.empty((2 * n, 2 * n)), h * inv_sqrt2
        h[:n, :n] = h[:n, n:] = h[n:, :n] = half
        np.negative(half, out=h[n:, n:])
    return h


def _dct(order: int) -> np.ndarray:
    """Orthonormal DCT-II matrix.

    Entry (r, c) is coeff(r) * cos(r * pi * (c + 0.5) / order) with
    coeff(0) = sqrt(1/order) and coeff(r>0) = sqrt(2/order). Row 0 is the
    constant vector; every later row is zero-mean.
    """
    r = np.arange(order, dtype=np.float64)
    coeff = np.full(order, math.sqrt(2.0 / order))
    coeff[0] = math.sqrt(1.0 / order)
    return coeff[:, None] * np.cos(np.outer(r, r + 0.5) * (np.pi / order))


def _haar(order: int) -> np.ndarray:
    """Orthonormal Haar matrix.

    Row 0 is the constant row. The remaining rows are localized steps, +1
    on the first half of their support and -1 on the second, ordered by
    level (a level of ``count`` rows has support width order / count) and,
    within a level, by translation. Each row is divided by its Euclidean
    norm, the sqrt of its support width, so H @ H.T = I holds exactly.
    """
    rows = np.zeros((order, order))
    rows[0] = 1.0
    count = 1
    while count < order:
        # Row k of the level: its k-th block of columns, as a first and a second half.
        blocks = rows[count : 2 * count].reshape(count, count, 2, -1)
        blocks[np.arange(count), np.arange(count)] = [[1.0], [-1.0]]
        count *= 2
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _dft(order: int) -> np.ndarray:
    """Unitary DFT matrix: entry (r, c) = exp(2j*pi*r*c/order) / sqrt(order).

    Complex valued for order >= 3. The acquisition simulator rejects
    complex patterns, so DFT factors are restricted to the ideal math path.
    """
    idx = np.arange(order)
    entries = (2j * np.pi / order) * np.outer(idx, idx)
    return np.divide(np.exp(entries, out=entries), math.sqrt(order), out=entries)  # in place


# The entries of each kind that an order alone defines (all but composite).
_BUILDERS = {
    TransformKind.HADAMARD: _hadamard,
    TransformKind.DCT: _dct,
    TransformKind.HAAR: _haar,
    TransformKind.DFT: _dft,
    TransformKind.IDENTITY: np.eye,
}


def build_transform(kind: TransformKind | str, order: int) -> TransformMatrix:
    """Build a transform of the given kind from an order that it admits (its check_order)."""
    try:
        kind = TransformKind(kind)
    except ValueError:
        raise InvalidOrderError(f"unknown transform kind {kind!r}") from None
    kind.check_order(order)
    if kind not in _BUILDERS:
        raise InvalidOrderError(f"cannot build a transform of kind {kind.value!r}")
    return TransformMatrix(kind, _BUILDERS[kind](order))


def orthonormality_defect(t) -> float:
    """Max elementwise |T @ T^H - I| over the rows of ``t``.

    Accepts a TransformMatrix (its kept rows) or a plain 2-D array. Zero
    (to rounding) means the rows form an orthonormal set.
    """
    entries = np.asarray(getattr(t, "entries", t))
    gram = entries @ entries.conj().T
    return float(np.max(np.abs(gram - np.eye(entries.shape[0]))))
