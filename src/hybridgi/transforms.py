"""Orthonormal transform matrix constructors.

Four dense transform families are supported: Walsh-Hadamard (Sylvester
recursion, scaled orthonormal), DCT-II, Haar (constant row plus localized
step-function rows, each row unit-normalized), and the unitary DFT. All
builders emit row-orthonormal matrices: M @ M^H = I to better than 1e-10,
where ^H is the conjugate transpose (plain transpose for the real kinds).

Orders are capped at 4096 (2**12). Dense storage above that is rejected
rather than silently slow. Hadamard and Haar orders are powers of two >= 2;
TransformKind.check_order states the rule for every kind.

Indexing is 0-based everywhere in this package.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidOrderError

MAX_EXPONENT = 12
MAX_ORDER = 1 << MAX_EXPONENT


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

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.entries)


def _is_integer(value) -> bool:
    # bool is an int subclass, but True is no order.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_exponent(n: int) -> None:
    if not _is_integer(n) or not 1 <= n <= MAX_EXPONENT:
        raise InvalidOrderError(
            f"exponent must be an integer in [1, {MAX_EXPONENT}], got {n!r}"
        )


def build_hadamard(n: int) -> TransformMatrix:
    """Sylvester-recursive Walsh-Hadamard matrix of order 2**n.

    Each recursion level doubles the order and applies a 1/sqrt(2)
    prefactor, so every entry of the result is +-2**(-n/2) and the rows
    are orthonormal by construction.
    """
    _check_exponent(n)
    h = np.array([[1.0]])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for _ in range(n):
        h = np.block([[h, h], [h, -h]]) * inv_sqrt2
    return TransformMatrix(TransformKind.HADAMARD, h)


def build_dct(order: int) -> TransformMatrix:
    """Orthonormal DCT-II matrix of the given order.

    Entry (r, c) is coeff(r) * cos(r * pi * (c + 0.5) / order) with
    coeff(0) = sqrt(1/order) and coeff(r>0) = sqrt(2/order). Row 0 is the
    constant vector; every later row is zero-mean.
    """
    TransformKind.DCT.check_order(order)
    r = np.arange(order, dtype=np.float64)
    coeff = np.full(order, math.sqrt(2.0 / order))
    coeff[0] = math.sqrt(1.0 / order)
    entries = coeff[:, None] * np.cos(np.outer(r, r + 0.5) * (np.pi / order))
    return TransformMatrix(TransformKind.DCT, entries)


def haar_raw_rows(n: int) -> np.ndarray:
    """Unnormalized Haar basis rows for order 2**n, values in {-1, 0, 1}.

    Row 0 is the all-ones constant row. The remaining rows are the
    localized step functions, ordered by increasing level j (support
    width 2**(n-j)) and, within a level, by increasing translation k.
    Level j contributes exactly 2**j rows, for a total of 2**n.
    """
    _check_exponent(n)
    order = 1 << n
    rows = np.zeros((order, order))
    rows[0] = 1.0
    for level in range(n):
        count = 1 << level
        # Row k of the level: its k-th block of columns, as a first and a second half.
        blocks = rows[count : 2 * count].reshape(count, count, 2, -1)
        blocks[np.arange(count), np.arange(count)] = [[1.0], [-1.0]]
    return rows


def build_haar(n: int) -> TransformMatrix:
    """Orthonormal Haar matrix of order 2**n.

    Each raw row from :func:`haar_raw_rows` is divided by its Euclidean
    norm; the raw rows have unequal norms (sqrt of the support width), so
    this per-row scaling is what makes H @ H.T = I hold exactly.
    """
    rows = haar_raw_rows(n)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return TransformMatrix(TransformKind.HAAR, rows / norms)


def build_dft(order: int) -> TransformMatrix:
    """Unitary DFT matrix: entry (r, c) = exp(2j*pi*r*c/order) / sqrt(order).

    Complex valued for order >= 3. The acquisition simulator rejects
    complex patterns, so DFT factors are restricted to the ideal math path.
    """
    TransformKind.DFT.check_order(order)
    idx = np.arange(order)
    entries = (2j * np.pi / order) * np.outer(idx, idx)
    np.divide(np.exp(entries, out=entries), math.sqrt(order), out=entries)  # in place
    return TransformMatrix(TransformKind.DFT, entries)


def build_identity(order: int) -> TransformMatrix:
    """Identity matrix: the ``identity`` kind of a config's chain entry."""
    TransformKind.IDENTITY.check_order(order)
    return TransformMatrix(TransformKind.IDENTITY, np.eye(order))


def build_transform(kind: TransformKind | str, order: int) -> TransformMatrix:
    """Build a transform of the given kind from an order that it admits (its check_order)."""
    try:
        kind = TransformKind(kind)
    except ValueError:
        raise InvalidOrderError(f"unknown transform kind {kind!r}") from None
    kind.check_order(order)
    if kind in (TransformKind.HADAMARD, TransformKind.HAAR):
        n = int(order).bit_length() - 1
        return build_hadamard(n) if kind is TransformKind.HADAMARD else build_haar(n)
    if kind is TransformKind.DCT:
        return build_dct(order)
    if kind is TransformKind.DFT:
        return build_dft(order)
    if kind is TransformKind.IDENTITY:
        return build_identity(order)
    raise InvalidOrderError(f"cannot build a transform of kind {kind.value!r}")


def orthonormality_defect(t) -> float:
    """Max elementwise |T @ T^H - I| over the rows of ``t``.

    Accepts a TransformMatrix (its kept rows) or a plain 2-D array. Zero
    (to rounding) means the rows form an orthonormal set.
    """
    entries = np.asarray(getattr(t, "entries", t))
    gram = entries @ entries.conj().T
    return float(np.max(np.abs(gram - np.eye(entries.shape[0]))))
