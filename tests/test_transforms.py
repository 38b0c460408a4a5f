"""Transform builder tests against independently computed oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridgi import InvalidOrderError, TransformKind, build_transform, orthonormality_defect
from hybridgi.measurement import CONFIG_KINDS

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def haar_row_oracle(n: int, j: int, k: int) -> np.ndarray:
    """Literal piecewise step-function definition, 1-based index i."""
    order = 2**n
    row = np.zeros(order)
    for i in range(1, order + 1):
        if i <= k * 2 ** (n - j):
            row[i - 1] = 0.0
        elif i <= k * 2 ** (n - j) + 2 ** (n - j - 1):
            row[i - 1] = 1.0
        elif i <= (k + 1) * 2 ** (n - j):
            row[i - 1] = -1.0
        else:
            row[i - 1] = 0.0
    return row


def haar_steps_by_row(order: int) -> np.ndarray:
    """Unnormalized Haar rows, one step row at a time: values in {-1, 0, 1}."""
    rows = np.zeros((order, order))
    rows[0] = 1.0
    r = 1
    for level in range(order.bit_length() - 1):
        support = order >> level
        half = support >> 1
        for k in range(1 << level):
            start = k * support
            rows[r, start : start + half] = 1.0
            rows[r, start + half : start + support] = -1.0
            r += 1
    return rows


def sylvester(order: int) -> np.ndarray:
    h = np.array([[1.0]])
    for _ in range(order.bit_length() - 1):
        h = np.block([[h, h], [h, -h]]) * INV_SQRT2
    return h


def dct_ii(order: int) -> np.ndarray:
    r = np.arange(order, dtype=np.float64)
    coeff = np.full(order, math.sqrt(2.0 / order))
    coeff[0] = math.sqrt(1.0 / order)
    return coeff[:, None] * np.cos(np.outer(r, r + 0.5) * (np.pi / order))


def unitary_dft(order: int) -> np.ndarray:
    idx = np.arange(order)
    return np.exp((2j * np.pi / order) * np.outer(idx, idx)) / math.sqrt(order)


def unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# Each config kind's entries, written out apart from the package's builders.
REFERENCE = {
    "hadamard": sylvester,
    "dct": dct_ii,
    "haar": lambda order: unit_rows(haar_steps_by_row(order)),
    "dft": unitary_dft,
    "identity": np.eye,
}
POWER_OF_TWO_ORDERS = [1 << n for n in range(1, 12)]
ANY_ORDERS = [*range(1, 65), 100, 256, 512, 1000]
REFERENCE_CASES = [
    (kind, order)
    for kind in CONFIG_KINDS
    for order in (POWER_OF_TWO_ORDERS if kind in ("hadamard", "haar") else ANY_ORDERS)
]


@pytest.mark.parametrize("kind, order", REFERENCE_CASES)
def test_build_equals_the_reference_bytewise(kind, order):
    # tobytes tells -0.0 from +0.0, which array_equal does not.
    built = build_transform(kind, order)
    expected = REFERENCE[kind](order)
    assert built.kind is TransformKind(kind)
    assert built.entries.dtype == expected.dtype
    assert built.entries.tobytes() == expected.tobytes()


class TestHadamard:
    def test_base_case_values(self):
        expected = INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]])
        assert_allclose(build_transform("hadamard", 2).entries, expected, atol=1e-15)

    def test_order_four_is_kron_square(self):
        d1 = build_transform("hadamard", 2).entries
        d2 = build_transform("hadamard", 4)
        assert d2.order == 4
        assert_allclose(d2.entries, np.kron(d1, d1), atol=1e-15)
        assert np.all(np.abs(np.abs(d2.entries) - 0.5) < 1e-15)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_entries_are_scaled_signs(self, n):
        entries = build_transform("hadamard", 2**n).entries
        assert np.max(np.abs(np.abs(entries) - 2.0 ** (-n / 2))) < 1e-14

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sylvester_kron_power(self, n):
        d1 = build_transform("hadamard", 2).entries
        power = d1
        for _ in range(n - 1):
            power = np.kron(power, d1)
        assert np.max(np.abs(build_transform("hadamard", 2**n).entries - power)) < 1e-12

    @pytest.mark.parametrize("order", [0, -2, 1, 48, 8192])
    def test_invalid_order(self, order):
        with pytest.raises(InvalidOrderError):
            build_transform("hadamard", order)


class TestDct:
    def test_order_one(self):
        assert_allclose(build_transform("dct", 1).entries, [[1.0]])

    def test_order_two_frozen_values(self):
        # Row 1 by hand: coeff 1, cos(pi/4) and cos(3pi/4) = +-1/sqrt(2).
        expected = np.array(
            [
                [0.7071067811865476, 0.7071067811865476],
                [0.7071067811865476, -0.7071067811865476],
            ]
        )
        assert_allclose(build_transform("dct", 2).entries, expected, atol=1e-15)

    @pytest.mark.parametrize("order", [1, 3, 16, 64])
    def test_first_row_constant(self, order):
        entries = build_transform("dct", order).entries
        assert_allclose(entries[0], np.full(order, 1.0 / math.sqrt(order)), atol=1e-14)

    @pytest.mark.parametrize("order", [2, 5, 16, 33])
    def test_cosine_rows_zero_mean(self, order):
        sums = build_transform("dct", order).entries[1:].sum(axis=1)
        assert np.max(np.abs(sums)) < 1e-10

    def test_direct_formula(self):
        order = 7
        entries = build_transform("dct", order).entries
        for r in range(order):
            coeff = math.sqrt((1.0 if r == 0 else 2.0) / order)
            for c in range(order):
                expected = coeff * math.cos(r * math.pi * (c + 0.5) / order)
                assert abs(entries[r, c] - expected) < 1e-14

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            build_transform("dct", 0)


class TestHaar:
    def test_base_case(self):
        expected = INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]])
        assert_allclose(build_transform("haar", 2).entries, expected, atol=1e-15)

    def test_constant_row(self):
        assert np.array_equal(build_transform("haar", 16).entries[0], np.full(16, 0.25))

    def test_level1_row(self):
        # j=1, k=0 at order 8 evaluated from the piecewise definition by hand.
        assert np.array_equal(
            build_transform("haar", 8).entries[2], np.array([1.0, 1.0, -1.0, -1.0, 0, 0, 0, 0]) / 2
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_match_piecewise_oracle(self, n):
        entries = build_transform("haar", 2**n).entries
        assert entries.shape == (2**n, 2**n)
        r = 1
        for j in range(n):
            for k in range(2**j):
                row = haar_row_oracle(n, j, k)
                assert np.array_equal(entries[r], row / np.linalg.norm(row)), (n, j, k)
                r += 1
        assert r == 2**n

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_are_scaled_steps(self, n):
        # Every nonzero entry of a row is +-1/sqrt(its support width).
        entries = build_transform("haar", 2**n).entries
        support = np.count_nonzero(entries, axis=1, keepdims=True)
        assert_allclose(np.abs(entries) * np.sqrt(support), entries != 0, atol=1e-15)

    def test_rows_unit_norm(self):
        entries = build_transform("haar", 32).entries
        assert_allclose(np.linalg.norm(entries, axis=1), np.ones(32), atol=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 12])
    def test_invalid_order(self, order):
        with pytest.raises(InvalidOrderError):
            build_transform("haar", order)


class TestDft:
    def test_order_one(self):
        assert_allclose(build_transform("dft", 1).entries, [[1.0]])

    def test_order_two_real_special_case(self):
        expected = INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]])
        assert_allclose(build_transform("dft", 2).entries, expected, atol=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 64])
    def test_unitary(self, order):
        assert orthonormality_defect(build_transform("dft", order)) < 1e-10

    def test_positive_frequency_convention(self):
        f = build_transform("dft", 4).entries
        assert abs(f[1, 1] - 1j / 2.0) < 1e-14

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            build_transform("dft", -3)

    def test_memory_at_order_256(self):
        # The integer phase grid (0.5 MiB) beside the 1-MiB complex entries,
        # which exp and the scaling then overwrite in place.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_transform("dft", 256)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * (1 << 20)


class TestDefect:
    @pytest.mark.parametrize(
        "kind, order", [("hadamard", 8), ("dct", 16), ("haar", 16), ("dft", 9)]
    )
    def test_builds_orthonormal(self, kind, order):
        assert orthonormality_defect(build_transform(kind, order)) < 1e-10

    def test_zeroed_row_defect_one(self):
        entries = build_transform("hadamard", 8).entries.copy()
        entries[5] = 0.0
        assert orthonormality_defect(entries) == pytest.approx(1.0)


class TestDispatch:
    def test_by_order(self):
        assert build_transform("hadamard", 32).order == 32
        assert build_transform(TransformKind.HAAR, 16).kind is TransformKind.HAAR
        assert_allclose(build_transform("identity", 5).entries, np.eye(5))

    @pytest.mark.parametrize("order", [3, 6, 1])
    def test_power_of_two_required(self, order):
        with pytest.raises(InvalidOrderError):
            build_transform("hadamard", order)
        with pytest.raises(InvalidOrderError):
            build_transform("haar", order)

    def test_order_cap(self):
        with pytest.raises(InvalidOrderError):
            build_transform("dct", 4097)

    def test_identity(self):
        ident = build_transform("identity", 4)
        assert ident.kind is TransformKind.IDENTITY
        assert orthonormality_defect(ident) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(InvalidOrderError, match="unknown transform kind 'fourier'"):
            build_transform("fourier", 8)

    def test_composite_is_not_built_from_an_order(self):
        with pytest.raises(InvalidOrderError, match="cannot build a transform of kind 'composite'"):
            build_transform("composite", 8)

    @pytest.mark.parametrize("kind", [k.value for k in TransformKind if k.value != "composite"])
    @pytest.mark.parametrize("order", [True, False])
    def test_bool_order_rejected(self, kind, order):
        with pytest.raises(InvalidOrderError, match="order must be a positive integer"):
            build_transform(kind, order)

    def test_numpy_integer_order_accepted(self):
        assert build_transform("hadamard", np.int64(8)).order == 8
        assert build_transform("dct", np.int32(3)).order == 3


def test_entries_immutable():
    matrix = build_transform("hadamard", 4)
    with pytest.raises(ValueError):
        matrix.entries[0, 0] = 5.0
