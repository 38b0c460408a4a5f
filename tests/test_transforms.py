"""Transform builder tests against independently computed oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridgi import (
    InvalidOrderError,
    TransformKind,
    build_dct,
    build_dft,
    build_hadamard,
    build_haar,
    build_identity,
    build_transform,
    haar_raw_rows,
    orthonormality_defect,
)

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


class TestHadamard:
    def test_base_case_values(self):
        expected = INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]])
        assert_allclose(build_hadamard(1).entries, expected, atol=1e-15)

    def test_order_two_is_kron_square(self):
        d1 = build_hadamard(1).entries
        d2 = build_hadamard(2)
        assert d2.order == 4
        assert_allclose(d2.entries, np.kron(d1, d1), atol=1e-15)
        assert np.all(np.abs(np.abs(d2.entries) - 0.5) < 1e-15)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_entries_are_scaled_signs(self, n):
        entries = build_hadamard(n).entries
        assert np.max(np.abs(np.abs(entries) - 2.0 ** (-n / 2))) < 1e-14

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sylvester_kron_power(self, n):
        d1 = build_hadamard(1).entries
        power = d1
        for _ in range(n - 1):
            power = np.kron(power, d1)
        assert np.max(np.abs(build_hadamard(n).entries - power)) < 1e-12

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_invalid_exponent(self, n):
        with pytest.raises(InvalidOrderError):
            build_hadamard(n)


class TestDct:
    def test_order_one(self):
        assert_allclose(build_dct(1).entries, [[1.0]])

    def test_order_two_frozen_values(self):
        # Row 1 by hand: coeff 1, cos(pi/4) and cos(3pi/4) = +-1/sqrt(2).
        expected = np.array(
            [
                [0.7071067811865476, 0.7071067811865476],
                [0.7071067811865476, -0.7071067811865476],
            ]
        )
        assert_allclose(build_dct(2).entries, expected, atol=1e-15)

    @pytest.mark.parametrize("order", [1, 3, 16, 64])
    def test_first_row_constant(self, order):
        entries = build_dct(order).entries
        assert_allclose(entries[0], np.full(order, 1.0 / math.sqrt(order)), atol=1e-14)

    @pytest.mark.parametrize("order", [2, 5, 16, 33])
    def test_cosine_rows_zero_mean(self, order):
        sums = build_dct(order).entries[1:].sum(axis=1)
        assert np.max(np.abs(sums)) < 1e-10

    def test_direct_formula(self):
        order = 7
        entries = build_dct(order).entries
        for r in range(order):
            coeff = math.sqrt((1.0 if r == 0 else 2.0) / order)
            for c in range(order):
                expected = coeff * math.cos(r * math.pi * (c + 0.5) / order)
                assert abs(entries[r, c] - expected) < 1e-14

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            build_dct(0)


class TestHaar:
    def test_base_case(self):
        expected = INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]])
        assert_allclose(build_haar(1).entries, expected, atol=1e-15)

    def test_raw_constant_row(self):
        assert np.array_equal(haar_raw_rows(4)[0], np.ones(16))

    def test_raw_level1_row(self):
        # j=1, k=0 at n=3 evaluated from the piecewise definition by hand.
        assert np.array_equal(
            haar_raw_rows(3)[2], np.array([1.0, 1.0, -1.0, -1.0, 0, 0, 0, 0])
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_raw_rows_match_piecewise_oracle(self, n):
        raw = haar_raw_rows(n)
        assert raw.shape == (2**n, 2**n)
        r = 1
        for j in range(n):
            for k in range(2**j):
                assert np.array_equal(raw[r], haar_row_oracle(n, j, k)), (n, j, k)
                r += 1
        assert r == 2**n

    @pytest.mark.parametrize("n", range(1, 11))
    def test_raw_rows_equal_the_row_loop_bytewise(self, n):
        # tobytes tells -0.0 from +0.0, which array_equal does not.
        order = 1 << n
        rows = np.zeros((order, order))
        rows[0] = 1.0
        r = 1
        for level in range(n):
            support = order >> level
            half = support >> 1
            for k in range(1 << level):
                start = k * support
                rows[r, start : start + half] = 1.0
                rows[r, start + half : start + support] = -1.0
                r += 1
        raw = haar_raw_rows(n)
        assert raw.dtype == rows.dtype and raw.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_raw_values_are_ternary(self, n):
        assert set(np.unique(haar_raw_rows(n))) <= {-1.0, 0.0, 1.0}

    def test_rows_unit_norm(self):
        entries = build_haar(5).entries
        assert_allclose(np.linalg.norm(entries, axis=1), np.ones(32), atol=1e-12)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidOrderError):
            build_haar(0)


class TestDft:
    def test_order_one(self):
        assert_allclose(build_dft(1).entries, [[1.0]])

    def test_order_two_real_special_case(self):
        expected = INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]])
        assert_allclose(build_dft(2).entries, expected, atol=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 64])
    def test_unitary(self, order):
        assert orthonormality_defect(build_dft(order)) < 1e-10

    def test_positive_frequency_convention(self):
        f = build_dft(4).entries
        assert abs(f[1, 1] - 1j / 2.0) < 1e-14

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            build_dft(-3)

    @pytest.mark.parametrize("order", [*range(1, 65), 512])
    def test_in_place_build_equals_the_expression_bitwise(self, order):
        idx = np.arange(order)
        expected = np.exp((2j * np.pi / order) * np.outer(idx, idx)) / math.sqrt(order)
        assert build_dft(order).entries.tobytes() == expected.tobytes()

    def test_memory_at_order_256(self):
        # The integer phase grid (0.5 MiB) beside the 1-MiB complex entries,
        # which exp and the scaling then overwrite in place.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_dft(256)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * (1 << 20)


class TestDefect:
    @pytest.mark.parametrize(
        "matrix",
        [build_hadamard(3), build_dct(16), build_haar(4), build_dft(9)],
        ids=["hadamard", "dct", "haar", "dft"],
    )
    def test_builders_orthonormal(self, matrix):
        assert orthonormality_defect(matrix) < 1e-10

    def test_zeroed_row_defect_one(self):
        entries = build_hadamard(3).entries.copy()
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
            build_dct(4097)

    def test_identity(self):
        ident = build_identity(4)
        assert ident.kind is TransformKind.IDENTITY
        assert orthonormality_defect(ident) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(InvalidOrderError):
            build_transform("fourier", 8)

    @pytest.mark.parametrize("kind", [k.value for k in TransformKind if k.value != "composite"])
    @pytest.mark.parametrize("order", [True, False])
    def test_bool_order_rejected(self, kind, order):
        with pytest.raises(InvalidOrderError, match="order must be a positive integer"):
            build_transform(kind, order)

    @pytest.mark.parametrize("builder", [build_hadamard, build_haar, haar_raw_rows])
    @pytest.mark.parametrize("n", [True, False])
    def test_bool_exponent_rejected(self, builder, n):
        with pytest.raises(InvalidOrderError, match="exponent must be an integer"):
            builder(n)

    def test_numpy_integer_order_accepted(self):
        assert build_transform("hadamard", np.int64(8)).order == 8
        assert build_dct(np.int32(3)).order == 3


def test_entries_immutable():
    matrix = build_hadamard(2)
    with pytest.raises(ValueError):
        matrix.entries[0, 0] = 5.0
