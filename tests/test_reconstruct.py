"""Reconstruction tests: path equivalence, projections, chain inversion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridgi import (
    ChainEntry,
    HybridSpec,
    NoiseModel,
    ParameterError,
    RangeTag,
    SceneImage,
    ShapeError,
    acquire,
    acquire_ideal,
    build_dct,
    build_dft,
    build_hadamard,
    build_haar,
    build_identity,
    compose_chain,
    kron,
    reconstruct_1d,
    reconstruct_2d,
    reconstruct_chain,
    reconstruct_sub,
    truncate,
    unvec,
    vec_rows,
)
from hybridgi.errors import ValueOverflowError

KINDS = ("hadamard", "dct", "haar")


class TestReconstruct1d:
    def test_orthonormal_roundtrip(self):
        a = kron(build_hadamard(3), build_dct(4))
        rng = np.random.default_rng(0)
        x = rng.normal(size=32)
        assert np.max(np.abs(reconstruct_1d(a, a.entries @ x) - x)) < 1e-10

    def test_zeros(self):
        a = kron(build_haar(2), build_haar(2))
        assert np.array_equal(reconstruct_1d(a, np.zeros(16)), np.zeros(16))

    def test_matches_2d_path(self):
        left = build_dct(8)
        right = build_haar(2)
        a = kron(left, right)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=(8, 4))
            y = a.entries @ vec_rows(x)
            via_1d = unvec(reconstruct_1d(a, y), 8, 4)
            via_2d = reconstruct_2d(left, right, unvec(y, 8, 4)).image.values
            assert np.max(np.abs(via_1d - via_2d)) < 1e-10

    def test_length_mismatch(self):
        a = kron(build_hadamard(2), build_hadamard(2))
        with pytest.raises(ShapeError):
            reconstruct_1d(a, np.zeros(15))


class TestReconstruct2d:
    @pytest.mark.parametrize("left_kind", KINDS)
    @pytest.mark.parametrize("right_kind", KINDS)
    def test_perfect_recovery(self, left_kind, right_kind):
        spec = HybridSpec.pair(left_kind, 8, right_kind, 4)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, (8, 4))
        buckets = acquire(spec, SceneImage(x, RangeTag.SIGNED), NoiseModel(0.0, 0))
        left, right = compose_chain(spec)
        result = reconstruct_2d(left, right, buckets)
        assert np.max(np.abs(result.image.values - x)) < 1e-9
        assert result.residual_norm < 1e-9

    def test_single_coefficient_inversion(self):
        # Y with one unit entry reconstructs to the outer product of the
        # matching factor rows.
        left = build_haar(3)
        right = build_dct(4)
        y = np.zeros((8, 4))
        y[2, 3] = 1.0
        result = reconstruct_2d(left, right, y)
        assert_allclose(
            result.image.values, np.outer(left.entries[2], right.entries[3]),
            atol=1e-12,
        )

    def test_identity_factors_pass_through(self):
        y = np.arange(12.0).reshape(3, 4)
        result = reconstruct_2d(build_identity(3), build_identity(4), y)
        assert np.array_equal(result.image.values, y)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruct_2d(build_hadamard(2), build_hadamard(2), np.zeros((2, 3)))

    def test_noise_linearity(self):
        left = build_dct(8)
        right = build_hadamard(3)
        rng = np.random.default_rng(3)
        y = rng.normal(size=(8, 8))
        e = rng.normal(size=(8, 8))
        combined = reconstruct_2d(left, right, y + e).image.values
        separate = (
            reconstruct_2d(left, right, y).image.values
            + left.entries.T @ e @ right.entries
        )
        assert np.max(np.abs(combined - separate)) < 1e-12

    def test_residual_is_that_of_the_returned_real_image(self):
        # Complex buckets on dft factors: L^H Y R is complex, and its dropped
        # imaginary part shows up in the residual of the real image returned.
        left, right = truncate(build_dft(16), 12), truncate(build_dft(16), 10)
        rng = np.random.default_rng(11)
        y = rng.normal(size=(12, 10)) + 1j * rng.normal(size=(12, 10))
        result = reconstruct_2d(left, right, y)
        x = result.image.values
        assert x.dtype == np.float64
        want = np.linalg.norm(y - left.entries @ x @ right.entries.conj().T)
        assert result.residual_norm == pytest.approx(want, rel=1e-12)
        lost = np.linalg.norm((left.entries.conj().T @ y @ right.entries).imag)
        assert result.residual_norm > 0.5 * lost > 1.0

    @pytest.mark.parametrize("left_kind", KINDS)
    @pytest.mark.parametrize("right_kind", KINDS)
    def test_real_residual_is_rounding_for_any_buckets(self, left_kind, right_kind):
        # For real factors L X' R^T = (L L^T) Y (R R^T): the residual is the
        # orthonormality defect times ||Y||, whatever the buckets.
        spec = HybridSpec.pair(left_kind, 16, right_kind, 8, left_kept=11, right_kept=5)
        left, right = compose_chain(spec)
        y = np.random.default_rng(12).normal(size=(11, 5)) * 1e3
        residual = reconstruct_2d(left, right, y).residual_norm
        assert residual <= 1e-12 * np.linalg.norm(y)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("left_kind", ["hadamard", "dft"])
    def test_residual_of_huge_finite_buckets_is_exactly_scaled(self, left_kind):
        # The squares of entries near 1e300 overflow, not their norm: the
        # residual of 2**900 * Y is 2**900 times that of Y, bit for bit.
        spec = HybridSpec.pair(left_kind, 16, "dct", 8, left_kept=11, right_kept=5)
        left, right = compose_chain(spec)
        y = np.random.default_rng(14).normal(size=(11, 5))
        residual = reconstruct_2d(left, right, y).residual_norm
        huge = reconstruct_2d(left, right, np.ldexp(y, 900)).residual_norm
        assert 0.0 < residual and huge == np.ldexp(residual, 900)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_recovery_is_an_error(self):
        left, right = build_hadamard(3), build_dct(4)
        with pytest.raises(ValueOverflowError, match="reconstruction of the buckets overflows"):
            reconstruct_2d(left, right, np.full((8, 4), 1.7e308))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_buckets_are_rejected(self, value):
        y = np.zeros((8, 4))
        y[2, 1] = value
        with pytest.raises(ParameterError, match="bucket values must be finite"):
            reconstruct_2d(build_hadamard(3), build_dct(4), y)


class TestReconstructSub:
    def test_full_kept_rows_degenerates_to_2d(self):
        left = build_haar(4)
        right = build_dct(8)
        rng = np.random.default_rng(4)
        y = rng.normal(size=(16, 8))
        sub = reconstruct_sub(
            truncate(left, 16), truncate(right, 8), y
        ).image.values
        full = reconstruct_2d(left, right, y).image.values
        assert np.max(np.abs(sub - full)) < 1e-12

    def test_projection_oracle(self):
        left = truncate(build_hadamard(5), 29)
        right = truncate(build_dct(64), 58)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (32, 64))
        y = left.entries @ x @ right.entries.T
        recovered = reconstruct_sub(left, right, y).image.values
        projected = (
            left.entries.T @ left.entries @ x @ right.entries.T @ right.entries
        )
        assert recovered.shape == (32, 64)
        assert np.max(np.abs(recovered - projected)) < 1e-10

    def test_projection_idempotent_through_acquisition(self):
        spec = HybridSpec.pair("haar", 16, "hadamard", 8, left_kept=11, right_kept=6)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, (16, 8))
        first = reconstruct_chain(
            spec, acquire(spec, SceneImage(x, RangeTag.SIGNED), NoiseModel(0.0, 0))
        ).image.values
        # Rescale into the declared range; linearity keeps the fixed point.
        scale = max(1.0, np.max(np.abs(first)))
        scaled = first / scale
        second = reconstruct_chain(
            spec,
            acquire(spec, SceneImage(scaled, RangeTag.SIGNED), NoiseModel(0.0, 0)),
        ).image.values
        assert np.max(np.abs(second - scaled)) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruct_sub(
                truncate(build_hadamard(3), 5),
                truncate(build_dct(4), 3),
                np.zeros((5, 4)),
            )


class TestReconstructChain:
    def test_length_one_equals_2d(self):
        spec = HybridSpec.pair("dct", 8, "haar", 8)
        rng = np.random.default_rng(7)
        y = rng.normal(size=(8, 8))
        via_chain = reconstruct_chain(spec, y).image.values
        via_2d = reconstruct_2d(build_dct(8), build_haar(3), y).image.values
        assert np.max(np.abs(via_chain - via_2d)) < 1e-12

    def test_two_by_two_chain_roundtrip(self):
        spec = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
        )
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.0, 1.0, (8, 8))
        buckets = acquire(spec, SceneImage(x, RangeTag.SIGNED), NoiseModel(0.0, 0))
        result = reconstruct_chain(spec, buckets)
        assert np.max(np.abs(result.image.values - x)) < 1e-9

    def test_unequal_chain_roundtrip(self):
        spec = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
            (ChainEntry("haar", 8),),
        )
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 1.0, (8, 8))
        buckets = acquire(spec, SceneImage(x, RangeTag.SIGNED), NoiseModel(0.0, 0))
        result = reconstruct_chain(spec, buckets)
        assert np.max(np.abs(result.image.values - x)) < 1e-9

    def test_bucket_shape_mismatch(self):
        spec = HybridSpec.pair("hadamard", 8, "dct", 4, left_kept=5)
        with pytest.raises(ShapeError):
            reconstruct_chain(spec, np.zeros((8, 4)))


class TestDftIdealPath:
    def test_exact_recovery(self):
        spec = HybridSpec.pair("dft", 8, "dft", 4)
        rng = np.random.default_rng(10)
        x = rng.uniform(-1.0, 1.0, (8, 4))
        buckets = acquire_ideal(spec, SceneImage(x, RangeTag.SIGNED))
        result = reconstruct_chain(spec, buckets)
        assert not np.iscomplexobj(result.image.values)
        assert np.max(np.abs(result.image.values - x)) < 1e-10

    def test_mixed_real_complex_pair(self):
        spec = HybridSpec.pair("dft", 8, "dct", 16)
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, (8, 16))
        buckets = acquire_ideal(spec, SceneImage(x, RangeTag.SIGNED))
        result = reconstruct_chain(spec, buckets)
        assert np.max(np.abs(result.image.values - x)) < 1e-10

    def test_1d_path_with_dft(self):
        a = kron(build_dft(4), build_dft(4))
        rng = np.random.default_rng(12)
        x = rng.normal(size=16)
        recovered = reconstruct_1d(a, a.entries @ x)
        assert np.max(np.abs(recovered - x)) < 1e-10


def test_result_reports_spec_and_range():
    spec = HybridSpec.pair("hadamard", 4, "haar", 4)
    x = np.zeros((4, 4))
    buckets = acquire(spec, SceneImage(x, RangeTag.SIGNED), NoiseModel(0.0, 0))
    result = reconstruct_chain(spec, buckets, range_tag=RangeTag.SIGNED)
    assert result.spec == spec
    assert result.image.range_tag is RangeTag.SIGNED


def test_only_the_chain_inverse_reports_a_spec():
    spec = HybridSpec.pair("hadamard", 4, "haar", 4)
    buckets = acquire_ideal(spec, SceneImage(np.eye(4), RangeTag.SIGNED))
    assert reconstruct_2d(*compose_chain(spec), buckets).spec is None
    assert reconstruct_chain(spec, buckets.values).spec == spec


def test_six_reference_sets_roundtrip_32x64():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, (32, 64))
    scene = SceneImage(x, RangeTag.SIGNED)
    pairs = [(l, r) for l in KINDS for r in KINDS if l != r]
    for left_kind, right_kind in pairs:
        spec = HybridSpec.pair(left_kind, 32, right_kind, 64)
        buckets = acquire_ideal(spec, scene)
        result = reconstruct_chain(spec, buckets)
        assert np.max(np.abs(result.image.values - x)) < 1e-9, spec.label
