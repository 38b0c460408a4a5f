"""Reconstruction tests: path equivalence, projections, chain inversion."""

import math
import tracemalloc

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
    build_transform,
    compose_chain,
    kron,
    reconstruct_1d,
    reconstruct_2d,
    reconstruct_chain,
    truncate,
    unvec,
    vec_rows,
)
from hybridgi import reconstruct
from hybridgi.errors import ValueOverflowError
from hybridgi.measurement import forward

KINDS = ("hadamard", "dct", "haar")
ORACLE_SPECS = {
    "real": HybridSpec.pair("hadamard", 16, "dct", 8),
    "dft": HybridSpec.pair("dft", 16, "dft", 8),
    "hadamard-dft": HybridSpec.pair("hadamard", 16, "dft", 8),
    "sub-nyquist": HybridSpec.pair("hadamard", 16, "dct", 8, left_kept=11, right_kept=5),
    "sub-nyquist-dft": HybridSpec.pair("dct", 16, "dft", 8, left_kept=11, right_kept=5),
}


def expression_reconstruction(left, right, values):
    """reconstruct_2d's image and residual_norm, each as one whole-array expression."""
    x = left.entries.conj().T @ values @ right.entries
    image = np.array(np.real(x) if np.iscomplexobj(x) else x, dtype=np.float64)
    fitted = left.entries @ image @ right.entries.conj().T
    largest = max(np.abs(values).max(), np.abs(fitted).max())
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
    fitted /= scale
    return image, scale * float(np.linalg.norm(values / scale - fitted))


class TestReconstruct1d:
    def test_orthonormal_roundtrip(self):
        a = kron(build_transform("hadamard", 8), build_transform("dct", 4))
        rng = np.random.default_rng(0)
        x = rng.normal(size=32)
        assert np.max(np.abs(reconstruct_1d(a, a.entries @ x) - x)) < 1e-10

    def test_zeros(self):
        a = kron(build_transform("haar", 4), build_transform("haar", 4))
        assert np.array_equal(reconstruct_1d(a, np.zeros(16)), np.zeros(16))

    def test_matches_2d_path(self):
        left = build_transform("dct", 8)
        right = build_transform("haar", 4)
        a = kron(left, right)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=(8, 4))
            y = a.entries @ vec_rows(x)
            via_1d = unvec(reconstruct_1d(a, y), 8, 4)
            via_2d = reconstruct_2d(left, right, unvec(y, 8, 4)).image.values
            assert np.max(np.abs(via_1d - via_2d)) < 1e-10

    def test_length_mismatch(self):
        a = kron(build_transform("hadamard", 4), build_transform("hadamard", 4))
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
        left = build_transform("haar", 8)
        right = build_transform("dct", 4)
        y = np.zeros((8, 4))
        y[2, 3] = 1.0
        result = reconstruct_2d(left, right, y)
        assert_allclose(
            result.image.values, np.outer(left.entries[2], right.entries[3]),
            atol=1e-12,
        )

    def test_identity_factors_pass_through(self):
        y = np.arange(12.0).reshape(3, 4)
        result = reconstruct_2d(build_transform("identity", 3), build_transform("identity", 4), y)
        assert np.array_equal(result.image.values, y)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hadamard = build_transform("hadamard", 4)
            reconstruct_2d(hadamard, hadamard, np.zeros((2, 3)))

    def test_noise_linearity(self):
        left = build_transform("dct", 8)
        right = build_transform("hadamard", 8)
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
        dft = build_transform("dft", 16)
        left, right = truncate(dft, 12), truncate(dft, 10)
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
        left, right = build_transform("hadamard", 8), build_transform("dct", 4)
        with pytest.raises(ValueOverflowError, match="reconstruction of the buckets overflows"):
            reconstruct_2d(left, right, np.full((8, 4), 1.7e308))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_buckets_are_rejected(self, value):
        y = np.zeros((8, 4))
        y[2, 1] = value
        with pytest.raises(ParameterError, match="bucket values must be finite"):
            reconstruct_2d(build_transform("hadamard", 8), build_transform("dct", 4), y)

    @pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
    @pytest.mark.parametrize("buckets", ["real", "complex"])
    @pytest.mark.parametrize("exponent", [0, 900])
    def test_image_and_residual_equal_the_expressions_bitwise(self, spec, buckets, exponent):
        # Real buckets meet complex fitted values on dft factors, and complex
        # buckets meet real ones on real factors. A pair with exactly one dft
        # runs in real arithmetic, which rounds apart from the complex
        # expressions: there they agree to 1e-12 of the bucket scale.
        left, right = compose_chain(spec)
        rng = np.random.default_rng(15)
        y = rng.normal(size=(left.kept_rows, right.kept_rows))
        if buckets == "complex":
            y = y + 1j * rng.normal(size=y.shape)
        y *= 2.0**exponent
        result = reconstruct_2d(left, right, y)
        image, residual_norm = expression_reconstruction(left, right, y)
        if np.iscomplexobj(left.entries) != np.iscomplexobj(right.entries):
            assert_allclose(result.image.values, image, rtol=0, atol=1e-12 * 2.0**exponent)
            assert result.residual_norm == pytest.approx(residual_norm, rel=0,
                                                         abs=1e-12 * 2.0**exponent)
        else:
            assert result.image.values.tobytes() == image.tobytes()
            assert result.residual_norm == residual_norm

    @pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
    def test_without_residual_the_image_keeps_its_bits(self, spec, monkeypatch):
        # residual=False forms no forward image: forward is never called.
        left, right = compose_chain(spec)
        y = np.random.default_rng(17).normal(size=(left.kept_rows, right.kept_rows))
        full = reconstruct_2d(left, right, y)
        monkeypatch.setattr(reconstruct, "forward", None)
        bare = reconstruct_2d(left, right, y, residual=False)
        assert bare.residual_norm is None and full.residual_norm is not None
        assert bare.image.values.tobytes() == full.image.values.tobytes()
        chained = reconstruct_chain(spec, y, RangeTag.SIGNED, (left, right), residual=False)
        assert (chained.spec, chained.residual_norm) == (spec, None)
        assert chained.image.values.tobytes() == full.image.values.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_recovery_without_residual_is_an_error(self):
        left, right = build_transform("hadamard", 8), build_transform("dct", 4)
        with pytest.raises(ValueOverflowError, match="reconstruction of the buckets overflows"):
            reconstruct_2d(left, right, np.full((8, 4), 1.7e308), residual=False)

    def test_memory_on_256_squared(self):
        # Hadamard then dct at rate 0.75 (192 kept rows) by a dft, in real
        # arithmetic: the image (0.5 MiB), the complex fitted values and the
        # residual buffer (0.75 MiB each) are the peak. About 2.0 MiB, beside the
        # 0.75-MiB buckets; the bound leaves 0.25 MiB.
        spec = HybridSpec(
            (ChainEntry("hadamard", 256), ChainEntry("dct", 256, 192)), (ChainEntry("dft", 256),)
        )
        left, right = compose_chain(spec)
        y = forward(left, right, np.random.default_rng(16).uniform(0.0, 1.0, (256, 256)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reconstruct_2d(left, right, y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * (1 << 20)


class TestSubNyquist:
    def test_full_kept_rows_degenerates_to_2d(self):
        left = build_transform("haar", 16)
        right = build_transform("dct", 8)
        rng = np.random.default_rng(4)
        y = rng.normal(size=(16, 8))
        sub = reconstruct_2d(truncate(left, 16), truncate(right, 8), y).image.values
        full = reconstruct_2d(left, right, y).image.values
        assert np.max(np.abs(sub - full)) < 1e-12

    def test_projection_oracle(self):
        left = truncate(build_transform("hadamard", 32), 29)
        right = truncate(build_transform("dct", 64), 58)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (32, 64))
        y = left.entries @ x @ right.entries.T
        recovered = reconstruct_2d(left, right, y).image.values
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
            reconstruct_2d(
                truncate(build_transform("hadamard", 8), 5),
                truncate(build_transform("dct", 4), 3),
                np.zeros((5, 4)),
            )


class TestReconstructChain:
    def test_length_one_equals_2d(self):
        spec = HybridSpec.pair("dct", 8, "haar", 8)
        rng = np.random.default_rng(7)
        y = rng.normal(size=(8, 8))
        via_chain = reconstruct_chain(spec, y).image.values
        left, right = build_transform("dct", 8), build_transform("haar", 8)
        via_2d = reconstruct_2d(left, right, y).image.values
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
        a = kron(build_transform("dft", 4), build_transform("dft", 4))
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
