"""Reconstruction tests: path equivalence, projections, chain inversion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridgi import (
    ChainEntry,
    HybridSpec,
    NoiseModel,
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
