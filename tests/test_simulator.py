"""Acquisition simulator tests: splitting, projection, noise, determinism."""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hybridgi
from hybridgi import (
    ChainEntry,
    DegeneratePatternError,
    HybridSpec,
    NoiseModel,
    ParameterError,
    PatternRangeError,
    RangeTag,
    SceneImage,
    ShapeError,
    UnsupportedPatternError,
    acquire,
    acquire_ideal,
    compose_chain,
    fileio,
    measure_bucket,
    normalize_pattern,
    project,
    reconstruct_chain,
    separable_object,
    split_pattern,
)
from hybridgi.measurement import as_factor, forward
from hybridgi.simulator import _noise_blocks

KINDS = ("hadamard", "dct", "haar")


class TestSplitPattern:
    def test_all_ones(self):
        plus, minus = split_pattern(np.ones((3, 3)))
        assert np.array_equal(plus, np.ones((3, 3)))
        assert np.array_equal(minus, np.zeros((3, 3)))

    def test_all_zeros(self):
        plus, minus = split_pattern(np.zeros((2, 5)))
        assert np.all(plus == 0.5) and np.all(minus == 0.5)

    def test_difference_recovers_input(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            values = rng.uniform(-1.0, 1.0, (7, 5))
            plus, minus = split_pattern(values)
            assert np.all(plus >= 0) and np.all(minus >= 0)
            assert np.max(np.abs((plus - minus) - values)) < 1e-15

    def test_out_of_range_rejected(self):
        with pytest.raises(PatternRangeError):
            split_pattern(np.array([[0.2, -1.3]]))

    def test_complex_rejected(self):
        with pytest.raises(UnsupportedPatternError):
            split_pattern(np.array([[1j, 0.0]]))


class TestNormalizePattern:
    def test_scale_factor(self):
        scaled, scale = normalize_pattern(np.array([[0.5, -0.25]]))
        assert scale == 0.5
        assert np.max(np.abs(scaled)) == 1.0

    def test_already_normalized(self):
        values = np.array([[1.0, -0.5]])
        scaled, scale = normalize_pattern(values)
        assert scale == 1.0
        assert np.array_equal(scaled, values)

    def test_rescaled_bucket_matches_raw_dot(self):
        rng = np.random.default_rng(2)
        noise = NoiseModel(0.0, 0)
        for _ in range(50):
            raw = rng.normal(scale=3.0, size=(6, 6))
            x = rng.uniform(-1.0, 1.0, (6, 6))
            scene = SceneImage(x, RangeTag.SIGNED)
            scaled, scale = normalize_pattern(raw)
            bucket = scale * measure_bucket(scaled, scene, noise)
            assert abs(bucket - np.sum(raw * x)) < 1e-12

    def test_zero_pattern_degenerate(self):
        with pytest.raises(DegeneratePatternError):
            normalize_pattern(np.zeros((4, 4)))


class TestProject:
    def test_ones_times_ones(self):
        assert project(np.ones((2, 2)), np.ones((2, 2)), NoiseModel(), 0) == 4.0

    def test_zero_object(self):
        assert project(np.ones((2, 2)), np.zeros((2, 2)), NoiseModel(), 0) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            project(np.ones((2, 2)), np.ones((2, 3)), NoiseModel(), 0)

    def test_negative_rejected(self):
        with pytest.raises(PatternRangeError):
            project(np.array([[-0.1]]), np.ones((1, 1)), NoiseModel(), 0)

    def test_noise_deterministic_per_index(self):
        noise = NoiseModel(0.3, seed=99)
        p = np.full((4, 4), 0.5)
        x = np.full((4, 4), 0.25)
        first = project(p, x, noise, 17)
        assert project(p, x, noise, 17) == first  # bitwise repeatable
        assert project(p, x, noise, 18) != first

    def test_distinct_seeds_distinct_noise(self):
        p = np.full((2, 2), 0.5)
        x = np.ones((2, 2))
        a = project(p, x, NoiseModel(0.5, seed=1), 0)
        b = project(p, x, NoiseModel(0.5, seed=2), 0)
        assert a != b

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("index", [-1, 1 << 64, 1.5, True, "1", None])
    def test_bad_measurement_index_rejected(self, sigma, index):
        message = rf"^measurement index must be an integer in \[0, {(1 << 64) - 1}\], got "
        with pytest.raises(ParameterError, match=message):
            project(np.ones((2, 2)), np.ones((2, 2)), NoiseModel(sigma, 1), index)

    def test_measurement_index_edges_and_numpy_integers(self):
        p, x, noise = np.ones((2, 2)), np.ones((2, 2)), NoiseModel(0.1, 1)
        assert project(p, x, noise, np.int64(5)) == project(p, x, noise, 5)
        assert project(p, x, noise, np.uint64((1 << 64) - 1)) == project(
            p, x, noise, (1 << 64) - 1
        )

    def test_overflowing_noise_names_sigma(self):
        # Draw 0 of seed 3 is about 2.05 standard deviations: at sigma 1e308 it overflows.
        assert next(_noise_blocks(1.0, 3, 0, 1))[0] > 2.0
        p, x = np.ones((2, 2)), np.ones((2, 2))
        with pytest.raises(ParameterError, match=r"^sigma 1e\+308 is too large"):
            project(p, x, NoiseModel(1e308, 3), 0)
        with pytest.raises(ParameterError, match=r"^sigma 1e\+308 is too large"):
            project(np.full((1, 1), 1.7e308), np.ones((1, 1)), NoiseModel(1e308, 3), 1)
        assert math.isfinite(project(p, x, NoiseModel(1e307, 3), 0))


class TestMeasureBucket:
    def test_all_ones_signed(self):
        scene = SceneImage(np.ones((4, 8)), RangeTag.SIGNED)
        value = measure_bucket(np.ones((4, 8)), scene, NoiseModel())
        assert abs(value - 32.0) < 1e-12

    def test_four_projection_oracle(self):
        rng = np.random.default_rng(4)
        noise = NoiseModel(0.0, 0)
        for _ in range(200):
            pattern = rng.uniform(-1.0, 1.0, (8, 8))
            x = rng.uniform(-1.0, 1.0, (8, 8))
            scene = SceneImage(x, RangeTag.SIGNED)
            assert abs(measure_bucket(pattern, scene, noise) - np.sum(pattern * x)) < 1e-12

    def test_two_projection_oracle(self):
        rng = np.random.default_rng(5)
        noise = NoiseModel(0.0, 0)
        for _ in range(200):
            pattern = rng.uniform(-1.0, 1.0, (8, 8))
            x = rng.uniform(0.0, 1.0, (8, 8))
            scene = SceneImage(x, RangeTag.REFLECTANCE)
            assert abs(measure_bucket(pattern, scene, noise) - np.sum(pattern * x)) < 1e-12

    def test_complex_pattern_rejected(self):
        scene = SceneImage(np.ones((2, 2)), RangeTag.SIGNED)
        with pytest.raises(UnsupportedPatternError):
            measure_bucket(np.ones((2, 2)) * (1 + 0j), scene, NoiseModel())

    @pytest.mark.parametrize("range_tag", list(RangeTag))
    def test_equals_its_projections_bitwise(self, range_tag):
        rng = np.random.default_rng(8)
        noise = NoiseModel(0.05, seed=12)
        lo, hi = range_tag.bounds
        scene = SceneImage(rng.uniform(lo, hi, (16, 16)), range_tag)
        halves = split_pattern(scene.values) if range_tag is RangeTag.SIGNED else (scene.values,)
        for base_index in range(20):
            values = rng.uniform(-1.0, 1.0, (16, 16))
            plus, minus = split_pattern(values)
            terms = [
                project(p, x, noise, len(halves) * 2 * base_index + k)
                for k, (p, x) in enumerate((p, x) for p in (plus, minus) for x in halves)
            ]
            if len(terms) == 4:
                want = terms[0] - terms[1] - terms[2] + terms[3]
            else:
                want = terms[0] - terms[1]
            assert measure_bucket(values, scene, noise, base_index) == want

    def test_error_messages(self):
        scene = SceneImage(np.full((2, 2), 0.5), RangeTag.REFLECTANCE)
        with pytest.raises(ShapeError, match=r"^pattern shape \(2, 3\) != object shape \(2, 2\)$"):
            measure_bucket(np.zeros((2, 3)), scene, NoiseModel())
        with pytest.raises(PatternRangeError, match="^pattern max-abs 2 exceeds 1; normalize first$"):
            measure_bucket(np.full((2, 2), 2.0), scene, NoiseModel())
        with pytest.raises(PatternRangeError, match=r"^scene values \[1.5, 1.5\] lie outside"):
            measure_bucket(np.zeros((2, 2)), SceneImage(np.full((2, 2), 1.5), "reflectance"),
                           NoiseModel())

    def test_four_projection_noise_variance(self):
        # Each of the four projections adds N(0, sigma^2), so the combined
        # variance is 4 sigma^2.
        sigma = 0.1
        scene = SceneImage(np.zeros((4, 4)), RangeTag.SIGNED)
        pattern = np.zeros((4, 4))
        trials = 10_000
        samples = [
            measure_bucket(pattern, scene, NoiseModel(sigma, seed=6), base_index=i)
            for i in range(trials)
        ]
        assert abs(np.var(samples) / (4 * sigma**2) - 1.0) < 0.10

    def test_two_projection_noise_variance(self):
        sigma = 0.1
        scene = SceneImage(np.zeros((4, 4)), RangeTag.REFLECTANCE)
        pattern = np.zeros((4, 4))
        trials = 10_000
        samples = [
            measure_bucket(pattern, scene, NoiseModel(sigma, seed=7), base_index=i)
            for i in range(trials)
        ]
        assert abs(np.var(samples) / (2 * sigma**2) - 1.0) < 0.10

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("range_tag, last", [(RangeTag.REFLECTANCE, (1 << 63) - 1),
                                                 (RangeTag.SIGNED, (1 << 62) - 1)])
    def test_base_index_must_keep_its_noise_indices_in_64_bits(self, sigma, range_tag, last):
        # The largest noise index of a bucket, per * base_index + per - 1, is below 2**64.
        scene = SceneImage(np.zeros((2, 2)), range_tag)
        noise = NoiseModel(sigma, seed=3)
        assert np.isfinite(measure_bucket(np.ones((2, 2)), scene, noise, last))
        assert measure_bucket(np.ones((2, 2)), scene, noise, np.int64(7)) == measure_bucket(
            np.ones((2, 2)), scene, noise, 7
        )
        message = rf"^measurement index must be an integer in \[0, {last}\], got "
        for bad in (last + 1, 1 << 64, -1, 1.5, True, "0"):
            with pytest.raises(ParameterError, match=message):
                measure_bucket(np.ones((2, 2)), scene, noise, bad)


class TestAcquire:
    @pytest.mark.parametrize("left_kind", KINDS)
    @pytest.mark.parametrize("right_kind", KINDS)
    def test_matches_forward_model(self, left_kind, right_kind):
        spec = HybridSpec.pair(left_kind, 8, right_kind, 4)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.0, 1.0, (8, 4))
        scene = SceneImage(x, RangeTag.SIGNED)
        buckets = acquire(spec, scene, NoiseModel(0.0, 0))
        left, right = compose_chain(spec)
        oracle = left.entries @ x @ right.entries.T
        assert np.max(np.abs(buckets.values - oracle)) < 1e-10

    def test_truncated_matches_forward_model(self):
        spec = HybridSpec.pair("haar", 16, "dct", 8, left_kept=11, right_kept=5)
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, (16, 8))
        scene = SceneImage(x, RangeTag.REFLECTANCE)
        buckets = acquire(spec, scene, NoiseModel(0.0, 0))
        assert buckets.values.shape == (11, 5)
        left, right = compose_chain(spec)
        oracle = left.entries @ x @ right.entries.T
        assert np.max(np.abs(buckets.values - oracle)) < 1e-10

    def test_zero_scene(self):
        spec = HybridSpec.pair("hadamard", 4, "hadamard", 4)
        scene = SceneImage(np.zeros((4, 4)), RangeTag.SIGNED)
        buckets = acquire(spec, scene, NoiseModel(0.0, 0))
        assert np.array_equal(buckets.values, np.zeros((4, 4)))

    def test_separable_scene_single_unit_peak(self):
        # Unscaled outer product of factor rows lights up exactly one bucket
        # with value 1.
        from hybridgi import build_transform, pattern as make_pattern

        left = build_transform("hadamard", 8)
        scene = SceneImage(make_pattern(left, left, 3, 5), RangeTag.SIGNED)
        spec = HybridSpec.pair("hadamard", 8, "hadamard", 8)
        buckets = acquire(spec, scene, NoiseModel(0.0, 0)).values
        assert abs(buckets[3, 5] - 1.0) < 1e-12
        masked = buckets.copy()
        masked[3, 5] = 0.0
        assert np.max(np.abs(masked)) < 1e-12

    def test_dimension_mismatch(self):
        spec = HybridSpec.pair("hadamard", 8, "dct", 4)
        scene = SceneImage(np.zeros((4, 8)), RangeTag.SIGNED)
        with pytest.raises(ShapeError):
            acquire(spec, scene, NoiseModel())

    def test_out_of_range_scene(self):
        spec = HybridSpec.pair("hadamard", 2, "hadamard", 2)
        scene = SceneImage(np.full((2, 2), 1.5), RangeTag.SIGNED)
        with pytest.raises(PatternRangeError):
            acquire(spec, scene, NoiseModel())

    def test_dft_rejected_by_physical_path(self):
        spec = HybridSpec.pair("dft", 4, "dct", 4)
        scene = SceneImage(np.zeros((4, 4)), RangeTag.SIGNED)
        with pytest.raises(UnsupportedPatternError):
            acquire(spec, scene, NoiseModel())

    def test_noisy_acquisition_bit_identical(self):
        spec = HybridSpec.pair("haar", 8, "hadamard", 8)
        rng = np.random.default_rng(10)
        scene = SceneImage(rng.uniform(0, 1, (8, 8)), RangeTag.REFLECTANCE)
        noise = NoiseModel(0.05, seed=1234)
        first = acquire(spec, scene, noise)
        second = acquire(spec, scene, noise)
        assert np.array_equal(first.values, second.values)

    @pytest.mark.parametrize("left_row, right_row", [(0.0, 0.5), (1e-200, 1e-200)],
                             ids=["zero-row", "underflowing-scale"])
    def test_zero_scale_is_rejected_before_the_first_pattern(
        self, monkeypatch, left_row, right_row
    ):
        # The least scale is checked once, before any bucket is formed: a zero
        # row, or row peaks whose product underflows, give a pattern a zero scale.
        from hybridgi import TransformKind, TransformMatrix, simulator

        left = np.full((4, 4), 0.5)
        left[3] = left_row
        right = np.full((2, 2), 0.5)
        right[1] = right_row
        factors = [TransformMatrix(TransformKind.COMPOSITE, e) for e in (left, right)]
        composed = tuple(map(as_factor, factors))
        monkeypatch.setattr(simulator, "compose_chain", lambda spec: composed)
        calls = []
        monkeypatch.setattr(simulator, "forward", lambda *args: calls.append(args))
        spec = HybridSpec.pair("hadamard", 4, "hadamard", 2)
        scene = SceneImage(np.full((4, 2), 0.5), RangeTag.REFLECTANCE)
        with pytest.raises(DegeneratePatternError,
                           match="^all-zero pattern cannot be normalized$"):
            acquire(spec, scene, NoiseModel(0.05, 1))
        assert calls == []

    @pytest.mark.parametrize("range_tag", list(RangeTag))
    @pytest.mark.parametrize("sigma", [1e308, float(np.finfo(float).max)])
    def test_overflowing_noise_names_sigma(self, range_tag, sigma):
        spec = HybridSpec.pair("hadamard", 4, "dct", 8, right_kept=5)
        scene = SceneImage(np.full((4, 8), 0.5), range_tag)
        with pytest.raises(ParameterError, match="^" + re.escape(f"sigma {sigma} is too large")):
            acquire(spec, scene, NoiseModel(sigma, 3))

    def test_noise_memory_is_one_row_of_buckets(self):
        # With numpy 2.4 on CPython 3.11 a 64x64 signed acquisition at
        # sigma > 0 peaks at about 7.8 scene sizes beyond its result (factors,
        # the forward product, one noise block of whole rows); the whole
        # grid's noise in one block reads 32.
        spec = HybridSpec.pair("hadamard", 64, "dct", 64)
        scene = SceneImage(np.random.default_rng(13).uniform(-1, 1, (64, 64)), RangeTag.SIGNED)
        noise = NoiseModel(0.05, 1)
        acquire(spec, scene, noise)  # warm up
        tracemalloc.start()
        try:
            result = acquire(spec, scene, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - result.values.nbytes <= 12 * scene.values.nbytes

    def test_noise_memory_at_256_is_bounded_by_the_scene(self):
        # A 256x256 reflectance acquisition at sigma > 0 peaks at about 3.2
        # scene sizes beyond its result.
        spec = HybridSpec.pair("hadamard", 256, "dct", 256)
        scene = SceneImage(np.random.default_rng(17).uniform(0, 1, (256, 256)),
                           RangeTag.REFLECTANCE)
        noise = NoiseModel(0.01, 2)
        tracemalloc.start()
        try:
            result = acquire(spec, scene, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - result.values.nbytes <= 12 * scene.values.nbytes

    @pytest.mark.parametrize("range_tag", list(RangeTag))
    def test_noise_blocks_of_any_size_give_the_same_buckets(self, monkeypatch, range_tag):
        # Blocks hold whole left rows: of one row each (a block size of 1
        # draw), several rows, or the whole grid, with a last block cut short.
        from hybridgi import simulator

        spec = HybridSpec.pair("haar", 16, "dct", 8, left_kept=13)
        lo, hi = range_tag.bounds
        scene = SceneImage(np.random.default_rng(19).uniform(lo, hi, (16, 8)), range_tag)
        got = []
        for block in (1, 128, 4096):
            monkeypatch.setattr(simulator, "_BLOCK_DRAWS", block)
            got.append(acquire(spec, scene, NoiseModel(0.05, 23)).values.tobytes())
        assert got[0] == got[1] == got[2]

    def test_metadata_carried(self):
        spec = HybridSpec.pair("hadamard", 4, "haar", 4)
        scene = separable_object(
            compose_chain(spec)[0], compose_chain(spec)[1], 0, 0
        )
        buckets = acquire(spec, scene, NoiseModel(0.02, seed=5))
        assert buckets.spec == spec
        assert buckets.noise_sigma == 0.02
        assert buckets.seed == 5


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
@pytest.mark.parametrize("start", [0, 1, 4 * 4096**2 - 3 * 4096])
def test_draws_do_not_depend_on_their_block_size(seed, start):
    # The same indices from blocks of 1, 128 and 4096 draws: bit for bit one stream.
    count = 2 * 4096
    streams = []
    for size in (1, 128, 4096):
        blocks = _noise_blocks(0.05, seed, start, size)
        streams.append(np.concatenate([next(blocks) for _ in range(count // size)]))
    assert streams[0].tobytes() == streams[1].tobytes() == streams[2].tobytes()


def box_muller_out_of_place(sigma, seed, start, count):
    """Draws ``start`` .. ``start + count - 1`` in the out-of-place expression
    that the blocks first used, kept here as the bitwise reference."""
    bit_generator = np.random.Philox(key=seed, counter=[start // 2, 0, 0, 0])
    bit_generator.random_raw(2 * (start % 2))
    words = bit_generator.random_raw(2 * count)
    u1, u2 = ((words.reshape(count, 2) >> 11) * 2.0**-53).T.copy()
    return sigma * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
@pytest.mark.parametrize("start", [0, 1, 4096, 8191])
@pytest.mark.parametrize("sigma", [0.05, 3.0])
def test_in_place_blocks_keep_every_draw(sigma, seed, start):
    blocks = _noise_blocks(sigma, seed, start, 2048)
    for offset in (0, 2048):
        expected = box_muller_out_of_place(sigma, seed, start + offset, 2048)
        assert next(blocks).tobytes() == expected.tobytes()


def test_noise_block_peak_per_draw():
    # With numpy 2.4 on CPython 3.11 a block of 2,048 draws peaks at about
    # 49 B per draw: the words, shifted in place, and the two uniform rows
    # that Box-Muller overwrites. Out of place it read 65.
    blocks = _noise_blocks(0.05, 3, 0, 2048)
    next(blocks)  # warm up
    tracemalloc.start()
    try:
        block = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * block.size


ALL_KINDS = ("hadamard", "dct", "haar", "dft", "identity")


@pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
@pytest.mark.parametrize("range_tag", list(RangeTag))
@pytest.mark.parametrize("left_kind, right_kind", list(itertools.product(ALL_KINDS, repeat=2)))
def test_composed_factors_give_the_spec_only_results(left_kind, right_kind, range_tag, truncated):
    # A caller that composed the pair once passes it to each stage, bit for bit
    # as if each stage composed its own.
    kept = {"left_kept": 5, "right_kept": 3} if truncated else {}
    spec = HybridSpec.pair(left_kind, 8, right_kind, 4, **kept)
    lo, hi = range_tag.bounds
    scene = SceneImage(np.random.default_rng(29).uniform(lo, hi, (8, 4)), range_tag)
    factors = compose_chain(spec)
    pairs = [(acquire_ideal(spec, scene), acquire_ideal(spec, scene, factors))]
    if not any(np.iscomplexobj(f.entries) for f in factors):
        for sigma in (0.0, 0.05):
            noise = NoiseModel(sigma, 31)
            pairs.append((acquire(spec, scene, noise), acquire(spec, scene, noise, factors)))
    for own, passed in pairs:
        assert passed.values.tobytes() == own.values.tobytes()
        assert (passed.spec, passed.noise_sigma, passed.seed) == (own.spec, own.noise_sigma,
                                                                  own.seed)
        own_image = reconstruct_chain(spec, own, range_tag)
        passed_image = reconstruct_chain(spec, own, range_tag, factors)
        assert passed_image.image.values.tobytes() == own_image.image.values.tobytes()
        assert passed_image.residual_norm == own_image.residual_norm
        assert passed_image.spec == own_image.spec == spec


def test_passed_factors_meet_the_same_entry_check():
    # The check applies to the pair passed in, not to the spec beside it.
    scene = SceneImage(np.full((2, 4), 0.5), RangeTag.REFLECTANCE)
    mismatched = compose_chain(HybridSpec.pair("dct", 4, "haar", 2))
    spec = HybridSpec.pair("dct", 2, "haar", 4)
    message = "^spec orders 4x2 do not match scene 2x4$"
    with pytest.raises(ShapeError, match=message):
        acquire(spec, scene, NoiseModel(0.05, 1), mismatched)
    with pytest.raises(ShapeError, match=message):
        acquire_ideal(spec, scene, mismatched)
    with pytest.raises(ShapeError, match=message):  # what the spec alone raises
        acquire_ideal(HybridSpec.pair("dct", 4, "haar", 2), scene)


class TestNoiseStatistics:
    """Limits of five standard errors, so a broken Box-Muller or a slipped
    word offset fails here and not only in the benchmark's output checks."""

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_draws_are_standard_normal_and_uncorrelated(self, seed):
        z = next(_noise_blocks(1.0, seed, 0, 200_000))
        n = z.size
        assert abs(z.mean()) <= 5 / math.sqrt(n)
        assert abs(z.std() - 1.0) <= 5 / math.sqrt(2 * n)
        assert abs(np.mean(z**4) / np.mean(z**2) ** 2 - 3.0) <= 5 * math.sqrt(24 / n)
        assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) <= 5 / math.sqrt(n)

    @pytest.mark.parametrize(
        "range_tag, std", [(RangeTag.REFLECTANCE, math.sqrt(2.0)), (RangeTag.SIGNED, 2.0)]
    )
    def test_normalised_acquire_residual_has_the_projection_count_std(self, range_tag, std):
        # (bucket - L X R^H) / (sigma a_m b_n) sums 2 or 4 unit draws with signs.
        spec = HybridSpec(
            (ChainEntry("hadamard", 64), ChainEntry("dct", 64, 48)), (ChainEntry("haar", 64),)
        )
        rng = np.random.default_rng(21)
        lo, hi = range_tag.bounds
        scene = SceneImage(rng.uniform(lo, hi, (64, 64)), range_tag)
        sigma = 0.05
        left, right = compose_chain(spec)
        scale = sigma * np.outer(*(np.abs(f.entries).max(axis=1) for f in (left, right)))
        buckets = acquire(spec, scene, NoiseModel(sigma, seed=17)).values
        z = ((buckets - forward(left, right, scene.values)) / scale).ravel()
        n = z.size
        assert abs(z.mean()) <= 5 * std / math.sqrt(n)
        assert abs(z.std() - std) <= 5 * std / math.sqrt(2 * n)


class TestAcquireIdeal:
    def test_matches_physical_at_zero_sigma(self):
        spec = HybridSpec.pair("dct", 8, "haar", 8)
        rng = np.random.default_rng(12)
        scene = SceneImage(rng.uniform(-1, 1, (8, 8)), RangeTag.SIGNED)
        physical = acquire(spec, scene, NoiseModel(0.0, 0))
        ideal = acquire_ideal(spec, scene)
        assert np.max(np.abs(physical.values - ideal.values)) < 1e-10

    def test_supports_dft(self):
        spec = HybridSpec.pair("dft", 4, "dft", 4)
        rng = np.random.default_rng(13)
        scene = SceneImage(rng.uniform(-1, 1, (4, 4)), RangeTag.SIGNED)
        buckets = acquire_ideal(spec, scene)
        assert np.iscomplexobj(buckets.values)


class TestModels:
    def test_noise_model_validation(self):
        with pytest.raises(ParameterError):
            NoiseModel(-0.1, 0)
        with pytest.raises(ParameterError):
            NoiseModel(0.0, -1)
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                NoiseModel(sigma, 0)

    def test_scene_validation(self):
        with pytest.raises(ShapeError):
            SceneImage(np.zeros(4), RangeTag.SIGNED)
        scene = SceneImage(np.full((2, 3), 2.0), RangeTag.SIGNED)
        with pytest.raises(PatternRangeError):
            scene.assert_in_range()
        scene = SceneImage(np.array([[0.5, np.nan]]), RangeTag.REFLECTANCE)
        with pytest.raises(PatternRangeError):
            scene.assert_in_range()

    @pytest.mark.parametrize("seed", [1.5, "7", None, np.float64(2.0)])
    def test_noise_model_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ParameterError):
            NoiseModel(0.01, seed)

    @pytest.mark.parametrize("sigma", ["wide", None, [0.01], 10**400])
    def test_noise_model_rejects_a_sigma_that_is_not_a_number(self, sigma):
        with pytest.raises(ParameterError):
            NoiseModel(sigma, 0)

    @pytest.mark.parametrize(
        "sigma, seed",
        [(True, True), (False, 0), (0.01, True), (0.01, False), (np.bool_(True), 1),
         (0.01, np.bool_(False))],
    )
    def test_noise_model_rejects_a_boolean(self, sigma, seed):
        # A bool is an int to Python: NoiseModel(True, True) would draw with sigma 1, seed 1.
        with pytest.raises(ParameterError, match="^sigma must be a number, seed an integer: "):
            NoiseModel(sigma, seed)

    def test_noise_model_stores_plain_numbers(self):
        noise = NoiseModel(np.float32(0.01), np.int64(3))
        assert type(noise.sigma) is float and noise.sigma == float(np.float32(0.01))
        assert type(noise.seed) is int and noise.seed == 3

    def test_numpy_scalar_noise_round_trips_through_the_sidecar(self, tmp_path):
        spec = HybridSpec.pair("hadamard", 4, "dct", 4)
        scene = SceneImage(np.full((4, 4), 0.5), RangeTag.REFLECTANCE)
        buckets = acquire(spec, scene, NoiseModel(np.float32(0.01), np.int64(3)))
        assert buckets.noise_sigma == float(np.float32(0.01)) and buckets.seed == 3
        path = tmp_path / "buckets.csv"
        fileio.write_buckets(path, buckets)
        loaded = fileio.read_buckets(path)
        assert (loaded.noise_sigma, loaded.seed) == (buckets.noise_sigma, 3)
        assert np.array_equal(loaded.values, buckets.values)

    def test_range_tags(self):
        assert RangeTag.REFLECTANCE.bounds == (0.0, 1.0)
        assert RangeTag.SIGNED.bounds == (-1.0, 1.0)
        assert RangeTag.SIGNED.width == 2.0


class TestSceneCaches:
    @pytest.mark.parametrize(
        "values, range_tag",
        [
            (np.array([[0.5, np.nan], [0.0, 1.0]]), RangeTag.REFLECTANCE),
            (np.array([[0.5, 1.5], [0.0, 1.0]]), RangeTag.REFLECTANCE),
            (np.array([[0.5, np.nan], [-1.0, 1.0]]), RangeTag.SIGNED),
            (np.array([[-1.5, 0.0], [-1.0, 1.0]]), RangeTag.SIGNED),
        ],
    )
    def test_bad_scene_is_rejected_on_every_bucket(self, values, range_tag):
        scene = SceneImage(values, range_tag)
        pattern_values = np.array([[1.0, -1.0], [0.5, 0.0]])
        messages = []
        for _ in range(2):
            with pytest.raises(PatternRangeError) as caught:
                measure_bucket(pattern_values, scene, NoiseModel(0.01, 5))
            messages.append(str(caught.value))
        assert messages[0] == messages[1] and "lie outside the declared" in messages[0]


def test_import_leaves_numpy_random_unloaded():
    # numpy.random is slow to import, so the first noise draw loads it.
    code = (
        "import sys, numpy; lazy = 'numpy.random' not in sys.modules; "
        "import hybridgi.cli; print(lazy, 'numpy.random' in sys.modules)"
    )
    src = str(Path(hybridgi.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    if out[0] != "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert out[1] == "False"
