"""Scene generator and image I/O tests."""

import tracemalloc

import numpy as np
import pytest

from hybridgi import (
    DegenerateBinarizationError,
    HybridSpec,
    NoiseModel,
    Orientation,
    ParameterError,
    RangeTag,
    SceneImage,
    StripeSpec,
    acquire,
    build_transform,
    count_significant,
    load_image,
    save_image,
    separable_object,
    single_peak_stripe_search,
    staggered_stripes,
    windmill,
)


def bright_components(mask: np.ndarray) -> int:
    """4-connected component count, small BFS."""
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for i in range(mask.shape[0]):
        for j in range(mask.shape[1]):
            if mask[i, j] and not seen[i, j]:
                count += 1
                stack = [(i, j)]
                seen[i, j] = True
                while stack:
                    a, b = stack.pop()
                    for x, y in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                        if (
                            0 <= x < mask.shape[0]
                            and 0 <= y < mask.shape[1]
                            and mask[x, y]
                            and not seen[x, y]
                        ):
                            seen[x, y] = True
                            stack.append((x, y))
    return count


class TestStripes:
    def test_period_two_vertical(self):
        spec = StripeSpec(4, 4, 2, Orientation.VERTICAL)
        values = staggered_stripes(spec).values
        expected = np.tile([1.0, -1.0], (4, 2))
        assert np.array_equal(values, expected)

    def test_no_stagger_is_rank_one(self):
        spec = StripeSpec(8, 16, 4, Orientation.VERTICAL, stagger_offset=0)
        values = staggered_stripes(spec).values
        assert np.linalg.matrix_rank(values) == 1
        assert np.array_equal(values, np.outer(np.ones(8), values[0]))

    def test_values_exactly_binary(self):
        spec = StripeSpec(16, 32, 8, Orientation.HORIZONTAL, 2, 4)
        values = staggered_stripes(spec).values
        assert set(np.unique(values)) == {-1.0, 1.0}

    def test_bands_cyclically_shifted(self):
        spec = StripeSpec(8, 8, 4, Orientation.VERTICAL, stagger_offset=1, band_size=2)
        values = staggered_stripes(spec).values
        profile = values[0]
        for i in range(8):
            band = i // 2
            assert np.array_equal(values[i], np.roll(profile, -band)), i

    def test_horizontal_orientation(self):
        spec = StripeSpec(4, 4, 2, Orientation.HORIZONTAL)
        values = staggered_stripes(spec).values
        assert np.array_equal(values, np.tile([[1.0], [-1.0]], (2, 4)))

    @pytest.mark.parametrize(
        "spec",
        [
            StripeSpec(8, 8, 3),  # odd period
            StripeSpec(8, 8, 16),  # period > striped dimension
            StripeSpec(8, 8, 4, band_size=0),
            StripeSpec(0, 8, 4),
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(ParameterError):
            staggered_stripes(spec)

    def test_unknown_orientation(self):
        with pytest.raises(ParameterError):
            StripeSpec(8, 8, 4, orientation="diagonal")


class TestSeparableObject:
    def test_hadamard_pair_binarized(self):
        left = build_transform("hadamard", 32)
        right = build_transform("hadamard", 16)
        scene = separable_object(left, right, 3, 7, binarize=True)
        assert set(np.unique(scene.values)) == {-1.0, 1.0}
        assert scene.range_tag is RangeTag.SIGNED

    @pytest.mark.parametrize("m,n", [(0, 0), (3, 2), (7, 3)])
    def test_acquire_single_peak_at_index(self, m, n):
        spec = HybridSpec.pair("hadamard", 8, "hadamard", 4)
        left, right = build_transform("hadamard", 8), build_transform("hadamard", 4)
        scene = separable_object(left, right, m, n, True)
        buckets = acquire(spec, scene, NoiseModel(0.0, 0))
        count, positions = count_significant(buckets, 1e-6)
        assert count == 1 and positions[0] == (m, n)

    def test_constant_image_from_first_rows(self):
        left, right = build_transform("hadamard", 32), build_transform("hadamard", 16)
        scene = separable_object(left, right, 0, 0)
        assert np.allclose(scene.values, 1.0)

    def test_dct_column_factor_single_peak(self):
        spec = HybridSpec.pair("haar", 8, "dct", 4)
        scene = separable_object(build_transform("haar", 8), build_transform("dct", 4), 5, 2)
        buckets = acquire(spec, scene, NoiseModel(0.0, 0))
        count, positions = count_significant(buckets, 1e-6)
        assert count == 1 and positions[0] == (5, 2)

    def test_max_abs_is_one(self):
        scene = separable_object(build_transform("dct", 8), build_transform("dct", 4), 3, 1)
        assert np.max(np.abs(scene.values)) == pytest.approx(1.0)

    def test_binarize_zero_rows_rejected(self):
        left = build_transform("haar", 8)  # row 2 has zeros
        with pytest.raises(DegenerateBinarizationError):
            separable_object(left, build_transform("hadamard", 4), 2, 0, binarize=True)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            separable_object(build_transform("hadamard", 4), build_transform("hadamard", 4), 4, 0)


class TestWindmill:
    def test_blade_count_components(self):
        scene = windmill(32, 64, 4)
        assert set(np.unique(scene.values)) <= {0.0, 1.0}
        assert bright_components(scene.values > 0.5) == 4

    def test_other_blade_counts(self):
        assert bright_components(windmill(48, 48, 3).values > 0.5) == 3
        assert bright_components(windmill(40, 40, 5).values > 0.5) == 5

    def test_full_sampling_exact_recovery(self):
        from hybridgi import reconstruct_chain

        scene = windmill(32, 64, 4)
        spec = HybridSpec.pair("hadamard", 32, "dct", 64)
        buckets = acquire(spec, scene, NoiseModel(0.0, 0))
        result = reconstruct_chain(spec, buckets, range_tag=RangeTag.REFLECTANCE)
        assert np.max(np.abs(result.image.values - scene.values)) < 1e-9

    def test_rotational_symmetry(self):
        import math

        blades = 4
        scene = windmill(32, 64, blades)
        values = scene.values
        angle = 2 * math.pi / blades
        ci, cj = (32 - 1) / 2, (64 - 1) / 2
        radius = 16.0
        agree = total = 0
        for i in range(32):
            for j in range(64):
                di, dj = i - ci, j - cj
                if di * di + dj * dj > radius * radius:
                    continue
                ri = ci + di * math.cos(angle) - dj * math.sin(angle)
                rj = cj + di * math.sin(angle) + dj * math.cos(angle)
                ni, nj = round(ri), round(rj)
                if 0 <= ni < 32 and 0 <= nj < 64:
                    total += 1
                    agree += values[i, j] == values[ni, nj]
        assert agree / total >= 0.95

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            windmill(32, 64, 1)
        with pytest.raises(ParameterError):
            windmill(4, 64, 4)
        # The hub's radius is 1.5 * blade_count / pi: 15.8 for 33 blades, 16.2 for 34.
        assert windmill(32, 64, 33).values.any()
        for blades in (34, 2**62, 2**63):
            with pytest.raises(ParameterError, match=f"blade_count {blades} leaves no blade"):
                windmill(32, 64, blades)


class TestStripeSearch:
    def test_finds_simultaneous_single_peak_config(self):
        sets = [("hadamard", "dct"), ("haar", "hadamard"), ("haar", "dct")]
        found = single_peak_stripe_search(32, 16, sets)
        assert found
        # Verify the first hit through the physical simulator.
        scene = staggered_stripes(found[0])
        for left_kind, right_kind in sets:
            spec = HybridSpec.pair(left_kind, 32, right_kind, 16)
            buckets = acquire(spec, scene, NoiseModel(0.0, 0))
            count, _ = count_significant(buckets, 1e-6)
            assert count == 1, spec.label

    def test_search_can_find_nothing(self):
        # No 8x8 stripe object compresses to a single dct x dct bucket.
        assert single_peak_stripe_search(8, 8, [("dct", "dct")]) == []


class TestImageIO:
    def test_pgm_reflectance_extremes(self, tmp_path):
        path = tmp_path / "img.pgm"
        scene = SceneImage(np.array([[1.0, 0.0], [0.5, 0.25]]), RangeTag.REFLECTANCE)
        save_image(scene, path)
        loaded = load_image(path, RangeTag.REFLECTANCE)
        assert loaded.values[0, 0] == 1.0
        assert loaded.values[0, 1] == 0.0

    def test_pgm_signed_extremes(self, tmp_path):
        path = tmp_path / "img.pgm"
        scene = SceneImage(np.array([[-1.0, 1.0]]), RangeTag.SIGNED)
        save_image(scene, path)
        loaded = load_image(path, RangeTag.SIGNED)
        assert loaded.values[0, 0] == -1.0
        assert loaded.values[0, 1] == 1.0

    def test_pgm_roundtrip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.uniform(-1.0, 1.0, (9, 13))
        scene = SceneImage(values, RangeTag.SIGNED)
        path = tmp_path / "img.pgm"
        save_image(scene, path)
        loaded = load_image(path, RangeTag.SIGNED)
        assert np.max(np.abs(loaded.values - values)) <= 2.0 / 255.0 / 2.0 + 1e-12

    @pytest.mark.parametrize("range_tag", list(RangeTag))
    def test_pgm_levels_equal_the_whole_array_expression(self, tmp_path, range_tag):
        # save_image quantizes in its clip buffer; each level is still
        # rint((clip(x) - lo) / (hi - lo) * 255), op for op.
        values = np.random.default_rng(18).uniform(-1.5, 1.5, (37, 23))
        values[0, :3] = (0.5 / 255.0, 1.5 / 255.0, 127.5 / 255.0)  # halfway levels
        path = tmp_path / "img.pgm"
        save_image(SceneImage(values, range_tag), path)
        lo, hi = range_tag.bounds
        levels = np.rint((np.clip(values, lo, hi) - lo) / (hi - lo) * 255.0).astype(np.uint8)
        assert path.read_bytes() == b"P5\n23 37\n255\n" + levels.tobytes()

    def test_pgm_memory_on_256_squared(self, tmp_path):
        # The clip buffer (0.5 MiB), quantized in place, and the 64-KiB levels
        # with their bytes: about 0.69 MiB; the bound leaves 0.06 MiB.
        scene = SceneImage(np.random.default_rng(19).uniform(-1.2, 1.2, (256, 256)),
                           RangeTag.SIGNED)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_image(scene, tmp_path / "img.pgm")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * (1 << 20)

    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(6, 4))
        scene = SceneImage(values, RangeTag.SIGNED)
        path = tmp_path / "img.csv"
        save_image(scene, path)
        loaded = load_image(path, RangeTag.SIGNED)
        assert np.array_equal(loaded.values, values)

    def test_pgm_clips_out_of_range_for_display(self, tmp_path):
        scene = SceneImage(np.array([[1.4, -0.2]]), RangeTag.REFLECTANCE)
        path = tmp_path / "img.pgm"
        save_image(scene, path)
        loaded = load_image(path, RangeTag.REFLECTANCE)
        assert loaded.values[0, 0] == 1.0
        assert loaded.values[0, 1] == 0.0
