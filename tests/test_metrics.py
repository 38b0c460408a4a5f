"""Quality metric tests with hand-computed expected values."""

import math
import tracemalloc

import numpy as np
import pytest

from hybridgi import (
    ParameterError,
    RangeTag,
    SceneImage,
    ShapeError,
    count_significant,
    metrics,
    mse,
    psnr,
    quality_report,
    ssim,
    ssim_reference,
)
from hybridgi.metrics import SSIM_WINDOW, _window_sums, significant

# The last has two strips of windows, the second one partial.
PLANE_SHAPES = [(8, 8), (13, 29), (64, 40), (72, 9), (256, 256), (300, 40)]


class TestMse:
    def test_identical(self):
        a = np.arange(12.0).reshape(3, 4)
        assert mse(a, a) == 0.0

    def test_unit_offset(self):
        assert mse(np.zeros((4, 4)), np.ones((4, 4))) == 1.0

    def test_sparse_difference(self):
        # (0 + 0 + 0 + 4) / 4 = 1
        assert mse(np.array([[0.0, 0.0], [0.0, 2.0]]), np.zeros((2, 2))) == 1.0

    def test_roi(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        b[0, 0] = 2.0
        assert mse(a, b, roi=(0, 0, 1, 1)) == 4.0
        assert mse(a, b, roi=(1, 1, 3, 3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_roi_out_of_bounds(self):
        with pytest.raises(ShapeError):
            mse(np.zeros((4, 4)), np.zeros((4, 4)), roi=(2, 2, 3, 3))


class TestPsnr:
    def test_identical_is_infinite(self):
        a = np.random.default_rng(0).normal(size=(5, 5))
        assert psnr(a, a, peak=1.0) == math.inf

    def test_zero_db(self):
        # mse 1 at peak 1: 10*log10(1) = 0.
        assert psnr(np.zeros((4, 4)), np.ones((4, 4)), peak=1.0) == pytest.approx(0.0)

    def test_twenty_db(self):
        # mse 0.01 at peak 1: 10*log10(100) = 20.
        test = np.full((4, 4), 0.1)
        assert psnr(np.zeros((4, 4)), test, peak=1.0) == pytest.approx(20.0)

    def test_monotone_in_mse(self):
        reference = np.zeros((8, 8))
        values = [
            psnr(reference, np.full((8, 8), eps), peak=1.0)
            for eps in (0.001, 0.01, 0.1, 0.5)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_peak_validation(self):
        with pytest.raises(ParameterError):
            psnr(np.zeros((2, 2)), np.zeros((2, 2)), peak=0.0)

    @pytest.mark.parametrize("peak", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_peak_rejected(self, peak):
        with pytest.raises(ParameterError, match="peak must be finite and positive"):
            psnr(np.zeros((2, 2)), np.ones((2, 2)), peak=peak)


class TestSsim:
    def test_identical_images(self):
        a = np.random.default_rng(1).uniform(size=(16, 16))
        assert ssim(a, a, peak=1.0) == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(12, 12))
        b = rng.uniform(size=(12, 12))
        assert ssim(a, b, peak=1.0) == pytest.approx(ssim(b, a, peak=1.0))

    def test_zero_variance_closed_form(self):
        # Constant images: all variances vanish, so per-window ssim reduces
        # to (2*mu_a*mu_b + c1) / (mu_a^2 + mu_b^2 + c1).
        peak = 1.0
        c = 0.25
        a = np.full((12, 12), c)
        b = np.full((12, 12), c + peak)
        c1 = (0.01 * peak) ** 2
        expected = (2 * c * (c + peak) + c1) / (c**2 + (c + peak) ** 2 + c1)
        assert ssim(a, b, peak=peak) == pytest.approx(expected, abs=1e-12)

    def test_independent_noise_near_zero(self):
        values = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = rng.uniform(size=(16, 16))
            b = rng.uniform(size=(16, 16))
            values.append(ssim(a, b, peak=1.0))
        assert abs(np.mean(values)) < 0.2

    def test_region_too_small(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((7, 9)), np.zeros((7, 9)), peak=1.0)
        with pytest.raises(ShapeError):
            ssim(np.zeros((16, 16)), np.zeros((16, 16)), peak=1.0, roi=(0, 0, 4, 16))

    @pytest.mark.parametrize("peak", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_peak_rejected(self, peak):
        a = np.random.default_rng(4).uniform(size=(8, 8))
        with pytest.raises(ParameterError, match="peak must be finite and positive"):
            ssim(a, a[::-1], peak=peak)


def stacked_ssim(a, b, peak):
    """SSIM with the window sums of all five planes taken as one stack."""
    n = SSIM_WINDOW * SSIM_WINDOW
    sum_a, sum_b, sum_aa, sum_bb, sum_ab = _window_sums_stacked(
        np.stack((a, b, a * a, b * b, a * b))
    )
    mu_a = sum_a / n
    mu_b = sum_b / n
    var_a = (sum_aa - sum_a * mu_a) / (n - 1)
    var_b = (sum_bb - sum_b * mu_b) / (n - 1)
    cov = (sum_ab - sum_a * mu_b) / (n - 1)
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    per_window = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(per_window.mean())


def _window_sums_stacked(x):
    w = SSIM_WINDOW
    cols = x.shape[-1] - w + 1
    across = x[..., :cols].copy()
    for k in range(1, w):
        across += x[..., k : k + cols]
    rows = x.shape[-2] - w + 1
    sums = across[..., :rows, :].copy()
    for k in range(1, w):
        sums += across[..., k : k + rows, :]
    return sums


class TestSsimPlanes:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", PLANE_SHAPES)
    def test_per_plane_sums_equal_stacked_sums_bitwise(self, seed, shape):
        # ssim evaluates its statistics one strip of window rows at a time;
        # stacked_ssim evaluates each one as a single expression of whole
        # planes. Signed values, then a roi.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
        b = a + rng.normal(scale=0.1, size=shape)
        peak = float(rng.uniform(0.5, 4.0))
        for x in (a, b):
            assert np.array_equal(_window_sums(x), _window_sums_stacked(x[None])[0])
        assert ssim(a, b, peak) == stacked_ssim(a, b, peak)
        assert ssim(b, a, peak) == stacked_ssim(b, a, peak)
        height, width = max(8, shape[0] * 7 // 8), max(8, shape[1] * 7 // 8)
        top, left = shape[0] - height, shape[1] - width
        roi = (top, left, height, width)
        assert ssim(a, b, peak, roi) == stacked_ssim(a[top:, left:], b[top:, left:], peak)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shape", PLANE_SHAPES)
    def test_prepared_reference_gives_the_same_bits(self, seed, shape):
        # Signed values, then the roi of the test above.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
        b = a + rng.normal(scale=0.1, size=shape)
        peak = float(rng.uniform(0.5, 4.0))
        height, width = max(8, shape[0] * 7 // 8), max(8, shape[1] * 7 // 8)
        for roi in (None, (shape[0] - height, shape[1] - width, height, width)):
            prepared = ssim_reference(a, roi)
            assert ssim(a, b, peak, roi, prepared) == ssim(a, b, peak, roi)
            assert (quality_report(a, b, peak, roi, prepared=prepared)
                    == quality_report(a, b, peak, roi))

    def test_prepared_reference_of_another_region_is_rejected(self):
        a = np.random.default_rng(3).random((16, 24))
        with pytest.raises(ShapeError, match=r"prepared reference of shape \(16, 23\)"):
            ssim(a, a, 1.0, None, ssim_reference(a[:, 1:]))
        with pytest.raises(ShapeError, match=r"vs compared region \(8, 8\)"):
            quality_report(a, a, 1.0, (0, 0, 8, 8), prepared=ssim_reference(a))

    def test_memory_on_256_squared(self):
        # The 249x249 per-window plane (0.47 MiB) beside the statistics and
        # temporaries of one strip of 8192 windows (32 rows of 249, about
        # 0.06 MiB a plane), never whole planes of them. About 1.60 MiB; the
        # bound leaves 0.40 MiB.
        rng = np.random.default_rng(9)
        a, b = rng.random((256, 256)), rng.random((256, 256))  # 0.5 MiB each
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ssim(a, b, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * (1 << 20)

    def test_memory_on_64_squared(self):
        # One strip of 57x57 windows: about 358 KiB. In a long-lived process
        # a 505-KiB layout made the allocator return its heap pages after each
        # call and fault them back on the next, about 90 minor faults and twice
        # the time per call; 256^2's bound cannot see a difference that small.
        rng = np.random.default_rng(9)
        a, b = rng.random((64, 64)), rng.random((64, 64))
        assert self.traced_peak(lambda: ssim(a, b, 1.0)) <= 0.40 * (1 << 20)

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_prepared_call_takes_no_more_memory_on_256_squared(self):
        # The reference's strips are held already: about 1.41 MiB against 1.60.
        rng = np.random.default_rng(9)
        a, b = rng.random((256, 256)), rng.random((256, 256))
        prepared = ssim_reference(a)
        assert self.traced_peak(lambda: ssim(a, b, 1.0, None, prepared)) <= self.traced_peak(
            lambda: ssim(a, b, 1.0))

    @pytest.mark.parametrize("shape", [(8, 8), (64, 40), (256, 256), (300, 40)])
    def test_prepared_reference_holds_at_most_five_planes(self, shape):
        # sum_a, mu_a and var_a: three planes of the windows' floats.
        shape_held, strips = ssim_reference(np.ones(shape))
        held = sum(value.nbytes for strip in strips for value in strip
                   if isinstance(value, np.ndarray))
        assert shape_held == shape
        assert held <= 5 * (shape[0] - 7) * (shape[1] - 7) * 8


class TestLargeValues:
    @pytest.mark.parametrize("peak", [1e200, np.float64(1e160), 2e154])
    @pytest.mark.parametrize(
        "metric", [psnr, ssim, quality_report], ids=["psnr", "ssim", "quality_report"]
    )
    def test_peak_whose_square_overflows_is_rejected(self, peak, metric):
        a = np.zeros((8, 8))
        with pytest.raises(ParameterError, match="peak must have a finite square"):
            metric(a, a + 0.5, peak)

    def test_peak_with_a_finite_square_passes_the_peak_check(self):
        a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        assert math.isfinite(psnr(a, a + 2.0, 1e154))
        # c1 * c2 overflows long before peak^2 does: an error, not a NaN.
        with pytest.raises(ParameterError, match="SSIM window statistics"):
            ssim(a, a[::-1], 1e154)

    @pytest.mark.parametrize(
        "a, b, peak",
        [(np.zeros((2, 2)), np.full((2, 2), 1e-160), 1.0),  # mse is subnormal
         (np.linspace(0.0, 1.0, 64).reshape(8, 8), np.linspace(1.0, 0.0, 64).reshape(8, 8),
          1e154)],
        ids=["subnormal-mse", "huge-peak"],
    )
    def test_psnr_is_finite_when_only_its_quotient_overflows(self, a, b, peak):
        err = mse(a, b)
        assert err > 0.0 and peak * peak / err == math.inf
        db = psnr(a, b, peak)
        assert db == pytest.approx(20.0 * math.log10(peak) - 10.0 * math.log10(err))
        assert math.isfinite(db)

    def test_psnr_is_finite_when_its_quotient_underflows(self):
        a, b, peak = np.zeros((8, 8)), np.full((8, 8), 1e15), 1e-150
        err = mse(a, b)
        assert peak * peak / err == 0.0
        db = psnr(a, b, peak)
        assert db == pytest.approx(20.0 * math.log10(peak) - 10.0 * math.log10(err))
        assert math.isfinite(db)

    @pytest.mark.parametrize("peak", [1e-160, 1e-320, np.float64(1e-200)])
    @pytest.mark.parametrize(
        "metric", [psnr, ssim, quality_report], ids=["psnr", "ssim", "quality_report"]
    )
    def test_peak_whose_ssim_stabilizer_underflows_is_rejected(self, peak, metric):
        assert (0.01 * peak) ** 2 == 0.0
        a = np.zeros((8, 8))  # flat windows: c1 = 0 would make SSIM divide 0 by 0
        with pytest.raises(ParameterError, match="peak must have a nonzero SSIM stabilizer"):
            metric(a, a + 0.5, peak)

    def test_ssim_names_peak_when_its_stabilizers_product_underflows(self):
        # c1 passes the peak check, but c1 * c2, a flat zero window's
        # denominator, is 0: the window would divide 0 by 0.
        a = np.zeros((8, 8))
        with pytest.raises(ParameterError, match="c1 \\* c2 underflows at peak 1e-150"):
            ssim(a, a, 1e-150)
        assert psnr(a, a + 1.0, 1e-150) == pytest.approx(-3000.0)
        ramp = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        assert ssim(ramp, ramp, 1e-150) == 1.0

    def test_psnr_keeps_its_bits_when_its_quotient_is_finite(self):
        a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        for peak, shift in ((1.0, 1e-3), (1e150, 2.0), (2.0, 1e-150)):
            err = mse(a, a + shift)
            assert psnr(a, a + shift, peak) == 10.0 * math.log10(peak * peak / err)

    def test_ssim_names_peak_only_when_peak_overflows(self):
        a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        with pytest.raises(ParameterError, match="SSIM window statistics overflow at peak"):
            ssim(a, a[::-1], 1e154)
        huge = 1e160 * (1.0 + np.random.default_rng(13).random((16, 16)))
        with pytest.raises(ParameterError, match="SSIM window statistics") as caught:
            ssim(huge, np.zeros((16, 16)), 1.0)
        assert "peak" not in str(caught.value)

    @pytest.mark.parametrize("scale", [1e151, 1e160, 1e200])
    def test_overflowing_window_statistics_are_rejected(self, scale):
        rng = np.random.default_rng(10)
        huge = scale * (1.0 + rng.random((16, 16)))
        for pair in ((huge, np.zeros((16, 16))), (np.zeros((16, 16)), huge), (huge, huge)):
            with pytest.raises(ParameterError, match="SSIM window statistics .* overflow"):
                ssim(*pair, peak=1.0)

    def test_quality_report_rejects_overflowing_window_statistics(self):
        reference = SceneImage(np.zeros((16, 16)), RangeTag.REFLECTANCE)
        test = 1e151 * (1.0 + np.random.default_rng(11).random((16, 16)))
        with pytest.raises(ParameterError, match="SSIM window statistics"):
            quality_report(reference, test)

    def test_large_finite_statistics_still_compute(self):
        a = 1e70 * np.random.default_rng(12).random((16, 16))
        assert ssim(a, a, peak=1e70) == pytest.approx(1.0)


class TestCountSignificant:
    def test_single_peak(self):
        y = np.zeros((4, 6))
        y[2, 3] = 5.0
        count, positions = count_significant(y, 1e-6)
        assert count == 1
        assert positions == [(2, 3)]

    def test_all_zero(self):
        count, positions = count_significant(np.zeros((3, 3)), 1e-6)
        assert count == 0 and positions == []

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(6, 6))
        base = count_significant(y, 0.25)
        assert count_significant(y * 1e6, 0.25) == base
        assert count_significant(y * 1e-6, 0.25) == base

    def test_positions_sorted_by_magnitude(self):
        y = np.array([[0.1, -3.0], [2.0, 0.0]])
        count, positions = count_significant(y, 0.01)
        assert count == 3
        assert positions == [(0, 1), (1, 0), (0, 0)]

    def test_huge_rel_tol_counts_nothing_without_a_warning(self):
        # rel_tol * peak overflows to inf, above every finite magnitude.
        y = np.full((2, 2), 10.0)
        assert count_significant(y, 1e308) == (0, [])
        assert not significant(y, 1e308)[1].any()

    def test_rel_tol_validation(self):
        with pytest.raises(ParameterError):
            count_significant(np.ones((2, 2)), 0.0)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -math.inf, -1e-6])
    def test_non_finite_or_negative_rel_tol_rejected(self, rel_tol):
        y = np.array([[1.0, 0.5], [0.0, 2.0]])
        for count in (count_significant, significant):
            with pytest.raises(ParameterError, match="rel_tol must be finite and positive"):
                count(y, rel_tol)


NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])


class TestNonFiniteInput:
    @NON_FINITE
    def test_count_significant_rejects_non_finite_bucket(self, bad):
        y = np.array([[bad, 1.0], [0.5, 0.0]])
        for count in (count_significant, significant):
            with pytest.raises(ParameterError, match="bucket values must be finite"):
                count(y, 1e-6)

    def test_complex_non_finite_bucket_rejected(self):
        with pytest.raises(ParameterError, match="bucket values must be finite"):
            count_significant(np.array([[complex(0.0, math.nan), 1.0]]), 1e-6)

    @NON_FINITE
    @pytest.mark.parametrize("metric", [mse, lambda a, b: psnr(a, b, 1.0),
                                        lambda a, b: ssim(a, b, 1.0)],
                             ids=["mse", "psnr", "ssim"])
    def test_image_metrics_reject_non_finite_images(self, bad, metric):
        clean = np.random.default_rng(5).uniform(size=(8, 8))
        dirty = clean.copy()
        dirty[3, 4] = bad
        for a, b in ((clean, dirty), (dirty, clean)):
            with pytest.raises(ParameterError, match="compared images must be finite"):
                metric(a, b)

    def test_quality_report_rejects_non_finite_test_image(self):
        scene = SceneImage(np.zeros((8, 8)), RangeTag.REFLECTANCE)
        test = np.zeros((8, 8))
        test[0, 0] = math.nan
        with pytest.raises(ParameterError, match="compared images must be finite"):
            quality_report(scene, test)

    @pytest.mark.parametrize("high, low", [(1e200, 0.0), (1e308, -1e308)])
    @pytest.mark.parametrize("metric", [mse, lambda a, b: psnr(a, b, 1.0),
                                        lambda a, b: quality_report(a, b, 1.0)],
                             ids=["mse", "psnr", "quality_report"])
    def test_overflowing_squared_difference_is_rejected(self, high, low, metric):
        # Finite images whose squared difference overflows: an error, not inf.
        a = np.full((8, 8), low)
        b = a.copy()
        b[0, 0] = high
        for pair in ((a, b), (b, a)):
            with pytest.raises(ParameterError, match="squared difference .* overflows"):
                metric(*pair)

    def test_non_finite_outside_roi_is_not_compared(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        b[0, 0] = math.nan
        assert mse(a, b, roi=(1, 1, 3, 3)) == 0.0
        with pytest.raises(ParameterError):
            mse(a, b, roi=(0, 0, 2, 2))


class TestQualityReport:
    def test_peak_defaults_from_range(self):
        scene = SceneImage(np.zeros((16, 16)), RangeTag.SIGNED)
        test = np.full((16, 16), 0.2)
        report = quality_report(scene, test)
        assert report.psnr_db == pytest.approx(10 * math.log10(4.0 / 0.04))

    def test_bare_array_requires_peak(self):
        with pytest.raises(ParameterError):
            quality_report(np.zeros((16, 16)), np.zeros((16, 16)))

    def test_includes_bucket_count(self):
        scene = SceneImage(np.zeros((16, 16)), RangeTag.REFLECTANCE)
        buckets = np.zeros((4, 4))
        buckets[1, 2] = 3.0
        report = quality_report(scene, scene.values, buckets=buckets)
        assert report.significant_count == 1
        assert report.psnr_db == -20 * math.log10(8 * 16 * np.finfo(float).eps)
        assert report.ssim == pytest.approx(1.0)

    @pytest.mark.parametrize("peak", [1.0, 2.0])
    def test_rounding_residue_is_reported_exact(self, peak):
        # 8 eps per pixel of the larger side, times peak, is the rms bound.
        bound = 8 * 24 * np.finfo(float).eps * peak
        reference = np.zeros((16, 24))
        for rms, exact in [(0.0, True), (0.99 * bound, True), (1.01 * bound, False)]:
            test = np.full((16, 24), rms)
            report = quality_report(reference, test, peak=peak)
            if exact:
                assert report.mse == 0.0
                assert report.psnr_db == pytest.approx(-20 * math.log10(bound / peak))
                assert math.isfinite(report.psnr_db)
            else:
                assert report.mse == mse(reference, test)
                assert report.psnr_db == psnr(reference, test, peak)

    def test_mse_is_taken_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "mse", lambda *args: calls.append(args) or mse(*args))
        reference, test = np.zeros((16, 24)), np.full((16, 24), 0.1)
        report = quality_report(reference, test, peak=1.0)
        assert len(calls) == 1
        assert report.psnr_db == psnr(reference, test, 1.0) == pytest.approx(20.0)

    def test_exactness_uses_the_roi_side(self):
        reference = np.zeros((64, 64))
        test = np.full((64, 64), 8 * 32 * np.finfo(float).eps)
        assert quality_report(reference, test, peak=1.0).mse == 0.0
        assert quality_report(reference, test, peak=1.0, roi=(0, 0, 16, 8)).mse > 0.0

    def test_to_dict(self):
        scene = SceneImage(np.zeros((16, 16)), RangeTag.SIGNED)
        report = quality_report(scene, scene.values, roi=(0, 0, 16, 16))
        payload = report.to_dict()
        assert payload["roi"] == [0, 0, 16, 16]
        assert payload["mse"] == 0.0
