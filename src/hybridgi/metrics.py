"""Reconstruction quality metrics and bucket-signal sparsity counting."""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError, ShapeError, ValueOverflowError
from .simulator import RangeTag, SceneImage

SSIM_WINDOW = 8
# Windows that ssim scores at once, in whole rows: its working set is strips, not planes.
SSIM_STRIP_WINDOWS = 8192
# Default threshold of the bucket sparsity count, relative to the largest magnitude.
SIGNIFICANCE_REL_TOL = 1e-6
# An exact recovery's rms error bound, in eps * peak per pixel of the larger
# side; noise-free full-rate round trips measure at most ~1/20 of it.
EXACT_ULPS_PER_SIDE = 8

Roi = tuple[int, int, int, int]  # (top, left, height, width)


def _require_finite_positive(name: str, value: float) -> None:
    # Written so that NaN fails: every comparison with NaN is False.
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be finite and positive, got {value}")


def _require_peak(peak: float) -> None:
    """peak^2 bounds c1, c2, the psnr numerator and the exact-recovery bound."""
    _require_finite_positive("peak", peak)
    if float(peak) * float(peak) == math.inf:
        raise ParameterError(f"peak must have a finite square, got {peak}")
    if (0.01 * float(peak)) ** 2 == 0.0:  # a flat SSIM window would divide 0 by 0
        raise ParameterError(f"peak must have a nonzero SSIM stabilizer c1, got {peak}")


def _as_array(x) -> np.ndarray:
    return np.asarray(getattr(x, "values", x), dtype=np.float64)


def _apply_roi(a: np.ndarray, roi: Roi | None) -> np.ndarray:
    if roi is None:
        return a
    top, left, height, width = roi
    if height < 1 or width < 1:
        raise ShapeError(f"roi {roi} has empty extent")
    if top < 0 or left < 0 or top + height > a.shape[0] or left + width > a.shape[1]:
        raise ShapeError(f"roi {roi} out of bounds for shape {a.shape}")
    return a[top : top + height, left : left + width]


def _pair(a, b, roi: Roi | None) -> tuple[np.ndarray, np.ndarray]:
    """The compared regions of two images, which must be finite there."""
    a, b = _as_array(a), _as_array(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    a, b = _apply_roi(a, roi), _apply_roi(b, roi)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("compared images must be finite, got a NaN or infinite value")
    return a, b


def mse(a, b, roi: Roi | None = None) -> float:
    """Mean squared difference over the roi (whole image when absent)."""
    a, b = _pair(a, b, roi)
    with np.errstate(over="ignore"):
        err = float(np.mean((a - b) ** 2))
    if err == math.inf:
        raise ValueOverflowError("the mean squared difference of the compared images overflows")
    return err


def psnr(reference, test, peak: float, roi: Roi | None = None) -> float:
    """10 * log10(peak^2 / mse) in dB; +inf when the images match exactly."""
    _require_peak(peak)
    return _psnr_of(mse(reference, test, roi), peak)


def _psnr_of(err: float, peak: float) -> float:
    if err == 0.0:
        return math.inf
    ratio = float(peak) * float(peak) / err
    if not 0.0 < ratio < math.inf:  # an extreme mse or peak: take the logs apart
        return 20.0 * math.log10(peak) - 10.0 * math.log10(err)
    return 10.0 * math.log10(ratio)


def require_ssim_region(image, roi: Roi | None = None) -> None:
    """Raise ShapeError unless the compared region, ``image`` or its ``roi``, holds a window."""
    shape = _apply_roi(_as_array(image), roi).shape
    if min(shape) < SSIM_WINDOW:
        raise ShapeError(f"region {shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} ssim window")


def _window_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each interior 8x8 window over the last two axes, stride 1.

    Separable shifted adds (columns, then rows) keep every sum to 8 + 8
    terms, so no rounding error accumulates across the image as it would
    in a summed-area table.
    """
    w = SSIM_WINDOW
    cols = x.shape[-1] - w + 1
    across = x[..., :cols].copy()
    for k in range(1, w):
        across += x[..., k : k + cols]
    rows = x.shape[-2] - w + 1
    del x  # a stack made for this call is freed before the row pass allocates
    sums = across[..., :rows, :].copy()
    for k in range(1, w):
        sums += across[..., k : k + rows, :]
    return sums


def _reference_strips(a: np.ndarray):
    """ssim_reference's strips: at most SSIM_STRIP_WINDOWS windows, in whole rows."""
    n = SSIM_WINDOW * SSIM_WINDOW
    rows, cols = a.shape[0] - SSIM_WINDOW + 1, a.shape[1] - SSIM_WINDOW + 1
    step = max(1, SSIM_STRIP_WINDOWS // cols)
    for top in range(0, rows, step):
        stop = min(top + step, rows)
        strip = a[top : stop + SSIM_WINDOW - 1]
        sum_a = _window_sums(strip)
        mu_a = sum_a / n
        var_a = (_window_sums(strip * strip) - sum_a * mu_a) / (n - 1)
        yield top, stop, sum_a, mu_a, var_a


def ssim_reference(reference, roi: Roi | None = None) -> tuple:
    """ssim's ``prepared``: the compared region's shape and, per strip of window
    rows, (top, stop, sum_a, mu_a, var_a) of the reference alone."""
    a = _apply_roi(_as_array(reference), roi)
    require_ssim_region(a)
    with np.errstate(all="ignore"):  # an overflow fails ssim's finiteness check
        return a.shape, tuple(_reference_strips(a))


def ssim(reference, test, peak: float, roi: Roi | None = None, prepared=None) -> float:
    """Mean structural similarity over all interior 8x8 windows, stride 1.

    Uniform windows with the usual stabilizers c1 = (0.01 * peak)^2 and
    c2 = (0.03 * peak)^2; window statistics use the unbiased (n - 1)
    normalization. The compared region must be at least 8x8. Windows are
    scored in strips of at most SSIM_STRIP_WINDOWS, whose statistics live
    beside the one plane of per-window values. ``prepared``, when given, is
    ssim_reference(reference, roi), the same statistics of the reference.
    """
    _require_peak(peak)
    a, b = _pair(reference, test, roi)
    require_ssim_region(a)
    shape, strips = prepared or (a.shape, _reference_strips(a))
    if shape != a.shape:
        raise ShapeError(f"prepared reference of shape {shape} vs compared region {a.shape}")
    n = SSIM_WINDOW * SSIM_WINDOW
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    if float(c1) * float(c2) == math.inf:  # the denominator's least value overflows
        raise ParameterError(
            f"the SSIM window statistics overflow at peak {peak}: "
            "the product c1 * c2 of its stabilizers is not finite"
        )
    per_window = np.empty((a.shape[0] - SSIM_WINDOW + 1, a.shape[1] - SSIM_WINDOW + 1))
    nonzero = finite = True
    with np.errstate(all="ignore"):  # an overflow fails the finiteness check below
        for top, stop, sum_a, mu_a, var_a in strips:
            strip_a, strip_b = a[top : stop + SSIM_WINDOW - 1], b[top : stop + SSIM_WINDOW - 1]
            # The window sums of b, b*b and a*b in one pass, then the textbook
            # expressions, which take the same operations on every strip.
            sum_b, sum_bb, sum_ab = _window_sums(np.stack((strip_b, strip_b * strip_b,
                                                           strip_a * strip_b)))
            mu_b = sum_b / n
            var_b = (sum_bb - sum_b * mu_b) / (n - 1)
            cov = (sum_ab - sum_a * mu_b) / (n - 1)
            denominator = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
            np.divide((2 * mu_a * mu_b + c1) * (2 * cov + c2), denominator,
                      out=per_window[top:stop])
            nonzero &= bool(denominator.all())  # a flat zero window's denominator is c1 * c2
            finite &= bool(np.isfinite(denominator).all())
    if not nonzero:
        raise ParameterError(f"the SSIM stabilizers' product c1 * c2 underflows at peak {peak}")
    if not (finite and np.isfinite(per_window).all()):
        raise ValueOverflowError("the SSIM window statistics of the compared images overflow")
    return float(per_window.mean())


def significant(y, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The bucket magnitudes and the mask of those above rel_tol times the max.

    An all-zero matrix masks nothing, since no magnitude exceeds zero.
    """
    _require_finite_positive("rel_tol", rel_tol)
    values = np.abs(np.asarray(getattr(y, "values", y)))
    if values.size == 0:
        raise ShapeError("empty bucket matrix")
    peak = values.max()  # NaN if any magnitude is NaN, else inf if any is inf
    if not peak < math.inf:
        raise ParameterError("bucket values must be finite, got a NaN or infinite value")
    return values, values > float(rel_tol) * float(peak)  # Python floats: inf, no warning


def count_significant(y, rel_tol: float) -> tuple[int, list[tuple[int, int]]]:
    """Count bucket entries above rel_tol times the max magnitude.

    Returns (count, positions) with positions sorted by descending
    magnitude. An all-zero matrix counts zero entries. The count is
    invariant under rescaling the whole signal.
    """
    values, mask = significant(y, rel_tol)
    rows, cols = np.nonzero(mask)
    order = np.argsort(-values[rows, cols], kind="stable")
    positions = list(zip(rows[order].tolist(), cols[order].tolist()))
    return len(positions), positions


@dataclass(frozen=True)
class QualityReport:
    """PSNR / SSIM / MSE summary, optionally with a sparsity count and roi."""

    psnr_db: float
    ssim: float
    mse: float
    significant_count: int | None = None
    roi: Roi | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "roi": list(self.roi) if self.roi is not None else None}


def quality_report(
    reference,
    test,
    peak: float | None = None,
    roi: Roi | None = None,
    buckets=None,
    rel_tol: float = SIGNIFICANCE_REL_TOL,
    prepared=None,
) -> QualityReport:
    """Bundle psnr/ssim/mse (and bucket sparsity when buckets are given).

    When peak is omitted it defaults to the declared range width of the
    reference scene (1.0 for reflectance, 2.0 for signed). ``prepared`` goes to ssim.

    A recovery is exact when its mse is at most (8 * n * eps * peak)^2, n
    the larger compared side. It reports mse = 0.0 and the finite psnr_db
    of that bound, -20 * log10(8 * n * eps), not rounding residue or inf.
    """
    if peak is None:
        if isinstance(reference, SceneImage):
            peak = RangeTag(reference.range_tag).width
        else:
            raise ParameterError("peak is required when reference is a bare array")
    _require_peak(peak)
    count = None
    if buckets is not None:
        count = int(np.count_nonzero(significant(buckets, rel_tol)[1]))
    err = mse(reference, test, roi)
    side = max(roi[2:] if roi is not None else _as_array(reference).shape)
    margin = EXACT_ULPS_PER_SIDE * side * np.finfo(np.float64).eps
    exact = err <= (margin * peak) ** 2
    return QualityReport(
        psnr_db=-20.0 * math.log10(margin) if exact else _psnr_of(err, peak),
        ssim=ssim(reference, test, peak, roi, prepared),
        mse=0.0 if exact else err,
        significant_count=count,
        roi=roi,
    )
