"""Projector + bucket-detector acquisition simulator.

Physical projectors cannot display negative values, so each signed pattern
I (normalized to [-1, 1]) is split into the nonnegative pair
I_plus = (1 + I) / 2 and I_minus = (1 - I) / 2. Reflectance objects need
two projections per bucket value; signed virtual objects are split the
same way and need four. Detection noise is additive zero-mean Gaussian per
physical projection, drawn as a pure function of (seed, measurement index)
so that parallel and serial acquisition agree bitwise: draw k is the
Box-Muller transform of words 2k and 2k + 1 of the Philox(key=seed)
stream. The module keeps no state: ``acquire`` streams one local Philox
per acquisition, one block of draws per left row of buckets, and
``project`` draws the same value one call at a time.

``acquire`` checks the factor shapes, the scene's range, that no factor
is complex and that no pattern scale is zero once per acquisition. It never
forms a pattern's halves: a half projects on a scene half h (the scene, or
its own halves when signed) as (sum(h) +- sum(v * h))/2, v the pattern over
its scale. So per bucket it forms one ``pattern`` and one product-sum per
scene half; per left row, array operations take the scales, the halves'
projections, one noise block and the signing, in the per-bucket order, so
bit for bit. The public ``split_pattern``, ``normalize_pattern``,
``project`` and ``measure_bucket`` form the halves explicitly and check
their inputs on every call: they are the per-projection reference, which
``acquire`` matches to rounding, signing and summing the same draws in
one order (``_combine``).
"""

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegeneratePatternError,
    ParameterError,
    PatternRangeError,
    ShapeError,
    UnsupportedPatternError,
)
from .measurement import HybridSpec, compose_chain, forward, pattern

_MAX_SEED = (1 << 64) - 1


class RangeTag(str, Enum):
    """Declared value range of a scene image."""

    REFLECTANCE = "reflectance"  # values in [0, 1]
    SIGNED = "signed"  # values in [-1, 1]

    @property
    def bounds(self) -> tuple[float, float]:
        return (0.0, 1.0) if self is RangeTag.REFLECTANCE else (-1.0, 1.0)

    @property
    def width(self) -> float:
        lo, hi = self.bounds
        return hi - lo


@dataclass(frozen=True)
class SceneImage:
    """A height x width real-valued object with a declared value range.

    The range tag declares the nominal range; it is enforced at the
    acquisition boundary (assert_in_range), not at construction, so that
    reconstructions, which may legitimately overshoot, can reuse the type.
    """

    values: np.ndarray
    range_tag: RangeTag

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)  # owned copy
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ShapeError(f"scene must be a 2-D array, got shape {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "range_tag", RangeTag(self.range_tag))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def assert_in_range(self) -> None:
        lo, hi = self.range_tag.bounds
        low, high = self.values.min(), self.values.max()
        if not (lo <= low and high <= hi):  # NaN fails every comparison
            raise PatternRangeError(
                f"scene values [{low:.6g}, {high:.6g}] "
                f"lie outside the declared {self.range_tag.value} range [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class NoiseModel:
    """Additive zero-mean Gaussian noise per physical projection."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        try:  # normalised, so the draws and the sidecar record the same values
            if any(isinstance(v, (bool, np.bool_)) for v in (self.sigma, self.seed)):
                raise TypeError(f"got a boolean in ({self.sigma!r}, {self.seed!r})")
            sigma, seed = float(self.sigma), operator.index(self.seed)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"sigma must be a number, seed an integer: {exc}") from None
        if not 0.0 <= sigma < math.inf:
            raise ParameterError(f"sigma must be finite and nonnegative, got {sigma}")
        if not 0 <= seed <= _MAX_SEED:
            raise ParameterError(f"seed must fit in 64 bits, got {seed}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class BucketSignals:
    """Matrix of bucket detections plus the acquisition metadata."""

    values: np.ndarray
    noise_sigma: float
    seed: int
    spec: HybridSpec

    def __post_init__(self):
        values = np.array(self.values)  # owned copy
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _noise_blocks(sigma: float, seed: int, start: int, count: int):
    """Noise draws ``start``, ``start + 1``, ... of ``seed``, in arrays of ``count``.

    Draw k is sigma * sqrt(-2 log1p(-u1)) * cos(2 pi u2) (Box-Muller), with
    u1, u2 = (w >> 11) * 2**-53 for the words w = 2k, 2k + 1 of the
    Philox(key=seed) stream. Philox is counter-based: block j of that stream
    (words 4j .. 4j + 3) is what Philox(key=seed, counter=[j, 0, 0, 0])
    yields first, so a local generator can start at any draw. Every ufunc
    below works element by element on contiguous arrays, so a draw does not
    depend on the block's length or on the block that yields it.
    """
    bit_generator = np.random.Philox(key=seed, counter=[start // 2, 0, 0, 0])
    bit_generator.random_raw(2 * (start % 2))  # the word pair before an odd start
    while True:
        words = bit_generator.random_raw(2 * count)
        u1, u2 = ((words.reshape(count, 2) >> 11) * 2.0**-53).T.copy()
        yield sigma * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)


def _require_finite(values, sigma: float):
    if not np.isfinite(values).all():  # the only unbounded term is the noise
        raise ParameterError(f"sigma {sigma} is too large: the noisy projections overflow")


def _measurement_index(index, projections: int) -> int:
    """``index`` as an int, once its ``projections`` noise indices fit in 64 bits."""
    limit = (1 << 64) // projections - 1
    if not isinstance(index, bool):
        try:
            value = operator.index(index)
        except TypeError:
            pass
        else:
            if 0 <= value <= limit:
                return value
    raise ParameterError(f"measurement index must be an integer in [0, {limit}], got {index!r}")


def _require_real(values, what: str) -> np.ndarray:
    array = np.asarray(values)
    if array.dtype.kind == "c":
        raise UnsupportedPatternError(f"{what} must be real-valued for projection")
    return array.astype(np.float64, copy=False)


def _require_normalized(values) -> np.ndarray:
    values = _require_real(values, "pattern")
    peak = np.abs(values).max()
    if peak > 1.0:
        raise PatternRangeError(f"pattern max-abs {peak:.6g} exceeds 1; normalize first")
    return values


def split_pattern(pattern_values) -> tuple[np.ndarray, np.ndarray]:
    """Split a signed pattern into its nonnegative projection pair.

    Returns (plus, minus) with plus = (1 + I)/2 and minus = (1 - I)/2;
    plus - minus reproduces I. Input must already be normalized to [-1, 1].
    """
    return _split(_require_normalized(pattern_values))


def _split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (1.0 + values) / 2.0, (1.0 - values) / 2.0


def normalize_pattern(pattern_values) -> tuple[np.ndarray, float]:
    """Scale a pattern to [-1, 1] by its max-abs value.

    Returns (scaled, scale). Multiplying a bucket signal measured with the
    scaled pattern by ``scale`` recovers the dot product the unscaled
    pattern would have produced.
    """
    values = _require_real(pattern_values, "pattern")
    scale = float(np.abs(values).max())
    if scale == 0.0:
        raise DegeneratePatternError("all-zero pattern cannot be normalized")
    return values / scale, scale


def _combine(terms):
    # Buckets from their projections, the pattern's plus half first, each
    # over the scene's projected halves: (+,+) - (+,-) - (-,+) + (-,-), or (+) - (-).
    if len(terms) == 4:
        return terms[0] - terms[1] - terms[2] + terms[3]
    return terms[0] - terms[1]


def _projected(scene: SceneImage) -> tuple:
    """The scene as the projector sees it: split into halves when signed."""
    return _split(scene.values) if scene.range_tag is RangeTag.SIGNED else (scene.values,)


def project(pattern_values, object_values, noise: NoiseModel, measurement_index: int) -> float:
    """One physical projection: sum of pattern * object plus a noise draw.

    Both inputs must be nonnegative (they are the split halves). The noise
    draw is fully determined by (noise.seed, measurement_index), an integer
    in [0, 2**64 - 1].
    """
    index = _measurement_index(measurement_index, 1)
    p = _require_real(pattern_values, "pattern")
    x = _require_real(object_values, "object")
    if p.shape != x.shape:
        raise ShapeError(f"pattern shape {p.shape} != object shape {x.shape}")
    if p.min() < 0.0 or x.min() < 0.0:
        raise PatternRangeError("project() requires nonnegative pattern and object")
    value = float((p * x).sum())
    if noise.sigma > 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            value += float(next(_noise_blocks(noise.sigma, noise.seed, index, 1))[0])
        _require_finite(value, noise.sigma)
    return value


def measure_bucket(
    pattern_values, scene: SceneImage, noise: NoiseModel, base_index: int = 0
) -> float:
    """One bucket detection of a signed pattern against a scene.

    Signed scenes are themselves split into nonnegative halves, so a bucket
    value takes four projections, combined as (+,+) - (+,-) - (-,+) + (-,-)
    at noise indices 4*base_index + {0..3}. Reflectance scenes are already
    nonnegative and take two projections at 2*base_index + {0, 1}. With
    sigma = 0 the result equals the signed dot product sum(I * X). The
    largest noise index must fit in 64 bits. The bucket is the signed sum
    of its :func:`project` calls, the pattern's plus half first.
    """
    per = 4 if scene.range_tag is RangeTag.SIGNED else 2
    start = per * _measurement_index(base_index, per)
    scene.assert_in_range()
    pairs = itertools.product(_split(_require_normalized(pattern_values)), _projected(scene))
    return _combine([project(p, h, noise, start + j) for j, (p, h) in enumerate(pairs)])


def _factors_for(spec: HybridSpec, scene: SceneImage):
    """The composed factors of ``spec``, once ``scene`` is fit to acquire.

    Both acquisition paths start here: the factor orders must match the
    scene's shape and its values must lie in its declared range.
    """
    left, right = compose_chain(spec)
    if left.order != scene.height or right.order != scene.width:
        raise ShapeError(
            f"spec orders {left.order}x{right.order} do not match "
            f"scene {scene.height}x{scene.width}"
        )
    scene.assert_in_range()
    return left, right


def acquire(spec: HybridSpec, scene: SceneImage, noise: NoiseModel) -> BucketSignals:
    """Simulate the full acquisition loop for one hybridization set.

    Every kept (m, n) pattern is displayed as its two nonnegative halves
    (1 +- v)/2, v = pattern / scale with scale its max-abs, and projected
    against the scene; the bucket value is rescaled by ``scale``. At
    sigma = 0 the result equals L @ X @ R^H exactly (to rounding), with L
    and R the effective truncated factors.

    Per bucket the loop forms the pattern and its product-sum with each
    scene half. Per left row m, array operations take the scales
    max|L_m| * max|R_n| (bit for bit the max-abs: rounding is monotone),
    the projections, the row's noise block (the next of one stream) and the
    signing. A sigma whose noise overflows a bucket raises ParameterError.
    """
    left, right = _factors_for(spec, scene)
    if left.is_complex or right.is_complex:
        raise UnsupportedPatternError("complex transform factors cannot be physically projected")
    peaks_l, peaks_r = (np.abs(f.entries).max(axis=1) for f in (left, right))
    if peaks_l.min() * peaks_r.min() == 0.0:  # the least scale; rounding is monotone
        raise DegeneratePatternError("all-zero pattern cannot be normalized")
    halves = _projected(scene)
    sums = np.array([[h.sum()] for h in halves])
    rows_r = right.kept_rows
    dots = np.empty((len(halves), rows_r))
    buckets = np.empty((left.kept_rows, rows_r))
    blocks = _noise_blocks(noise.sigma, noise.seed, 0, 2 * len(halves) * rows_r)  # one per row
    with np.errstate(over="ignore", invalid="ignore"):
        for m, peak_l in enumerate(peaks_l.tolist()):
            for n in range(rows_r):
                shown = pattern(left, right, m, n)
                for k, h in enumerate(halves):
                    dots[k, n] = (shown * h).sum()
            scale = peak_l * peaks_r
            diffs = dots / scale
            terms = np.concatenate([(sums + diffs) / 2.0, (sums - diffs) / 2.0])
            if noise.sigma > 0.0:
                terms += next(blocks).reshape(rows_r, -1).T  # a bucket's draws per column
            buckets[m] = scale * _combine(terms)
    _require_finite(buckets, noise.sigma)
    return BucketSignals(buckets, noise.sigma, noise.seed, spec)


def acquire_ideal(spec: HybridSpec, scene: SceneImage) -> BucketSignals:
    """Noise-free dense acquisition: Y = L @ X @ R^H.

    This is the math-path counterpart of :func:`acquire`; it also accepts
    complex (DFT) factors, which the physical simulator rejects.
    """
    return BucketSignals(forward(*_factors_for(spec, scene), scene.values), 0.0, 0, spec)
