"""Projector + bucket-detector acquisition simulator.

Physical projectors cannot display negative values, so each signed pattern
I (normalized to [-1, 1]) is split into the nonnegative pair
I_plus = (1 + I) / 2 and I_minus = (1 - I) / 2. Reflectance objects need
two projections per bucket value; signed virtual objects are split the
same way and need four. Detection noise is additive zero-mean Gaussian per
physical projection, drawn as a pure function of (seed, measurement index)
so that parallel and serial acquisition agree bitwise.
"""

import math
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
        # Written so that NaN fails: every comparison with NaN is False.
        if not (lo <= self.values.min() and self.values.max() <= hi):
            raise PatternRangeError(
                f"scene values [{self.values.min():.6g}, {self.values.max():.6g}] "
                f"lie outside the declared {self.range_tag.value} range [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class NoiseModel:
    """Additive zero-mean Gaussian noise per physical projection."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ParameterError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if not 0 <= int(self.seed) <= _MAX_SEED:
            raise ParameterError(f"seed must fit in 64 bits, got {self.seed}")


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


def _noise_draw(sigma: float, seed: int, index: int) -> float:
    # Counter-based so each draw depends only on (seed, index), never on
    # evaluation order.
    bitgen = np.random.Philox(key=seed, counter=[0, 0, 0, index])
    return float(np.random.Generator(bitgen).normal(0.0, sigma))


def _require_real(values, what: str) -> np.ndarray:
    array = np.asarray(values)
    if np.iscomplexobj(array):
        raise UnsupportedPatternError(f"{what} must be real-valued for projection")
    return array.astype(np.float64, copy=False)


def split_pattern(pattern_values) -> tuple[np.ndarray, np.ndarray]:
    """Split a signed pattern into its nonnegative projection pair.

    Returns (plus, minus) with plus = (1 + I)/2 and minus = (1 - I)/2;
    plus - minus reproduces I. Input must already be normalized to [-1, 1].
    """
    values = _require_real(pattern_values, "pattern")
    if np.max(np.abs(values)) > 1.0:
        raise PatternRangeError(
            f"pattern max-abs {np.max(np.abs(values)):.6g} exceeds 1; normalize first"
        )
    return (1.0 + values) / 2.0, (1.0 - values) / 2.0


def normalize_pattern(pattern_values) -> tuple[np.ndarray, float]:
    """Scale a pattern to [-1, 1] by its max-abs value.

    Returns (scaled, scale). Multiplying a bucket signal measured with the
    scaled pattern by ``scale`` recovers the dot product the unscaled
    pattern would have produced.
    """
    values = _require_real(pattern_values, "pattern")
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise DegeneratePatternError("all-zero pattern cannot be normalized")
    return values / scale, scale


def project(
    pattern_values, object_values, noise: NoiseModel, measurement_index: int
) -> float:
    """One physical projection: sum of pattern * object plus a noise draw.

    Both inputs must be nonnegative (they are the split halves). The noise
    draw is fully determined by (noise.seed, measurement_index).
    """
    p = _require_real(pattern_values, "pattern")
    x = _require_real(object_values, "object")
    if p.shape != x.shape:
        raise ShapeError(f"pattern shape {p.shape} != object shape {x.shape}")
    if p.min() < 0.0 or x.min() < 0.0:
        raise PatternRangeError("project() requires nonnegative pattern and object")
    value = float(np.sum(p * x))
    if noise.sigma > 0.0:
        value += _noise_draw(noise.sigma, noise.seed, measurement_index)
    return value


def measure_bucket(
    pattern_values, scene: SceneImage, noise: NoiseModel, base_index: int = 0
) -> float:
    """One bucket detection of a signed pattern against a scene.

    Signed scenes are themselves split into nonnegative halves, so a bucket
    value takes four projections, combined as (+,+) - (+,-) - (-,+) + (-,-)
    at noise indices 4*base_index + {0..3}. Reflectance scenes are already
    nonnegative and take two projections at 2*base_index + {0, 1}. With
    sigma = 0 the result equals the signed dot product sum(I * X).
    """
    # split_pattern rejects a complex pattern and project a shape mismatch.
    scene.assert_in_range()
    plus, minus = split_pattern(pattern_values)
    x = scene.values
    if scene.range_tag is RangeTag.SIGNED:
        x_plus, x_minus = (1.0 + x) / 2.0, (1.0 - x) / 2.0
        base = 4 * base_index
        return (
            project(plus, x_plus, noise, base)
            - project(plus, x_minus, noise, base + 1)
            - project(minus, x_plus, noise, base + 2)
            + project(minus, x_minus, noise, base + 3)
        )
    base = 2 * base_index
    return project(plus, x, noise, base) - project(minus, x, noise, base + 1)


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

    Every kept (m, n) pattern is normalized to [-1, 1], split, projected
    against the scene, and the bucket value rescaled by the normalization
    factor. At sigma = 0 the result equals L @ X @ R^H exactly (to
    rounding), with L and R the effective truncated factors.
    """
    left, right = _factors_for(spec, scene)
    if left.is_complex or right.is_complex:
        raise UnsupportedPatternError(
            "complex transform factors cannot be physically projected"
        )
    rows_r = right.kept_rows
    buckets = np.empty((left.kept_rows, rows_r))
    for m in range(left.kept_rows):
        for n in range(rows_r):
            raw = pattern(left, right, m, n)
            scaled, scale = normalize_pattern(raw)
            buckets[m, n] = scale * measure_bucket(
                scaled, scene, noise, base_index=m * rows_r + n
            )
    return BucketSignals(buckets, noise.sigma, noise.seed, spec)


def acquire_ideal(spec: HybridSpec, scene: SceneImage) -> BucketSignals:
    """Noise-free dense acquisition: Y = L @ X @ R^H.

    This is the math-path counterpart of :func:`acquire`; it also accepts
    complex (DFT) factors, which the physical simulator rejects.
    """
    return BucketSignals(forward(*_factors_for(spec, scene), scene.values), 0.0, 0, spec)
