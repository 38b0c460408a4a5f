"""Test-object generators and image file loading/saving.

All generators are deterministic functions of their parameters. Images are
persisted either as binary 8-bit PGM (P5, values affinely mapped between
the declared range and 0..255) or as full-precision CSV.
"""

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import fileio
from .errors import (
    DegenerateBinarizationError,
    ParameterError,
    UnsupportedPatternError,
)
from .measurement import HybridSpec, compose_chain, forward, pattern
from .metrics import SIGNIFICANCE_REL_TOL, significant
from .simulator import RangeTag, SceneImage
from .transforms import TransformKind


class Orientation(str, Enum):
    HORIZONTAL = "horizontal"  # stripe lines run along rows
    VERTICAL = "vertical"  # stripe lines run along columns


@dataclass(frozen=True)
class StripeSpec:
    """Parameters of a binary staggered-stripe object.

    stripe_period is the pixel length of one full +1/-1 cycle along the
    variation axis (columns for vertical stripes, rows for horizontal).
    The image is divided into bands of band_size pixels along the other
    axis; each band is cyclically shifted by stagger_offset relative to
    the previous one.
    """

    height: int
    width: int
    stripe_period: int
    orientation: Orientation = Orientation.VERTICAL
    stagger_offset: int = 0
    band_size: int = 1

    def __post_init__(self):
        try:
            object.__setattr__(self, "orientation", Orientation(self.orientation))
        except ValueError:
            raise ParameterError(
                f"unknown orientation {self.orientation!r}"
            ) from None


def _square_wave(t: np.ndarray, period: int) -> np.ndarray:
    return np.where((t % period) < period // 2, 1.0, -1.0)


def staggered_stripes(spec: StripeSpec) -> SceneImage:
    """Binary (+1/-1) staggered square-wave stripes."""
    if spec.height < 1 or spec.width < 1:
        raise ParameterError(f"bad dimensions {spec.height}x{spec.width}")
    if spec.stripe_period < 2 or spec.stripe_period % 2 != 0:
        raise ParameterError(
            f"stripe_period must be a positive even integer, got {spec.stripe_period}"
        )
    along = spec.width if spec.orientation is Orientation.VERTICAL else spec.height
    if spec.stripe_period > along:
        raise ParameterError(
            f"stripe_period {spec.stripe_period} exceeds the striped dimension {along}"
        )
    if spec.band_size < 1:
        raise ParameterError(f"band_size must be positive, got {spec.band_size}")
    rows = np.arange(spec.height)
    cols = np.arange(spec.width)
    if spec.orientation is Orientation.VERTICAL:
        shift = (rows // spec.band_size) * spec.stagger_offset
        phase = cols[None, :] + shift[:, None]
    else:
        shift = (cols // spec.band_size) * spec.stagger_offset
        phase = rows[:, None] + shift[None, :]
    return SceneImage(_square_wave(phase, spec.stripe_period), RangeTag.SIGNED)


def separable_object(left, right, m: int, n: int, binarize: bool = False) -> SceneImage:
    """Outer product of one left row and one right row, scaled to max-abs 1.

    Acquiring such a scene with the same factor pair concentrates all
    signal in the single bucket (m, n). With binarize=True the sign of
    each value is taken, which preserves separability only when both rows
    are two-valued; rows containing zeros are rejected.
    """
    values = pattern(left, right, m, n)
    if np.iscomplexobj(values):
        raise UnsupportedPatternError("separable objects require real factor rows")
    if binarize:
        # An entry of the outer product is zero exactly where a row has one.
        if np.any(values == 0.0):
            raise DegenerateBinarizationError(
                "cannot binarize an outer product of rows containing zeros"
            )
        values = np.sign(values)
    else:
        values = values / np.max(np.abs(values))
    return SceneImage(values, RangeTag.SIGNED)


def windmill(height: int, width: int, blade_count: int) -> SceneImage:
    """Binary 0/1 wheel of blade_count bright angular sectors.

    Sectors of angular width pi/blade_count alternate bright and dark
    around the image center, inside the inscribed disk; everything else is
    dark. A small dark hub covers the center, where the dark wedges thin
    out below one pixel, so the blades stay disjoint on the pixel grid.
    A blade_count whose hub covers the whole disk is rejected.
    """
    if blade_count < 2:
        raise ParameterError(f"blade_count must be >= 2, got {blade_count}")
    if height < 8 or width < 8:
        raise ParameterError(f"image must be at least 8x8, got {height}x{width}")
    ci, cj = (height - 1) / 2.0, (width - 1) / 2.0
    radius = min(height, width) / 2.0
    hub = max(2.0, 1.5 * blade_count / math.pi)
    if hub > radius:
        raise ParameterError(f"blade_count {blade_count} leaves no blade: its hub covers the wheel")
    di = np.arange(height)[:, None] - ci
    dj = np.arange(width)[None, :] - cj
    dist_sq = di * di + dj * dj
    inside = (dist_sq <= radius * radius) & (dist_sq >= hub * hub)
    theta = np.mod(np.arctan2(di, dj), 2.0 * math.pi)
    sector = np.floor(theta / (math.pi / blade_count)).astype(int)
    bright = (sector % 2 == 0) & inside
    return SceneImage(bright.astype(np.float64), RangeTag.REFLECTANCE)


def single_peak_stripe_search(
    height: int, width: int, sets: list[tuple[TransformKind | str, TransformKind | str]]
) -> list[StripeSpec]:
    """Sweep stripe parameters for configs compressing to a single bucket.

    Returns every candidate StripeSpec whose noiseless bucket matrix has
    exactly one significant entry (at SIGNIFICANCE_REL_TOL) for all of the
    given (left, right) transform kind pairs, in deterministic sweep order.
    The forward model is evaluated densely, which is equivalent to
    noiseless acquisition.
    """
    periods = [p for p in (2, 4, 8, 16, 32, 64) if p <= max(height, width)]
    band_sizes = [b for b in (1, 2, 4, 8, 16, 32) if b <= max(height, width)]
    offsets = sorted({0} | {p // 2 for p in periods} | {p // 4 for p in periods})

    pairs = [compose_chain(HybridSpec.pair(left, height, right, width))
             for left, right in sets]

    found = []
    for orientation in (Orientation.HORIZONTAL, Orientation.VERTICAL):
        along = height if orientation is Orientation.HORIZONTAL else width
        for period in periods:
            if period > along:
                continue
            for band in band_sizes:
                for offset in offsets:
                    spec = StripeSpec(height, width, period, orientation, offset, band)
                    x = staggered_stripes(spec).values
                    if all(
                        significant(forward(left, right, x), SIGNIFICANCE_REL_TOL)[1].sum() == 1
                        for left, right in pairs
                    ):
                        found.append(spec)
    return found


def load_image(path, declared_range: RangeTag | str) -> SceneImage:
    """Load a PGM or CSV image, tagging it with the declared range.

    PGM bytes 0..255 are mapped affinely onto the declared range; CSV
    files store raw values and are loaded exactly.
    """
    declared_range = RangeTag(declared_range)
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        raw = fileio.read_pgm(path)
        lo, hi = declared_range.bounds
        values = lo + (raw.astype(np.float64) / 255.0) * (hi - lo)
    else:
        values = fileio.read_csv_matrix(path)
        if np.iscomplexobj(values):
            raise UnsupportedPatternError(f"{path}: scenes must be real-valued")
    return SceneImage(values, declared_range)


def save_image(scene: SceneImage, path) -> None:
    """Save a scene as PGM (quantized, clipped to range) or CSV (exact)."""
    if Path(path).suffix.lower() == ".pgm":
        if not np.isfinite(scene.values).all():  # only a loaded scene can hold a NaN or an Inf
            raise ParameterError("a PGM image needs finite values, got a NaN or infinite value")
        lo, hi = scene.range_tag.bounds
        # rint((clipped - lo) / (hi - lo) * 255), op for op in the clip buffer
        level = np.clip(scene.values, lo, hi)
        level -= lo
        level /= hi - lo
        level *= 255.0
        raw = np.rint(level, out=level).astype(np.uint8)
        fileio.write_pgm(path, raw)
    else:
        fileio.write_csv_matrix(path, scene.values)
