"""Image recovery by inverse orthogonal transforms.

All recovery here is plain transform inversion: conjugate-transposed left
factors, untransposed right factors. Under truncation the result is the
orthogonal projection of the true image onto the kept row subspaces.
Reconstructed values are not clipped to the object's declared range;
clipping only happens at display export.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ShapeError, ValueOverflowError
from .measurement import HybridSpec, as_factor, backward, compose_chain, forward
from .simulator import RangeTag, SceneImage
from .transforms import TransformMatrix


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered image plus a forward-model residual diagnostic.

    residual_norm is ||Y - L @ X' @ R^H||_F over the kept rows, X' the
    returned real image, or None if not asked for. For real factors
    L X' R^H = (L L^T) Y (R R^T), so it is about the orthonormality defect
    times ||Y|| at any sampling or noise; for complex ones it adds what the
    dropped imaginary part carried.
    """

    image: SceneImage
    spec: HybridSpec | None
    residual_norm: float | None


def reconstruct_1d(a, y) -> np.ndarray:
    """One-dimensional recovery x' = A^H @ y."""
    entries = a.entries if isinstance(a, TransformMatrix) else np.asarray(a)
    y = np.asarray(y)
    if y.ndim != 1 or y.size != entries.shape[0]:
        raise ShapeError(
            f"bucket vector of length {y.size} does not match "
            f"{entries.shape[0]} measurement rows"
        )
    return entries.conj().T @ y


def reconstruct_2d(
    left, right, y, range_tag: RangeTag = RangeTag.SIGNED, residual: bool = True
) -> ReconstructionResult:
    """Recovery X' = L^H @ Y @ R from full or truncated factors.

    With full orthonormal factors and noiseless buckets this reproduces
    the object exactly. With truncated factors (sub-Nyquist sampling) the
    output keeps the full image dimensions and, for noiseless buckets,
    equals the projection L_t^H @ L_t @ X @ R_t^H @ R_t of the true image.
    Complex factors yield a real image (the real part); any complex
    residue shows up in residual_norm. ``residual=False`` forms no forward
    image and leaves residual_norm None. Finite buckets whose recovery or
    its forward image leaves the float range raise ValueOverflowError.
    """
    left, right = as_factor(left), as_factor(right)
    values = np.asarray(getattr(y, "values", y))
    if values.shape != (left.kept_rows, right.kept_rows):
        raise ShapeError(
            f"bucket shape {values.shape} does not match kept rows "
            f"{left.kept_rows}x{right.kept_rows}"
        )
    if not np.isfinite(values).all():
        raise ParameterError("bucket values must be finite, got a NaN or infinite value")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        image = SceneImage(backward(left, right, values), range_tag)
        fitted = forward(left, right, image.values) if residual else None
    if not (np.isfinite(image.values).all() and (fitted is None or np.isfinite(fitted).all())):
        raise ValueOverflowError("the reconstruction of the buckets overflows")
    if fitted is None:
        return ReconstructionResult(image, None, None)
    # The norm squares its entries: scale them below 2 by a power of two, which rounds nothing.
    largest = max(np.abs(values).max(), np.abs(fitted).max())
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
    fitted /= scale
    misfit = np.divide(values, scale, out=np.empty(values.shape, np.result_type(values, fitted)))
    misfit -= fitted  # values / scale - fitted, in one buffer that may be complex
    return ReconstructionResult(image, None, scale * float(np.linalg.norm(misfit)))


def reconstruct_chain(
    spec: HybridSpec, y, range_tag: RangeTag = RangeTag.SIGNED, factors=None, residual=True
) -> ReconstructionResult:
    """Invert a chained forward model via its composed factors (``factors``, if given)."""
    factors = compose_chain(spec) if factors is None else factors
    return replace(reconstruct_2d(*factors, y, range_tag, residual), spec=spec)
