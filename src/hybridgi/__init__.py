"""Desk-scale computational ghost imaging with hybrid orthonormal transforms.

Measurement matrices are Kronecker products of per-axis transform factors
(Hadamard, DCT-II, Haar, DFT, or chains thereof). The package simulates the
projector / bucket-detector acquisition, reconstructs images by inverse
transforms under full and sub-Nyquist sampling, and scores the results.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ChainCompositionError,
    ConfigError,
    DegenerateBinarizationError,
    DegeneratePatternError,
    HybridGIError,
    ImageParseError,
    InvalidOrderError,
    ParameterError,
    PatternRangeError,
    ResourceLimitError,
    ShapeError,
    UnsupportedPatternError,
)
from .measurement import (
    ChainEntry,
    FootprintReport,
    HybridSpec,
    compose_chain,
    footprint_report,
    kron,
    pattern,
    truncate,
    unvec,
    vec_rows,
)
from .metrics import (
    QualityReport,
    count_significant,
    mse,
    psnr,
    quality_report,
    ssim,
    ssim_reference,
)
from .reconstruct import (
    ReconstructionResult,
    reconstruct_1d,
    reconstruct_2d,
    reconstruct_chain,
)
from .scenes import (
    Orientation,
    StripeSpec,
    load_image,
    save_image,
    separable_object,
    single_peak_stripe_search,
    staggered_stripes,
    windmill,
)
from .simulator import (
    BucketSignals,
    NoiseModel,
    RangeTag,
    SceneImage,
    acquire,
    acquire_ideal,
    combined_noise,
    measure_bucket,
    noise_free,
    normalize_pattern,
    project,
    split_pattern,
)
from .transforms import (
    TransformKind,
    TransformMatrix,
    build_transform,
    orthonormality_defect,
)

__version__ = "0.1.0"

# The public API is every name imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
