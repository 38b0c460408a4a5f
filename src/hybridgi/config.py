"""Experiment configuration: JSON schema, validation, and resolution.

A config fully determines one experiment run: the object (generated or
loaded from file), the hybridization spec, the noise model, the metric
options, and the output paths. Validation failures raise ConfigError with
the offending field path.
"""

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, HybridGIError
from .measurement import (
    CONFIG_KINDS,
    HybridSpec,
    as_int,
    as_number,
    require_field,
    resolve_kept_rows,  # re-exported: the config schema's rate rule
)
from .scenes import StripeSpec, separable_object, staggered_stripes, windmill
from .simulator import NoiseModel, RangeTag, SceneImage
from .transforms import TransformKind, build_transform
from . import scenes

GENERATORS = ("stripes", "windmill", "separable")


@dataclass(frozen=True)
class ObjectSpec:
    """Either a generator with parameters or a file path with a range."""

    generator: str | None
    params: dict
    path: str | None
    declared_range: RangeTag | None

    def build(self, base_dir: Path | None = None) -> SceneImage:
        if self.path is not None:
            path = Path(self.path)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return scenes.load_image(path, self.declared_range)
        p = self.params
        if self.generator == "stripes":
            return staggered_stripes(
                StripeSpec(
                    height=p["height"],
                    width=p["width"],
                    stripe_period=p["stripe_period"],
                    orientation=p.get("orientation", "vertical"),
                    stagger_offset=p.get("stagger_offset", 0),
                    band_size=p.get("band_size", 1),
                )
            )
        if self.generator == "windmill":
            return windmill(p["height"], p["width"], p["blade_count"])
        left = build_transform(p["left_kind"], p["left_order"])
        right = build_transform(p["right_kind"], p["right_order"])
        return separable_object(
            left, right, p["row"], p["col"], p.get("binarize", False)
        )


@dataclass(frozen=True)
class MetricOptions:
    roi: tuple[int, int, int, int] | None = None
    peak: float | None = None
    rel_tol: float = 1e-6


@dataclass(frozen=True)
class OutputPaths:
    image: str = "reconstruction.pgm"
    buckets: str = "buckets.csv"
    report: str = "report.json"
    object_path: str = "object.pgm"

    def resolved(self, out_dir: Path) -> "OutputPaths":
        def under(p: str) -> str:
            path = Path(p)
            return str(path if path.is_absolute() else out_dir / path)

        return OutputPaths(
            image=under(self.image),
            buckets=under(self.buckets),
            report=under(self.report),
            object_path=under(self.object_path),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    object_spec: ObjectSpec
    hybrid: HybridSpec
    noise: NoiseModel
    metric_options: MetricOptions = field(default_factory=MetricOptions)
    outputs: OutputPaths = field(default_factory=OutputPaths)
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def uses_dft(self) -> bool:
        return any(
            entry.kind is TransformKind.DFT
            for entry in self.hybrid.left_chain + self.hybrid.right_chain
        )


def _parse_object(data, path: str) -> ObjectSpec:
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object section")
    if "path" in data:
        range_name = require_field(data, "range", path)
        try:
            declared = RangeTag(range_name)
        except ValueError:
            raise ConfigError(
                f"{path}.range", f"unknown range {range_name!r}"
            ) from None
        return ObjectSpec(None, {}, str(data["path"]), declared)
    generator = require_field(data, "generator", path)
    if generator not in GENERATORS:
        raise ConfigError(
            f"{path}.generator", f"unknown generator {generator!r}; one of {GENERATORS}"
        )
    required = {
        "stripes": ("height", "width", "stripe_period"),
        "windmill": ("height", "width", "blade_count"),
        "separable": ("left_kind", "left_order", "right_kind", "right_order", "row", "col"),
    }[generator]
    for key in required:
        require_field(data, key, path)
    int_fields = {
        "height", "width", "stripe_period", "stagger_offset", "band_size",
        "blade_count", "left_order", "right_order", "row", "col",
    }
    for key, value in data.items():
        if key in int_fields:
            as_int(value, f"{path}.{key}")
        elif key == "orientation" and value not in ("horizontal", "vertical"):
            raise ConfigError(f"{path}.orientation", f"unknown orientation {value!r}")
        elif key in ("left_kind", "right_kind") and value not in CONFIG_KINDS:
            raise ConfigError(f"{path}.{key}", f"unknown kind {value!r}")
    params = {k: v for k, v in data.items() if k != "generator"}
    return ObjectSpec(generator, params, None, None)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict and resolve it into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    object_spec = _parse_object(require_field(data, "object", "<root>"), "object")

    hybrid = HybridSpec.from_dict(require_field(data, "hybrid", "<root>"))

    noise_data = data.get("noise", {})
    if not isinstance(noise_data, dict):
        raise ConfigError("noise", "expected an object")
    sigma = as_number(noise_data.get("sigma", 0.0), "noise.sigma")
    seed = noise_data.get("seed", 0)
    seed = as_int(seed, "noise.seed")
    try:
        noise = NoiseModel(sigma, seed)
    except HybridGIError as exc:
        raise ConfigError("noise", str(exc)) from exc

    metrics_data = data.get("metrics", {})
    if not isinstance(metrics_data, dict):
        raise ConfigError("metrics", "expected an object")
    roi = metrics_data.get("roi")
    if roi is not None:
        if not (isinstance(roi, list) and len(roi) == 4):
            raise ConfigError("metrics.roi", "expected [top, left, height, width]")
        roi = tuple(as_int(v, f"metrics.roi[{i}]") for i, v in enumerate(roi))
    peak = metrics_data.get("peak")
    if peak is not None:
        peak = as_number(peak, "metrics.peak")
        if peak <= 0:
            raise ConfigError("metrics.peak", f"must be positive, got {peak}")
    rel_tol = as_number(metrics_data.get("rel_tol", 1e-6), "metrics.rel_tol")
    if rel_tol <= 0:
        raise ConfigError("metrics.rel_tol", f"must be positive, got {rel_tol}")
    options = MetricOptions(roi=roi, peak=peak, rel_tol=rel_tol)

    outputs_data = data.get("outputs", {})
    if not isinstance(outputs_data, dict):
        raise ConfigError("outputs", "expected an object")
    outputs = OutputPaths(
        image=str(outputs_data.get("image", "reconstruction.pgm")),
        buckets=str(outputs_data.get("buckets", "buckets.csv")),
        report=str(outputs_data.get("report", "report.json")),
        object_path=str(outputs_data.get("object", "object.pgm")),
    )

    config = ExperimentConfig(object_spec, hybrid, noise, options, outputs, raw=data)
    if config.uses_dft and sigma != 0.0:
        raise ConfigError(
            "noise.sigma", "dft factors require sigma = 0 (ideal acquisition only)"
        )
    return config


def with_overrides(
    data: dict, sigma: float | None = None, seed: int | None = None
) -> dict:
    """Apply CLI --sigma/--seed overrides to a raw config dict."""
    overrides = {
        key: value for key, value in (("sigma", sigma), ("seed", seed))
        if value is not None
    }
    # A malformed config or noise section is left for parse_config to report.
    noise = data.get("noise", {}) if isinstance(data, dict) else None
    if not overrides or not isinstance(noise, dict):
        return data
    return {**data, "noise": {**noise, **overrides}}
