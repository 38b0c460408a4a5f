"""Experiment configuration: JSON schema, validation, and resolution.

A config fully determines one experiment run: the object (generated or
loaded from file), the hybridization spec, the noise model, the metric
options, and the output paths. Validation failures raise ConfigError with
the offending field path.
"""

from dataclasses import asdict, dataclass, field
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
from .metrics import SIGNIFICANCE_REL_TOL
from .scenes import Orientation, StripeSpec, separable_object, staggered_stripes, windmill
from .simulator import NoiseModel, RangeTag, SceneImage
from .transforms import TransformKind, build_transform
from . import scenes

# Per generator: (required fields, optional fields). An optional field's
# default lives on the generator's own signature.
GENERATOR_FIELDS = {
    "stripes": (("height", "width", "stripe_period"),
                ("orientation", "stagger_offset", "band_size")),
    "windmill": (("height", "width", "blade_count"), ()),
    "separable": (("left_kind", "left_order", "right_kind", "right_order", "row", "col"),
                  ("binarize",)),
}
GENERATORS = tuple(GENERATOR_FIELDS)


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
        p = dict(self.params)
        # A generator is a pure function of its parameters, so whatever it
        # rejects is a fault of the object section.
        try:
            if self.generator == "stripes":
                return staggered_stripes(StripeSpec(**p))
            if self.generator == "windmill":
                return windmill(**p)
            left = build_transform(p.pop("left_kind"), p.pop("left_order"))
            right = build_transform(p.pop("right_kind"), p.pop("right_order"))
            return separable_object(left, right, p.pop("row"), p.pop("col"), **p)
        except (HybridGIError, IndexError) as exc:
            raise ConfigError("object", str(exc)) from exc


@dataclass(frozen=True)
class MetricOptions:
    roi: tuple[int, int, int, int] | None = None
    peak: float | None = None
    rel_tol: float = SIGNIFICANCE_REL_TOL


@dataclass(frozen=True)
class OutputPaths:
    image: str = "reconstruction.pgm"
    buckets: str = "buckets.csv"
    report: str = "report.json"
    object: str = "object.pgm"

    def resolved(self, out_dir: Path) -> "OutputPaths":
        def under(p: str) -> str:
            path = Path(p)
            return str(path if path.is_absolute() else out_dir / path)

        return OutputPaths(**{name: under(p) for name, p in asdict(self).items()})


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
    required, optional = GENERATOR_FIELDS[generator]
    for key in required:
        require_field(data, key, path)
    params = {k: v for k, v in data.items() if k != "generator"}
    for key, value in params.items():
        if key not in required + optional:
            raise ConfigError(
                f"{path}.{key}", f"unknown field for the {generator} generator"
            )
        _check_object_field(key, value, f"{path}.{key}")
    return ObjectSpec(generator, params, None, None)


def _check_object_field(key: str, value, path: str) -> None:
    if key == "orientation":
        if value not in tuple(Orientation):
            raise ConfigError(path, f"unknown orientation {value!r}")
    elif key.endswith("_kind"):
        if value not in CONFIG_KINDS:
            raise ConfigError(path, f"unknown kind {value!r}")
    elif key == "binarize":
        if not isinstance(value, bool):
            raise ConfigError(path, f"expected true or false, got {value!r}")
    else:
        as_int(value, path)


def _fields(data: dict, section: str, checks: dict) -> dict:
    """The checked value of each field of ``checks`` that ``section`` holds.

    A field left out keeps the default of the dataclass it is passed to.
    """
    values = data.get(section, {})
    if not isinstance(values, dict):
        raise ConfigError(section, "expected an object")
    return {
        key: check(values[key], f"{section}.{key}")
        for key, check in checks.items()
        if key in values
    }


def _positive(value, path: str) -> float:
    number = as_number(value, path)
    if number <= 0:
        raise ConfigError(path, f"must be positive, got {number}")
    return number


def _peak(value, path: str) -> float | None:
    return None if value is None else _positive(value, path)


def _roi(value, path: str):
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 4):
        raise ConfigError(path, "expected [top, left, height, width]")
    return tuple(as_int(v, f"{path}[{i}]") for i, v in enumerate(value))


def _file_name(value, path: str) -> str:
    if not (isinstance(value, str) and value):
        raise ConfigError(path, f"expected a non-empty file name, got {value!r}")
    return value


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict and resolve it into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    object_spec = _parse_object(require_field(data, "object", "<root>"), "object")

    hybrid = HybridSpec.from_dict(require_field(data, "hybrid", "<root>"))

    noise_fields = _fields(data, "noise", {"sigma": as_number, "seed": as_int})
    try:
        noise = NoiseModel(**noise_fields)
    except HybridGIError as exc:
        raise ConfigError("noise", str(exc)) from exc
    options = MetricOptions(
        **_fields(data, "metrics", {"roi": _roi, "peak": _peak, "rel_tol": _positive})
    )
    names = dict.fromkeys(asdict(OutputPaths()), _file_name)
    outputs = OutputPaths(**_fields(data, "outputs", names))

    config = ExperimentConfig(object_spec, hybrid, noise, options, outputs, raw=data)
    if config.uses_dft and noise.sigma != 0.0:
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
