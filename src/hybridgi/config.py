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
    HybridSpec,
    as_file_name,
    as_int,
    as_number,
    as_object,
    check_kind,
    fields,
    one_of,
    resolve_kept_rows,  # re-exported: the config schema's rate rule
)
from .scenes import (
    Orientation, StripeSpec, load_image, separable_object, staggered_stripes, windmill,
)
from .simulator import NoiseModel, RangeTag, SceneImage
from .transforms import TransformKind, build_transform


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _separable(left_kind, left_order, right_kind, right_order, row, col, **options):
    left, right = build_transform(left_kind, left_order), build_transform(right_kind, right_order)
    return separable_object(left, right, row, col, **options)


# Per generator: its builder and the checks of its required and of its
# optional fields. An optional field's default lives on the builder. A
# builder looks its generator up by name when called, so that a function
# rebound on this module, such as a test's fake or a timing wrapper, is used.
GENERATORS = {
    "stripes": (
        lambda **p: staggered_stripes(StripeSpec(**p)),
        {"height": as_int, "width": as_int, "stripe_period": as_int},
        {"orientation": one_of(tuple(o.value for o in Orientation), "orientation"),
         "stagger_offset": as_int, "band_size": as_int},
    ),
    "windmill": (
        lambda **p: windmill(**p), {"height": as_int, "width": as_int, "blade_count": as_int}, {}
    ),
    "separable": (
        _separable,
        {"left_kind": check_kind, "left_order": as_int, "right_kind": check_kind,
         "right_order": as_int, "row": as_int, "col": as_int},
        {"binarize": _flag},
    ),
}
_GENERATOR = one_of(tuple(GENERATORS), "generator")
_RANGE = one_of(tuple(r.value for r in RangeTag), "range")


@dataclass(frozen=True)
class ObjectSpec:
    """The checked object section: a generator and its parameters, or a path and a range."""

    section: dict

    def build(self, base_dir: Path | None = None) -> SceneImage:
        params = dict(self.section)
        if "path" in params:
            path = Path(params["path"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return load_image(path, RangeTag(params["range"]))
        # A generator is a pure function of its parameters, so whatever it
        # rejects is a fault of the object section.
        try:
            return GENERATORS[params.pop("generator")][0](**params)
        except (HybridGIError, IndexError, OverflowError, ValueError) as exc:
            raise ConfigError("object", str(exc)) from exc


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
    """A parsed config: one field per section, named by its schema key."""

    object: ObjectSpec
    hybrid: HybridSpec
    noise: NoiseModel = field(default_factory=NoiseModel)
    metrics: dict = field(default_factory=dict)  # quality_report's keywords
    outputs: OutputPaths = field(default_factory=OutputPaths)
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def uses_dft(self) -> bool:
        return any(
            entry.kind is TransformKind.DFT
            for entry in self.hybrid.left_chain + self.hybrid.right_chain
        )


def _parse_object(data, path: str) -> ObjectSpec:
    if "path" in as_object(data, path):
        return ObjectSpec(fields(data, path, {"path": as_file_name, "range": _RANGE}, {}))
    generator = data.get("generator")
    # An unknown generator has no fields; the check of its name rejects it.
    # The name is any JSON value, so membership is a tuple test: a list won't hash.
    required, optional = GENERATORS[generator][1:] if generator in tuple(GENERATORS) else ({}, {})
    return ObjectSpec(fields(data, path, {"generator": _GENERATOR, **required}, optional))


def _section(cls, checks: dict):
    """The check of a section of optional fields, which builds a ``cls``."""
    def check(value, path: str):
        values = fields(value, path, {}, checks)
        try:
            return cls(**values)
        except HybridGIError as exc:
            raise ConfigError(path, str(exc)) from exc
    return check


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


SECTIONS = {
    "noise": _section(NoiseModel, {"sigma": as_number, "seed": as_int}),
    "metrics": lambda value, path: fields(
        value, path, {}, {"roi": _roi, "peak": _peak, "rel_tol": _positive}
    ),
    "outputs": _section(OutputPaths, dict.fromkeys(asdict(OutputPaths()), as_file_name)),
}


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict and resolve it into an ExperimentConfig."""
    required = {"object": _parse_object, "hybrid": HybridSpec.from_dict}
    config = ExperimentConfig(**fields(data, "", required, SECTIONS), raw=data)
    if config.uses_dft and config.noise.sigma != 0.0:
        raise ConfigError(
            "noise.sigma", "dft factors require sigma = 0 (ideal acquisition only)"
        )
    return config


def with_overrides(data: dict, sigma: float | None = None, seed: int | None = None) -> dict:
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
