"""Config-driven experiment runner.

Subcommands: gen-object, acquire, reconstruct, metrics, run, sweep,
footprint, demo-stripes. Each handler returns the text it has to say; only
``main`` writes: it prints that text unless --quiet, and turns each failure
into one stderr line and its exit code: 1 config or usage error, 2 I/O
error, 3 numeric/domain error, running out of memory included (0 is success).
"""

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

from . import fileio, scenes
from .config import ExperimentConfig, OutputPaths, parse_config, parse_object, with_overrides
from .errors import (ConfigError, HybridGIError, ImageParseError, ParameterError,
                     ResourceLimitError, ValueOverflowError)
from .measurement import (HybridSpec, as_file_name, as_object, compose_chain, fields,
                          footprint_report, forward)
from .metrics import (SIGNIFICANCE_REL_TOL, count_significant, quality_report, require_ssim_region,
                      ssim_reference)
from .reconstruct import reconstruct_chain
from .simulator import (NoiseModel, SceneImage, acquire, acquire_ideal, combined_noise,
                        noise_free, require_orders)
from .transforms import build_transform

EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


# Each axis of a sweep's "vary", and the config field that its values set.
VARY_AXES = {"hybrid_sets": "hybrid", "sigmas": "sigma", "seeds": "seed"}
SWEEP_FIELDS = (
    "index", "set", "sampling_rate", "sigma", "seed",
    "status", "psnr_db", "ssim", "mse", "significant_count", "message",
)


def _read_config_json(args) -> tuple[object, Path]:
    """The parsed --config file and the directory it lives in."""
    if not args.config:
        raise ConfigError("--config", "a config file is required for this command")
    config_path = Path(args.config)
    try:
        return json.loads(config_path.read_text()), config_path.parent
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(str(config_path), f"invalid JSON: {exc}") from exc


def _out_dir(args) -> Path:
    return Path(args.out) if args.out else Path.cwd()


def _noise_flags(args) -> dict:
    """The --sigma and --seed that a command which takes them was given."""
    return {k: v for k in ("sigma", "seed") if (v := getattr(args, k, None)) is not None}


def _load_stage(args) -> tuple[ExperimentConfig, SceneImage, OutputPaths]:
    """A stage command's config, the object it describes, and its output paths."""
    data, base_dir = _read_config_json(args)
    config = parse_config(with_overrides(data, **_noise_flags(args)))
    scene = config.object.build(base_dir)
    return config, scene, config.outputs.resolved(_out_dir(args))


def _fit(config: ExperimentConfig, scene: SceneImage, build=None):
    """The set's composed pair and noise-free terms, once each check passes, each once and in
    this order: the scene's range, its SSIM region, the set's orders (before any build), then
    the set's own (``noise_free``)."""
    scene.assert_in_range()
    require_ssim_region(scene, config.metrics.get("roi"))
    require_orders(config.hybrid, scene)
    factors = compose_chain(config.hybrid, build)
    return factors, (forward if config.uses_dft else noise_free)(*factors, scene.values)


def _acquire(config: ExperimentConfig, scene: SceneImage, clean=None, combined=None):
    if config.uses_dft:
        return acquire_ideal(config.hybrid, scene, clean)
    return acquire(config.hybrid, scene, config.noise, clean, combined)


def _summary_line(config: ExperimentConfig, report) -> str:
    return (
        f"{config.hybrid.label} rate={config.hybrid.sampling_rate:.3f} "
        f"psnr={report.psnr_db:.2f} ssim={report.ssim:.4f} "
        f"significant={report.significant_count}"
    )


def _write_report(config: ExperimentConfig, path, report, **extra) -> None:
    fileio.write_json(
        path,
        {
            "set": config.hybrid.label,
            "sampling_rate": config.hybrid.sampling_rate,
            "quality": report.to_dict(),
            "config": config.raw,
            **extra,
        },
    )


def _write_reconstruction(image: SceneImage, paths: OutputPaths) -> None:
    """The display image plus the exact CSV beside it, written once when they are one file."""
    if paths.image != paths.image_csv:
        scenes.save_image(image, paths.image)
    fileio.write_csv_matrix(paths.image_csv, image.values)


class SweepTerms:
    """What the rows of one ``sweep`` call share, each let go before the next of its kind is
    made. For the whole sweep: ``build``, a memo of build_transform that holds at most one
    matrix per kind at each of the scene's two orders (a set is composed once it fits), and
    ``checked``, parse_config's checked sections. For a run of rows of the set ``composed``:
    ``fit``, its _fit terms. For the seed and kept rows of the last noisy row, ``noise_key``:
    ``noises``, a combined_noise per nonzero sigma. From the first fit on: ``prepared``, the
    ssim_reference of the scene and roi, which no axis varies (_fit has checked the region)."""

    def __init__(self):
        self.build, self.checked, self.noises = functools.cache(build_transform), {}, {}
        self.composed = self.fit = self.noise_key = self.prepared = None

    def row(self, config: ExperimentConfig, scene: SceneImage) -> tuple:
        """A row's composed pair, noise-free terms, combined noise and prepared reference."""
        if config.hybrid != self.composed:  # rows run set by set
            self.composed = self.fit = None  # the last set's terms go before the next fit
            self.fit, self.composed = _fit(config, scene, self.build), config.hybrid
            self.prepared = self.prepared or ssim_reference(scene, config.metrics.get("roi"))
        noise = config.noise
        key = (noise.seed, config.hybrid.left_kept, config.hybrid.right_kept)
        if noise.sigma > 0.0 and key != self.noise_key:  # the last key's go before the next
            self.noises, self.noise_key = {}, key
        if noise.sigma > 0.0 and noise.sigma not in self.noises:
            self.noises[noise.sigma] = combined_noise(noise, scene.range_tag.projections, *key[1:])
        return (*self.fit, self.noises.get(noise.sigma), self.prepared)


def run_experiment(config: ExperimentConfig, scene: SceneImage, shared: SweepTerms | None = None):
    """Full pipeline: acquire -> reconstruct -> score. Writes no file.

    Both stages share compose_chain(config.hybrid)'s pair, and the acquisition adds the noise
    to its noise-free terms. ``run`` leaves ``shared`` out: made here by ``_fit``, they go once
    used. A ``sweep`` row takes them from ``shared`` and takes no residual, which its table
    does not print: result.residual_norm is None. A stage that runs out of memory raises
    ResourceLimitError, naming the set and the scene's size."""
    try:
        if shared is None:
            (factors, clean), combined, prepared = _fit(config, scene), None, None
        else:
            factors, clean, combined, prepared = shared.row(config, scene)
        buckets = _acquire(config, scene, clean, combined)
        del clean  # a run's own noise-free terms go before the recovery
        result = reconstruct_chain(config.hybrid, buckets, scene.range_tag, factors, shared is None)
        del factors
        report = quality_report(scene, result.image, buckets=buckets, prepared=prepared,
                                **config.metrics)
    except ValueOverflowError as exc:  # a scene lies in its range: only noise overflows
        raise ValueOverflowError(f"sigma {config.noise.sigma} is too large: {exc}") from exc
    except MemoryError:
        raise ResourceLimitError(f"{config.hybrid.label} on a {scene.height}x{scene.width} "
                                 "scene does not fit in memory") from None
    return scene, buckets, result, report


def cmd_run(args) -> str:
    config, scene, paths = _load_stage(args)
    _, buckets, result, report = run_experiment(config, scene)
    fileio.write_buckets(paths.buckets, buckets)
    _write_reconstruction(result.image, paths)
    _write_report(config, paths.report, report, residual_norm=result.residual_norm)
    return _summary_line(config, report)


def cmd_gen_object(args) -> str:
    _, scene, paths = _load_stage(args)
    scenes.save_image(scene, paths.object)
    return f"object {scene.height}x{scene.width} -> {paths.object}"


def cmd_acquire(args) -> str:
    config, scene, paths = _load_stage(args)
    buckets = _acquire(config, scene)
    fileio.write_buckets(paths.buckets, buckets)
    rows, cols = buckets.values.shape
    return f"{config.hybrid.label} buckets {rows}x{cols} -> {paths.buckets}"


def cmd_reconstruct(args) -> str:
    _, scene, paths = _load_stage(args)
    buckets = fileio.read_buckets(paths.buckets)
    result = reconstruct_chain(buckets.spec, buckets, range_tag=scene.range_tag)
    _write_reconstruction(result.image, paths)
    return f"reconstruction residual={result.residual_norm:.3e} -> {paths.image}"


def cmd_metrics(args) -> str:
    config, scene, paths = _load_stage(args)
    recon = fileio.read_finite_matrix(paths.image_csv)
    if recon.dtype.kind == "c":  # a reconstruction is real: a complex token marks a corrupt file
        raise ImageParseError(f"{paths.image_csv}: complex value in a real image")
    if recon.shape != scene.values.shape:  # a cut row or column marks one too
        raise ImageParseError(f"{paths.image_csv}: image shape {recon.shape} does not match "
                              f"the object's {scene.values.shape}")
    buckets = fileio.read_buckets(paths.buckets)
    report = quality_report(scene, recon, buckets=buckets, **config.metrics)
    _write_report(config, paths.report, report)
    return _summary_line(config, report)


def _axis(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list")
    return value


def cmd_sweep(args) -> str:
    data, base_dir = _read_config_json(args)
    # Only the top level is checked here; each row's config is checked as it runs.
    sweep = fields(data, "", {"base": as_object}, {
        "vary": lambda vary, path: fields(vary, path, {}, dict.fromkeys(VARY_AXES, _axis)),
        "table": as_file_name,
    })
    # A row's overrides, one per axis: a varied axis sets its field to each of its values,
    # null too, for the row's config check to judge; an empty or absent axis sets none.
    axes = [[{field: value} for value in sweep.get("vary", {}).get(axis, [])] or [{}]
            for axis, field in VARY_AXES.items()]
    table_path = _out_dir(args) / sweep.get("table", "sweep.csv")
    # The flags set the base, so that a varied axis wins over them.
    base = with_overrides(sweep["base"], **_noise_flags(args))
    try:  # no axis varies the object: one build, whose error each row that parses records
        scene = parse_object(base.get("object"), "object").build(base_dir)
    except (HybridGIError, OSError) as exc:
        scene = exc
    rows, shared = [], SweepTerms()
    for index, (hybrid, sigma, seed) in enumerate(itertools.product(*axes)):
        raw = with_overrides({**base, **hybrid}, **sigma, **seed)
        row = dict.fromkeys(SWEEP_FIELDS, "")
        row["index"] = index
        try:
            config = parse_config(raw, shared.checked)
            row.update(
                set=config.hybrid.label,
                sampling_rate=f"{config.hybrid.sampling_rate:.6g}",
                sigma=config.noise.sigma,
                seed=config.noise.seed,
            )
            if isinstance(scene, Exception):
                raise scene
            _, _, _, report = run_experiment(config, scene, shared)
            row.update(
                status="ok",
                psnr_db=f"{report.psnr_db:.6g}",
                ssim=f"{report.ssim:.6g}",
                mse=f"{report.mse:.6g}",
                significant_count=report.significant_count,
            )
        except (HybridGIError, OSError) as exc:
            row.update(status="error", message=str(exc))
        rows.append(row)

    fileio.write_table(table_path, SWEEP_FIELDS, rows)
    return f"{len(rows)} runs -> {table_path}"


def cmd_footprint(args) -> str:
    report = footprint_report(args.height, args.width)
    return (f"{report.one_d_matrix_entries:,} / {report.two_d_left_entries:,} "
            f"/ {report.two_d_right_entries:,}")


def cmd_demo_stripes(args) -> str:
    """Stripe-compression demo: bucket sparsity per hybridization set, one line each."""
    height, width = args.height, args.width
    target_sets = [("hadamard", "dct"), ("haar", "hadamard"), ("haar", "dct")]
    found = scenes.single_peak_stripe_search(height, width, target_sets)
    if not found:
        raise ParameterError("no stripe configuration compresses to a single bucket")
    spec = found[0]
    scene = scenes.staggered_stripes(spec)
    lines = [f"object: {height}x{width} stripes period={spec.stripe_period} "
             f"orientation={spec.orientation.value} offset={spec.stagger_offset} "
             f"band={spec.band_size}"]
    # The six sets: every ordered pair of two distinct real kinds.
    for left_kind, right_kind in itertools.permutations(("hadamard", "dct", "haar"), 2):
        spec2 = HybridSpec.pair(left_kind, height, right_kind, width)
        buckets = acquire(spec2, scene, NoiseModel())
        count, positions = count_significant(buckets, SIGNIFICANCE_REL_TOL)
        where = f" at {positions[0]}" if count == 1 else ""
        lines.append(f"{spec2.label}: significant={count}{where}")
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built once, at the first call, which binds the handlers."""
    parser = argparse.ArgumentParser(
        prog="hybridgi",
        description="Hybrid-transform computational ghost imaging toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, noisy in (
        ("run", cmd_run, True),
        ("gen-object", cmd_gen_object, False),
        ("acquire", cmd_acquire, True),
        ("reconstruct", cmd_reconstruct, False),
        ("metrics", cmd_metrics, False),
        ("sweep", cmd_sweep, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--out", help="output directory (default: cwd)")
        if noisy:
            p.add_argument("--seed", type=int, help="override noise seed")
            p.add_argument("--sigma", type=float, help="override noise sigma")
        p.add_argument("--quiet", action="store_true", help="suppress summary output")
        p.set_defaults(handler=handler)

    p = sub.add_parser("footprint")
    p.add_argument("height", type=int)
    p.add_argument("width", type=int)
    p.set_defaults(handler=cmd_footprint, quiet=False)

    p = sub.add_parser("demo-stripes")
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=16)
    p.set_defaults(handler=cmd_demo_stripes, quiet=False)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = args.handler(args)
        if not args.quiet:
            print(text)
        return 0
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_CONFIG if exc.code else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ImageParseError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HybridGIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # a stage outside run_experiment (which names the set) ran out
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
