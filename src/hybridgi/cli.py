"""Config-driven experiment runner.

Subcommands: gen-object, acquire, reconstruct, metrics, run, sweep,
footprint, demo-stripes. Exit codes: 0 success, 1 config or usage error,
2 I/O error, 3 numeric/domain error.
"""

import argparse
import itertools
import json
import sys
from pathlib import Path

from . import fileio, scenes
from .config import ExperimentConfig, OutputPaths, parse_config, parse_object, with_overrides
from .errors import ConfigError, HybridGIError, ImageParseError, ValueOverflowError
from .measurement import (HybridSpec, as_file_name, as_object, compose_chain, fields,
                          footprint_report)
from .metrics import SIGNIFICANCE_REL_TOL, count_significant, quality_report, require_ssim_region
from .reconstruct import reconstruct_chain
from .simulator import NoiseModel, SceneImage, acquire, acquire_ideal

EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


VARY_AXES = ("hybrid_sets", "sigmas", "seeds")
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


def _load_stage(args, sigma=None, seed=None) -> tuple[ExperimentConfig, SceneImage, OutputPaths]:
    """A stage command's config, the object it describes, and its output paths."""
    data, base_dir = _read_config_json(args)
    config = parse_config(with_overrides(data, sigma, seed))
    scene = config.object.build(base_dir)
    return config, scene, config.outputs.resolved(_out_dir(args))


def _acquire(config: ExperimentConfig, scene: SceneImage, factors=None):
    if config.uses_dft:
        return acquire_ideal(config.hybrid, scene, factors)
    return acquire(config.hybrid, scene, config.noise, factors)


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
    """The display image plus the exact CSV beside it."""
    scenes.save_image(image, paths.image)
    fileio.write_csv_matrix(paths.image_csv, image.values)


def run_experiment(config: ExperimentConfig, scene: SceneImage):
    """Full pipeline: acquire -> reconstruct -> score. Writes no file."""
    scene.assert_in_range()  # a scene's faults fail first: its range, then a region too small
    require_ssim_region(scene, config.metrics.get("roi"))
    factors = compose_chain(config.hybrid)  # once for both stages, let go before scoring
    buckets = _acquire(config, scene, factors)
    try:
        result = reconstruct_chain(config.hybrid, buckets, scene.range_tag, factors)
        del factors
        report = quality_report(scene, result.image, buckets=buckets, **config.metrics)
    except ValueOverflowError as exc:  # a scene lies in its range: only noise overflows
        raise ValueOverflowError(f"sigma {config.noise.sigma} is too large: {exc}") from exc
    return scene, buckets, result, report


def cmd_run(args) -> int:
    config, scene, paths = _load_stage(args, args.sigma, args.seed)
    _, buckets, result, report = run_experiment(config, scene)
    fileio.write_buckets(paths.buckets, buckets)
    _write_reconstruction(result.image, paths)
    _write_report(config, paths.report, report, residual_norm=result.residual_norm)
    if not args.quiet:
        print(_summary_line(config, report))
    return 0


def cmd_gen_object(args) -> int:
    _, scene, paths = _load_stage(args)
    scenes.save_image(scene, paths.object)
    if not args.quiet:
        print(f"object {scene.height}x{scene.width} -> {paths.object}")
    return 0


def cmd_acquire(args) -> int:
    config, scene, paths = _load_stage(args, args.sigma, args.seed)
    buckets = _acquire(config, scene)
    fileio.write_buckets(paths.buckets, buckets)
    if not args.quiet:
        print(
            f"{config.hybrid.label} buckets {buckets.values.shape[0]}x"
            f"{buckets.values.shape[1]} -> {paths.buckets}"
        )
    return 0


def cmd_reconstruct(args) -> int:
    _, scene, paths = _load_stage(args)
    buckets = fileio.read_buckets(paths.buckets)
    result = reconstruct_chain(buckets.spec, buckets, range_tag=scene.range_tag)
    _write_reconstruction(result.image, paths)
    if not args.quiet:
        print(f"reconstruction residual={result.residual_norm:.3e} -> {paths.image}")
    return 0


def cmd_metrics(args) -> int:
    config, scene, paths = _load_stage(args)
    recon = fileio.read_finite_matrix(paths.image_csv)
    if recon.dtype.kind == "c":  # a reconstruction is real: a complex token marks a corrupt file
        raise ImageParseError(f"{paths.image_csv}: complex value in a real image")
    buckets = fileio.read_buckets(paths.buckets)
    report = quality_report(scene, recon, buckets=buckets, **config.metrics)
    _write_report(config, paths.report, report)
    if not args.quiet:
        print(_summary_line(config, report))
    return 0


def _axis(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list")
    return value or [None]  # an empty axis is not varied


def cmd_sweep(args) -> int:
    data, base_dir = _read_config_json(args)
    # Only the top level is checked here; each row's config is checked as it runs.
    sweep = fields(data, "", {"base": as_object}, {
        "vary": lambda vary, path: fields(vary, path, {}, dict.fromkeys(VARY_AXES, _axis)),
        "table": as_file_name,
    })
    axes = [sweep.get("vary", {}).get(key, [None]) for key in VARY_AXES]
    table_path = _out_dir(args) / sweep.get("table", "sweep.csv")
    # The flags set the base, so that a varied axis wins over them.
    base = with_overrides(sweep["base"], sigma=args.sigma, seed=args.seed)
    try:  # no axis varies the object: one build, whose error each row that parses records
        scene = parse_object(base.get("object"), "object").build(base_dir)
    except (HybridGIError, OSError) as exc:
        scene = exc
    rows = []
    for index, (hybrid, sigma, seed) in enumerate(itertools.product(*axes)):
        raw = dict(base)
        if hybrid is not None:
            raw["hybrid"] = hybrid
        raw = with_overrides(raw, sigma=sigma, seed=seed)
        row = dict.fromkeys(SWEEP_FIELDS, "")
        row["index"] = index
        try:
            config = parse_config(raw)
            row.update(
                set=config.hybrid.label,
                sampling_rate=f"{config.hybrid.sampling_rate:.6g}",
                sigma=config.noise.sigma,
                seed=config.noise.seed,
            )
            if isinstance(scene, Exception):
                raise scene
            _, _, _, report = run_experiment(config, scene)
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
    if not args.quiet:
        print(f"{len(rows)} runs -> {table_path}")
    return 0


def cmd_footprint(args) -> int:
    report = footprint_report(args.height, args.width)
    print(
        f"{report.one_d_matrix_entries:,} / {report.two_d_left_entries:,} "
        f"/ {report.two_d_right_entries:,}"
    )
    return 0


def cmd_demo_stripes(args) -> int:
    """Stripe-compression demo: bucket sparsity per hybridization set."""
    height, width = args.height, args.width
    target_sets = [("hadamard", "dct"), ("haar", "hadamard"), ("haar", "dct")]
    found = scenes.single_peak_stripe_search(height, width, target_sets)
    if not found:
        print("no stripe configuration compresses to a single bucket", file=sys.stderr)
        return EXIT_NUMERIC
    spec = found[0]
    scene = scenes.staggered_stripes(spec)
    print(
        f"object: {height}x{width} stripes period={spec.stripe_period} "
        f"orientation={spec.orientation.value} offset={spec.stagger_offset} "
        f"band={spec.band_size}"
    )
    # The six sets: every ordered pair of two distinct real kinds.
    for left_kind, right_kind in itertools.permutations(("hadamard", "dct", "haar"), 2):
        spec2 = HybridSpec.pair(left_kind, height, right_kind, width)
        buckets = acquire(spec2, scene, NoiseModel())
        count, positions = count_significant(buckets, SIGNIFICANCE_REL_TOL)
        where = f" at {positions[0]}" if count == 1 else ""
        print(f"{spec2.label}: significant={count}{where}")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(handler=cmd_footprint)

    p = sub.add_parser("demo-stripes")
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=16)
    p.set_defaults(handler=cmd_demo_stripes)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
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


if __name__ == "__main__":
    sys.exit(main())
