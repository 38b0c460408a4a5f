"""Config-driven experiment runner.

Subcommands: gen-object, acquire, reconstruct, metrics, run, sweep,
footprint, demo-stripes. Exit codes: 0 success, 1 config or usage error,
2 I/O error, 3 numeric/domain error.
"""

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

from . import fileio, scenes
from .config import ExperimentConfig, OutputPaths, parse_config, parse_object, with_overrides
from .errors import ConfigError, HybridGIError, ImageParseError, ValueOverflowError
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


def _acquire(config: ExperimentConfig, scene: SceneImage, factors=None, clean=None,
             combined=None):
    if config.uses_dft:
        return acquire_ideal(config.hybrid, scene, factors, clean)
    return acquire(config.hybrid, scene, config.noise, factors, clean, combined)


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


def run_experiment(config: ExperimentConfig, scene: SceneImage, factors=None, prepared=None,
                   clean=None, combined=None):
    """Full pipeline: acquire -> reconstruct -> score. Writes no file.

    Both stages share ``factors``, compose_chain(config.hybrid)'s pair, and the acquisition
    adds the noise to ``clean``, its noise-free terms. ``run`` leaves them out: made here by
    ``_fit``, they are let go once used. ``sweep`` fits each set once and holds them
    through its run of rows, one ``prepared``, the scene's ssim_reference over the roi,
    through all of them, and ``combined``, the combined_noise of the row's noise and shape.
    """
    if factors is None:
        factors, clean = _fit(config, scene)
    buckets = _acquire(config, scene, factors, clean, combined)
    del clean  # a run's own noise-free terms go before the recovery
    try:
        result = reconstruct_chain(config.hybrid, buckets, scene.range_tag, factors)
        del factors
        report = quality_report(scene, result.image, buckets=buckets, prepared=prepared,
                                **config.metrics)
    except ValueOverflowError as exc:  # a scene lies in its range: only noise overflows
        raise ValueOverflowError(f"sigma {config.noise.sigma} is too large: {exc}") from exc
    return scene, buckets, result, report


def cmd_run(args) -> int:
    config, scene, paths = _load_stage(args)
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
    config, scene, paths = _load_stage(args)
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
    if recon.shape != scene.values.shape:  # a cut row or column marks one too
        raise ImageParseError(f"{paths.image_csv}: image shape {recon.shape} does not match "
                              f"the object's {scene.values.shape}")
    buckets = fileio.read_buckets(paths.buckets)
    report = quality_report(scene, recon, buckets=buckets, **config.metrics)
    _write_report(config, paths.report, report)
    if not args.quiet:
        print(_summary_line(config, report))
    return 0


def _axis(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list")
    return value


def cmd_sweep(args) -> int:
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
    # A set is composed only once it fits the scene, so the memo of builds, which lives as
    # long as this call, holds at most one matrix per kind at each of the scene's two orders.
    # Rows share the base's sections, checked once each through ``checked``.
    rows, build, checked = [], functools.cache(build_transform), {}
    factors = clean = composed = prepared = noise_key = None
    noises = {}  # sigma -> combined_noise, for the seed and kept rows of noise_key
    for index, (hybrid, sigma, seed) in enumerate(itertools.product(*axes)):
        raw = with_overrides({**base, **hybrid}, **sigma, **seed)
        row = dict.fromkeys(SWEEP_FIELDS, "")
        row["index"] = index
        try:
            config = parse_config(raw, checked)
            row.update(
                set=config.hybrid.label,
                sampling_rate=f"{config.hybrid.sampling_rate:.6g}",
                sigma=config.noise.sigma,
                seed=config.noise.seed,
            )
            if isinstance(scene, Exception):
                raise scene
            if config.hybrid != composed:  # rows run set by set: one fit per run of rows
                factors = clean = None  # let the last set's terms go before fitting the next
                factors, clean = _fit(config, scene, build)
                composed = config.hybrid
            combined, noise = None, config.noise
            if noise.sigma > 0.0:  # one noise per sigma, until the seed or the kept rows change
                key = (noise.seed, config.hybrid.left_kept, config.hybrid.right_kept)
                if key != noise_key:
                    noises, noise_key = {}, key  # the last key's go before the next is made
                if noise.sigma not in noises:
                    noises[noise.sigma] = combined_noise(noise, scene.range_tag.projections,
                                                         *key[1:])
                combined = noises[noise.sigma]
            _, _, _, report = run_experiment(config, scene, factors, prepared, clean, combined)
            if prepared is None:  # rows share the scene and roi, which this row's score checked
                prepared = ssim_reference(scene, config.metrics.get("roi"))
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
