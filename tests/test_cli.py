"""CLI and config tests: validation, artifacts, determinism, sweep."""

import csv
import gc
import itertools
import json
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from hybridgi import ConfigError, NoiseModel, RangeTag, SceneImage, acquire, windmill
from hybridgi import cli, fileio, measurement, metrics, simulator
from hybridgi.cli import main, run_experiment
from hybridgi.config import parse_config, resolve_kept_rows, with_overrides

BASE_CONFIG = {
    "object": {"generator": "windmill", "height": 32, "width": 64, "blade_count": 4},
    "hybrid": {
        "left": [{"kind": "hadamard", "order": 32, "sampling_rate": 0.906}],
        "right": [{"kind": "dct", "order": 64, "sampling_rate": 0.906}],
    },
    "noise": {"sigma": 0.01, "seed": 42},
    "metrics": {"rel_tol": 0.01},
    "outputs": {"image": "recon.pgm", "buckets": "buckets.csv", "report": "report.json"},
}

SEPARABLE = {
    "generator": "separable", "left_kind": "hadamard", "left_order": 32,
    "right_kind": "dct", "right_order": 64, "row": 0, "col": 0,
}

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_RUN_CONFIGS = sorted(
    path.name for path in CONFIGS.glob("*.json") if not path.name.startswith("sweep")
)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def strict_json(path) -> dict:
    """The JSON file at ``path``, which holds no NaN or Infinity constant."""
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def record_calls(monkeypatch, function, modules=None):
    """Wrap ``function`` in each of ``modules`` (every hybridgi module by default)
    that binds it; returns the list of the calls' positional arguments."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    if modules is None:
        modules = [module for name, module in list(sys.modules.items())
                   if name == "hybridgi" or name.startswith("hybridgi.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attr, recorded)
    return calls


class TestConfigParsing:
    def test_sampling_rate_resolution(self):
        # Round-half-up: 0.906 * 32 = 28.992 -> 29, 0.906 * 64 = 57.984 -> 58.
        assert resolve_kept_rows(0.906, 32) == 29
        assert resolve_kept_rows(0.906, 64) == 58
        assert resolve_kept_rows(1.0, 16) == 16

    def test_full_parse(self):
        config = parse_config(BASE_CONFIG)
        assert config.hybrid.left_kept == 29
        assert config.hybrid.right_kept == 58
        assert abs(config.hybrid.sampling_rate - 0.8212890625) < 1e-12
        assert config.noise == NoiseModel(0.01, 42)

    def test_missing_field_path(self):
        broken = {k: v for k, v in BASE_CONFIG.items() if k != "hybrid"}
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert "hybrid" in str(err.value)

    def test_bad_kind_reports_path(self):
        broken = json.loads(json.dumps(BASE_CONFIG))
        broken["hybrid"]["left"][0]["kind"] = "fourier"
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert "hybrid.left[0].kind" in str(err.value)

    def test_kept_and_rate_mutually_exclusive(self):
        broken = json.loads(json.dumps(BASE_CONFIG))
        broken["hybrid"]["right"][0]["kept_rows"] = 10
        with pytest.raises(ConfigError):
            parse_config(broken)

    def test_dft_requires_zero_sigma(self):
        broken = json.loads(json.dumps(BASE_CONFIG))
        broken["hybrid"]["left"][0] = {"kind": "dft", "order": 32}
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert "sigma" in str(err.value)

    def test_bad_roi(self):
        broken = json.loads(json.dumps(BASE_CONFIG))
        broken["metrics"] = {"roi": [0, 0, 4]}
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert "metrics.roi" in str(err.value)

    def test_bad_orientation_reports_path(self):
        broken = json.loads(json.dumps(BASE_CONFIG))
        broken["object"] = {
            "generator": "stripes", "height": 32, "width": 64,
            "stripe_period": 4, "orientation": "diagonal",
        }
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert "object.orientation" in str(err.value)

    def test_object_from_file(self, tmp_path):
        from hybridgi import SceneImage, save_image

        img = tmp_path / "obj.csv"
        save_image(SceneImage(np.zeros((4, 4)), RangeTag.SIGNED), img)
        config = parse_config(
            {
                "object": {"path": str(img), "range": "signed"},
                "hybrid": {
                    "left": [{"kind": "hadamard", "order": 4}],
                    "right": [{"kind": "haar", "order": 4}],
                },
            }
        )
        scene = config.object.build()
        assert scene.values.shape == (4, 4)


class TestRunCommand:
    def test_run_writes_artifacts_and_summary(self, tmp_path, capsys):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("had32-dct64 rate=0.821")
        for name in ("buckets.csv", "buckets.csv.json", "recon.pgm", "recon.csv", "report.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["set"] == "had32-dct64"
        assert report["config"]["noise"]["seed"] == 42

    def test_byte_identical_reruns(self, tmp_path):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--out", str(out1), "--quiet"]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "buckets.csv").read_bytes() == (out2 / "buckets.csv").read_bytes()
        assert (out1 / "recon.csv").read_bytes() == (out2 / "recon.csv").read_bytes()

    def test_seed_override_changes_buckets(self, tmp_path):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--out", str(out1), "--quiet"])
        main(
            ["run", "--config", str(config_path), "--out", str(out2), "--seed", "7",
             "--quiet"]
        )
        assert (out1 / "buckets.csv").read_bytes() != (out2 / "buckets.csv").read_bytes()

    def test_noiseless_run_reconstructs_projection(self, tmp_path):
        noiseless = json.loads(json.dumps(BASE_CONFIG))
        noiseless["noise"] = {"sigma": 0.0, "seed": 0}
        config_path = write_config(tmp_path, noiseless)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        recon = fileio.read_csv_matrix(out / "recon.csv")
        from hybridgi import build_transform, truncate

        left = truncate(build_transform("hadamard", 32), 29)
        right = truncate(build_transform("dct", 64), 58)
        x = windmill(32, 64, 4).values
        projected = left.entries.T @ left.entries @ x @ right.entries.T @ right.entries
        assert np.max(np.abs(recon - projected)) < 1e-10

    def test_run_experiment_writes_only_to_given_paths(self, tmp_path, monkeypatch):
        config_path = write_config(tmp_path, BASE_CONFIG)
        cli_out = tmp_path / "cli"
        assert main(["run", "--config", str(config_path), "--out", str(cli_out), "--quiet"]) == 0
        config = parse_config(BASE_CONFIG)
        scene = config.object.build()
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        before = sorted(tmp_path.rglob("*"))
        run_experiment(config, scene)
        assert sorted(tmp_path.rglob("*")) == before

    def test_exact_recovery_report_is_strict_json(self, tmp_path, capsys):
        exact = dict(BASE_CONFIG, object=dict(BASE_CONFIG["object"], height=16, width=16),
                     hybrid={"left": [{"kind": "identity", "order": 16}],
                             "right": [{"kind": "identity", "order": 16}]},
                     noise={"sigma": 0.0, "seed": 0})
        config_path = write_config(tmp_path, exact)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        quality = strict_json(out / "report.json")["quality"]
        assert quality["mse"] == 0.0
        assert quality["psnr_db"] == pytest.approx(-20 * np.log10(8 * 16 * np.finfo(float).eps))
        assert f"psnr={quality['psnr_db']:.2f} " in capsys.readouterr().out

    @pytest.mark.parametrize("name", SHIPPED_RUN_CONFIGS)
    def test_reconstruct_reproduces_run_image(self, tmp_path, name):
        config_path = CONFIGS / name
        paths = parse_config(json.loads(config_path.read_text())).outputs.resolved(tmp_path)
        image = Path(paths.image)
        argv = ["--config", str(config_path), "--out", str(tmp_path), "--quiet"]
        written = []
        for command in ("run", "reconstruct"):
            assert main([command, *argv]) == 0
            written.append((image.read_bytes(), image.with_suffix(".csv").read_bytes()))
        assert written[0] == written[1]
        # metrics scores the staged image as run did, and both reports are strict JSON.
        reports = [strict_json(paths.report)]
        assert main(["metrics", *argv]) == 0
        reports.append(strict_json(paths.report))
        for key in ("set", "sampling_rate", "quality"):
            assert reports[1][key] == reports[0][key], key

    @pytest.mark.parametrize("commands", [["run"], ["gen-object", "acquire", "reconstruct",
                                                    "metrics"]], ids=["run", "stages"])
    def test_output_names_with_a_directory_are_written_there(self, tmp_path, commands):
        outputs = {"image": "sub/r.pgm", "buckets": "sub/data/b.csv", "report": "sub/r.json",
                   "object": "sub/o.pgm"}
        config_path = write_config(tmp_path, dict(BASE_CONFIG, outputs=outputs))
        out = tmp_path / "out"
        for command in commands:
            assert main([command, "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        written = ["sub/data/b.csv", "sub/data/b.csv.json", "sub/r.csv", "sub/r.json", "sub/r.pgm"]
        if "gen-object" in commands:
            written.append("sub/o.pgm")
        assert sorted(path.relative_to(out).as_posix()
                      for path in out.rglob("*") if path.is_file()) == sorted(written)

    def test_stage_commands_chain_together(self, tmp_path, capsys):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        for command in ("gen-object", "acquire", "reconstruct", "metrics"):
            assert main([command, "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "object.pgm").exists()
        assert (out / "report.json").exists()
        summary = capsys.readouterr().out.strip().split("\n")[-1]
        assert "significant=" in summary


class TestComposeOnce:
    @pytest.mark.parametrize("name", SHIPPED_RUN_CONFIGS)
    def test_run_composes_each_chain_once(self, tmp_path, monkeypatch, name):
        config_path = CONFIGS / name
        spec = parse_config(json.loads(config_path.read_text())).hybrid
        composes = record_calls(monkeypatch, measurement.compose_chain)
        builds = record_calls(monkeypatch, measurement.build_transform, [measurement])
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path), "--quiet"]) == 0
        assert composes == [(spec, None)]  # with the default builder
        assert len(builds) == len(spec.left_chain) + len(spec.right_chain)

    @pytest.mark.parametrize("name", [*SHIPPED_RUN_CONFIGS, "dft", "sweep_six_sets.json"])
    def test_each_check_runs_once_per_experiment(self, tmp_path, monkeypatch, name):
        # The scene's range, its SSIM region and the set's orders: once in a run, whose
        # acquisition takes the checked terms, and once per set in a sweep. (ssim checks
        # the region of the arrays it is given on its own.)
        ranges, assert_in_range = [], SceneImage.assert_in_range
        monkeypatch.setattr(SceneImage, "assert_in_range",
                            lambda scene: ranges.append(scene) or assert_in_range(scene))
        orders = record_calls(monkeypatch, simulator.require_orders)
        regions = record_calls(monkeypatch, metrics.require_ssim_region, [cli])
        if name == "dft":
            path = write_config(tmp_path, dict(BASE_CONFIG, hybrid=TestSweep.DFT_SET, noise={}))
        else:
            path = CONFIGS / name
        command = "sweep" if name.startswith("sweep") else "run"
        assert main([command, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        sets = 12 if command == "sweep" else 1
        assert (len(ranges), len(regions), len(orders)) == (sets, sets, sets)

    def test_sweep_of_six_sets_builds_each_kind_and_order_once(self, tmp_path, monkeypatch):
        # 12 sets of three kinds at the scene's orders 32 and 64, over 2 sigmas in a
        # row: 6 builds through the sweep's memo, 24 when each set built its pair, 48
        # when each row did, 96 when acquisition and recovery each did.
        builds = record_calls(monkeypatch, measurement.build_transform)
        config_path = CONFIGS / "sweep_six_sets.json"
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path), "--quiet"]) == 0
        with open(tmp_path / "six_sets_sweep.csv", newline="") as handle:
            assert [row["status"] for row in csv.DictReader(handle)] == ["ok"] * 24
        assert len(builds) == len(set(builds)) == 6
        assert {order for _, order in builds} == {32, 64}

    def test_sweep_lets_its_built_matrices_go_when_it_returns(self, tmp_path, monkeypatch):
        built, build_transform = [], cli.build_transform

        def recorded(*args):
            matrix = build_transform(*args)
            built.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(cli, "build_transform", recorded)
        config_path = CONFIGS / "sweep_six_sets.json"
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path), "--quiet"]) == 0
        assert len(built) == 6
        assert all(ref() is None for ref in built)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_a_set_that_does_not_fit_the_scene_builds_nothing(self, tmp_path, monkeypatch,
                                                               capsys, command):
        # Its orders are checked against the scene before its matrices are built.
        hybrid = {"left": [{"kind": "dct", "order": 4096}],
                  "right": [{"kind": "haar", "order": 64}]}
        message = "spec orders 4096x64 do not match scene 32x64"
        builds = record_calls(monkeypatch, measurement.build_transform)
        if command == "run":
            path = write_config(tmp_path, dict(BASE_CONFIG, hybrid=hybrid))
            assert main(["run", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 3
            assert capsys.readouterr().err == f"error: {message}\n"
        else:
            path = write_config(tmp_path, {"base": BASE_CONFIG, "vary": {
                "hybrid_sets": [hybrid, BASE_CONFIG["hybrid"]]}})
            assert main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
            with open(tmp_path / "sweep.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert [(row["status"], row["message"]) for row in rows] == [("error", message),
                                                                         ("ok", "")]
        assert sorted(order for _, order in builds) == ([] if command == "run" else [32, 64])

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "obj, message",
        [(dict(SEPARABLE, left_order=4, right_order=4),
          "region (4, 4) smaller than the 8x8 ssim window"),
         ({"path": "scene.csv", "range": "reflectance"},
          "scene values [0, 1.5] lie outside the declared reflectance range [0.0, 1.0]")],
        ids=["4x4-object", "2x2-object-out-of-range"],
    )
    def test_a_scene_fault_fails_before_a_set_that_does_not_fit(self, tmp_path, monkeypatch,
                                                                capsys, obj, message, command):
        # The 32x64 set fits neither scene; the scene's own fault is reported, and nothing built.
        (tmp_path / "scene.csv").write_text("0.5,1.5\n0,1\n")
        builds = record_calls(monkeypatch, measurement.build_transform)
        config = dict(BASE_CONFIG, object=obj)
        if command == "run":
            path = write_config(tmp_path, config)
            assert main(["run", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 3
            assert capsys.readouterr().err == f"error: {message}\n"
        else:
            path = write_config(tmp_path, {"base": config, "vary": {"sigmas": [0.0, 0.01]}})
            assert main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
            with open(tmp_path / "sweep.csv", newline="") as handle:
                assert [row["message"] for row in csv.DictReader(handle)] == [message] * 2
        assert [order for _, order in builds if order != 4] == []  # the 4x4 object builds its own

    def test_sweep_composes_once_per_run_of_one_set(self, tmp_path, monkeypatch):
        # A set listed again after another is composed again: the sweep shares its
        # built matrices, by kind and order, but not a set's composed pair.
        other = {"left": [{"kind": "dct", "order": 32, "sampling_rate": 0.906}],
                 "right": [{"kind": "haar", "order": 64, "sampling_rate": 0.906}]}
        sets, sigmas = [BASE_CONFIG["hybrid"], other, BASE_CONFIG["hybrid"]], [0.0, 0.01]
        path = write_config(tmp_path, {"base": BASE_CONFIG,
                                       "vary": {"hybrid_sets": sets, "sigmas": sigmas}})
        composes = record_calls(monkeypatch, measurement.compose_chain, [cli])
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        assert len(composes) == 3
        with open(tmp_path / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        scene = parse_config(BASE_CONFIG).object.build()
        for row, (hybrid, sigma) in zip(rows, itertools.product(sets, sigmas)):
            config = parse_config(with_overrides(dict(BASE_CONFIG, hybrid=hybrid), sigma=sigma))
            report = run_experiment(config, scene)[3]
            expected = {"psnr_db": f"{report.psnr_db:.6g}", "ssim": f"{report.ssim:.6g}",
                        "mse": f"{report.mse:.6g}", "significant_count": str(report.significant_count)}
            assert {key: row[key] for key in expected} == expected


class TestPreparedReference:
    """A sweep takes its scene's SSIM statistics once, at its first scored row."""

    @staticmethod
    def sweep_rows(tmp_path, monkeypatch, path) -> tuple[list, list[dict]]:
        """ssim_reference's calls through cli and the rows of a sweep over ``path``."""
        prepares = record_calls(monkeypatch, cli.ssim_reference, [cli])
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        table = json.loads(path.read_text()).get("table", "sweep.csv")
        with open(out / table, newline="") as handle:
            return prepares, list(csv.DictReader(handle))

    def test_six_sets_prepare_once(self, tmp_path, monkeypatch):
        prepares, rows = self.sweep_rows(tmp_path, monkeypatch, CONFIGS / "sweep_six_sets.json")
        assert [row["status"] for row in rows] == ["ok"] * 24
        assert len(prepares) == 1

    @pytest.mark.parametrize("metrics", [{}, {"roi": [2, 3, 20, 40], "rel_tol": 0.01}],
                             ids=["whole", "roi"])
    def test_rows_score_as_unprepared_runs(self, tmp_path, monkeypatch, metrics):
        # Full precision: each row's report against a run of its config alone.
        other = {"left": [{"kind": "dct", "order": 32, "sampling_rate": 0.906}],
                 "right": [{"kind": "haar", "order": 64}]}
        base = dict(BASE_CONFIG, metrics=metrics)
        path = write_config(tmp_path, {"base": base, "vary": {
            "hybrid_sets": [base["hybrid"], other], "sigmas": [0.0, 0.05]}}, "sweep.json")
        reports = []

        def recorded(*args):
            reports.append((args, run_experiment(*args)))
            return reports[-1][1]

        monkeypatch.setattr(cli, "run_experiment", recorded)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        assert len(reports) == 4
        assert [args[3] is None for args, _ in reports] == [True, False, False, False]
        for (config, *_), (_, _, _, report) in reports:
            alone = run_experiment(config, config.object.build())[3]
            assert (report.psnr_db, report.ssim, report.mse) == (alone.psnr_db, alone.ssim,
                                                                 alone.mse)

    @pytest.mark.parametrize(
        "obj, message",
        [(dict(SEPARABLE, left_order=4, right_order=4),
          "region (4, 4) smaller than the 8x8 ssim window"),
         ({"path": "scene.csv", "range": "reflectance"},
          "scene values [0, 1.5] lie outside the declared reflectance range [0.0, 1.0]")],
        ids=["4x4-object", "2x2-object-out-of-range"],
    )
    def test_scene_that_fails_scoring_prepares_nothing(self, tmp_path, monkeypatch, obj,
                                                       message):
        (tmp_path / "scene.csv").write_text("0.5,1.5\n0,1\n")
        order = 4 if obj.get("generator") else 2
        hybrid = {"left": [{"kind": "hadamard", "order": order}],
                  "right": [{"kind": "dct", "order": order}]}
        path = write_config(tmp_path, {"base": dict(BASE_CONFIG, object=obj, hybrid=hybrid),
                                       "vary": {"sigmas": [0.0, 0.01]}}, "sweep.json")
        prepares, rows = self.sweep_rows(tmp_path, monkeypatch, path)
        assert [row["message"] for row in rows] == [message] * 2
        assert prepares == []


class TestNoiseTable:
    """A sweep holds one combined_noise per sigma for the seed and kept rows of its current
    row, made at the first noisy row that needs it, and lets them all go when either changes."""

    FULL = {"left": [{"kind": "dct", "order": 32}], "right": [{"kind": "haar", "order": 64}]}
    SUB = (29, 58)  # BASE_CONFIG's kept rows

    @staticmethod
    def record_noise(monkeypatch) -> tuple[list, list]:
        """(seed, sigma, projections, kept rows, weak reference) of each combined noise cli
        makes, and how many of the earlier ones were alive at each call."""
        made, alive_at_call, combined_noise = [], [], cli.combined_noise

        def recorded(noise, projections, rows, columns):
            alive_at_call.append(sum(ref() is not None for *_, ref in made))
            combined = combined_noise(noise, projections, rows, columns)
            assert combined.shape == (rows, columns) and combined.nbytes == 8 * rows * columns
            made.append((noise.seed, noise.sigma, projections, (rows, columns),
                         weakref.ref(combined)))
            return combined

        monkeypatch.setattr(cli, "combined_noise", recorded)
        return made, alive_at_call

    def test_rows_of_varied_seeds_draw_as_runs_alone(self, tmp_path, monkeypatch):
        sets, sigmas, seeds = [BASE_CONFIG["hybrid"], self.FULL], [0.0, 0.05], [3, 4]
        path = write_config(tmp_path, {"base": BASE_CONFIG, "vary": {
            "hybrid_sets": sets, "sigmas": sigmas, "seeds": seeds}}, "sweep.json")
        made, alive_at_call = self.record_noise(monkeypatch)
        reports = []

        def recorded_run(*args):
            # The config, which of the noises made so far the row took, and its report.
            taken = [i for i, entry in enumerate(made)
                     if args[5] is not None and entry[4]() is args[5]]
            reports.append((args[0], taken, run_experiment(*args)[3]))
            return (None, None, None, reports[-1][2])

        monkeypatch.setattr(cli, "run_experiment", recorded_run)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        # Rows run set by set and the seed varies fastest: a noise per noisy row here.
        assert [entry[:4] for entry in made] == [(3, 0.05, 2, self.SUB), (4, 0.05, 2, self.SUB),
                                                 (3, 0.05, 2, (32, 64)), (4, 0.05, 2, (32, 64))]
        assert alive_at_call == [0, 0, 0, 0]
        assert all(ref() is None for *_, ref in made)  # freed when the command returns
        runs = [(config.hybrid, config.noise.sigma, config.noise.seed) for config, *_ in reports]
        assert runs == [(parse_config(dict(BASE_CONFIG, hybrid=h)).hybrid, sigma, seed)
                        for h in sets for sigma in sigmas for seed in seeds]
        # A noiseless row takes none; a noisy one the one made for it.
        assert [taken for _, taken, _ in reports] == [[], [], [0], [1], [], [], [2], [3]]
        with open(tmp_path / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        scene = parse_config(BASE_CONFIG).object.build()
        for row, (config, _, report) in zip(rows, reports, strict=True):
            alone = run_experiment(config, scene)[3]
            assert (report.psnr_db, report.ssim, report.mse) == (alone.psnr_db, alone.ssim,
                                                                 alone.mse)
            assert (row["psnr_db"], row["ssim"], row["mse"]) == (
                f"{alone.psnr_db:.6g}", f"{alone.ssim:.6g}", f"{alone.mse:.6g}")

    def test_one_seed_draws_once_per_sigma_and_kept_rows(self, tmp_path, monkeypatch):
        made, alive_at_call = self.record_noise(monkeypatch)
        config_path = CONFIGS / "sweep_six_sets.json"
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path), "--quiet"]) == 0
        # Six full sets, then six at 29 x 58 kept rows: the full noise goes before the next.
        assert [entry[:4] for entry in made] == [(0, 0.01, 2, (32, 64)), (0, 0.01, 2, self.SUB)]
        assert alive_at_call == [0, 0]
        # Two sets of one shape share each sigma's noise; a set of another shape in between
        # lets them go, so the third set makes them again.
        sets = [BASE_CONFIG["hybrid"], BASE_CONFIG["hybrid"], self.FULL, BASE_CONFIG["hybrid"]]
        path = write_config(tmp_path, {"base": BASE_CONFIG, "vary": {
            "hybrid_sets": sets, "sigmas": [0.05, 0.0, 0.01]}}, "sweep.json")
        made.clear(), alive_at_call.clear()
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        assert [entry[:4] for entry in made] == [
            (42, sigma, 2, shape) for shape in (self.SUB, (32, 64), self.SUB)
            for sigma in (0.05, 0.01)]
        assert alive_at_call == [0, 1] * 3


class TestSharedParser:
    """main builds its parser once per process; no call may leave state in it."""

    def test_flags_of_one_call_do_not_carry_to_the_next(self, tmp_path):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--out", str(out1), "--seed", "5",
                     "--sigma", "0.05", "--quiet"]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out2), "--quiet"]) == 0
        first, second = (json.loads((out / "buckets.csv.json").read_text()) for out in (out1, out2))
        assert (first["seed"], first["noise_sigma"]) == (5, 0.05)
        assert (second["seed"], second["noise_sigma"]) == (42, 0.01)
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_does_not_break_the_next_call(self, tmp_path, capsys):
        config_path = write_config(tmp_path, BASE_CONFIG)
        assert main(["metrics", "--seed", "1", "--config", str(config_path)]) == 1
        assert "usage: hybridgi" in capsys.readouterr().err
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path), "--quiet"]) == 0

    def test_help_twice_prints_the_same_text(self, capsys):
        texts = []
        for _ in range(2):
            assert main(["--help"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("usage: hybridgi") and texts[0] == texts[1]

    def test_a_call_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        # Building a parser per call left 346 objects in reference cycles.
        base = {"object": {"generator": "windmill", "height": 8, "width": 8, "blade_count": 2},
                "hybrid": {"left": [{"kind": "hadamard", "order": 8}],
                           "right": [{"kind": "dct", "order": 8}]}}
        path = write_config(tmp_path, {"base": base, "vary": {"sigmas": [0.0, 0.01]}})
        sweep = ["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]
        assert main(["footprint", "8", "8"]) == 0  # the warm-up builds the parser
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for argv in (["footprint", "8", "8"], sweep):
                assert main(argv) == 0
                assert gc.collect() == 0, argv
        finally:
            if enabled:
                gc.enable()


class TestExitCodes:
    def test_missing_config_is_config_error(self, capsys):
        assert main(["run"]) == 1
        assert "config" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["object"] = {"path": str(tmp_path / "nope.pgm"), "range": "signed"}
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "where, command, code",
        [("noise.sigma", "run", 1), ("metrics.peak", "run", 1), ("sidecar", "reconstruct", 2),
         ("hybrid.left[0].order", "run", 1)],
    )
    def test_integer_beyond_float_range_is_rejected(self, tmp_path, capsys, where, command, code):
        config = json.loads(json.dumps(BASE_CONFIG))
        if where == "hybrid.left[0].order":  # an entry with a sampling_rate to resolve
            config["hybrid"]["left"][0]["order"] = 10**400
        elif where != "sidecar":
            section, key = where.split(".")
            config[section][key] = 10**400
        config_path = write_config(tmp_path, config)
        out = tmp_path / "out"
        if where == "sidecar":
            assert main(["acquire", "--config", str(config_path), "--out", str(out)]) == 0
            sidecar = out / "buckets.csv.json"
            meta = json.loads(sidecar.read_text())
            sidecar.write_text(json.dumps(dict(meta, noise_sigma=10**400)))
            capsys.readouterr()
        assert main([command, "--config", str(config_path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert ("buckets.csv.json" if where == "sidecar" else where) in err
        assert "expected a finite number" in err and "Traceback" not in err

    def test_numeric_error_exit(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        # Orders do not match the object dimensions.
        config["hybrid"]["left"][0]["order"] = 16
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 3

    def test_overflowing_reconstruction_is_numeric_error(self, tmp_path, capsys):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        recon = out / "recon.csv"
        first, rest = recon.read_text().split(",", 1)
        recon.write_text(f"1e200,{rest}")
        capsys.readouterr()
        assert main(["metrics", "--config", str(config_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "squared difference of the compared images overflows" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("where", ["one", "all"])
    def test_huge_finite_buckets_reconstruct_or_name_the_overflow(self, tmp_path, capsys, where):
        # One bucket of 1e300 squares past float range, but its residual does
        # not; every bucket at 1.7e308 overflows the recovery itself.
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        values = fileio.read_csv_matrix(out / "buckets.csv")
        if where == "one":
            values[0, 0] = 1e300
        else:
            values[:] = 1.7e308
        fileio.write_csv_matrix(out / "buckets.csv", values)
        code = main(["reconstruct", "--config", str(config_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if where == "one":
            assert code == 0
            assert 0.0 < float(captured.out.split("residual=")[1].split()[0]) < 1e300
        else:
            assert code == 3
            assert "error: the reconstruction of the buckets overflows" in captured.err

    def test_overflowing_ssim_statistics_are_numeric_error(self, tmp_path, capsys):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        recon = out / "recon.csv"
        values = fileio.read_csv_matrix(recon)
        fileio.write_csv_matrix(recon, 1e151 * (1.0 + np.abs(values)))
        capsys.readouterr()
        assert main(["metrics", "--config", str(config_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "SSIM window statistics of the compared images overflow" in err
        assert "Traceback" not in err

    def test_peak_with_an_overflowing_square_is_numeric_error(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "stripes_compression.json").read_text())
        config["metrics"]["peak"] = 1e200
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "peak must have a finite square" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "peak, message",
        [(1e-320, "peak must have a nonzero SSIM stabilizer"),
         (1e-160, "peak must have a nonzero SSIM stabilizer"),
         (1e-100, "c1 * c2 underflows at peak 1e-100")],
    )
    def test_peak_with_underflowing_stabilizers_is_numeric_error(
        self, tmp_path, capsys, peak, message
    ):
        # An exact identity round trip keeps the windmill's flat zero windows.
        exact = dict(BASE_CONFIG, hybrid={"left": [{"kind": "identity", "order": 32}],
                                          "right": [{"kind": "identity", "order": 64}]},
                     noise={"sigma": 0.0, "seed": 0}, metrics={"peak": peak})
        config_path = write_config(tmp_path, exact)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_huge_rel_tol_runs_clean(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "stripes_compression.json").read_text())
        config["metrics"]["rel_tol"] = 1e308
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        report = strict_json(tmp_path / config["outputs"]["report"])
        assert report["quality"]["significant_count"] == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "name, where, sigma",
        [pytest.param(name, where, sigma, id=f"{name}-{where}{suffix}")
         for sigma, suffix in ((1e308, ""), (1e307, "-1e307"))
         for name in ("stripes_compression.json", "chained_transforms.json")
         for where in ("flag", "config")],
    )
    def test_overflowing_sigma_is_numeric_error(self, tmp_path, capsys, name, where, sigma):
        # The noise of sigma 1e308 overflows the projections, and that of 1e307
        # the scores; either way the message blames sigma, not buckets or images.
        config = json.loads((CONFIGS / name).read_text())
        flags = ["--sigma", str(sigma)] if where == "flag" else []
        if where == "config":
            config["noise"]["sigma"] = sigma
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path), *flags]) == 3
        err = capsys.readouterr().err
        assert f"sigma {sigma} is too large" in err
        assert "Traceback" not in err
        assert not (tmp_path / config["outputs"]["buckets"]).exists()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda meta: meta.pop("noise_sigma"), id="missing-sigma"),
            pytest.param(lambda meta: meta.update(seed="42"), id="string-seed"),
            pytest.param(
                lambda meta: meta["spec"]["left"][0].update(kind="bogus"), id="bogus-kind"
            ),
            pytest.param(
                lambda meta: meta["spec"]["left"][0].update(kind="composite"),
                id="composite-kind",
            ),
            pytest.param(
                lambda meta: meta["spec"]["right"][0].update(order="64"), id="string-order"
            ),
            pytest.param(lambda meta: meta.clear(), id="empty-object"),
            pytest.param(None, id="not-an-object"),
            pytest.param(lambda meta: meta.update(sigma=0.0), id="unknown-root-key"),
            pytest.param(lambda meta: meta["spec"].update(middle=[]), id="unknown-spec-key"),
            pytest.param(
                lambda meta: meta["spec"]["left"][0].update(kept_row=4),
                id="unknown-chain-entry-key",
            ),
            pytest.param(
                lambda meta: meta["spec"]["left"][0].update(order=48),
                id="non-power-of-two-hadamard-order",
            ),
            pytest.param(
                lambda meta: meta["spec"]["right"][0].update(order=5000),
                id="order-beyond-cap",
            ),
        ],
    )
    def test_malformed_bucket_sidecar_is_io_error(self, tmp_path, capsys, edit):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["acquire", "--config", str(config_path), "--out", str(out)]) == 0
        sidecar = out / "buckets.csv.json"
        meta = json.loads(sidecar.read_text())
        if edit is None:
            meta = [meta]
        else:
            edit(meta)
        sidecar.write_text(json.dumps(meta))
        assert main(["reconstruct", "--config", str(config_path), "--out", str(out)]) == 2
        assert "buckets.csv.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reader, command, code",
        [("config", "run", 1), ("sidecar", "reconstruct", 2),
         ("buckets", "reconstruct", 2), ("scene", "run", 2)],
    )
    def test_undecodable_byte_is_reported(self, tmp_path, capsys, reader, command, code):
        scene = tmp_path / "scene.csv"
        scene.write_text("0.5,0.25\n0,1\n")
        config = dict(BASE_CONFIG, object={"path": "scene.csv", "range": "reflectance"},
                      hybrid={"left": [{"kind": "hadamard", "order": 2}],
                              "right": [{"kind": "haar", "order": 2}]})
        config_path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["acquire", "--config", str(config_path), "--out", str(out)]) == 0
        corrupt = {"config": config_path, "sidecar": out / "buckets.csv.json",
                   "buckets": out / "buckets.csv", "scene": scene}[reader]
        corrupt.write_bytes(corrupt.read_bytes()[:3] + b"\xff" + corrupt.read_bytes()[3:])
        capsys.readouterr()
        assert main([command, "--config", str(config_path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert corrupt.name in err and ("position 3" in err or "byte offset 3" in err)

    @pytest.mark.parametrize(
        "where, key, field",
        [
            ((), "nosie", "nosie"),
            (("hybrid",), "middle", "hybrid.middle"),
            # A misspelt kept_rows would otherwise run at full sampling.
            (("hybrid", "left", 0), "kept_row", "hybrid.left[0].kept_row"),
            (("noise",), "sigmaa", "noise.sigmaa"),
            (("metrics",), "roi_box", "metrics.roi_box"),
            (("outputs",), "reconstruction", "outputs.reconstruction"),
        ],
        ids=["root", "hybrid", "chain-entry", "noise", "metrics", "outputs"],
    )
    def test_unknown_key_is_config_error(self, tmp_path, capsys, where, key, field):
        config = json.loads(json.dumps(BASE_CONFIG))
        section = config
        for step in where:
            section = section[step]
        section[key] = 4
        config_path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
        assert f"config error: {field}: unknown field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [({"kept_rows": 40}, "hybrid: left chain kept_rows must be in [1, 32], got 40"),
         ({"kept_rows": 0}, "hybrid: left chain kept_rows must be in [1, 32], got 0"),
         # A rate that rounds to no rows is the fault of the rate, not of kept_rows.
         ({"sampling_rate": 0.01},
          "hybrid.left[0].sampling_rate: 0.01 of order 32 rounds to 0 kept rows")],
        ids=["above-order", "zero", "rate-resolves-to-zero"],
    )
    def test_kept_rows_out_of_range_is_config_error(self, tmp_path, capsys, entry, message):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["hybrid"]["left"][0] = {"kind": "hadamard", "order": 32, **entry}
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert message in err

    @pytest.mark.parametrize(
        "entry",
        [{"order": 0}, {"order": -8}, {"order": -8, "kept_rows": 2},
         {"order": -8, "sampling_rate": 0.5}],
        ids=["zero", "negative", "negative-with-kept-rows", "negative-with-rate"],
    )
    def test_non_positive_order_is_config_error(self, tmp_path, capsys, entry):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["hybrid"]["left"][0] = {"kind": "dct", **entry}
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"hybrid: left chain order must be positive, got {entry['order']}\n" in err

    @pytest.mark.parametrize(
        "argv",
        [["run", "--seed", "x"], ["run", "--sigma", "much"], ["run", "--seeds", "1"],
         ["sweep", "--verbose"],
         *([command, flag, "1"] for command in ("gen-object", "reconstruct", "metrics")
           for flag in ("--seed", "--sigma"))],
        ids=lambda argv: " ".join(argv),
    )
    def test_usage_errors_are_config_errors(self, tmp_path, capsys, argv):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main([*argv, "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage: hybridgi" in err and "Traceback" not in err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "--sigma" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "acquire", "sweep"])
    def test_noisy_commands_take_both_noise_flags(self, tmp_path, command):
        data = {"base": BASE_CONFIG} if command == "sweep" else BASE_CONFIG
        config_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        argv = [command, "--config", str(config_path), "--out", str(out), "--quiet",
                "--seed", "3", "--sigma", "0.5"]
        assert main(argv) == 0
        if command == "sweep":
            with open(out / "sweep.csv", newline="") as handle:
                (row,) = csv.DictReader(handle)
            assert (float(row["sigma"]), int(row["seed"])) == (0.5, 3)
        else:
            meta = json.loads(fileio.sidecar_path(out / "buckets.csv").read_text())
            assert (meta["noise_sigma"], meta["seed"]) == (0.5, 3)

    @pytest.mark.parametrize("value", [None, 5, ""], ids=["null", "number", "empty"])
    def test_object_path_must_be_a_file_name(self, tmp_path, capsys, value):
        config = dict(BASE_CONFIG, object={"path": value, "range": "signed"})
        out = tmp_path / "out"
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
        assert "object.path" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--sigma", "0.1"]])
    def test_non_object_noise_with_override_is_config_error(self, tmp_path, capsys, flag):
        config = dict(BASE_CONFIG, noise=5)
        config_path = write_config(tmp_path, config)
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path), *flag]
        assert main(argv) == 1
        assert "noise" in capsys.readouterr().err

    def test_nan_sigma_is_config_error(self, tmp_path, capsys):
        config = dict(BASE_CONFIG, noise={"sigma": float("nan"), "seed": 0})
        config_path = write_config(tmp_path, config)
        assert "NaN" in config_path.read_text()
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        assert "noise.sigma" in capsys.readouterr().err

    # A dft factor takes the ideal acquisition path, a dct factor the physical one.
    @pytest.mark.parametrize("right_kind", ["dct", "dft"])
    def test_nan_scene_is_numeric_error(self, tmp_path, capsys, right_kind):
        scene = tmp_path / "scene.csv"
        scene.write_text("0,0,0,0\n0,nan,0,0\n0,0,0,0\n0,0,0,0\n")
        config = {
            "object": {"path": str(scene), "range": "reflectance"},
            "hybrid": {
                "left": [{"kind": "hadamard", "order": 4}],
                "right": [{"kind": right_kind, "order": 4}],
            },
        }
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 3
        assert "nan" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_scene_is_no_pgm_object(self, tmp_path, capsys, value):
        # A NaN would be cast to an arbitrary byte, an Inf saturated to 0 or 255.
        (tmp_path / "scene.csv").write_text(f"0.5,0.25\n{value},1\n")
        config = dict(BASE_CONFIG, object={"path": "scene.csv", "range": "reflectance"})
        config_path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["gen-object", "--config", str(config_path), "--out", str(out)]) == 3
        assert "a PGM image needs finite values" in capsys.readouterr().err
        assert not (out / "object.pgm").exists()

    @pytest.mark.parametrize(
        "command, obj, code, message",
        [("gen-object", {"path": "scene.csv", "range": "reflectance"}, 3,
          "a PGM image needs finite values"),
         ("run", dict(SEPARABLE, left_order=4, right_order=4), 3, "smaller than the 8x8"),
         ("reconstruct", BASE_CONFIG["object"], 2, "buckets.csv")],
        ids=["gen-object-nan-scene", "run-4x4-separable", "reconstruct-no-buckets"],
    )
    def test_failing_command_makes_no_out_directory(self, tmp_path, capsys, command, obj,
                                                    code, message):
        # Each fails only after its config passes, and the separable run only
        # once it scores: --out is made at the first write, which never comes.
        (tmp_path / "scene.csv").write_text("0.5,0.25\nnan,1\n")
        hybrid = {"left": [{"kind": "hadamard", "order": 4}],
                  "right": [{"kind": "dct", "order": 4}]}
        config = dict(BASE_CONFIG, object=obj,
                      **({"hybrid": hybrid} if obj.get("generator") == "separable" else {}))
        config_path = write_config(tmp_path, config)
        out = tmp_path / "out" / "nested"
        assert main([command, "--config", str(config_path), "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "obj, metrics, region",
        [(dict(SEPARABLE, left_order=4, right_order=4), {}, (4, 4)),
         (BASE_CONFIG["object"], {"roi": [3, 5, 7, 7]}, (7, 7))],
        ids=["4x4-separable", "7x7-roi"],
    )
    def test_small_compared_region_fails_before_acquiring(self, tmp_path, capsys, monkeypatch,
                                                          obj, metrics, region):
        acquired = record_calls(monkeypatch, cli.acquire, [cli])
        hybrid = {"left": [{"kind": "hadamard", "order": obj.get("left_order", 32)}],
                  "right": [{"kind": "dct", "order": obj.get("right_order", 64)}]}
        config_path = write_config(tmp_path, dict(BASE_CONFIG, object=obj, hybrid=hybrid,
                                                  metrics=metrics))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: region {region} smaller than the 8x8 ssim window\n"
        assert acquired == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "scene, order, message",
        [("0.5,1.5\n0,1\n", 2,
          "scene values [0, 1.5] lie outside the declared reflectance range [0.0, 1.0]"),
         ("0.5,0.25\n0,1\n", 8, "region (2, 2) smaller than the 8x8 ssim window")],
        ids=["out-of-range-wins", "small-region-beats-order-mismatch"],
    )
    def test_first_of_two_scene_faults_is_named(self, tmp_path, capsys, scene, order, message):
        # A 2x2 object fails scoring, and also its range or the spec's orders:
        # its range is named first, then its size, before acquisition checks orders.
        (tmp_path / "scene.csv").write_text(scene)
        hybrid = {"left": [{"kind": "hadamard", "order": order}],
                  "right": [{"kind": "dct", "order": order}]}
        config = dict(BASE_CONFIG, object={"path": "scene.csv", "range": "reflectance"},
                      hybrid=hybrid)
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_small_region_is_recorded_in_each_sweep_row(self, tmp_path, monkeypatch):
        acquired = record_calls(monkeypatch, cli.acquire, [cli])
        base = dict(BASE_CONFIG, metrics={"roi": [0, 0, 8, 4]})
        sweep = {"base": base, "vary": {"sigmas": [0.0, 0.01]}}
        path = write_config(tmp_path, sweep, "sweep.json")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        with open(tmp_path / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["message"] for row in rows] == [
            "region (8, 4) smaller than the 8x8 ssim window"] * 2
        assert acquired == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "command, name", [("reconstruct", "buckets.csv"), ("metrics", "recon.csv")]
    )
    def test_non_finite_data_file_is_io_error(self, tmp_path, capsys, value, command, name):
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        values = fileio.read_csv_matrix(out / name)
        values[0, 0] = value
        fileio.write_csv_matrix(out / name, values)
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name, edit, message",
        [("reconstruct", "buckets.csv", "cut-row", "does not match the sidecar's kept rows"),
         ("metrics", "buckets.csv", "cut-row", "does not match the sidecar's kept rows"),
         ("metrics", "recon.csv", "complex", "complex value in a real image"),
         ("metrics", "recon.csv", "cut-row", "image shape (31, 64) does not match the object's"),
         ("metrics", "recon.csv", "cut-column",
          "image shape (32, 63) does not match the object's (32, 64)")],
    )
    def test_data_file_that_is_not_its_run_is_io_error(self, tmp_path, capsys, command, name,
                                                       edit, message):
        # A cut bucket row would be scored as a smaller matrix, and a complex
        # token cast to a real image that is not the file.
        config_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        lines = (out / name).read_text().splitlines(keepends=True)
        if edit == "cut-row":
            lines.pop()
        elif edit == "cut-column":
            lines = [line.rsplit(",", 1)[0] + "\n" for line in lines]
        else:
            lines[0] = lines[0].replace(",", "+1j,", 1)
        (out / name).write_text("".join(lines))
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(out / name) in err and message in err

    @pytest.mark.parametrize(
        "obj, message",
        [
            (dict(SEPARABLE, row=99), "row 99"),
            (dict(BASE_CONFIG["object"], blade_count=1), "blade_count"),
            ({"generator": "stripes", "height": 32, "width": 64, "stripe_period": 3},
             "stripe_period"),
            (dict(SEPARABLE, binarize="yes"), "object.binarize"),
            (dict(BASE_CONFIG["object"], blade=4), "object.blade"),
            ({"path": "object.csv", "range": "signed", "scale": 2}, "object.scale"),
            # Integers beyond float range, or beyond a 64-bit array's.
            (dict(BASE_CONFIG["object"], blade_count=10**400), "too large"),
            (dict(BASE_CONFIG["object"], height=10**400), "too large"),
            ({"generator": "stripes", "height": 32, "width": 64, "stripe_period": 4,
              "stagger_offset": 2**63}, "too large"),
            ({"generator": "stripes", "height": 32, "width": 64, "stripe_period": 4,
              "band_size": 2**63}, "too large"),
            ({"generator": "stripes", "height": 10**400, "width": 64, "stripe_period": 4},
             "size"),
            # The generator name is JSON input: any value, hashable or not.
            (dict(BASE_CONFIG["object"], generator=["windmill"]), "unknown generator"),
            (dict(BASE_CONFIG["object"], generator={"a": 1}), "unknown generator"),
            # A hub as large as the wheel leaves no blade, and no sector index to cast.
            (dict(BASE_CONFIG["object"], blade_count=2**62), "leaves no blade"),
            (dict(BASE_CONFIG["object"], blade_count=2**63), "leaves no blade"),
        ],
        ids=["row-out-of-range", "one-blade", "odd-period", "string-binarize", "unknown-key",
             "unknown-path-form-key", "huge-blade-count", "huge-height", "huge-stagger-offset",
             "huge-band-size", "huge-stripes-height", "list-generator", "object-generator",
             "blade-count-2**62", "blade-count-2**63"],
    )
    def test_bad_generator_parameters_are_config_errors(self, tmp_path, capsys, obj, message):
        config_path = write_config(tmp_path, dict(BASE_CONFIG, object=obj))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: object") and message in err


    @pytest.mark.parametrize(
        "key, value",
        [("image", None), ("report", 5), ("buckets", ""), ("image", "/"), ("report", "."),
         ("buckets", "a\0b.csv")],
        ids=["null", "number", "empty", "root", "dot", "nul"],
    )
    def test_output_names_must_be_non_empty_strings(self, tmp_path, capsys, key, value):
        config = dict(BASE_CONFIG, outputs=dict(BASE_CONFIG["outputs"], **{key: value}))
        out = tmp_path / "out"
        config_path = write_config(tmp_path, config)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
        assert f"outputs.{key}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "outputs",
        [{"image": "a.pgm", "buckets": "a.csv"},
         {"image": "a.csv", "buckets": "a.csv"},
         {"image": "r.pgm", "report": "r.csv"},
         {"buckets": "b.csv", "report": "b.csv.json"},
         {"image": "sub/../a.pgm", "buckets": "./a.csv"},
         {"image": "a.pgm", "buckets": "{out}/a.csv"}],
        ids=["image-csv-and-buckets", "csv-image-and-buckets", "image-csv-and-report",
             "sidecar-and-report", "one-file-by-two-names", "absolute-and-relative"],
    )
    @pytest.mark.parametrize("command", ["run", "gen-object", "reconstruct", "metrics"])
    def test_colliding_output_names_are_config_errors(self, tmp_path, capsys, outputs, command):
        out = tmp_path / "out"
        outputs = {key: name.format(out=out) for key, name in outputs.items()}
        config = dict(BASE_CONFIG, outputs=dict(BASE_CONFIG["outputs"], **outputs))
        config_path = write_config(tmp_path, config)
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: outputs: two of the files that run writes")
        assert not out.exists()

    def test_csv_image_is_its_own_reconstruction_csv(self, tmp_path, capsys):
        config = dict(BASE_CONFIG, outputs=dict(BASE_CONFIG["outputs"], image="recon.csv"))
        config_path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        assert main(["metrics", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "buckets.csv", "buckets.csv.json", "recon.csv", "report.json"]

    @pytest.mark.parametrize(
        "height, width, side, chain, message",
        [(48, 64, "left", [{"kind": "hadamard", "order": 48}],
          "hybrid.left[0].order: hadamard order must be a power of two >= 2, got 48"),
         (32, 96, "right", [{"kind": "haar", "order": 96}],
          "hybrid.right[0].order: haar order must be a power of two >= 2, got 96"),
         (48, 64, "left", [{"kind": "dct", "order": 48}, {"kind": "haar", "order": 48}],
          "hybrid.left[1].order: haar order must be a power of two >= 2, got 48"),
         (1, 64, "left", [{"kind": "hadamard", "order": 1}],
          "hybrid.left[0].order: hadamard order must be a power of two >= 2, got 1"),
         (32, 64, "left", [{"kind": "dct", "order": 5000, "sampling_rate": 0.5}],
          "hybrid.left[0].order: order 5000 exceeds the dense cap 4096")],
        ids=["hadamard-48", "haar-96", "second-chain-entry", "hadamard-1", "dct-beyond-cap"],
    )
    def test_unbuildable_order_is_config_error(
        self, tmp_path, capsys, height, width, side, chain, message
    ):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["object"].update(height=height, width=width)
        config["hybrid"][side] = chain
        config_path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert not out.exists()

class TestFootprintCommand:
    def test_reference_numbers(self, capsys):
        assert main(["footprint", "32", "64"]) == 0
        assert capsys.readouterr().out.strip() == "4,194,304 / 4,096 / 1,024"


class TestDemoStripes:
    def test_prints_counts_per_set(self, capsys):
        assert main(["demo-stripes"]) == 0
        out = capsys.readouterr().out
        assert "had32-dct16: significant=1" in out
        assert "haar32-dct16: significant=1" in out
        assert "haar32-had16: significant=1" in out

    def test_stdout_pinned(self, capsys):
        # All six sets go through the physical acquire loop. The stripes are
        # searched for had-dct, haar-had and haar-dct, and each of those
        # compresses them to one significant bucket: the paper's claim.
        assert main(["demo-stripes"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "object: 32x16 stripes period=32 orientation=horizontal offset=0 band=1",
            "had32-dct16: significant=1 at (16, 0)",
            "had32-haar16: significant=1 at (16, 0)",
            "dct32-had16: significant=16",
            "dct32-haar16: significant=16",
            "haar32-had16: significant=1 at (1, 0)",
            "haar32-dct16: significant=1 at (1, 0)",
        ]


class TestSweep:
    def test_six_sets_two_modes(self, tmp_path):
        kinds = ["hadamard", "dct", "haar"]
        sets = []
        for left in kinds:
            for right in kinds:
                if left != right:
                    for rate in (None, 0.906):
                        left_entry = {"kind": left, "order": 32}
                        right_entry = {"kind": right, "order": 64}
                        if rate is not None:
                            left_entry["sampling_rate"] = rate
                            right_entry["sampling_rate"] = rate
                        sets.append({"left": [left_entry], "right": [right_entry]})
        sweep = {
            "base": {
                "object": BASE_CONFIG["object"],
                "hybrid": sets[0],
                "noise": {"sigma": 0.0, "seed": 0},
            },
            "vary": {"hybrid_sets": sets},
        }
        path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 12  # header + one row per run
        assert rows[0].startswith("index,set,sampling_rate")
        # Noiseless full-sampling rows recover the object to rounding.
        full_psnrs = [
            float(row.split(",")[6])
            for row in rows[1:]
            if row.split(",")[2] == "1"
        ]
        assert len(full_psnrs) == 6
        assert all(value > 200.0 for value in full_psnrs)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sigma_is_recorded_in_its_row(self, tmp_path):
        sweep = {
            "base": {"object": BASE_CONFIG["object"], "hybrid": BASE_CONFIG["hybrid"]},
            "vary": {"sigmas": [1e308, 1e307, 0.01]},
        }
        path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["status"] for row in rows] == ["error", "error", "ok"]
        assert rows[0]["message"] == "sigma 1e+308 is too large: the noisy projections overflow"
        # At 1e307 the buckets stay finite, and the scores overflow.
        assert rows[1]["message"] == ("sigma 1e+307 is too large: the mean squared "
                                      "difference of the compared images overflows")

    DFT_SET = {"left": [{"kind": "dft", "order": 32}], "right": [{"kind": "dct", "order": 64}]}
    WALSH_SET = {"left": [{"kind": "walsh", "order": 32}], "right": [{"kind": "dct", "order": 64}]}

    @pytest.mark.parametrize("vary", [
        {"sigmas": [None, 0.01]},
        {"hybrid_sets": [None]},
        {"seeds": [None, 3]},
        {"hybrid_sets": [BASE_CONFIG["hybrid"], WALSH_SET, BASE_CONFIG["hybrid"]]},
        {"hybrid_sets": [DFT_SET], "sigmas": [0.0, 0.01]},
        {"seeds": [True, 3], "sigmas": [0.0, 0.01]},
        {"sigmas": [-0.01, 0.01]},
    ], ids=["null-sigma", "null-set", "null-seed", "bad-kind", "dft-noisy", "bool-seed",
            "negative-sigma"])
    def test_a_row_records_what_parse_config_gives_its_config(self, tmp_path, vary):
        # A varied value, JSON null too, is the row's own: a row whose config parse_config
        # rejects records that error, and every other row runs.
        path = write_config(tmp_path, {"base": BASE_CONFIG, "vary": vary}, "sweep.json")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        with open(tmp_path / "sweep.csv", newline="") as handle:
            rows = [(row["status"], row["message"]) for row in csv.DictReader(handle)]
        expected = []
        for hybrid, sigma, seed in itertools.product(
                *(vary.get(axis, ["base"]) for axis in ("hybrid_sets", "sigmas", "seeds"))):
            raw = json.loads(json.dumps(BASE_CONFIG))
            for section, key, value in (
                    (raw, "hybrid", hybrid), (raw["noise"], "sigma", sigma),
                    (raw["noise"], "seed", seed)):
                if value != "base":
                    section[key] = value
            try:
                parse_config(raw)
            except ConfigError as exc:
                expected.append(("error", str(exc)))
            else:
                expected.append(("ok", ""))
        assert rows == expected
        assert "error" in (status for status, _ in rows)

    def test_failures_recorded_not_fatal(self, tmp_path):
        sweep = {
            "base": {
                "object": BASE_CONFIG["object"],
                "hybrid": {
                    "left": [{"kind": "hadamard", "order": 32}],
                    "right": [{"kind": "dct", "order": 64}],
                },
                "noise": {"sigma": 0.0, "seed": 0},
            },
            "vary": {
                "hybrid_sets": [
                    {
                        "left": [{"kind": "hadamard", "order": 16}],  # wrong order
                        "right": [{"kind": "dct", "order": 64}],
                    },
                    {
                        "left": [{"kind": "hadamard", "order": 32}],
                        "right": [{"kind": "dct", "order": 64}],
                    },
                ]
            },
        }
        path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 3
        assert "error" in rows[1]
        assert ",ok," in rows[2]

    def test_object_is_built_once_per_sweep(self, tmp_path, monkeypatch):
        from hybridgi import config

        builds = []
        monkeypatch.setattr(config, "windmill", lambda **p: builds.append(p) or windmill(**p))
        sweep = {"base": BASE_CONFIG, "vary": {
            "hybrid_sets": [BASE_CONFIG["hybrid"], BASE_CONFIG["hybrid"]],
            "sigmas": [0.0, 0.01],
        }}
        path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        with open(out / "sweep.csv", newline="") as handle:
            assert [row["status"] for row in csv.DictReader(handle)] == ["ok"] * 4
        assert builds == [{"height": 32, "width": 64, "blade_count": 4}]

    def test_failed_object_build_is_recorded_in_every_row(self, tmp_path):
        # A row whose config does not parse records its parse error instead.
        base = {**BASE_CONFIG, "object": {"path": "missing.csv", "range": "reflectance"}}
        bad_set = {"left": [{"kind": "hadamard", "order": 16}], "right": []}
        sweep = {"base": base, "vary": {"hybrid_sets": [base["hybrid"], bad_set],
                                        "sigmas": [0.0, 0.01]}}
        path = write_config(tmp_path, sweep, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["status"] for row in rows] == ["error"] * 4
        build_error = [row["message"] for row in rows if row["set"]]
        assert len(build_error) == 2 and build_error[0] == build_error[1]
        assert "No such file or directory" in build_error[0]
        assert str(tmp_path / "missing.csv") in build_error[0]
        assert all(row["message"].startswith("hybrid.right") for row in rows if not row["set"])

    def test_shipped_sweep_config_is_accepted(self, tmp_path):
        # The shipped run configs are run by test_reconstruct_reproduces_run_image.
        path = CONFIGS / "sweep_six_sets.json"
        name = json.loads(path.read_text())["table"]
        for out in ("first", "second"):
            assert main(["sweep", "--config", str(path), "--out", str(tmp_path / out),
                         "--quiet"]) == 0
        table = (tmp_path / "first" / name).read_bytes()
        rows = table.decode().strip().split("\n")[1:]
        assert len(rows) == 24
        assert all(",ok," in row for row in rows)
        # A rerun writes the same table, byte for byte.
        assert (tmp_path / "second" / name).read_bytes() == table

    def sweep_column(self, tmp_path, vary, flag, value, column) -> list[float]:
        """One column of a sweep over an 8x8 scene, run with ``flag value``."""
        base = {
            "object": {"generator": "windmill", "height": 8, "width": 8, "blade_count": 2},
            "hybrid": {"left": [{"kind": "hadamard", "order": 8}],
                       "right": [{"kind": "dct", "order": 8}]},
            "noise": {"sigma": 0.01, "seed": 0},
        }
        path = write_config(tmp_path, {"base": base, "vary": vary}, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet",
                     flag, value]) == 0
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["status"] == "ok" for row in rows)
        return [float(row[column]) for row in rows]

    @pytest.mark.parametrize("flag, value, column", [("--seed", "5", "seed"),
                                                     ("--sigma", "0.5", "sigma")])
    def test_varied_axis_wins_over_flag(self, tmp_path, flag, value, column):
        vary = {"sigmas": [0.0, 0.02], "seeds": [1, 2]}
        # Rows nest sigmas outside seeds.
        expected = {"seed": [1, 2, 1, 2], "sigma": [0.0, 0.0, 0.02, 0.02]}[column]
        assert self.sweep_column(tmp_path, vary, flag, value, column) == expected

    @pytest.mark.parametrize("flag, value, column, vary", [
        ("--seed", "5", "seed", {"sigmas": [0.0, 0.02]}),
        ("--sigma", "0.5", "sigma", {"seeds": [1, 2]}),
    ])
    def test_flag_sets_an_axis_not_varied(self, tmp_path, flag, value, column, vary):
        assert self.sweep_column(tmp_path, vary, flag, value, column) == [float(value)] * 2

    @pytest.mark.parametrize(
        "sweep, field",
        [
            ({"base": 5}, "base"),
            ({"base": BASE_CONFIG, "vary": 5}, "vary"),
            ({"base": BASE_CONFIG, "vary": {"sigmas": 0.1}}, "vary.sigmas"),
            ({"base": BASE_CONFIG, "vary": {"sigmas": 0}}, "vary.sigmas"),
            ({"base": BASE_CONFIG, "vary": {"sigmas": False}}, "vary.sigmas"),
            ({"base": BASE_CONFIG, "vary": {"sigma": [0.1]}}, "vary.sigma"),
            ({"base": BASE_CONFIG, "tabel": "out.csv"}, "tabel"),
            ({"vary": {"sigmas": [0.1]}}, "base"),
        ],
    )
    def test_malformed_sections_are_config_errors(self, tmp_path, capsys, sweep, field):
        path = write_config(tmp_path, sweep, "sweep.json")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert f"{field}:" in capsys.readouterr().err

    def test_table_name_with_a_directory_is_written_there(self, tmp_path):
        path = write_config(tmp_path, {"base": BASE_CONFIG, "table": "sub/t.csv"}, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == ["sub", "sub/t.csv"]
        assert (out / "sub" / "t.csv").read_text().startswith("index,set,sampling_rate")

    @pytest.mark.parametrize("value", [None, 5, ""], ids=["null", "number", "empty"])
    def test_table_must_be_a_file_name(self, tmp_path, capsys, value):
        path = write_config(tmp_path, {"base": BASE_CONFIG, "table": value}, "sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "table:" in capsys.readouterr().err
        assert not out.exists()
