"""CLI probes run as ``python -m hybridgi.cli`` subprocesses, and the map of all CLI probes.

Each test keeps its probe's checks: the exit code, the stderr text, no
``Traceback``, the ``cmp`` byte checks, and no ``--out`` left behind.
Warnings are errors, as in CI. A fresh interpreter per call also draws a
fresh string-hash seed, so a rerun that matches is deterministic across
processes, not only within one.

CI's workflow runs only ``hybridgi footprint 32 64`` and ``hybridgi
demo-stripes`` through the installed console script. Each probe that its
shell steps ran before is checked by one of these tier-1 tests. In this
module, as subprocesses:

- ``metrics --seed 1`` is a usage error (exit 1, ``usage: hybridgi``, no
  --out): ``test_flag_of_another_command_is_a_usage_error``.
- the six-set sweep, run twice, writes the same table:
  ``test_sweep_rerun_writes_the_same_table``.
- the dft staged round trips, both sides: ``test_dft_stages_reproduce_a_run[right]``,
  ``test_dft_stages_reproduce_a_run[left]``.
- the noisy reruns write the same buckets:
  ``test_noisy_rerun_writes_the_same_buckets[stripes_compression-0.05-7]``,
  ``[chained_transforms-0.05-3]`` and ``[windmill_sub_nyquist-0.01-42]``.
- the gen-object reruns write the same image:
  ``test_gen_object_rerun_writes_the_same_image[stripes]``, ``[windmill]``, ``[separable]``.
- a 512x512 physical run, twice, within the timeout and to the same buckets:
  ``test_physical_acquisition_at_512_squared_is_closed_form``.

In-process, through ``main``, in ``tests/test_cli.py`` (``tests/test_acceptance.py``
for criterion 12). A ``main`` that returns its code has printed no traceback, and
tier-1 turns warnings into errors as ``PYTHONWARNINGS=error`` did:

- sigma 1e308 and 1e307 by flag (exit 3, ``sigma ... is too large``):
  ``TestExitCodes::test_overflowing_sigma_is_numeric_error[stripes_compression.json-flag]``,
  ``[stripes_compression.json-flag-1e307]``, and the same by config and for
  ``chained_transforms.json``.
- run, then reconstruct, the same CSV and PGM, then metrics, the same
  quality in a strict-JSON report:
  ``TestRunCommand::test_reconstruct_reproduces_run_image[windmill_sub_nyquist.json]``
  and the other shipped run configs; the stage chain from gen-object:
  ``TestRunCommand::test_stage_commands_chain_together``.
- a rerun writes the same buckets: ``TestRunCommand::test_byte_identical_reruns``,
  ``test_acceptance.py::test_criterion_12_determinism_byte_identical``.
- a cut bucket CSV for reconstruct and metrics, a complex token in the
  reconstruction CSV (exit 2): ``TestExitCodes::test_data_file_that_is_not_its_run_is_io_error``,
  its cases ``[reconstruct-buckets.csv-cut-row-...]``,
  ``[metrics-buckets.csv-cut-row-...]`` and ``[metrics-recon.csv-complex-...]``.
- every report is strict JSON: ``TestRunCommand::test_exact_recovery_report_is_strict_json``,
  ``TestRunCommand::test_reconstruct_reproduces_run_image``,
  ``TestExitCodes::test_huge_rel_tol_runs_clean``, and each report that a port
  here writes.
- an undecodable config (exit 1): ``TestExitCodes::test_undecodable_byte_is_reported[config-run-1]``.
- 1e200 in the reconstruction CSV (exit 3):
  ``TestExitCodes::test_overflowing_reconstruction_is_numeric_error``.
- a blade_count of 10**400 (exit 1):
  ``TestExitCodes::test_bad_generator_parameters_are_config_errors[huge-blade-count]``.
- peak 1e-320 (exit 3, names peak):
  ``TestExitCodes::test_peak_with_underflowing_stabilizers_is_numeric_error[1e-320-...]``.
- rel_tol 1e308 runs with an empty stderr: ``TestExitCodes::test_huge_rel_tol_runs_clean``.
- a hadamard of order 48 (exit 1, names ``hybrid.left[0].order``):
  ``TestExitCodes::test_unbuildable_order_is_config_error[hadamard-48]``.
- outputs that collide (exit 1, no --out):
  ``TestExitCodes::test_colliding_output_names_are_config_errors[run-image-csv-and-buckets]``.
- gen-object of a CSV scene holding nan (exit 3, no PGM, no --out):
  ``TestExitCodes::test_non_finite_scene_is_no_pgm_object[nan]``,
  ``TestExitCodes::test_failing_command_makes_no_out_directory[gen-object-nan-scene]``.
- a 4x4 object under the ssim window (exit 3, no --out):
  ``TestExitCodes::test_small_compared_region_fails_before_acquiring[4x4-separable]``,
  ``TestExitCodes::test_failing_command_makes_no_out_directory[run-4x4-separable]``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hybridgi

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = str(Path(hybridgi.__file__).resolve().parent.parent)


def hybridgi_cli(*argv: str) -> subprocess.CompletedProcess:
    """``hybridgi argv`` in a fresh interpreter with PYTHONWARNINGS=error."""
    return subprocess.run(
        [sys.executable, "-m", "hybridgi.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONWARNINGS": "error"},
    )


def run_clean(*argv: str) -> None:
    """``hybridgi argv --quiet`` exits 0 with nothing on stderr."""
    done = hybridgi_cli(*argv, "--quiet")
    assert (done.returncode, done.stderr) == (0, "")


def strict_json(path: Path) -> dict:
    """The report at ``path``, which holds no NaN or Infinity constant."""
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_flag_of_another_command_is_a_usage_error(tmp_path):
    out = tmp_path / "usage"
    done = hybridgi_cli("metrics", "--seed", "1", "--config",
                        str(CONFIGS / "stripes_compression.json"), "--out", str(out))
    assert done.returncode == 1
    assert "usage: hybridgi" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "hybrid",
    [{"left": [{"kind": "hadamard", "order": 64}], "right": [{"kind": "dft", "order": 64}]},
     {"left": [{"kind": "dft", "order": 64}],
      "right": [{"kind": "haar", "order": 64, "sampling_rate": 0.75}]}],
    ids=["right", "left"],
)
def test_dft_stages_reproduce_a_run(tmp_path, hybrid):
    # A dft on either side runs its own real-arithmetic branch of the recovery.
    config = tmp_path / "dft.json"
    config.write_text(json.dumps({
        "object": {"generator": "windmill", "height": 64, "width": 64, "blade_count": 4},
        "hybrid": hybrid,
        "noise": {"sigma": 0.0, "seed": 0},
        "outputs": {"image": "dft_recon.pgm", "buckets": "dft_buckets.csv",
                    "report": "dft_report.json"},
    }))
    run, staged = tmp_path / "run", tmp_path / "staged"
    run_clean("run", "--config", str(config), "--out", str(run))
    shutil.copytree(run, staged)
    (staged / "dft_report.json").unlink()
    for command in ("reconstruct", "metrics"):
        run_clean(command, "--config", str(config), "--out", str(staged))
    for name in ("dft_recon.csv", "dft_recon.pgm"):
        assert (staged / name).read_bytes() == (run / name).read_bytes(), name
    reports = [strict_json(out / "dft_report.json") for out in (run, staged)]
    for key in ("set", "sampling_rate", "quality"):
        assert reports[1][key] == reports[0][key], key


@pytest.mark.parametrize("name, sigma, seed", [("stripes_compression", "0.05", "7"),
                                               ("chained_transforms", "0.05", "3"),
                                               ("windmill_sub_nyquist", "0.01", "42")])
def test_noisy_rerun_writes_the_same_buckets(tmp_path, name, sigma, seed):
    config = CONFIGS / f"{name}.json"
    outputs = json.loads(config.read_text())["outputs"]
    written = []
    for out in (tmp_path / "one", tmp_path / "two"):
        run_clean("run", "--config", str(config), "--sigma", sigma, "--seed", seed,
                  "--out", str(out))
        written.append((out / outputs["buckets"]).read_bytes())
        strict_json(out / outputs["report"])
    assert written[0] == written[1]


@pytest.mark.parametrize("obj", [
    {"generator": "stripes", "height": 16, "width": 32, "stripe_period": 8,
     "orientation": "vertical", "stagger_offset": 2, "band_size": 4},
    {"generator": "windmill", "height": 16, "width": 32, "blade_count": 6},
    {"generator": "separable", "left_kind": "haar", "left_order": 16, "right_kind": "dct",
     "right_order": 32, "row": 3, "col": 5, "binarize": False},
], ids=["stripes", "windmill", "separable"])
def test_gen_object_rerun_writes_the_same_image(tmp_path, obj):
    config = tmp_path / "object.json"
    config.write_text(json.dumps({"object": obj, "hybrid": {
        "left": [{"kind": "hadamard", "order": 16}], "right": [{"kind": "dct", "order": 32}]}}))
    images = []
    for out in (tmp_path / "one", tmp_path / "two"):
        run_clean("gen-object", "--config", str(config), "--out", str(out))
        images.append((out / "object.pgm").read_bytes())
    assert images[0] == images[1]


def test_sweep_rerun_writes_the_same_table(tmp_path):
    # TestSweep::test_shipped_sweep_config_is_accepted reruns it within one process.
    config = CONFIGS / "sweep_six_sets.json"
    table = json.loads(config.read_text())["table"]
    written = []
    for out in (tmp_path / "one", tmp_path / "two"):
        run_clean("sweep", "--config", str(config), "--out", str(out))
        written.append((out / table).read_bytes())
    assert written[0] == written[1]


def test_physical_acquisition_at_512_squared_is_closed_form(tmp_path):
    # A per-pattern loop would take minutes here, past hybridgi_cli's timeout;
    # the closed form takes about a second.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "object": {"generator": "windmill", "height": 512, "width": 512, "blade_count": 4},
        "hybrid": {"left": [{"kind": "hadamard", "order": 512}],
                   "right": [{"kind": "haar", "order": 512}]},
        "noise": {"sigma": 0.01, "seed": 0},
        "outputs": {"image": "recon.pgm", "buckets": "buckets.csv", "report": "report.json"},
    }))
    written = []
    for out in (tmp_path / "one", tmp_path / "two"):
        run_clean("run", "--config", str(config), "--out", str(out))
        written.append((out / "buckets.csv").read_bytes())
        strict_json(out / "report.json")
    assert written[0] == written[1]
