"""Tiny-size runs of the whole benchmark: output contract and metric names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hooks
import run
from workloads import WORKLOADS

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == hooks.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_its_unit(trace):
    done = _run("--workload", "all", "--seed", "5", "--seconds", "0.3",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS) * 4
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    names = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in expected}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name


def test_tiny_traced_sweep_counts_every_pattern():
    done = _run("--workload", "sweep_six_sets", "--seed", "5", "--seconds", "0.3",
                "--trace", "1", "--tiny")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    # 8x16: 6 full sets of 128 buckets and 6 sets of 7x14, at two sigmas.
    assert metrics["measurement.pattern.calls"]["value"] == 2 * (6 * 128 + 6 * 98)
    assert metrics["transforms.build_transform.calls"]["value"] == 96
    shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0, abs=1e-6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "sweep_six_sets", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
