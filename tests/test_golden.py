"""The outputs of ``tests/golden``, written by ``tests/golden/regenerate.py``,
match what this checkout writes: each sweep table and stdout byte for byte, each
run's summary line exactly and its report's floats to 6 digits and a relative 1e-9."""

import json
import math

import numpy as np
import pytest

from golden import regenerate
from hybridgi import fileio

RUNS = json.loads((regenerate.GOLDEN / "runs.json").read_text())


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tables")
    regenerate.write_tables(out_dir)
    return out_dir


@pytest.mark.parametrize("name", list(regenerate.TABLES))
def test_sweep_table_equals_its_golden_file(written, name):
    assert (written / name).read_bytes() == (regenerate.GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", list(regenerate.STDOUTS))
def test_stdout_equals_its_golden_file(name):
    golden = (regenerate.GOLDEN / name).read_text()
    assert regenerate.stdout_of(regenerate.STDOUTS[name]) == golden


def assert_matches(got, want, where: str) -> None:
    """Equal, but for floats: the same 6-digit text and within a relative 1e-9."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, float):
        assert isinstance(got, float) and f"{got:.6g}" == f"{want:.6g}", where
        assert math.isclose(got, want, rel_tol=1e-9), where
    else:
        assert got == want, where


def test_every_shipped_run_config_has_a_golden_record():
    shipped = {path.stem for path in (regenerate.ROOT / "configs").glob("*.json")}
    assert set(RUNS) == set(regenerate.RUN_CONFIGS) == shipped - {"sweep_six_sets"}


@pytest.mark.parametrize("stem", regenerate.RUN_CONFIGS)
def test_run_matches_its_golden_record(tmp_path, stem):
    summary, report = regenerate.run_config(stem, tmp_path)
    want = RUNS[stem]
    assert summary == want["summary"]
    for key in regenerate.REPORT_KEYS:
        assert_matches(report[key], want[key], key)
    # Every shipped set is real, so the residual is rounding: L X' R^T = (L L^T) Y (R R^T).
    outputs = json.loads((regenerate.ROOT / "configs" / f"{stem}.json").read_text())["outputs"]
    buckets = fileio.read_buckets(tmp_path / outputs["buckets"]).values
    assert 0.0 <= report["residual_norm"] <= 1e-12 * np.linalg.norm(buckets)
