"""The CI workflow's shell probes, run as ``python -m hybridgi.cli`` subprocesses.

Each test keeps its probe's checks: the exit code, the stderr text, no
``Traceback``, and no ``--out`` left behind. Warnings are errors, as in CI.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def test_flag_of_another_command_is_a_usage_error(tmp_path):
    # "Console script" step: metrics takes no --seed.
    out = tmp_path / "usage"
    done = hybridgi_cli("metrics", "--seed", "1", "--config",
                        str(CONFIGS / "stripes_compression.json"), "--out", str(out))
    assert done.returncode == 1
    assert "usage: hybridgi" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()
