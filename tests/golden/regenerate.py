"""Write the golden outputs that ``tests/test_golden.py`` compares.

Usage: ``python tests/golden/regenerate.py``. It imports hybridgi from the
``src`` of the checkout it sits in and rewrites the files beside it:

- ``six_sets.csv``: the shipped six-set sweep, ``configs/sweep_six_sets.json``;
- ``six_sets_sigma0.02_seed9.csv``: the same with ``--sigma 0.02 --seed 9``;
- ``two_sets_sigmas_seeds.csv``: its first full set and its sub-Nyquist
  dct-haar set, each at sigma 0, 0.01, 0.02 and 0.05 and at seeds 3 and 4;
- ``runs.json``: for each shipped run config, ``hybridgi run``'s summary line
  and its report's ``set``, ``sampling_rate`` and ``quality``;
- ``demo_stripes.txt`` and ``footprint_32_64.txt``: the stdout of
  ``hybridgi demo-stripes`` and ``hybridgi footprint 32 64``.

The files are test data: a change that regenerates them says which files
changed and why.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
SIX_SETS = json.loads((ROOT / "configs" / "sweep_six_sets.json").read_text())

# Each table's name, its sweep and the flags it runs with.
TABLES = {
    "six_sets.csv": (SIX_SETS, []),
    "six_sets_sigma0.02_seed9.csv": (SIX_SETS, ["--sigma", "0.02", "--seed", "9"]),
    "two_sets_sigmas_seeds.csv": ({
        "base": SIX_SETS["base"],
        "vary": {"hybrid_sets": [SIX_SETS["vary"]["hybrid_sets"][i] for i in (0, 9)],
                 "sigmas": [0.0, 0.01, 0.02, 0.05], "seeds": [3, 4]},
    }, []),
}
# The shipped run configs, by file stem, and the report keys that runs.json keeps.
RUN_CONFIGS = ("chained_transforms", "stripes_compression", "windmill_full_sampling",
               "windmill_sub_nyquist")
REPORT_KEYS = ("set", "sampling_rate", "quality")
# Each stdout file's name and the arguments that print it.
STDOUTS = {
    "demo_stripes.txt": ["demo-stripes"],
    "footprint_32_64.txt": ["footprint", "32", "64"],
}


def stdout_of(argv: list[str]) -> str:
    """What ``hybridgi`` with ``argv`` prints; it must exit 0."""
    from hybridgi.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"hybridgi {' '.join(argv)} exited {code}")
    return out.getvalue()


def run_config(stem: str, out_dir: Path) -> tuple[str, dict]:
    """``hybridgi run`` on ``configs/<stem>.json`` into ``out_dir``: its stdout and report."""
    config = ROOT / "configs" / f"{stem}.json"
    summary = stdout_of(["run", "--config", str(config), "--out", str(out_dir)])
    report = json.loads(config.read_text())["outputs"]["report"]
    return summary, json.loads((out_dir / report).read_text())


def write_tables(out_dir: Path) -> None:
    """Run each sweep of TABLES through ``hybridgi sweep``, its table to ``out_dir``."""
    with tempfile.TemporaryDirectory() as work:
        for name, (sweep, flags) in TABLES.items():
            config = Path(work, "sweep.json")
            config.write_text(json.dumps({**sweep, "table": name}))
            stdout_of(["sweep", "--config", str(config), "--out", str(out_dir), "--quiet",
                       *flags])


def write_runs(out_dir: Path) -> None:
    """runs.json and the STDOUTS files, to ``out_dir``."""
    runs = {}
    with tempfile.TemporaryDirectory() as work:
        for stem in RUN_CONFIGS:
            summary, report = run_config(stem, Path(work, stem))
            runs[stem] = {"summary": summary, **{key: report[key] for key in REPORT_KEYS}}
    (out_dir / "runs.json").write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    for name, argv in STDOUTS.items():
        (out_dir / name).write_text(stdout_of(argv))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    write_tables(GOLDEN)
    write_runs(GOLDEN)
