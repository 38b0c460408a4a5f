"""Write the golden sweep tables that ``tests/test_golden.py`` compares byte for byte.

Usage: ``python tests/golden/regenerate.py``. It imports hybridgi from the
``src`` of the checkout it sits in and rewrites the ``.csv`` files beside it:

- ``six_sets.csv``: the shipped six-set sweep, ``configs/sweep_six_sets.json``;
- ``six_sets_sigma0.02_seed9.csv``: the same with ``--sigma 0.02 --seed 9``;
- ``two_sets_sigmas_seeds.csv``: its first full set and its sub-Nyquist
  dct-haar set, each at sigma 0, 0.01, 0.02 and 0.05 and at seeds 3 and 4.

The tables are test data: a change that regenerates them says which files
changed and why.
"""

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


def write_tables(out_dir: Path) -> None:
    """Run each sweep of TABLES through ``hybridgi sweep``, its table to ``out_dir``."""
    from hybridgi.cli import main

    with tempfile.TemporaryDirectory() as work:
        for name, (sweep, flags) in TABLES.items():
            config = Path(work, "sweep.json")
            config.write_text(json.dumps({**sweep, "table": name}))
            code = main(["sweep", "--config", str(config), "--out", str(out_dir), "--quiet",
                         *flags])
            if code != 0:
                raise RuntimeError(f"the sweep of {name} exited {code}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    write_tables(GOLDEN)
