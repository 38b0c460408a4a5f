"""A table of seeded valid configs, each run through the CLI end to end.

Every config is drawn from its own seeded generator, so the list is fixed.
It spans the five kinds, chains of one to three entries, orders 8-33
(powers of two for hadamard and haar), kept_rows or sampling_rate on a
chain's last entry, the three object generators, three noise levels, and
output names with and without directories. Warnings are errors here, so a
run that quietly casts, divides by zero or overflows fails its case.
"""

import json
import os
import random

import numpy as np
import pytest

from hybridgi import compose_chain
from hybridgi.cli import main
from hybridgi.config import parse_config

pytestmark = pytest.mark.filterwarnings("error")

COUNT = 300
KINDS = ("hadamard", "dct", "haar", "dft", "identity")
REAL_KINDS = ("hadamard", "dct", "haar", "identity")
POWER_OF_TWO_KINDS = ("hadamard", "haar")
SIGMAS = (0.0, 0.01, 0.2)
# A third each: names with directories, a CSV image (its own exact CSV), the defaults.
OUTPUTS = (
    {"image": "sub/r.pgm", "buckets": "a/b/buckets.csv", "report": "c/report.json"},
    {"image": "r.csv", "buckets": "b.csv", "report": "r.json"},
    None,
)


def _chain(rng: random.Random, kinds: tuple) -> list[dict]:
    kinds = [rng.choice(kinds) for _ in range(rng.randint(1, 3))]
    if any(kind in POWER_OF_TWO_KINDS for kind in kinds):
        order = rng.choice((8, 16, 32))
    else:
        order = rng.randint(8, 33)
    chain = [{"kind": kind, "order": order} for kind in kinds]
    cut = rng.random()
    if cut < 1 / 3:
        chain[-1]["kept_rows"] = rng.randint(1, order)
    elif cut < 2 / 3:
        chain[-1]["sampling_rate"] = round(rng.uniform(1 / order, 1.0), 3)
    return chain


def _object(rng: random.Random, height: int, width: int) -> dict:
    generator = rng.choice(("windmill", "stripes", "separable"))
    if generator == "windmill":
        return {"generator": "windmill", "height": height, "width": width,
                "blade_count": rng.randint(2, 8)}
    if generator == "stripes":
        orientation = rng.choice(("horizontal", "vertical"))
        along = height if orientation == "horizontal" else width
        return {"generator": "stripes", "height": height, "width": width,
                "stripe_period": 2 * rng.randint(1, along // 2), "orientation": orientation,
                "stagger_offset": rng.randint(0, 4), "band_size": rng.randint(1, 4)}

    def kind(order):
        return rng.choice([k for k in REAL_KINDS
                           if k not in POWER_OF_TWO_KINDS or order & (order - 1) == 0])

    return {"generator": "separable", "left_kind": kind(height), "left_order": height,
            "right_kind": kind(width), "right_order": width,
            "row": rng.randrange(height), "col": rng.randrange(width)}


def _uses_dft(hybrid: dict) -> bool:
    return any(entry["kind"] == "dft" for entry in hybrid["left"] + hybrid["right"])


def valid_config(index: int) -> dict:
    rng = random.Random(index)
    kinds = KINDS if rng.random() < 1 / 3 else REAL_KINDS  # a dft leaves most of the sigmas out
    hybrid = {"left": _chain(rng, kinds), "right": _chain(rng, kinds)}
    config = {
        "object": _object(rng, hybrid["left"][0]["order"], hybrid["right"][0]["order"]),
        "hybrid": hybrid,
        # Only ideal acquisition takes a dft factor.
        "noise": {"sigma": 0.0 if _uses_dft(hybrid) else rng.choice(SIGMAS),
                  "seed": rng.getrandbits(64)},
    }
    if OUTPUTS[index % 3] is not None:
        config["outputs"] = OUTPUTS[index % 3]
    return config


def _files(folder) -> dict:
    return {str(path.relative_to(folder)): path.read_bytes()
            for path in sorted(folder.rglob("*")) if path.is_file()}


def _strict_json(path) -> dict:
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    with open(path) as handle:
        return json.load(handle, parse_constant=reject)


@pytest.mark.parametrize("index", range(COUNT), ids=lambda index: f"config-{index:03d}")
def test_valid_config_runs_reproducibly(tmp_path, index):
    config = valid_config(index)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    runs = [tmp_path / "run", tmp_path / "rerun"]
    for out in runs:
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
    assert _files(runs[0]) == _files(runs[1])

    parsed = parse_config(config)
    run, staged = (parsed.outputs.resolved(out) for out in runs)
    report = _strict_json(run.report)
    os.remove(staged.report)
    for command in ("reconstruct", "metrics"):
        assert main([command, "--config", str(config_path), "--out", str(runs[1]), "--quiet"]) == 0
    staged_report = _strict_json(staged.report)
    for key in ("set", "sampling_rate", "quality"):
        assert staged_report[key] == report[key], key

    if parsed.noise.sigma == 0 and not parsed.uses_dft:
        # The reconstruction measured again gives the buckets: L Lᵀ = I on kept rows.
        left, right = compose_chain(parsed.hybrid)
        recon = np.loadtxt(run.image_csv, delimiter=",", ndmin=2)
        buckets = np.loadtxt(run.buckets, delimiter=",", ndmin=2)
        remeasured = left.entries @ recon @ right.entries.T
        assert np.max(np.abs(remeasured - buckets)) <= 1e-9 * np.max(np.abs(buckets))
