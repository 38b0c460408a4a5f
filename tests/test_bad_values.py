"""One table of bad values over every field path of the shipped configs and a sidecar.

Each case sets one path, a leaf or a whole section, to each bad value in
turn. Every call must exit with a documented code (0 to 3) and raise no
exception or warning; a run that exits 0 must write a strict-JSON report.
"""

import copy
import json
import math
import shutil
from functools import reduce
from pathlib import Path

import pytest

from hybridgi.cli import main
from hybridgi.config import parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BAD_VALUES = [
    None, True, "x", "", -1, 0, 1, 2, 3, 1.5, -0.0, 1e308, -1e308, 10**400, 2**63,
    [], {}, [1], {"a": 1}, math.nan, math.inf, 1e-320,
]


def field_paths(node, path=()):
    """Every path below the JSON value ``node``, as a tuple of keys and indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def label(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def replaced(data, path, value):
    data = copy.deepcopy(data)
    reduce(lambda node, key: node[key], path[:-1], data)[path[-1]] = value
    return data


def read_config(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def pixels(name: str) -> int:
    scene = read_config(name)["object"]
    return scene["height"] * scene["width"]


# Each distinct path, run on the smallest shipped run config that has it.
RUN_CONFIGS = sorted(
    (path.name for path in CONFIGS.glob("*.json") if not path.name.startswith("sweep")),
    key=lambda name: (pixels(name), name),
)
CONFIG_PATHS = {}
for name in RUN_CONFIGS:
    for path in field_paths(read_config(name)):
        CONFIG_PATHS.setdefault(path, name)

# The sidecar of the smallest run config, which chains two factors on one side.
SIDECAR_CONFIG = RUN_CONFIGS[0]
SIDECAR = {
    "spec": parse_config(read_config(SIDECAR_CONFIG)).hybrid.to_dict(),
    "noise_sigma": 0.0,
    "seed": 0,
}


def reject_constant(constant):
    raise ValueError(f"not strict JSON: {constant}")


def exit_code(argv, value) -> int:
    try:
        code = main([*argv, "--quiet"])
    except Exception as exc:  # a warning is an exception here too
        pytest.fail(f"{value!r} escaped: {exc!r}")
    assert code in (0, 1, 2, 3), (value, code)
    return code


def assert_strict_report(config_path, out):
    report = parse_config(json.loads(config_path.read_text())).outputs.resolved(out).report
    json.loads(Path(report).read_text(), parse_constant=reject_constant)


@pytest.mark.parametrize(
    "name, path", [(name, path) for path, name in CONFIG_PATHS.items()],
    ids=[label(path) for path in CONFIG_PATHS],
)
def test_bad_config_value_exits_with_a_documented_code(tmp_path, capsys, name, path):
    for i, value in enumerate(BAD_VALUES):
        config_path = tmp_path / f"{i}.json"
        config_path.write_text(json.dumps(replaced(read_config(name), path, value)))
        out = tmp_path / f"out{i}"
        if exit_code(["run", "--config", str(config_path), "--out", str(out)], value) == 0:
            assert_strict_report(config_path, out)
        assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def acquired(tmp_path_factory):
    """A run of the sidecar config: its config path and its output directory."""
    out = tmp_path_factory.mktemp("acquired")
    config_path = CONFIGS / SIDECAR_CONFIG
    assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
    return config_path, out


@pytest.mark.parametrize("path", list(field_paths(SIDECAR)), ids=label)
def test_bad_sidecar_value_exits_with_a_documented_code(tmp_path, capsys, acquired, path):
    config_path, acquired_out = acquired
    sidecar_name = read_config(SIDECAR_CONFIG)["outputs"]["buckets"] + ".json"
    assert json.loads((acquired_out / sidecar_name).read_text()) == SIDECAR
    for i, value in enumerate(BAD_VALUES):
        out = shutil.copytree(acquired_out, tmp_path / f"out{i}")
        (out / sidecar_name).write_text(json.dumps(replaced(SIDECAR, path, value)))
        for command in ("reconstruct", "metrics"):
            code = exit_code([command, "--config", str(config_path), "--out", str(out)], value)
            if command == "metrics" and code == 0:
                assert_strict_report(config_path, out)
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("side", ["left", "right"])
def test_rate_that_rounds_to_no_rows_names_its_sampling_rate(tmp_path, capsys, side):
    # A rate of 0.005 keeps 0.16 of 32 rows on the left, 0.32 of 64 on the right: none.
    data = read_config("windmill_sub_nyquist.json")
    data["hybrid"][side][0]["sampling_rate"] = 0.005
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert exit_code(["run", "--config", str(config_path), "--out", str(out)], 0.005) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: hybrid.{side}[0].sampling_rate: ")
    assert "rounds to 0 kept rows" in err and "kept_rows" not in err
    assert not out.exists()
