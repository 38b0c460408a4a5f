"""The package root: its public API is what it imports from its modules, and the README's
examples run as printed."""

import ast
import csv
import re
from pathlib import Path
from types import ModuleType

import hybridgi
from hybridgi.cli import main


def imported_names() -> list[str]:
    """The names that the ``from .module import (...)`` blocks of __init__.py bind."""
    tree = ast.parse(Path(hybridgi.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_is_the_imported_names():
    names = imported_names()
    assert sorted(hybridgi.__all__) == sorted(names)
    assert len(set(names)) == len(names)


def test_star_import_binds_the_imported_names_and_no_module():
    star = {}
    exec("from hybridgi import *", star)
    del star["__builtins__"]
    assert set(star) == set(imported_names())
    assert not any(isinstance(value, ModuleType) for value in star.values())


def fenced_blocks(text: str, language: str) -> list[str]:
    """The bodies of the ```language blocks of a Markdown text, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # The library example, the run config and the sweep file, each as the README prints it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = fenced_blocks(readme, "python")
    run_config, sweep_config = fenced_blocks(readme, "json")
    monkeypatch.chdir(tmp_path)
    exec(example, {})
    assert capsys.readouterr().out.startswith("(32, 64) ")
    (tmp_path / "run.json").write_text(run_config)
    assert main(["run", "--config", "run.json", "--out", "run", "--quiet"]) == 0
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == [
        "buckets.csv", "buckets.csv.json", "recon.csv", "recon.pgm", "report.json"]
    (tmp_path / "sweep.json").write_text(sweep_config)
    assert main(["sweep", "--config", "sweep.json", "--out", "sweep", "--quiet"]) == 0
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as handle:
        assert [row["status"] for row in csv.DictReader(handle)] == ["ok"] * 4
