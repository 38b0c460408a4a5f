"""The sweep tables of ``tests/golden``, written by ``tests/golden/regenerate.py``,
match what this checkout writes, byte for byte."""

import pytest

from golden import regenerate


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tables")
    regenerate.write_tables(out_dir)
    return out_dir


@pytest.mark.parametrize("name", list(regenerate.TABLES))
def test_sweep_table_equals_its_golden_file(written, name):
    assert (written / name).read_bytes() == (regenerate.GOLDEN / name).read_bytes()
