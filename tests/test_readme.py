"""The code blocks of README.md run as written, and its config example
names every config key."""

import re
from pathlib import Path

import pytest

from distdict import build_run_config, load_config
from distdict.config import _KEYS
from distdict.metrics import CSV_COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text("utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
INI = re.findall(r"^```ini\n(.*?)^```$", TEXT, flags=re.M | re.S)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_a_readme_python_block_runs(code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


def test_the_readme_config_example_builds_and_names_every_key(tmp_path):
    # the example and the keys the paragraph after it says the example
    # leaves out are together the valid run keys, so a key added or removed
    # later cannot leave the README stale
    assert len(INI) == 1
    path = tmp_path / "example.cfg"
    path.write_text(INI[0], "utf-8")
    mapping = load_config(path)
    build_run_config(mapping)
    paragraph = TEXT[TEXT.index(INI[0]) + len(INI[0]):].split("\n\n")[1]
    left_out = re.search(r"The keys the\s+example leaves out \(([^)]*)\)",
                         paragraph)
    named = re.findall(r"`(\w+)`", left_out.group(1))
    assert len(set(named)) == len(named)
    assert not set(named) & set(mapping)
    assert {*mapping, *named} == set(_KEYS)


def test_the_readme_lists_the_trace_columns_in_order():
    listing = TEXT.split("`trace.csv` has these columns, in order:\n")[1]
    listing = listing.split("\n\n")[0]
    assert tuple(re.findall(r"^- `(\w+)`:", listing, flags=re.M)) \
        == CSV_COLUMNS
