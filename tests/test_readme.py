"""The README's facts that come from code or data, read back from their
source, so that a changed value must change the text with it."""

import json
import os
import re

import pytest

import golden
from conftest import TEST_ADDRESS_LIMIT_BYTES, TEST_WALL_LIMIT_S
from systolic import builder, census, words
from test_cli import _STDLIB, SUBCOMMAND_IMPORTS

ROOT = os.path.dirname(golden.HERE)


def _read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return fh.read()


README = _read("README.md")
# whitespace folded, so a fact may wrap across lines
TEXT = " ".join(README.split())


def _spelled(value):
    exponent = len(str(value)) - 1
    return f"10^{exponent}" if value == 10**exponent and exponent > 1 else str(value)


def test_readme_states_the_current_caps():
    for module, name in [
        (census, "MAX_SIEVE_LIMIT"),
        (words, "MAX_WORD_LETTERS"),
        (builder, "MAX_VERTICES"),
        (builder, "MAX_FLOOR"),
    ]:
        stated = f"`{module.__name__.rsplit('.', 1)[-1]}.{name}` = {_spelled(getattr(module, name))}"
        assert stated in TEXT, stated


def test_readme_states_the_largest_census_trace(monkeypatch):
    # the largest trace whose sieve fits under the cap, as the census sizes
    # it; the stand-in sieve records the limit and allocates nothing
    class Recorded:
        def __init__(self, limit):
            self.limit = limit

    monkeypatch.setattr(census, "DivisorSieve", Recorded)
    m = 3
    while census._sieve_for(m + 1, None).limit <= census.MAX_SIEVE_LIMIT:
        m += 1
    assert f"`census --max-trace` above {m} exits 2" in TEXT
    monkeypatch.undo()
    with pytest.raises(ValueError, match=f"traces above {m}"):
        census.DivisorSieve(census.MAX_SIEVE_LIMIT + 1)


def test_readme_counts_the_golden_entries():
    grid = list(golden.grid())
    runs = sum(argv is not None for _, argv, _ in grid)
    with open(golden.GOLDEN, encoding="ascii") as fh:
        assert len(json.load(fh)) == len(grid)
    assert len(grid) - runs == 1  # the README speaks of "the one file"
    assert f"digests of {runs} command-line runs and of the one file that `tests/golden.py` writes" in TEXT


def test_readme_names_the_test_extras():
    extras = re.search(r"^test = \[(.*)\]$", _read("pyproject.toml"), re.M).group(1)
    paragraph = next(p for p in README.split("\n\n") if '".[test]"' in p)
    assert set(re.findall(r"`([a-z]+)`", paragraph)) == set(re.findall(r'"([^"]+)"', extras))


def test_readme_states_the_test_limits():
    assert f"past {TEST_WALL_LIMIT_S} s wall time" in TEXT
    assert f"under a {TEST_ADDRESS_LIMIT_BYTES >> 30} GiB address-space limit" in TEXT


def test_readme_lists_the_modules_each_subcommand_loads():
    rows = {}
    for line in README.split("\n"):
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| command ") and len(cells) == 3:
            assert re.findall(r"`(\w+)`", cells[2]) == list(_STDLIB)
        elif line.startswith("| `") and len(cells) == 3:
            rows[cells[0].strip("`")] = tuple(set(re.findall(r"`(\w+)`", cell)) for cell in cells[1:])
    want = {
        " ".join(["systolic", *argv]) if argv else "import systolic, systolic.cli": (loaded, stdlib)
        for argv, loaded, stdlib in SUBCOMMAND_IMPORTS.values()
    }
    assert rows == want
