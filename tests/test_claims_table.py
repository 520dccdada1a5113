"""The paper's claims table, ``benchmarks/results/claims.json``, and the
EXPERIMENTS.md tables generated from it.  No experiment runs here:
``python benchmarks/claims.py`` regenerates the table."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro import default_platform

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("id", "source", "claim", "paper", "measured", "verdict")


@pytest.fixture(scope="module")
def claims():
    spec = importlib.util.spec_from_file_location(
        "claims", ROOT / "benchmarks" / "claims.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rows(claims):
    return json.loads(claims.CLAIMS.read_text(encoding="utf-8"))


def test_rows_are_well_formed(claims, rows):
    assert rows
    for row in rows:
        assert list(row) == [*FIELDS, "must_hold"], row.get("id")
        assert all(isinstance(row[f], str) and row[f] for f in FIELDS), row
        assert row["verdict"] in claims.VERDICTS, row["id"]
        assert all(isinstance(check, str) for check in row["must_hold"])
    assert len({row["id"] for row in rows}) == len(rows)


def test_experiments_md_is_rendered_from_the_table(claims, rows):
    doc = claims.DOC.read_text(encoding="utf-8")
    assert claims.render(rows, doc) == doc, (
        "EXPERIMENTS.md's tables differ from claims.json: run "
        "`PYTHONPATH=src python benchmarks/claims.py`"
    )
    lost = dict(rows[0], source="no such section")
    with pytest.raises(ValueError, match="no such section"):
        claims.render(rows + [lost], doc)


def test_table1_row_recomputes(claims, rows):
    """The cheapest row, Table 1's constants, through the runner's own
    row function."""
    tracked = {row["id"]: row for row in rows}
    fresh = [claim.row() for claim in claims.table1(default_platform())]
    assert fresh == [tracked[row["id"]] for row in fresh]
