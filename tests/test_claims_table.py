"""The claims table, ``benchmarks/results/claims.json``, and the
EXPERIMENTS.md tables generated from it.  No experiment runs here:
``python benchmarks/claims.py`` regenerates the table, and
``tests/test_pinned_payloads.py`` recomputes its extension rows."""

from __future__ import annotations

import json

import pytest

from repro import default_platform

FIELDS = ("id", "source", "claim", "paper", "measured", "verdict")


@pytest.fixture(scope="module")
def rows(claims):
    return json.loads(claims.CLAIMS.read_text(encoding="utf-8"))


def test_rows_are_well_formed(claims, rows):
    assert rows
    for row in rows:
        pinned = ["pinned"] if row.get("source") == "Extension" else []
        assert list(row) == [*FIELDS, "must_hold", *pinned], row.get("id")
        assert all(isinstance(row[f], str) and row[f] for f in FIELDS), row
        assert row["verdict"] in claims.VERDICTS, row["id"]
        assert all(isinstance(check, str) for check in row["must_hold"])
    assert len({row["id"] for row in rows}) == len(rows)


def test_extension_rows_name_a_baseline_and_pin_their_values(rows):
    """An extension row says what it beats, and carries the exact values
    behind its ``measured`` text."""
    extensions = [row for row in rows if row["source"] == "Extension"]
    assert extensions
    for row in extensions:
        assert row["id"].startswith("ext_"), row["id"]
        assert row["paper"].startswith("baseline: "), row["id"]
        assert len(row["paper"]) > len("baseline: "), row["id"]
        assert isinstance(row["pinned"], dict) and row["pinned"], row["id"]
        assert row["must_hold"], row["id"]


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
