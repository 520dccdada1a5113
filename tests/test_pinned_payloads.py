"""The extension rows of the claims table are goldens.

Every value in an ``Extension`` row of ``benchmarks/results/claims.json``
comes off the simulated clock and repeats exactly per seed, so the
tracked row *is* the pin: each extension section of
``benchmarks/claims.py`` runs here, every one of its ``must_hold``
checks must hold, and each row must equal the tracked one leaf for leaf
(its ``pinned`` values, its text and its checks).  Any drift names the
first leaf that moved.  The observability artifacts a section writes are
tracked too and must come back byte for byte.  Re-pinning is "run the
runner, read the ``git diff``, commit it".
"""

import copy
import json
from pathlib import Path

import pytest

from repro import default_platform
from repro.bench import reporting

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

#: The tracked artifacts each section writes (``cluster_reqtrace.json``
#: is regenerated and uploaded, not tracked).
ARTIFACTS = {
    "serving": {"metrics.json", "trace.json", "series.json", "alerts.json",
                "reqtrace.json", "reqtrace_rootcause.json"},
    "cluster": {"cluster_reqtrace_rootcause.json"},
}
SECTIONS = ("serving", "refresh", "cluster", "precision", "scenarios",
            "faults")


def first_difference(pinned, regenerated, path="$"):
    """Describe the first leaf at which two JSON trees differ, or None.

    Exact: no tolerance, and ``1`` is not ``1.0`` — equal trees serialise
    to the same bytes.
    """
    if isinstance(pinned, dict) and isinstance(regenerated, dict):
        for key in sorted(pinned.keys() | regenerated.keys()):
            here = f"{path}.{key}"
            if key not in regenerated:
                return f"{here}: pinned, but missing from the regenerated payload"
            if key not in pinned:
                return f"{here}: regenerated, but not in the pinned payload"
            found = first_difference(pinned[key], regenerated[key], here)
            if found:
                return found
        return None
    if isinstance(pinned, list) and isinstance(regenerated, list):
        if len(pinned) != len(regenerated):
            return (f"{path}: pinned length {len(pinned)} != "
                    f"regenerated length {len(regenerated)}")
        for i, (a, b) in enumerate(zip(pinned, regenerated)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(pinned) is not type(regenerated) or pinned != regenerated:
        return f"{path}: pinned {pinned!r} != regenerated {regenerated!r}"
    return None


def test_sections_are_the_runners(claims):
    assert SECTIONS == tuple(f.__name__ for f in claims.EXTENSIONS)


def tracked_rows(claims, prefix):
    return {
        row["id"]: row
        for row in json.loads(claims.CLAIMS.read_text(encoding="utf-8"))
        if row["id"].startswith(prefix)
    }


@pytest.fixture(scope="module")
def full_depth_sweep(claims):
    """The serving section's full depth sweep, computed once for the two
    tests that read it."""
    return claims._full_depth_sweep(default_platform())


def test_serving_full_depth_sweep_recomputes(claims, full_depth_sweep):
    sweep, checks = full_depth_sweep
    failed = [text for text, ok in checks.items() if not ok]
    assert not failed, f"must_hold checks fail: {failed}"
    pinned = tracked_rows(claims, "ext_serving_depth")[
        "ext_serving_depth"]["pinned"]["full"]
    drift = first_difference(pinned, json.loads(json.dumps(sweep)),
                             "ext_serving_depth.pinned.full")
    assert drift is None, f"the full depth sweep drifted at {drift}"


@pytest.mark.parametrize("section", SECTIONS)
def test_extension_rows_recompute(claims, section, tmp_path, monkeypatch,
                                  request):
    monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
    if section == "serving":
        sweep = request.getfixturevalue("full_depth_sweep")
        monkeypatch.setattr(claims, "_full_depth_sweep", lambda hw: sweep)
    fresh = getattr(claims, section)(default_platform())
    failed = [f"{c.id}: {text}" for c in fresh
              for text, ok in c.checks.items() if not ok]
    assert not failed, f"must_hold checks fail: {failed}"

    tracked = tracked_rows(claims, f"ext_{section}_")
    rows = json.loads(json.dumps([c.row() for c in fresh],
                                 ensure_ascii=False))
    assert [row["id"] for row in rows] == list(tracked)
    for row in rows:
        drift = first_difference(tracked[row["id"]], row, row["id"])
        assert drift is None, (
            f"claims.json drifted at {drift}; if intended, run `PYTHONPATH"
            "=src python benchmarks/claims.py` and commit the diff"
        )

    written = {path.name for path in tmp_path.iterdir()}
    expected = ARTIFACTS.get(section, set())
    assert expected <= written
    for name in sorted(expected):
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), (
            f"{name} drifted from its tracked bytes"
        )


class TestFirstDifference:
    PAYLOAD = {
        "version": 1,
        "sweep": {"2x-hash": {"sla_attainment": 0.9871, "served": 1800}},
        "depths": [1, 2],
    }

    def test_reserialised_copy_is_equal(self):
        copied = json.loads(json.dumps(self.PAYLOAD, indent=2, sort_keys=True))
        assert first_difference(self.PAYLOAD, copied) is None

    def test_changed_float_names_its_leaf(self):
        moved = copy.deepcopy(self.PAYLOAD)
        moved["sweep"]["2x-hash"]["sla_attainment"] = 0.9872
        message = first_difference(self.PAYLOAD, moved)
        assert message.startswith("$.sweep.2x-hash.sla_attainment:")
        assert "0.9871" in message and "0.9872" in message

    def test_missing_key_names_its_leaf(self):
        moved = copy.deepcopy(self.PAYLOAD)
        del moved["sweep"]["2x-hash"]["served"]
        message = first_difference(self.PAYLOAD, moved)
        assert message.startswith("$.sweep.2x-hash.served:")
        assert "missing" in message

    def test_extra_key_names_its_leaf(self):
        moved = copy.deepcopy(self.PAYLOAD)
        moved["sweep"]["4x-hash"] = {}
        message = first_difference(self.PAYLOAD, moved)
        assert message.startswith("$.sweep.4x-hash:")
        assert "not in the pinned" in message

    def test_int_is_not_float_and_lists_compare_by_position(self):
        assert first_difference({"n": 1}, {"n": 1.0}).startswith("$.n:")
        assert first_difference([1, 2], [1, 3]).startswith("$[1]:")
        assert "length" in first_difference([1, 2], [1])
