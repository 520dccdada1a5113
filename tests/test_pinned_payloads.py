"""The tracked simulated-clock bench payloads are goldens.

Every number in ``benchmarks/results/BENCH_<suite>.json`` comes off the
simulated clock and repeats exactly per seed, so the tracked file *is*
the pin: each CI bench entry point is run here into a temporary results
directory and its payload must equal the tracked one leaf for leaf.  Any
drift of a simulated number fails tier-1 and names the first leaf that
moved.  Re-pinning is "run the bench, read the ``git diff``, commit it".
"""

import copy
import json
import runpy
from pathlib import Path

import pytest

from repro.bench import reporting
from repro.bench.reporting import load_artifact

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

#: payload name -> (bench script, argv), as ``.github/workflows/ci.yml``
#: runs them.  The full serving sweep also writes ``BENCH_serving.json``;
#: the smoke run after it is the one whose output is tracked.
PINNED = {
    "BENCH_serving_full": ("bench_serving_sla.py", []),
    "BENCH_serving": ("bench_serving_sla.py", ["--smoke"]),
    "BENCH_refresh": ("bench_refresh.py", ["--smoke"]),
    "BENCH_cluster": ("bench_cluster.py", ["--smoke"]),
    "BENCH_precision": ("bench_precision.py", ["--smoke"]),
    "BENCH_scenarios": ("bench_scenarios.py", ["--smoke"]),
}


def tracked(name):
    return load_artifact(str(BENCHMARKS / "results" / f"{name}.json"))


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


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bench_regenerates_its_tracked_payload(name, tmp_path, monkeypatch):
    script, argv = PINNED[name]
    monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
    bench = runpy.run_path(str(BENCHMARKS / script), run_name="pinned_bench")
    assert not bench["main"](argv), f"{script} {argv} reported failures"
    regenerated = load_artifact(str(tmp_path / f"{name}.json"))
    drift = first_difference(tracked(name), regenerated)
    assert drift is None, (
        f"{name}.json drifted at {drift}; if intended, run `python "
        f"benchmarks/{' '.join([script, *argv])}` and commit the diff"
    )


def test_tracked_pins_hold_their_invariants():
    """Equality only helps if what is pinned was right: a bad state
    (a diverged identity run, an uncovered SLA violator) must not be
    committable as the new pin."""
    pins = {name: tracked(name) for name in PINNED}

    precision = pins["BENCH_precision"]
    assert precision["pinned_identical"] is True
    assert precision["auc"]["delta"] <= precision["auc"]["epsilon"]

    scenarios = pins["BENCH_scenarios"]
    assert scenarios["identity"]["identical"] is True
    assert scenarios["identity"]["autotune_keys_off"] == 0
    assert scenarios["wins"] >= scenarios["min_wins"]

    cluster = pins["BENCH_cluster"]
    assert cluster["determinism"]["identical"] is True
    rootcause = cluster["drill"]["rootcause"]
    assert rootcause["coverage"] == 1.0
    conservation = rootcause["conservation"]
    assert 0 < conservation["checked"] == conservation["ok"]


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
