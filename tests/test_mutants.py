"""The mutation runner's CI check refuses a matrix it cannot stand behind.

``benchmarks/mutants.py --check`` re-runs recorded kills.  A killer that
no longer exists, or a mutant that is no longer the recorded one, must
fail the check before any mutant runs, not read as a kill.  A run its
timeout kills leaves no shared-memory segment behind.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULE = "src/repro/tables/row_map.py"


@pytest.fixture(scope="module")
def mutants():
    path = ROOT / "benchmarks" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def matrix(mutants, tmp_path, monkeypatch):
    """The tracked matrix's entries for ``MODULE``, in a copy the test
    may edit; ``mutants.MATRIX`` points at it."""
    tracked = json.loads(mutants.MATRIX.read_text())["mutants"]
    entries = {mid: e for mid, e in tracked.items()
               if mid.startswith(MODULE + "::") and "killers" in e}
    path = tmp_path / "mutants.json"
    monkeypatch.setattr(mutants, "MATRIX", path)

    def write():
        path.write_text(json.dumps({"mutants": entries}))
    return entries, write


def test_a_renamed_killer_fails_the_check(mutants, matrix, capsys):
    entries, write = matrix
    mid, entry = next(iter(sorted(entries.items())))
    path, name = entry["killers"][0].rsplit("::", 1)
    entry["killers"] = [f"{path}::{name}_renamed"]
    write()
    assert mutants.main(["--check", MODULE]) == 1
    out = capsys.readouterr().out
    assert f"GONE {path}::{name}_renamed" in out
    assert out.count("GONE") == 1  # the other killers are collected
    assert "SURVIVED" not in out  # nothing ran


def test_a_moved_mutant_fails_the_check(mutants, matrix, capsys):
    entries, write = matrix
    mid = sorted(entries)[-1]
    entries[mid]["line"] += 1
    write()
    assert mutants.main(["--check", MODULE]) == 1
    assert f"MOVED {mid}" in capsys.readouterr().out


def test_the_matrix_is_written_one_entry_a_line(mutants, tmp_path):
    sections = {"counts": {"killed": 1}, "empty": [],
                "redundant": ["tests/a.py::t"],
                "mutants": {"b": {"line": 2}, "a": {"killers": ["x"]}}}
    path = tmp_path / "m.json"
    mutants._write_json(path, sections)
    assert json.loads(path.read_text()) == sections
    lines = path.read_text().splitlines()
    assert lines[-4:] == ['  "a": {"killers": ["x"]},', '  "b": {"line": 2}',
                          " }", "}"]


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="reads the process table under /proc")
def test_a_killed_run_leaves_no_segment(mutants):
    child = subprocess.Popen(
        [sys.executable, "-c",
         "from multiprocessing import shared_memory, resource_tracker\n"
         "s = shared_memory.SharedMemory(create=True, size=4096)\n"
         "resource_tracker.unregister(s._name, 'shared_memory')\n"
         "print(s.name, flush=True)\n"
         "import time; time.sleep(60)\n"],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    segment = Path("/dev/shm") / child.stdout.readline().strip()
    assert segment.exists()
    mutants.kill_group(child.pid)
    child.wait(timeout=10)
    child.stdout.close()
    assert not segment.exists()
