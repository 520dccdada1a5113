"""Mutation runner: what each tier-1 test buys.  Standard library only.

Three steps::

    python benchmarks/mutants.py map     # reach map (~2.5 min)
    python benchmarks/mutants.py run     # kill matrix (~2 h on 2 cores)
    python benchmarks/mutants.py --check src/repro/tables/row_map.py

``map`` runs tier-1 once in this process under a profile hook and
records, per test node id, every ``src/repro`` function it enters (setup
and teardown included) and its duration.  It writes
``.mutants/reach.json``, untracked: the durations are one machine's.

``run`` rewrites each target function's ``ast`` in five ways
(``OPERATORS``), at most ``PER_OPERATOR`` sites per operator and
function (the first in ``ast.walk`` order: the shallowest), applies each
mutant to a private copy of ``src/`` and runs only the tests that reach
the function (the ``kept_first`` tests, then the others, each group
fastest first) with ``-x``, Hypothesis derandomized, one hash seed,
under a timeout that kills the run's process group (the dense worker
child too), at most ``os.cpu_count()`` runs at a time.  A mutant is
killed by the first test that fails; a survivor is ``equivalent`` when
``EQUIVALENT`` says why no test can see it, else a ``gap``.  The targets
are the functions ``benchmarks/check_hotpath.py`` marks, every function
of ``TARGET_FILES`` / ``TARGET_DIRS``, every function an example test
(one not ``kept_first``) reaches, and every function the matrix already
lists, so a rerun mutates the same set.  ``--module M`` re-runs one
module's mutants and updates their entries.  Every test the reach map
names must still exist, or the run stops before its first mutant.

The matrix, ``benchmarks/results/mutants.json``, maps each mutant id to
its function, operator, line, a digest of the mutated function and its
killer; ``unmutated`` counts, per function and operator, the sites left
out by ``PER_OPERATOR``; ``redundant`` lists the example tests no mutant
names as its killer and that reach no function with unmutated sites.
Since every mutant is offered its tests in one fixed order, each kill of
such a test is made by a test ordered before it: deleting all of them
together leaves the killed set as it is.

``--check MODULE...`` re-runs each killed mutant of the modules against
the test the matrix names as its killer, exits 1 if one survives, if a
killer no longer exists or if a mutant is no longer the one recorded
(its line, operator or digest moved), and writes nothing.
"""

import argparse
import ast
import copy
import functools
import hashlib
import importlib.util
import json
import os
import py_compile
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REACH = ROOT / ".mutants" / "reach.json"
MATRIX = ROOT / "benchmarks" / "results" / "mutants.json"

#: Files whose every function is a target, beside the hot-path marks.
TARGET_FILES = ("src/repro/tables/store.py", "src/repro/cluster/router.py")
TARGET_DIRS = ("src/repro/refresh",)
#: Sites mutated per operator and function, in ``ast.walk`` order.
PER_OPERATOR = 2
#: Test files never weighed for deletion (see kept_first).
KEEP_FIRST = ("golden", "pin", "budget", "_property", "test_options",
              "test_reachability", "test_stable_sorts", "test_dense_worker",
              "test_import_weight", "test_claims_table", "test_paper_claims")
#: Survivors no test can tell from the original, with the reason.
EQUIVALENT = {
    "src/repro/tables/store.py::EmbeddingStore._gather::drop#0": (
        "the int64 view only retypes in-corpus ids: the bank indexes and "
        "reference_vectors hashes either dtype alike, and RowMap.read_into "
        "takes the view itself"
    ),
    "src/repro/refresh/publisher.py::UpdatePublisher.stage::drop#0": (
        "the staged ids are read only through len() and int(), alike for "
        "every sequence of valid ids"
    ),
    "src/repro/refresh/scheduler.py::RefreshScheduler._segment_cost::drop#1": (
        "the memo holds a pure function of (num_keys, dim) on one "
        "platform: recomputing it gives the same cost"
    ),
    "src/repro/tables/row_map.py::RowMap.write::stable#1": (
        "the merged ids are distinct (a write's new ids are deduplicated "
        "and absent from the map), so any sort gives the one order"
    ),
    "src/repro/refresh/scheduler.py::RefreshScheduler.run_idle::drop#1": (
        "float(end) only converts: end is read by comparisons and max() "
        "alone, alike for every real number"
    ),
}


def _hypothesis_profile():
    """Derandomized, no example database, no deadline: a mutant's verdict
    does not depend on an earlier run or on this machine's speed.  No
    shrinking either: the first failing example is a kill."""
    from hypothesis import Phase, settings

    settings.register_profile(
        "mutants", derandomize=True, database=None, deadline=None,
        phases=(Phase.explicit, Phase.generate, Phase.target),
    )
    settings.load_profile("mutants")


def pytest_configure(config):
    """Loaded with ``-p mutants`` by every mutant run."""
    _hypothesis_profile()


def pytest_runtest_logstart(nodeid, location):
    """The test a run was in when it failed or timed out is the last
    one named in ``MUTANTS_LOG``."""
    log = os.environ.get("MUTANTS_LOG")
    if log:
        with open(log, "a") as f:
            f.write(nodeid + "\n")


# -- functions ----------------------------------------------------------------


def _functions(tree):
    """``{qualname: FunctionDef}`` of a module's functions and methods
    (nested functions belong to the function around them)."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[prefix + child.name] = child

    visit(tree, "")
    return out


def _parse(path):
    return ast.parse(path.read_text())


def _key(path, qualname):
    return f"{path.relative_to(ROOT).as_posix()}::{qualname}"


def base_targets():
    """Hot-path marked functions plus every function of the target files."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import check_hotpath

    keys = set()
    for rel in check_hotpath.HOT_PATH_FILES:
        path = ROOT / rel
        tree = _parse(path)
        marked = set(check_hotpath.marked_functions(
            tree, path.read_text().splitlines()))
        keys.update(_key(path, name)
                    for name, node in _functions(tree).items()
                    if node in marked)
    files = [ROOT / f for f in TARGET_FILES]
    for d in TARGET_DIRS:
        files += sorted((ROOT / d).glob("*.py"))
    for path in files:
        keys.update(_key(path, name) for name in _functions(_parse(path)))
    return keys


# -- step 1: reach map --------------------------------------------------------


class _Reach:
    """Pytest plugin recording each test's ``src/repro`` functions."""

    def __init__(self):
        self.tests = {}
        self._codes = set()
        self._start = 0.0
        self._names = {}

    def pytest_configure(self, config):
        _hypothesis_profile()

    def _profile(self, frame, event, arg):
        if event == "call":
            self._codes.add(frame.f_code)

    def pytest_runtest_logstart(self, nodeid, location):
        self._codes = set()
        self._start = time.perf_counter()
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)

    def pytest_runtest_logfinish(self, nodeid, location):
        sys.setprofile(None)
        threading.setprofile(None)
        seconds = time.perf_counter() - self._start
        functions = set()
        for code in self._codes:
            name = self._name(code)
            if name:
                functions.add(name)
        self.tests[nodeid] = {"seconds": round(seconds, 4),
                              "functions": sorted(functions)}

    def _name(self, code):
        if code not in self._names:
            path = Path(code.co_filename)
            name = None
            if path.is_relative_to(SRC / "repro"):
                qual = getattr(code, "co_qualname", code.co_name)
                name = _key(path, qual.split(".<locals>")[0])
            self._names[code] = name
        return self._names[code]


def build_map():
    """Run tier-1 in process under the profile hook; write the reach map.

    A test the previous map holds keeps its duration there, so a rebuilt
    map offers each mutant its tests in the same order (delete
    ``.mutants/`` to time every test again)."""
    import pytest

    sys.path.insert(0, str(SRC))
    plugin = _Reach()
    code = pytest.main(args=["-q", "-p", "no:cacheprovider"],
                       plugins=[plugin])
    if code not in (0, 1):
        sys.exit(f"tier-1 did not run (pytest exit {code})")
    known = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        known.update(_key(path, name) for name in _functions(_parse(path)))
    timed = json.loads(REACH.read_text()) if REACH.exists() else {}
    for test, entry in plugin.tests.items():
        entry["functions"] = [f for f in entry["functions"] if f in known]
        if test in timed:
            entry["seconds"] = timed[test]["seconds"]
    REACH.parent.mkdir(exist_ok=True)
    REACH.write_text(json.dumps(plugin.tests, indent=0, sort_keys=True))
    print(f"{len(plugin.tests)} tests mapped to {REACH}")


# -- step 2: mutants ----------------------------------------------------------


def _negate(node):
    return ast.UnaryOp(op=ast.Invert(), operand=node)


_FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
         ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
         ast.NotIn: ast.In}
_MASK_CALLS = {"where", "flatnonzero", "nonzero", "compress"}


def _sites(func):
    """Yield ``(operator, line, apply)`` for every mutation site of a
    function, in ``ast.walk`` order; ``apply()`` edits the tree in place."""
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                def flip(node=node, i=i, op=op):
                    node.ops[i] = _FLIP[type(op)]()
                yield "compare", node.lineno, flip
        elif isinstance(node, ast.Slice):
            for field, delta in (("lower", ast.Add()), ("upper", ast.Sub())):
                bound = getattr(node, field)
                if bound is None:
                    continue
                def shift(node=node, field=field, delta=delta, bound=bound):
                    setattr(node, field, ast.BinOp(
                        left=bound, op=delta, right=ast.Constant(1)))
                yield "slice", bound.lineno, shift
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                          ast.Invert):
            yield "mask", node.lineno, _replacer(node, node.operand)
        elif isinstance(node, ast.Subscript) and _is_mask(node.slice):
            def negate(node=node):
                node.slice = _negate(node.slice)
            yield "mask", node.lineno, negate
        elif isinstance(node, ast.Call):
            callee = node.func
            if (isinstance(callee, ast.Attribute)
                    and callee.attr in _MASK_CALLS and node.args):
                def negate_arg(node=node):
                    node.args[0] = _negate(node.args[0])
                yield "mask", node.lineno, negate_arg
            for i, kw in enumerate(node.keywords):
                if (kw.arg == "kind" and isinstance(kw.value, ast.Constant)
                        and kw.value.value == "stable"):
                    def unstable(node=node, i=i):
                        del node.keywords[i]
                    yield "stable", node.lineno, unstable
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if not isinstance(body, list):
                continue
            for i, stmt in enumerate(body):
                if _droppable(node, field, i, stmt):
                    def drop(body=body, i=i):
                        body[i] = ast.Pass()
                    yield "drop", stmt.lineno, drop


def _replacer(node, replacement):
    def apply():
        node.__class__ = replacement.__class__
        node.__dict__.clear()
        node.__dict__.update(copy.deepcopy(replacement).__dict__)
    return apply


def _is_mask(index):
    if isinstance(index, ast.Compare):
        return True
    if isinstance(index, ast.BinOp):
        return isinstance(index.op, (ast.BitAnd, ast.BitOr, ast.BitXor))
    return isinstance(index, ast.Name) and "mask" in index.id


def _droppable(parent, field, i, stmt):
    if isinstance(stmt, ast.Pass) or not isinstance(stmt, ast.stmt):
        return False
    # A docstring is not behaviour.
    return not (field == "body" and i == 0
                and isinstance(parent, (ast.FunctionDef, ast.ClassDef,
                                        ast.AsyncFunctionDef))
                and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str))


OPERATORS = ("compare", "slice", "drop", "mask", "stable")


def _by_file(keys):
    """``{module path: {qualname: FunctionDef}}`` of the function keys
    that still name a function."""
    out = {}
    for key in sorted(keys):
        rel, qual = key.split("::")
        if rel not in out:
            out[rel] = (_functions(_parse(ROOT / rel))
                        if (ROOT / rel).exists() else {})
    return {rel: {q: f for q, f in funcs.items() if f"{rel}::{q}" in keys}
            for rel, funcs in out.items()}


def mutants(keys):
    """``{mutant id: (function key, operator, line, digest, mutated
    module text)}``; the digest hashes the mutated function's source.
    The module is unparsed whole, so every string keeps its value;
    comments and layout do not survive, behaviour does."""
    out = {}
    for rel, funcs in _by_file(keys).items():
        module = _parse(ROOT / rel)
        for qual, func in funcs.items():
            counts = dict.fromkeys(OPERATORS, 0)
            for index, (operator, line, _) in enumerate(list(_sites(func))):
                if counts[operator] == PER_OPERATOR:
                    continue
                mid = f"{rel}::{qual}::{operator}#{counts[operator]}"
                counts[operator] += 1
                tree = copy.deepcopy(module)
                mutated = _functions(tree)[qual]
                list(_sites(mutated))[index][2]()
                digest = hashlib.sha1(
                    ast.unparse(mutated).encode()).hexdigest()[:12]
                out[mid] = (f"{rel}::{qual}", operator, line, digest,
                            ast.unparse(ast.fix_missing_locations(tree)))
    return out


def unmutated_sites(keys):
    """``{function key: {operator: sites}}`` of the sites that
    ``PER_OPERATOR`` leaves out (``operator#2`` on, for two)."""
    out = {}
    for rel, funcs in _by_file(keys).items():
        for qual, func in funcs.items():
            counts = Counter(operator for operator, _, _ in _sites(func))
            left = {op: n - PER_OPERATOR for op, n in counts.items()
                    if n > PER_OPERATOR}
            if left:
                out[f"{rel}::{qual}"] = left
    return out


# -- step 3: runs -------------------------------------------------------------


class _Slots:
    """One private copy of ``src/`` per concurrent run."""

    def __init__(self, count, workdir):
        self.free = queue.Queue()
        for i in range(count):
            copy_dir = Path(workdir) / f"slot{i}"
            shutil.copytree(SRC, copy_dir / "src", ignore=shutil.
                            ignore_patterns("__pycache__", "*.egg-info"))
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(copy_dir / "src")], check=True)
            self.free.put(copy_dir)


def _collected(tests):
    """The ids among ``tests`` that pytest collects on the unmutated
    tree."""
    files = sorted({t.split("::")[0] for t in tests
                    if (ROOT / t.split("::")[0]).is_file()})
    if not files:
        return set()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-o", "addopts=", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True).stdout
    return set(out.splitlines()) & set(tests)


def _run_one(slot, rel, text, tests, timeout):
    """Run ``tests`` with ``text`` as ``rel``; return the killer or None.

    Every id in ``tests`` is collected on the unmutated tree (the callers
    check with ``_collected``), so one pytest cannot collect here is one
    the mutant took away."""
    target = slot / rel
    original = target.read_text()
    log = slot / "started.log"
    log.write_text("")
    cache = Path(importlib.util.cache_from_source(str(target)))
    try:
        target.write_text(text)
        cache.unlink(missing_ok=True)
        env = dict(os.environ, MUTANTS_LOG=str(log),
                   PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
                   PYTHONPATH=os.pathsep.join([str(slot / "src"),
                                               str(ROOT / "benchmarks")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "--tb=no", "-rfE",
             "-p", "no:cacheprovider", "-p", "mutants", *tests],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            kill_group(proc.pid)
            proc.communicate()
            code, out = "timeout", ""
    finally:
        target.write_text(original)
        py_compile.compile(str(target), cfile=str(cache), doraise=True)
    started = log.read_text().split()
    if code == 0:
        return None
    if code in (1, "timeout") and started:
        return started[-1]
    if code == "timeout":
        return tests[0]  # the run hung before its first test
    if code in (2, 4) and not started:
        # A test module that fails to import, or a parametrized test
        # whose ids the mutant changed: the first test it takes down.
        broken = _uncollected(out)
        for test in tests:
            if test.split("[")[0] in broken or test.split("::")[0] in broken:
                return test
    raise RuntimeError(f"pytest exit {code} on {rel}:\n{out[-2000:]}")


def kill_group(pgid):
    """SIGKILL a process group and unlink the shared-memory segments its
    processes map (the dense worker's), which no killed process can
    unlink itself."""
    segments = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            if int(stat.read_text().rsplit(")", 1)[1].split()[2]) != pgid:
                continue
            maps = (stat.parent / "maps").read_text().splitlines()
        except (OSError, IndexError, ValueError):
            continue  # gone, or not ours to read
        segments.update(fields[5] for fields in map(str.split, maps)
                        if len(fields) == 6
                        and fields[5].startswith("/dev/shm/"))
    os.killpg(pgid, signal.SIGKILL)
    for segment in segments:
        Path(segment).unlink(missing_ok=True)


def _uncollected(out):
    """Files and test functions a pytest run could not collect."""
    broken = set()
    for line in out.splitlines():
        if line.startswith("ERROR tests/"):
            broken.add(line.split()[1])
        elif line.startswith("ERROR: not found: "):
            path = Path(line.split()[3])
            broken.add(path.relative_to(ROOT).as_posix()
                       if path.is_absolute() else path.as_posix())
    return broken


def kept_first(test):
    """Whether ``test`` is never a deletion candidate: the goldens, pins,
    property and stateful tests (``@given`` ones in any file too), the
    lint meta-tests, the claims runner's tests and the dense worker's own
    suite."""
    path = test.split("::")[0]
    return (any(part in path for part in KEEP_FIRST)
            or test.split("[")[0] in _given_tests(path))


@functools.cache
def _given_tests(path):
    """Node ids (without parameters) of a test file's ``@given`` tests."""
    out = set()
    for node in ast.parse((ROOT / path).read_text()).body:
        members = ([(node.name + "::", m) for m in node.body]
                   if isinstance(node, ast.ClassDef) else [("", node)])
        for prefix, member in members:
            if isinstance(member, ast.FunctionDef) and any(
                    "given" in ast.unparse(d) for d in member.decorator_list):
                out.add(f"{path}::{prefix}{member.name}")
    return out


def _order(reach, tests):
    """Kept tests first, then example tests, each group fastest first."""
    return sorted(tests, key=lambda t: (not kept_first(t),
                                        reach[t]["seconds"], t))


def targets(reach):
    """The base targets, every function an example test reaches (each
    example test is a deletion candidate), and the matrix's functions."""
    keys = base_targets()
    for test, entry in reach.items():
        if not kept_first(test):
            keys.update(entry["functions"])
    if MATRIX.exists():
        old = json.loads(MATRIX.read_text())["mutants"]
        keys.update(entry["function"] for entry in old.values())
    return keys


def run_matrix(reach, modules=()):
    """``{mutant id: entry}`` of every target mutant (of ``modules``
    only, when given)."""
    reaches = {}
    for test, entry in reach.items():
        for f in entry["functions"]:
            reaches.setdefault(f, []).append(test)
    missing = sorted(set(reach) - _collected(reach))
    if missing:
        sys.exit(f"{len(missing)} tests of the reach map no longer exist "
                 f"(rerun `map`): {missing[:5]}")
    keys = {k for k in targets(reach)
            if not modules or k.split("::")[0] in modules}
    muts = mutants(keys)
    print(f"{len(keys)} functions, {len(muts)} mutants", flush=True)
    results = {}
    lock = threading.Lock()
    started = time.time()

    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        slots = _Slots(os.cpu_count() or 1, workdir)

        def work(mid):
            function, operator, line, digest, text = muts[mid]
            tests = _order(reach, reaches.get(function, []))
            killer = error = None
            if tests:
                budget = 60 + 4 * sum(reach[t]["seconds"] for t in tests)
                slot = slots.free.get()
                try:
                    killer = _run_one(slot, function.split("::")[0], text,
                                      tests, budget)
                except RuntimeError as exc:
                    error = str(exc)[-500:]
                finally:
                    slots.free.put(slot)
            entry = {"function": function, "operator": operator,
                     "line": line, "digest": digest}
            if error is not None:
                entry["error"] = error
            elif killer is not None:
                entry["killers"] = [killer]
            else:
                entry["survived"] = "gap"  # write_matrix labels it
            with lock:
                results[mid] = entry
                if len(results) % 50 == 0:
                    print(f"{len(results)}/{len(muts)} in "
                          f"{time.time() - started:.0f} s", flush=True)

        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            list(pool.map(work, sorted(muts)))
    return results


def write_matrix(results, reach):
    """Write the matrix: counts, the sites left unmutated, the example
    tests no mutant names as its killer that reach some function and only
    fully mutated ones (each one's kills, if any, a test ordered before
    it makes too), and the mutants.  A survivor is labelled from
    ``EQUIVALENT`` and counts the tests that reach its function."""
    reached = {}
    for entry in reach.values():
        for f in entry["functions"]:
            reached[f] = reached.get(f, 0) + 1
    survivors = []
    for mid, entry in results.items():
        if "survived" in entry:
            entry["survived"] = "equivalent" if mid in EQUIVALENT else "gap"
            entry["reached_by"] = reached.get(entry["function"], 0)
            survivors.append(entry)
    errors = sum("error" in e for e in results.values())
    counts = {
        "mutants": len(results),
        "killed": len(results) - len(survivors) - errors,
        "errors": errors,
        "equivalent": sum(e["survived"] == "equivalent" for e in survivors),
        "gap": sum(e["survived"] == "gap" for e in survivors),
    }
    keys = {e["function"] for e in results.values()}
    unmutated = unmutated_sites(keys)
    whole = keys - set(unmutated)
    named = {k for e in results.values() for k in e.get("killers", ())}
    redundant = sorted(
        test for test, entry in reach.items()
        if not kept_first(test) and test not in named
        and entry["functions"] and set(entry["functions"]) <= whole
    )
    _write_json(MATRIX, {"counts": counts, "unmutated": unmutated,
                         "redundant": redundant, "mutants": results})
    left = sum(n for ops in unmutated.values() for n in ops.values())
    print(json.dumps(counts), f"{left} sites of "
          f"{len(unmutated)} functions unmutated, {len(redundant)} "
          f"redundant example tests")


def _write_json(path, sections):
    """JSON with one line per list item or mapping entry, keys sorted, so
    a diff of the matrix shows which mutants moved."""
    parts = []
    for name, value in sections.items():
        if isinstance(value, dict):
            items = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                     for k, v in sorted(value.items())]
            brackets = "{}"
        else:
            items = [json.dumps(v) for v in value]
            brackets = "[]"
        body = ",".join(f"\n  {item}" for item in items)
        close = "\n " if items else ""
        parts.append(f" {json.dumps(name)}: {brackets[0]}{body}{close}"
                     f"{brackets[1]}")
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


# -- the CI check -------------------------------------------------------------


def check(modules):
    """Re-run each killed mutant of ``modules`` against its killers."""
    rels = {Path(module).as_posix() for module in modules}
    matrix = json.loads(MATRIX.read_text())["mutants"]
    killed = {mid: e for mid, e in matrix.items()
              if mid.split("::")[0] in rels and "killers" in e}
    if not killed:
        sys.exit(f"the matrix holds no killed mutant of {sorted(rels)}")
    muts = mutants({e["function"] for e in killed.values()})
    moved = sorted(
        mid for mid, e in killed.items()
        if muts.get(mid, (None,) * 4)[1:4]
        != (e["operator"], e["line"], e.get("digest")))
    for mid in moved:
        print(f"MOVED {mid}: not the mutant the matrix records")
    killers = {k for e in killed.values() for k in e["killers"]}
    gone = [] if moved else sorted(killers - _collected(killers))
    for test in gone:
        print(f"GONE {test}: a recorded killer pytest cannot collect")
    if moved or gone:
        print("rebuild the entries: " + ("`map`, then " if gone else "")
              + "`run --module` for " + " ".join(sorted(rels)))
        return 1
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        slots = _Slots(os.cpu_count() or 1, workdir)

        def work(mid):
            slot = slots.free.get()
            try:
                killer = _run_one(slot, mid.split("::")[0], muts[mid][4],
                                  killed[mid]["killers"], 300)
            except RuntimeError as exc:
                print(exc)
                killer = None
            finally:
                slots.free.put(slot)
            if killer is None:
                failures.append(mid)

        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            list(pool.map(work, sorted(killed)))
    for mid in sorted(failures):
        print(f"SURVIVED {mid} (killers: {killed[mid]['killers']})")
    print(f"{len(killed) - len(failures)}/{len(killed)} killed mutants of "
          f"{len(rels)} module(s) still killed")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", nargs="?", choices=("map", "run"))
    parser.add_argument("--check", metavar="MODULE", nargs="+")
    parser.add_argument("--module", action="append", default=[],
                        help="run: re-run this module's mutants only and "
                             "update their entries")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if args.step == "map":
        build_map()
    elif args.step == "run":
        reach = json.loads(REACH.read_text())
        results = run_matrix(reach, set(args.module))
        if args.module and MATRIX.exists():
            old = json.loads(MATRIX.read_text())["mutants"]
            results = {**{m: e for m, e in old.items()
                          if e["function"].split("::")[0]
                          not in args.module}, **results}
        write_matrix(results, reach)
        return 1 if any("error" in e for e in results.values()) else 0
    else:
        parser.error("name a step or --check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
