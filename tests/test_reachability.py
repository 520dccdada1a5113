"""Every definition under ``src/repro/`` has a caller outside its tests.

An AST scan collects each top-level function and class and each method
(dunder methods aside: the language calls them).  A definition passes
when code names it in another non-``__init__`` module under ``src/``, in
``benchmarks/`` or ``examples/``, or anywhere in its own module besides
the definition itself.  A top-level name counts as any identifier; a
method counts only as an attribute (``obj.method``), an identifier
string (what ``getattr`` looks up) or an import alias, so a local
variable that happens to share its spelling does not keep it alive.
``__init__`` modules only re-export, so a name they list is not a use,
and neither is a mention in a docstring or comment.  What passes no
other way sits in :data:`ALLOWED` with the reason it stays; an allowance
that something now calls fails too, so the list cannot go stale.

Run alone: ``PYTHONPATH=src python -m pytest tests/test_reachability.py``
prints ``file:line: name`` for each definition without a caller.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

_FUSION = (
    "the executable model of the fused launch of paper section 3.2 "
    "(Fig. 7's scan array and per-thread search); the fusion tests check "
    "on it the premises of the cost fused_kernel_spec charges"
)
_PROBE = "test probe: tests read it to check other behaviour, "

#: ``qualified name -> why it stays`` for definitions nothing outside their
#: own tests calls.
ALLOWED = {
    "build_fusion_plan": _FUSION,
    "identify_thread": _FUSION,
    "warp_divergence_free": _FUSION,
    "deduplicate": (
        "the cache-path CPU diet makes core/dedup.py the one place a batch "
        "is deduplicated"
    ),
    "roundtrip_error_bound": (
        "the planned whole-stack oracle bounds reduced-precision rows with "
        "it; the precision property tests hold the quantizers to it"
    ),
    "SlabHashIndex.stamp_of": _PROBE + "the recency lookups and updates set",
    "FlatKeyCodec.table_of": _PROBE + "that encode keeps tables apart",
    "FlatCache.live_entries": _PROBE + "the slab pool's live-slot accounting",
    "ReplicaHealth.routable_at": (
        _PROBE + "the reference per-request planner's ring walk"
    ),
    "ZipfSampler.popularity_of_rank": (
        _PROBE + "the popularity that scenario samplers draw"
    ),
}


def _names(tree: ast.AST):
    """Identifiers the code of ``tree`` uses, as ``(variables, members)``:
    ``members`` counts attributes, imports and strings that are one
    identifier (what ``getattr`` / ``hasattr`` look up); ``variables``
    counts bare names.  A definition is not a use of its own name, and
    prose in docstrings and comments is not code."""
    variables, members = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            variables[node.id] += 1
        elif isinstance(node, ast.Attribute):
            members[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                members[node.value] += 1
        elif isinstance(node, ast.alias):
            members[node.name.rpartition(".")[2]] += 1
    return variables, members


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _python_files(*dirs: Path):
    for directory in dirs:
        yield from sorted(directory.rglob("*.py"))


def definitions(tree: ast.Module):
    """``(qualified name, name, line)`` of every top-level def and class
    and every method, dunder methods aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield (
                        f"{node.name}.{member.name}", member.name, member.lineno
                    )


def unreached():
    """``(path, line, qualified name)`` of every definition no other
    module, benchmark or example uses, and its own module uses nowhere
    but in its definition."""
    trees = {path: _parse(path) for path in _python_files(PACKAGE)}
    modules = {path: _names(tree) for path, tree in trees.items()}
    outside = (set(), set())
    for path in _python_files(ROOT / "benchmarks", ROOT / "examples"):
        for seen, names in zip(outside, _names(_parse(path))):
            seen.update(names)
    found = []
    for path, (own_variables, own_members) in modules.items():
        variables, members = set(outside[0]), set(outside[1])
        for other, (other_variables, other_members) in modules.items():
            if other != path and other.name != "__init__.py":
                variables.update(other_variables)
                members.update(other_members)
        for qualified, name, line in definitions(trees[path]):
            if own_members[name] or name in members:
                continue
            top_level = "." not in qualified
            if top_level and (own_variables[name] or name in variables):
                continue
            found.append((path.relative_to(ROOT), line, qualified))
    return found


def test_every_definition_has_a_caller_outside_its_tests():
    found = [entry for entry in unreached() if entry[2] not in ALLOWED]
    assert not found, "no caller outside tests:\n" + "\n".join(
        f"{path}:{line}: {name}" for path, line, name in found
    )


def test_every_allowance_is_still_needed():
    stale = set(ALLOWED) - {name for _, _, name in unreached()}
    assert not stale, f"callers exist now; drop from ALLOWED: {sorted(stale)}"


def defined_attributes(tree: ast.Module) -> set:
    """Names ``tree`` can give an object: defs, classes, annotated fields,
    ``__slots__`` entries, class-body assignments and assignments to an
    attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            names.add(target.id if isinstance(target, ast.Name) else
                      getattr(target, "attr", ""))
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Store
        ):
            names.add(node.attr)
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                names.add(target.id)
                if target.id == "__slots__":
                    names.update(
                        item.value for item in ast.walk(stmt.value)
                        if isinstance(item, ast.Constant)
                        and isinstance(item.value, str)
                    )
    return names


def probes(tree: ast.Module):
    """``(line, name)`` of every ``getattr(x, "name", ...)`` and
    ``hasattr(x, "name")`` with a literal name."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            yield node.lineno, node.args[1].value


def test_every_probed_attribute_is_defined():
    """A probe for a name nothing defines reads its default forever: the
    attribute it looked for was renamed or deleted under it."""
    trees = {path: _parse(path) for path in _python_files(PACKAGE)}
    defined = set()
    for tree in trees.values():
        defined |= defined_attributes(tree)
    found = [
        (path.relative_to(ROOT), line, name)
        for path, tree in trees.items()
        for line, name in probes(tree)
        if name not in defined
    ]
    assert not found, "probe of a name nothing defines:\n" + "\n".join(
        f"{path}:{line}: {name}" for path, line, name in found
    )
