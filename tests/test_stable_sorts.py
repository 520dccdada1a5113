"""Every ``argsort`` under ``src/repro/`` breaks ties the same way everywhere.

Without a ``kind``, ``np.argsort`` is numpy's SIMD quicksort, and the
order it gives equal keys depends on the CPU features numpy dispatches
to (AVX-512, AVX2, ...).  A victim or ranking sort over tie-heavy keys
(LRU stamps, counts) then picks different victims on different machines,
and every golden downstream moves with it.  ``kind="stable"`` (or its
alias ``"mergesort"``) orders ties by position on every machine.
``np.sort`` needs no such rule: equal values are indistinguishable.

An AST scan finds each ``argsort`` call -- ``np.argsort(a, ...)`` or
``a.argsort(...)`` -- and requires a stable ``kind``.  A sort that must
run without one would sit in :data:`ALLOWED`, by file and enclosing
function, with its reason; none does.  An allowance whose sort became
stable, or went, fails too, so the list cannot go stale.

Run alone: ``PYTHONPATH=src python -m pytest tests/test_stable_sorts.py``
prints ``file:line: function`` for each unstable ``argsort``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: ``file::function -> why its argsort has no stable kind``: none since
#: every victim and ranking sort breaks ties by slot.
ALLOWED = {}

STABLE = {"stable", "mergesort"}


def _is_argsort(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "argsort"
    return isinstance(func, ast.Name) and func.id == "argsort"


def _stable(call: ast.Call) -> bool:
    """Whether the call passes a stable ``kind``, by keyword or position."""
    passed = [kw.value for kw in call.keywords if kw.arg == "kind"]
    passed += call.args
    return any(
        isinstance(value, ast.Constant) and value.value in STABLE
        for value in passed
    )


def unstable_sorts():
    """``(site, line)`` of every ``argsort`` without a stable ``kind``;
    ``site`` is ``file::Class.function``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        relative = path.relative_to(PACKAGE).as_posix()

        def visit(node, scope):
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                scope = scope + (node.name,)
            if (
                isinstance(node, ast.Call)
                and _is_argsort(node)
                and not _stable(node)
            ):
                found.append(
                    (f"{relative}::{'.'.join(scope)}", node.lineno)
                )
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    return found


def test_every_argsort_breaks_ties_stably():
    bad = [
        (site, line) for site, line in unstable_sorts()
        if site not in ALLOWED
    ]
    assert not bad, "argsort without kind=\"stable\":\n" + "\n".join(
        f"src/repro/{site.split('::')[0]}:{line}: {site.split('::')[1]}"
        for site, line in bad
    )


def test_every_allowance_is_still_needed():
    stale = set(ALLOWED) - {site for site, _ in unstable_sorts()}
    assert not stale, f"now stable or gone; drop from ALLOWED: {sorted(stale)}"


def test_scan_tells_stable_from_unstable():
    calls = {
        "np.argsort(a)": False,
        "a.argsort()": False,
        "np.argsort(a, kind='quicksort')": False,
        "np.argsort(a, kind='stable')": True,
        "a.argsort(kind='mergesort')": True,
        "np.argsort(a, -1, 'stable')": True,
    }
    for source, stable in calls.items():
        call = ast.parse(source, mode="eval").body
        assert _is_argsort(call)
        assert _stable(call) is stable, source
