"""Every option under ``src/repro/`` has a caller that sets it outside tests.

The options twin of ``test_reachability.py``.  An AST scan collects each
defaulted parameter of a public function, method or constructor, and
every field of a ``*Config`` dataclass.  An option passes when a call
outside ``tests/`` -- in a module under ``src/``, in ``benchmarks/``
(the ledger included) or in ``examples/`` -- passes it by keyword or by
position.  Calls resolve by name: ``f(...)`` and ``obj.f(...)`` both
reach every definition called ``f``; ``Cls(...)`` reaches the
constructor ``Cls`` has or inherits; ``super().__init__(...)`` reaches
the bases' constructors; ``replace(obj, field=...)`` reaches every
dataclass field of that name; and ``functools.partial(f, ...)`` is a
call of ``f``.  A call that forwards its function's ``**kwargs`` passes
on whatever that function's callers pass; any other ``**mapping``
passes the keys of the dict literals and ``dict(...)`` calls in its
file.  A value only passed on -- the calling function's own option, or
a ``*Config`` field read as ``anything.field`` -- sets the option only
where that option or field is set.

An option with no effect fails as well: a ``*Config`` field, a defaulted
dataclass field, or a constructor keyword kept as ``self.x = x``, that
no code reads outside the test of an ``if`` that raises (validation).
What the scan cannot resolve, or keeps for a stated reason, sits in
:data:`ALLOWED` (and counts as set); an allowance that gains a caller
fails too, so the list cannot go stale.

Run alone: ``PYTHONPATH=src python -m pytest tests/test_options.py``
prints ``file:line: Def(param=)`` or ``file:line: Config.field`` for each
option nothing sets or reads.
"""

from __future__ import annotations

import ast
from collections import defaultdict, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

_SEED = (
    "a seed: a caller wanting another random stream passes one; the "
    "default is the stream every pinned result was drawn from"
)
_SCENARIO = (
    "a scenario keyword: the CLI and the scenario bench reach scenario "
    "classes through build_scenario(name, **overrides), a lookup the scan "
    "cannot follow"
)
_MODEL = "model shape: tests build small models with it"
_PROBE = "test probe: tests read it to check other behaviour, "

#: ``qualified option -> why it stays`` for options nothing outside
#: tests sets or reads; the scan treats them as set.
ALLOWED = {
    **dict.fromkeys(
        ["Scenario(seed=)"] + [
            f"{cls}({name}=)" for cls, names in (
                ("FlashCrowdScenario", (
                    "seed", "base_rate", "storm_start", "storm_duration",
                    "cooldown", "intensity", "storm_share",
                    "rotation_offset",
                )),
                ("DiurnalScenario", (
                    "seed", "mean_rate", "amplitude", "period", "duration",
                    "segments_per_period",
                )),
                ("MultiTenantScenario", ("seed", "tenants", "duration")),
                ("ColdStartFloodScenario", (
                    "seed", "base_rate", "flood_start", "flood_duration",
                    "cooldown", "flood_size", "flood_share",
                )),
            )
            for name in names
        ],
        _SCENARIO,
    ),
    **dict.fromkeys(
        [
            "FlecheConfig.seed", "PerTableConfig.seed",
            "RemoteParameterServer(seed=)", "DeepCrossNetwork(seed=)",
            "DeepFM(seed=)", "SelfAttentionInteraction(seed=)",
            "CollisionAucStudy(seed=)", "avazu_replica(seed=)",
            "criteo_kaggle_replica(seed=)", "criteo_tb_replica(seed=)",
        ],
        _SEED,
    ),
    **dict.fromkeys(
        [
            "DeepCrossNetwork(dense_dim=)",
            "DeepCrossNetwork(num_cross_layers=)",
            "SelfAttentionInteraction(num_heads=)",
            "SelfAttentionInteraction(num_layers=)",
            "mean_pool(ids_per_sample=)", "max_pool(ids_per_sample=)",
        ],
        _MODEL,
    ),
    "InferenceServer(coalesce=)": (
        "test_coalesce_flag_off is the only way any test reaches the "
        "replacement path's exactly-once guard"
    ),
    "MetricsHttpServer(host=)": "a deployment setting: the address to bind",
    "main(argv=)": (
        "the CLI entry point: `python -m repro` reads sys.argv, tests pass "
        "their own"
    ),
    "build_fusion_plan(args=)": (
        "the executable model of the fused launch (paper section 3.2), "
        "kept in test_reachability.py's ALLOWED; the fusion tests pass it"
    ),
    "InferenceResult.last_probabilities": (
        _PROBE + "that dense runs return click probabilities"
    ),
    "CoalescingStats.retired_keys": (
        _PROBE + "the miss table's exactly-once retirement"
    ),
    "PipelineRunInfo.coalescing": _PROBE + "the miss table's statistics",
    "FlecheConfig.key_bits": (
        "flat-key width of the size-aware codec; test_rejects_bad_key_bits "
        "checks its bounds"
    ),
    "ReductionCache(pooling=)": (
        "the reduction cache's pooling mode; the alternatives tests check "
        "each mode and the unknown-mode error"
    ),
    "run_scenario_drill(crash=)": (
        "crash=False is the scenario drill's fault-free control run"
    ),
    "UpdateSubscriber(allow_gap=)": (
        "resync past the log's retention; the only way a test reaches the "
        "stream-conservation law's dropped term"
    ),
    "TablePartitioner(assignment=)": (
        "an explicit table-to-GPU assignment; the partition property tests "
        "drive it"
    ),
    "criteo_tb_replica(scale=)": (
        "corpus compression of the Criteo-TB replica; the workload tests "
        "check it"
    ),
    "uniform_tables_spec(num_samples=)": (
        "tests size small synthetic datasets with it"
    ),
}

#: ``settable``: some call must pass it; ``attribute``: the name code must
#: read for it to have an effect (``None``: no such check).
Option = namedtuple(
    "Option", "qualified callees param index path line settable attribute"
)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _python_files(*dirs: Path):
    for directory in dirs:
        yield from sorted(directory.rglob("*.py"))


def _decorators(node) -> set:
    names = set()
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
    return names


def _fields(node: ast.ClassDef):
    """``(name, defaulted, line)`` of a dataclass's fields, in order."""
    for member in node.body:
        if (
            isinstance(member, ast.AnnAssign)
            and isinstance(member.target, ast.Name)
            and "ClassVar" not in ast.unparse(member.annotation)
        ):
            yield member.target.id, member.value is not None, member.lineno


def _parameters(func: ast.FunctionDef, bound: bool):
    """``(name, positional index or None, line)`` of each defaulted
    parameter of ``func``; ``bound`` drops the leading ``self``/``cls``."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if bound and positional else 0
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= max(first_default, skip):
            yield arg.arg, index - skip, arg.lineno
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, arg.lineno


def _validates(node: ast.AST) -> bool:
    """Whether ``node`` is an ``if`` whose body raises: its test only
    validates what it reads."""
    return isinstance(node, ast.If) and any(
        isinstance(inner, ast.Raise) for inner in node.body
    )


def _stored(init: ast.FunctionDef) -> dict:
    """``parameter -> attribute`` for each parameter ``__init__`` only
    keeps, as ``self.attribute = parameter``, and validates."""
    validation = set()
    for node in ast.walk(init):
        if _validates(node):
            validation.update(id(name) for name in ast.walk(node.test))
    uses = defaultdict(int)
    for node in ast.walk(init):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if id(node) not in validation:
                uses[node.id] += 1
    kept = {}
    for node in ast.walk(init):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and isinstance(node.targets[0].value, ast.Name)
            and node.targets[0].value.id == "self"
            and isinstance(node.value, ast.Name)
            and uses[node.value.id] == 1
        ):
            kept[node.value.id] = node.targets[0].attr
    return kept


def _constructor(node: ast.ClassDef):
    if "dataclass" in _decorators(node):
        return node
    for member in node.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            return member
    return None


def _builders(classes: dict) -> dict:
    """``class -> names whose call runs its constructor``: itself and the
    subclasses that inherit it."""
    builders = defaultdict(set)
    for name, node in classes.items():
        builders[name].add(name)
        while _constructor(node) is None:
            bases = [
                base.id for base in node.bases
                if isinstance(base, ast.Name) and base.id in classes
            ]
            if not bases:
                break
            node = classes[bases[0]]
            builders[node.name].add(name)
    return builders


def _class_options(node: ast.ClassDef, path: Path, builders: set):
    if "dataclass" in _decorators(node):
        config = node.name.endswith("Config")
        for position, (field, defaulted, line) in enumerate(_fields(node)):
            if config or defaulted:
                yield Option(
                    f"{node.name}.{field}", builders | {"replace"}, field,
                    position, path, line, config, field,
                )
    for member in node.body:
        if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = _decorators(member)
        if decorators & {"property", "setter"}:
            continue
        bound = "staticmethod" not in decorators
        if member.name == "__init__":
            kept = _stored(member)
            for param, index, line in _parameters(member, bound):
                yield Option(
                    f"{node.name}({param}=)", builders, param, index, path,
                    line, True, kept.get(param),
                )
        elif not member.name.startswith("_"):
            for param, index, line in _parameters(member, bound):
                yield Option(
                    f"{node.name}.{member.name}({param}=)", {member.name},
                    param, index, path, line, True, None,
                )


def options(trees: dict):
    """Every option of every public definition in ``trees``."""
    classes = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, node)
    builders = _builders(classes)
    for path, tree in trees.items():
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for param, index, line in _parameters(node, bound=False):
                    yield Option(
                        f"{node.name}({param}=)", {node.name}, param, index,
                        path, line, True, None,
                    )
            elif isinstance(node, ast.ClassDef):
                yield from _class_options(node, path, builders[node.name])


def _mapping_keys(tree: ast.Module) -> set:
    """Keys of the dict literals and ``dict(...)`` calls in ``tree``."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys.update(
                key.value for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
        ):
            keys.update(k.arg for k in node.keywords if k.arg is not None)
    return keys


def _callee(func: ast.AST, owner) -> list:
    if isinstance(func, ast.Name):
        if func.id == "cls" and owner is not None:
            return [owner.name]
        return [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    if (
        func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    ):
        return [b.id for b in owner.bases if isinstance(b, ast.Name)]
    return [func.attr]


def _qualified(owner, function, param: str) -> str:
    if owner is None:
        return f"{function.name}({param}=)"
    if function.name == "__init__":
        return f"{owner.name}({param}=)"
    return f"{owner.name}.{function.name}({param}=)"


def _forwarder(functions: tuple, value: ast.AST):
    """The innermost enclosing function whose ``**kwargs`` ``value`` is."""
    if isinstance(value, ast.Name):
        for function in reversed(functions):
            kwarg = function.args.kwarg
            if kwarg is not None and kwarg.arg == value.id:
                return function
    return None


def _calls(tree: ast.Module, known: set, fields: dict):
    """``(callee, positional, keywords, caller, forwards *args)`` of each
    call.  ``positional`` holds one condition per positional argument and
    ``keywords`` maps each keyword to its condition: ``None`` when the
    call sets the value, else the options one of which must be set for
    it to (the call passes on the enclosing function's own option, or a
    config field).  ``caller`` names the enclosing function when the call
    forwards that function's ``**kwargs``."""
    mapping = _mapping_keys(tree)
    found = []

    def condition(value, owner, function):
        if isinstance(value, ast.Name) and function is not None:
            name = _qualified(owner, function, value.id)
            return frozenset([name]) if name in known else None
        if isinstance(value, ast.Attribute):
            return fields.get(value.attr)
        return None

    def visit(node, owner, functions):
        if isinstance(node, ast.ClassDef):
            owner, functions = node, ()
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = functions + (node,)
        function = functions[-1] if functions else None
        if isinstance(node, ast.Call):
            names, args = _callee(node.func, owner), node.args
            if names == ["partial"] and args:
                names, args = _callee(args[0], owner), args[1:]
            positional, starred = [], None
            for arg in args:
                if isinstance(arg, ast.Starred):
                    starred = arg.value
                    break
                positional.append(condition(arg, owner, function))
            keywords, forwarder = {}, None
            for keyword in node.keywords:
                if keyword.arg is not None:
                    keywords[keyword.arg] = condition(
                        keyword.value, owner, function
                    )
                elif isinstance(keyword.value, ast.Dict):
                    keywords.update(dict.fromkeys(_mapping_keys(keyword.value)))
                else:
                    forwarder = _forwarder(functions, keyword.value)
                    if forwarder is None:
                        keywords.update(dict.fromkeys(mapping))
            caller, star = None, False
            if forwarder is not None:
                caller = forwarder.name
                if caller == "__init__" and owner is not None:
                    caller = owner.name
                star = (
                    isinstance(starred, ast.Name)
                    and forwarder.args.vararg is not None
                    and starred.id == forwarder.args.vararg.arg
                )
            for name in names:
                found.append(
                    (name, tuple(positional), keywords, caller, star)
                )
        for child in ast.iter_child_nodes(node):
            visit(child, owner, functions)

    visit(tree, None, ())
    return found


def _reads(tree: ast.Module) -> set:
    """Attributes code reads outside validation, and strings that are one
    identifier (what ``getattr`` looks up)."""
    found = set()

    def visit(node):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
        for child in ast.iter_child_nodes(node):
            if not (_validates(node) and child is node.test):
                visit(child)

    visit(tree)
    return found


def scan(allowed=()):
    """``(path, line, qualified option, why)`` of every option nothing
    outside tests sets or reads.  Options in ``allowed`` count as set, so
    what they pass on counts as set too."""
    trees = {path: _parse(path) for path in _python_files(PACKAGE)}
    every = list(options(trees))
    known = {option.qualified for option in every}
    fields = defaultdict(set)
    for option in every:
        if option.settable and "(" not in option.qualified:
            fields[option.param].add(option.qualified)
    fields = {name: frozenset(owners) for name, owners in fields.items()}
    callers = list(trees.values()) + [
        _parse(path)
        for path in _python_files(ROOT / "benchmarks", ROOT / "examples")
    ]
    calls = defaultdict(set)
    forwards = []
    reads = set()
    for tree in callers:
        for callee, positional, keywords, caller, star in _calls(
            tree, known, fields
        ):
            entry = (positional, frozenset(keywords.items()))
            calls[callee].add(entry)
            if caller is not None:
                forwards.append((caller, callee, entry, star))
        reads |= _reads(tree)
    # What a caller passes to a function that forwards its ``**kwargs``
    # reaches the forwarding call's target too.
    changed = True
    while changed:
        changed = False
        for caller, callee, (positional, keywords), star in forwards:
            for passed, named in list(calls[caller]):
                entry = (
                    passed if star else positional,
                    frozenset({**dict(named), **dict(keywords)}.items()),
                )
                if entry not in calls[callee]:
                    calls[callee].add(entry)
                    changed = True
    conditions = defaultdict(list)
    for option in every:
        for callee in option.callees:
            for positional, keywords in calls.get(callee, ()):
                keywords = dict(keywords)
                if option.param in keywords:
                    conditions[option.qualified].append(keywords[option.param])
                elif (
                    callee != "replace"
                    and option.index is not None
                    and len(positional) > option.index
                ):
                    conditions[option.qualified].append(
                        positional[option.index]
                    )
    passed = set(allowed)
    changed = True
    while changed:
        changed = False
        for name, found in conditions.items():
            if name not in passed and any(
                condition is None or condition & passed for condition in found
            ):
                passed.add(name)
                changed = True
    unset = []
    for option in every:
        if option.settable and option.qualified not in passed:
            why = "set nowhere"
        elif option.attribute is not None and option.attribute not in reads:
            why = "read nowhere"
        else:
            continue
        unset.append(
            (option.path.relative_to(ROOT), option.line, option.qualified, why)
        )
    return unset


def test_every_option_has_a_caller_that_sets_it():
    found = [entry for entry in scan(ALLOWED) if entry[2] not in ALLOWED]
    assert not found, "options nothing outside tests sets or reads:\n" + (
        "\n".join(
            f"{path}:{line}: {name} ({why})" for path, line, name, why in found
        )
    )


def test_every_allowance_is_still_needed():
    stale = set(ALLOWED) - {name for _, _, name, _ in scan()}
    assert not stale, f"callers exist now; drop from ALLOWED: {sorted(stale)}"
