"""AST lint enforcing the hot-path vectorization contract.

The serving hot path was rewritten so that steady-state work is array-wide
numpy — no per-key or per-request Python loops (``docs/performance.md``).
This check keeps it that way: functions marked with a ``# hot-path:
vectorized`` comment on (or immediately above) their ``def`` line must not
contain ``for``/``while`` statements, unless the loop's own line carries a
``# lint: allow-loop`` annotation stating why it is *not* per-key (loops
over dim groups, segments, replicas, or cuckoo rounds are bounded by
structure, not by key count).

Comprehensions and generator expressions are flagged only when they walk
a ``requests`` or ``stream`` parameter of the marked function: a serving
run reads its request list once (``request_columns``) and slices the
columns, so a per-request pass that comes back — a loop, comprehension
or generator over the list — is flagged unless its line carries the same
annotation.  Other comprehensions are part of the vectorized idiom.
Adding a new loop to a marked function requires either vectorizing it
or annotating it with a justification, which is exactly the review
friction we want.

Usage::

    python benchmarks/check_hotpath.py   # exit 1 on violations

Exits 2 when a file lists no marked functions (the markers must not
silently disappear).
"""

import ast
import sys

#: Files under the vectorization contract.  Every file must contain at
#: least one marked function; the expected count is asserted so a marker
#: cannot be dropped without editing this table.
HOT_PATH_FILES = {
    # match / publish / retire / serve_staged (the per-batch loop)
    "src/repro/serving/pipeline.py": 4,
    # _to_trace_batch / _finalize_report
    "src/repro/serving/server.py": 2,
    "src/repro/serving/arrivals.py": 1,   # request_columns
    # _query_stages: encode, dedup, index, fetch, replace, restore
    "src/repro/core/workflow.py": 1,
    "src/repro/core/cache_base.py": 1,    # record_query_metrics
    "src/repro/coding/layout.py": 1,      # encode_many
    "src/repro/gpusim/executor.py": 1,    # run (a stage's plan)
    "src/repro/obs/registry.py": 1,       # inc_keys (a query's increments)
    # plan_primary_streams / _fallback_targets / _plan_arrays /
    # _run_streams / _merge / serve
    "src/repro/cluster/router.py": 6,
    "src/repro/cluster/health.py": 1,     # routable_many
    # _routing_keys; the hash and table-shard primary_many.
    # LeastOutstandingPolicy.primary_many stays unmarked: it walks the
    # stream, each choice depending on the ones before it
    "src/repro/cluster/routing.py": 3,
    "src/repro/faults/schedule.py": 2,    # crashed_many / slow_factor_many
    "src/repro/serving/batcher.py": 1,    # batch_bounds
    # lookup / insert / _insert_spilled (its loop: the rounds after a
    # bucket's first eviction) / erase / _compact (a recency queue rebuilt
    # from its live entries) / oldest (its loop: the runs a pop reaches)
    "src/repro/hashindex/slab_hash.py": 6,
    # index_lookup / gather / admit_and_insert (its loop: one group per
    # tier class of the dimension) / _demote_cold
    "src/repro/core/flat_cache.py": 4,
    "src/repro/core/dedup.py": 1,          # deduplicate
    # reference_vectors (one call generates a whole batch's rows, any
    # mix of tables) / _row_numbers / _gather_into and lookup (bank rows
    # under the write overlay, a RowMap)
    "src/repro/tables/embedding_table.py": 4,
    # RowMap.write (in-place rewrites and one merge of new ids) /
    # .read_into (one search of a batch's ids): the plain store's write
    # overlay and the tiered store's stale shadow
    "src/repro/tables/row_map.py": 2,
    # HostStore._query_by_table (the one grouping path of both host stores'
    # query_many) / EmbeddingStore._gather: its loop is per table
    "src/repro/tables/store.py": 2,
    # TieredParameterStore._sorted_rows (one DRAM pass, the bypass too) /
    # _missed_rows: its loop is per table (the fetch times in request
    # order); the degraded fill is one call over the batch's failed keys
    "src/repro/multitier/hierarchy.py": 2,
    # DramCacheLayer.fill / .refresh.  DramCacheLayer.lookup stays
    # unmarked: its per-key loop runs the batch in table order, and that
    # order is the LRU semantics (which key is most recent, which victim
    # goes first), so the loop is the specification, not overhead
    "src/repro/multitier/dram_cache.py": 2,
    # allocate / release / write / read
    "src/repro/mempool/slab_pool.py": 4,
    "src/repro/core/updates.py": 1,        # apply_deltas
    "src/repro/refresh/subscriber.py": 1,  # apply_next
    "src/repro/core/precision.py": 2,      # quantize / dequantize rows
    "src/repro/core/admission.py": 2,      # sketch observe / estimate
    # The serving record and its readers: ServingRecord.append (the
    # loop's one call per observed batch) / .latencies; the collector's
    # observe (its loop: per batch), stage_spans, request_trace (per
    # stage) and sample_masks
    "src/repro/obs/record.py": 2,
    "src/repro/obs/timeseries.py": 1,
    "src/repro/obs/spans.py": 1,
    "src/repro/obs/reqtrace.py": 2,
    "src/repro/scenarios/base.py": 1,      # draw_feature_cube
}

MARKER = "# hot-path: vectorized"
ALLOW = "# lint: allow-loop"
#: Parameter names that hold a request list: a marked function walks
#: them only on an annotated line.
REQUEST_LISTS = frozenset({"requests", "stream"})
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def marked_functions(tree: ast.Module, lines):
    """Yield function nodes carrying the hot-path marker."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # Decorators shift node.lineno in some Python versions; scan the
        # def line itself and the line above it.
        def_line = lines[node.lineno - 1]
        above = lines[node.lineno - 2] if node.lineno >= 2 else ""
        if MARKER in def_line or MARKER in above:
            yield node


def check_file(path: str, expected_marks: int):
    """Returns (marked function count, violation strings)."""
    with open(path) as f:
        source = f.read()
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    violations = []
    count = 0
    for func in marked_functions(tree, lines):
        count += 1
        params = {a.arg for a in func.args.args + func.args.kwonlyargs}
        request_lists = params & REQUEST_LISTS
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.While)):
                kind = "for" if isinstance(node, ast.For) else "while"
                what = f"{kind}-loop"
            elif isinstance(node, COMPREHENSIONS) and any(
                isinstance(gen.iter, ast.Name) and gen.iter.id in request_lists
                for gen in node.generators
            ):
                what = "pass over a request list"
            else:
                continue
            if ALLOW in lines[node.lineno - 1]:
                continue
            violations.append(
                f"{path}:{node.lineno}: {what} inside hot-path "
                f"function {func.name!r} — vectorize it or annotate the "
                f"loop line with {ALLOW!r} and a bounded-by-structure "
                "reason"
            )
    if count != expected_marks:
        violations.append(
            f"{path}: expected {expected_marks} functions marked "
            f"{MARKER!r}, found {count} — update HOT_PATH_FILES if the "
            "contract surface changed deliberately"
        )
    return count, violations


def main(argv=None) -> int:
    total = 0
    violations = []
    for path, expected in sorted(HOT_PATH_FILES.items()):
        try:
            count, file_violations = check_file(path, expected)
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
        total += count
        violations.extend(file_violations)
    if not total:
        print("no marked hot-path functions found; markers must not "
              "silently disappear", file=sys.stderr)
        return 2
    if violations:
        print("HOT-PATH CONTRACT VIOLATIONS:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print(f"hot-path contract OK ({total} marked functions, "
          f"{len(HOT_PATH_FILES)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
