"""The benchmark's own checks (``run.py --selftest``): seconds, tiny sizes.

1. ``BENCHMARK.json`` is inside the limits its contract sets.
2. Span arithmetic on a fake clock: self times sum to the root, and a
   generator wrapper charges time per resume, not per call.
3. On each workload at a tenth of its size: an untraced pass, a traced
   pass and another untraced pass produce one digest (so the wrappers were
   removed and tracing changes no output), no wrapper is left installed,
   and the layer self times sum to the traced pass's wall time.
4. Every metric a real run emits has a well-formed name and is declared in
   ``BENCHMARK.json`` — and nothing declared is missing.
"""

from __future__ import annotations

import re

from run import METRIC_NAME, load_manifest, measure, with_units

SCALE = 0.1
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_manifest(manifest) -> None:
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }, sorted(manifest)
    assert 1 <= len(manifest["command"]) <= 32
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = []
    for spec in manifest["workloads"]:
        assert set(spec) == {"name", "why"}, spec
        assert len(spec["why"]) <= 200 and "\n" not in spec["why"], spec
        names.append(spec["name"])
    for spec in manifest["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}, spec
        assert 0 <= spec["bound"] <= 0.25, spec
    for spec in manifest["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}, spec
    for spec in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(spec["unit"]), spec
        assert spec["better"] in ("higher", "lower"), spec
        names.append(spec["name"])
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


class FakeClock:
    """Advances 1 ms per reading, plus whatever ``sleep`` adds."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1e-3
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def check_span_arithmetic() -> None:
    from spans import SpanTracer

    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def leaf():
        clock.sleep(0.25)

    def stages():
        leaf()
        yield "a"
        leaf()
        yield "b"
        return "done"

    leaf = tracer.wrap(leaf, "leaf", "lower")
    stages = tracer.wrap(stages, "stages", "upper")

    root = tracer.open(tracer.stem("root", "harness"))
    generator = stages()
    assert next(generator) == "a"
    clock.sleep(5.0)  # the driver's own time between two resumes
    assert next(generator) == "b"
    try:
        next(generator)
    except StopIteration as stop:
        assert stop.value == "done"
    tracer.close(root)

    total = tracer.end[root] - tracer.start[root]
    assert abs(float(tracer.self_times().sum()) - total) < 1e-6
    report = tracer.stem_report()
    assert report["stages"]["calls"] == 1 and report["stages"]["spans"] == 3
    assert report["leaf"]["calls"] == 2
    assert report["stages"]["self_s"] < 1.0, "resume gaps charged to generator"
    assert report["root"]["self_s"] > 5.0, "resume gaps not charged to driver"
    assert abs(sum(tracer.layer_report().values()) - total) < 1e-6


def check_workload(name: str) -> None:
    import worker  # pins BLAS threads, then loads numpy and repro
    from spans import TARGETS, SpanTracer, resolve

    workload = worker.wl.BUILDERS[name](1, SCALE)
    before = worker.wl.digest_of(worker.run_pass(workload)[0])
    tracer = SpanTracer()
    outcomes, seconds, _ = worker.run_pass(workload, tracer)
    traced = worker.wl.digest_of(outcomes)
    for target in TARGETS:
        installed = resolve(target.owner).__dict__[target.attr]
        assert installed.__name__ == target.attr, f"{target} still wrapped"
    after = worker.wl.digest_of(worker.run_pass(workload)[0])
    assert before == traced == after, f"{name}: digest moved under tracing"
    assert len(tracer.start) > 0, f"{name}: traced pass recorded no span"
    assert abs(sum(tracer.layer_report().values()) - sum(seconds)) < 1e-6


def check_metric_names(manifest, name: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = measure(name, 1, 0.2, trace, scale=SCALE)
        with_units(result["metrics"], manifest[key])  # raises on any gap
        for metric in result["metrics"]:
            assert METRIC_NAME.fullmatch(metric), metric


def selftest() -> int:
    manifest = load_manifest()
    check_manifest(manifest)
    print("ok  BENCHMARK.json is inside its contract's limits")
    check_span_arithmetic()
    print("ok  span self times sum to the root; generators are timed per resume")
    for spec in manifest["workloads"]:
        check_workload(spec["name"])
        print(f"ok  {spec['name']}: digest unchanged by tracing, wrappers "
              "removed, layer self times sum to the pass wall")
    for spec in manifest["workloads"]:
        check_metric_names(manifest, spec["name"])
        print(f"ok  {spec['name']}: emitted metrics are exactly BENCHMARK.json's")
    print("selftest passed")
    return 0
