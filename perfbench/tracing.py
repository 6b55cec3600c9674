"""Outside-in tracing: spans around the public calls of each layer.

Nothing is added inside ``repro``.  :func:`install` replaces each
layer's public entry points with timing wrappers, at the name the
caller resolves: ``repro.experiments.runner`` imports
``fused_flow_matrices`` into its own namespace, so that is the name
patched there; classifier and scheme methods are patched on every
subclass that defines them.  Only coarse calls are wrapped (per trace,
per flow, per fit); per-packet and per-event counts come from the
program's own ``repro.obs`` counters.

Spans live in memory as ``(name, start, end, parent)`` and are reduced
to per-layer metrics when the run ends.  A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from dataclasses import replace

#: Every per-layer metric, in report order.
LAYER_METRICS = (
    "traffic.generate.self_s",
    "traffic.generate.calls",
    "traffic.packets",
    "storage.write.self_s",
    "storage.write.bytes",
    "storage.read.self_s",
    "storage.read.calls",
    "schemes.plan.self_s",
    "schemes.plan.calls",
    "schemes.plan.fused_ratio",
    "schemes.apply.self_s",
    "schemes.apply.calls",
    "schemes.apply.pkts",
    "batch.fused_kernel.self_s",
    "batch.fused_kernel.calls",
    "batch.flow_matrix.self_s",
    "batch.flow_matrix.calls",
    "batch.windows",
    "batch.cache.hit_ratio",
    "classifiers.fit_nn.self_s",
    "classifiers.fit_svm.self_s",
    "classifiers.fit_bayes.self_s",
    "classifiers.fit.calls",
    "classifiers.fit.rows",
    "classifiers.predict.self_s",
    "classifiers.predict.rows",
    "attack.train.self_s",
    "attack.train.calls",
    "attack.score.self_s",
    "stream.consume.self_s",
    "stream.events",
    "stream.windows",
    "experiments.cell.p50_s",
    "experiments.cell.max_s",
    "experiments.unattributed_s",
    "experiments.unattributed_frac",
    "trace.overhead_frac",
)

#: Spans that belong to no layer: their self time is unattributed.
ROOT = "experiment"
CELL = "experiments.cell"

#: ``repro.obs`` counters read for per-event layer counts.
OBS_COUNTERS = {
    "stream.events": "stream.packets_replayed",
    "stream.windows": "stream.windows_closed",
}


class Tracer:
    """In-memory span recorder plus counters fed by the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self) -> None:
        """Forget every span and count (between experiment calls)."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def depth(self, name: str) -> int:
        """How many open spans are named ``name``."""
        return sum(1 for index in self._stack if self.spans[index][0] == name)

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result, args)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(result, args)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] += end - start - covered
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        """Durations of every span named ``name``."""
        return [end - start for n, start, end, _ in self.spans if n == name]


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        seen.append(current)
        todo.extend(current.__subclasses__())
    return seen


def _patch_method(cls, attr: str, wrapper) -> None:
    fn = cls.__dict__[attr]
    if isinstance(fn, classmethod):
        setattr(cls, attr, classmethod(wrapper(fn.__func__)))
    else:
        setattr(cls, attr, wrapper(fn))


def install(tracer: Tracer, experiment: str | None = None) -> None:
    """Wrap every layer's public calls so they record into ``tracer``.

    ``experiment`` names the registered experiment whose cell function
    is wrapped as ``experiments.cell`` (``None`` for the corpus build).
    """
    import repro.experiments  # noqa: F401  (registers every spec)
    import repro.analysis.attack as attack_module
    import repro.analysis.batch as batch_module
    import repro.experiments.runner as runner_module
    from repro.analysis.attack import AttackPipeline
    from repro.analysis.batch import WindowCache
    from repro.analysis.classifiers.base import Classifier
    from repro.experiments import registry
    from repro.experiments.scenarios import EvaluationScenario
    from repro.schemes.base import Scheme
    from repro.storage.store import TraceStore, TraceStoreWriter
    from repro.stream.attack import OnlineAttack
    from repro.traffic.generator import TrafficGenerator

    counts = tracer.counts

    def count(key: str, amount: float = 1.0) -> None:
        counts[key] += amount

    # traffic
    def generated(trace, args):
        count("traffic.generate.calls")
        count("traffic.packets", len(trace))

    _patch_method(
        TrafficGenerator, "generate",
        lambda fn: tracer.wrap("traffic.generate", fn, generated),
    )

    # storage
    def written(entry, args):
        trace = args[1]
        count("storage.write.bytes", sum(
            column.nbytes
            for column in (trace.times, trace.sizes, trace.directions,
                           trace.ifaces, trace.channels, trace.rssi)
        ))

    _patch_method(TraceStoreWriter, "add",
                  lambda fn: tracer.wrap("storage.write", fn, written))
    _patch_method(TraceStoreWriter, "close",
                  lambda fn: tracer.wrap("storage.write", fn))
    _patch_method(EvaluationScenario, "from_store",
                  lambda fn: tracer.wrap("storage.read", fn))
    _patch_method(TraceStore, "trace", lambda fn: tracer.wrap(
        "storage.read", fn, lambda result, args: count("storage.read.calls")))

    # schemes: plan is defined once on the base class; apply per subclass.
    def planned(plan, args):
        count("schemes.plan.calls")
        count("schemes.plan.fused", plan is not None)

    def applied(defended, args):
        # Stacks call their stages' apply; count outermost calls only.
        if tracer.depth("schemes.apply") == 0:
            count("schemes.apply.calls")
            count("schemes.apply.pkts", len(args[1]))

    for cls in _subclasses(Scheme):
        if "fused_plan" in cls.__dict__:
            _patch_method(cls, "fused_plan",
                          lambda fn: tracer.wrap("schemes.plan", fn, planned))
        apply = cls.__dict__.get("apply")
        if apply is not None and not getattr(apply, "__isabstractmethod__", False):
            _patch_method(cls, "apply",
                          lambda fn: tracer.wrap("schemes.apply", fn, applied))

    # analysis.batch: kernels at each lookup site, cache lookups by method.
    def fused(matrices, args):
        count("batch.fused_kernel.calls")
        count("batch.windows", sum(len(m) for m in matrices))

    def flow_matrix(matrix, args):
        count("batch.flow_matrix.calls")
        count("batch.windows", len(matrix))

    runner_module.fused_flow_matrices = tracer.wrap(
        "batch.fused_kernel", runner_module.fused_flow_matrices, fused)
    for module in (batch_module, attack_module):
        module.flow_feature_matrix = tracer.wrap(
            "batch.flow_matrix", module.flow_feature_matrix, flow_matrix)

    def cache_lookup(fn):
        traced = tracer.wrap("batch.cache", fn)

        @functools.wraps(fn)
        def lookup(*args, **kwargs):
            kernels = counts["batch.fused_kernel.calls"] + counts["batch.flow_matrix.calls"]
            result = traced(*args, **kwargs)
            count("batch.cache.lookups")
            count("batch.cache.hits", kernels == (
                counts["batch.fused_kernel.calls"] + counts["batch.flow_matrix.calls"]))
            return result

        return lookup

    _patch_method(WindowCache, "feature_matrix", cache_lookup)
    _patch_method(WindowCache, "fused_matrices", cache_lookup)

    # analysis.classifiers: fit/predict of each subclass that defines them.
    def fitted(result, args):
        count("classifiers.fit.calls")
        count("classifiers.fit.rows", len(args[1]))

    def predicted(result, args):
        count("classifiers.predict.rows", len(args[1]))

    for cls in _subclasses(Classifier):
        if "fit" in cls.__dict__ and cls is not Classifier:
            _patch_method(cls, "fit", lambda fn, c=cls: tracer.wrap(
                f"classifiers.fit_{c.name}", fn, fitted))
        if "predict" in cls.__dict__ and cls is not Classifier:
            _patch_method(cls, "predict", lambda fn: tracer.wrap(
                "classifiers.predict", fn, predicted))

    # analysis.attack
    _patch_method(AttackPipeline, "train", lambda fn: tracer.wrap(
        "attack.train", fn, lambda result, args: count("attack.train.calls")))
    for attr in ("evaluate_matrices", "evaluate_flows"):
        _patch_method(AttackPipeline, attr,
                      lambda fn: tracer.wrap("attack.score", fn))

    # stream
    _patch_method(OnlineAttack, "consume",
                  lambda fn: tracer.wrap("stream.consume", fn))

    # experiments: the registered cell function, where the executor
    # resolves it (``registry.get`` at call time).
    if experiment is not None:
        original_get = registry.get
        spec = original_get(experiment)
        traced_spec = replace(spec, run_cell=tracer.wrap(CELL, spec.run_cell))

        def get(name: str):
            return traced_spec if name == experiment else original_get(name)

        registry.get = get


def layer_metrics(tracer: Tracer, wall_s: float, obs_counters: dict) -> dict:
    """Per-layer metrics of one traced process (overhead filled later)."""
    self_s = tracer.self_times()
    counts = tracer.counts
    cells = tracer.durations(CELL)
    unattributed = self_s.get(ROOT, 0.0) + self_s.get(CELL, 0.0)
    metrics = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name in OBS_COUNTERS:
            metrics[name] = float(obs_counters.get(OBS_COUNTERS[name], 0))
        else:
            metrics[name] = float(counts.get(name, 0.0))
    plans = counts.get("schemes.plan.calls", 0.0)
    lookups = counts.get("batch.cache.lookups", 0.0)
    metrics.update({
        "schemes.plan.fused_ratio": counts["schemes.plan.fused"] / plans if plans else 0.0,
        "batch.cache.hit_ratio": counts["batch.cache.hits"] / lookups if lookups else 0.0,
        "experiments.cell.p50_s": statistics.median(cells) if cells else 0.0,
        "experiments.cell.max_s": max(cells) if cells else 0.0,
        "experiments.unattributed_s": unattributed,
        "experiments.unattributed_frac": unattributed / wall_s if wall_s > 0 else 0.0,
        "trace.overhead_frac": 0.0,
    })
    return metrics


def span_shares(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Self-time share of the traced wall clock, per span name."""
    return {name: seconds / wall_s for name, seconds in tracer.self_times().items()}
