"""Experiment orchestration: the one evaluation path, and its cached caller.

:func:`defended_matrices` is the only place a defense scheme meets the
attacker's featurizer: it turns ``(scheme, trace, window, min_packets)``
into the per-observable-flow feature matrices plus the trace's
per-stage cost.  A scheme that describes itself as a fused plan
(:meth:`~repro.schemes.Scheme.fused_plan` — every reshaping-style
scheme and stack) is featurized straight off the trace's columns by
:func:`~repro.analysis.batch.fused_flow_matrices`; any other scheme
(morphing, the combined defense) is materialized with ``apply`` and its
flows featurized one by one.  Both paths are bit-identical where both
apply and memoize in a :class:`~repro.analysis.batch.WindowCache`.

:class:`ExperimentRunner` is the cached caller: it owns a trained
:class:`~repro.analysis.attack.AttackPipeline` per eavesdropping window
W (keyed by :func:`~repro.analysis.windows.window_key`, so float jitter
in a sweep cannot retrain a duplicate pipeline), memoizes registry
schemes per recipe so their identity is stable, and scores any scheme
against any pipeline and evaluation split through :meth:`evaluate`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.analysis.attack import AttackPipeline, AttackReport
from repro.analysis.batch import WindowCache, fused_flow_matrices
from repro.analysis.windows import window_key
from repro.core.base import Reshaper
from repro.defenses.base import DefendedTraffic, Defense, StageOverhead
from repro.experiments.scenarios import EvaluationScenario, build_schemes
from repro.schemes import (
    DEFAULT_INTERFACES,
    Scheme,
    SchemeSpec,
    as_scheme,
    build_stack,
    canonical_stack,
)
from repro.traffic.apps import AppType
from repro.traffic.trace import Trace

__all__ = ["ExperimentRunner", "defended_matrices"]

#: What the evaluation entry points accept as "a scheme": a registry
#: spec / composition, an already-built Scheme, a bare Reshaper or
#: Defense, or None for the undefended original.
SchemeLike = (
    "Scheme | Reshaper | Defense | SchemeSpec | Sequence[SchemeSpec] | str | None"
)


def _defended(scheme: Scheme, trace: Trace, cache: WindowCache) -> DefendedTraffic:
    """``scheme.apply(trace)`` through the cache, telemetry replayed."""
    defended, subprofile = cache.defended_flows(
        scheme, trace, lambda: obs.captured(lambda: scheme.apply(trace))
    )
    obs.replay(subprofile)
    return defended


def defended_matrices(
    scheme: Scheme | None,
    trace: Trace,
    window: float,
    min_packets: int = 2,
    cache: WindowCache | None = None,
) -> tuple[list[np.ndarray], tuple[StageOverhead, ...]]:
    """Per-observable-flow feature matrices of ``trace`` under ``scheme``.

    Returns the matrices in observable-flow order and the trace's
    per-stage cost (empty for ``scheme=None``, the undefended original,
    whose one flow is the trace itself).  Fusable schemes go through
    their plan and the fused kernel with zero intermediate ``Trace``
    allocation; the rest are applied and their flows featurized, each
    such flow counted in ``batch.fallback_flows``.

    With a ``cache`` every artifact is memoized by object identity and
    the telemetry recorded while building it is replayed on every
    request, so a call reports the same counters warm or cold.  Without
    one nothing outlives the call — for callers that build a new scheme
    per trace, where memoizing would only pin memory.
    """
    if cache is None:
        cache = WindowCache()
    if scheme is None:
        return [cache.feature_matrix(trace, window, min_packets)], ()
    plan, plan_subprofile = cache.fused_plan(
        scheme, trace, lambda: obs.captured(lambda: scheme.fused_plan(trace))
    )
    if plan is None:
        defended = _defended(scheme, trace, cache)
        flows = defended.observable_flows
        obs.add("batch.fallback_flows", len(flows))
        matrices = [cache.feature_matrix(flow, window, min_packets) for flow in flows]
        return matrices, defended.stages
    obs.replay(plan_subprofile)
    matrices, subprofile = cache.fused_matrices(
        scheme,
        trace,
        window,
        min_packets,
        lambda: obs.captured(
            lambda: fused_flow_matrices(trace, plan, window, min_packets)
        ),
    )
    obs.replay(subprofile)
    stages = tuple(
        StageOverhead(
            stage.scheme, stage.extra_bytes, stage.handshake_bytes, sum(stage.fanouts)
        )
        for stage in plan.stages
    )
    return matrices, stages


@dataclass
class ExperimentRunner:
    """Shared machinery for the table experiments."""

    scenario: EvaluationScenario
    _pipelines: dict[float, AttackPipeline] = field(default_factory=dict, repr=False)
    _schemes: dict[int, dict[str, Reshaper | None]] = field(
        default_factory=dict, repr=False
    )
    _built: dict[tuple[SchemeSpec, ...], Scheme] = field(
        default_factory=dict, repr=False
    )
    _adapted: dict[Reshaper | Defense, Scheme] = field(
        default_factory=dict, repr=False
    )
    _cache: WindowCache = field(default_factory=WindowCache, repr=False)

    @property
    def window_cache(self) -> WindowCache:
        """The runner's shared windowing/featurization cache."""
        return self._cache

    def pipeline(self, window: float) -> AttackPipeline:
        """The trained attack pipeline for eavesdropping duration ``window``."""
        key = window_key(window)
        obs.add("pipeline.requests")
        if key not in self._pipelines:
            # Training is memoized shared state: the serial path pays it
            # once, each parallel worker once — so its telemetry goes to
            # the proc.* namespace, not to whichever cell got here first.
            with obs.unattributed():
                obs.add("pipeline.trained")
                pipeline = AttackPipeline(window=window, seed=self.scenario.seed)
                pipeline.train(self.scenario.training_traces())
            self._pipelines[key] = pipeline
        return self._pipelines[key]

    def scheme(
        self, composition: SchemeSpec | Sequence[SchemeSpec] | str
    ) -> Scheme:
        """The memoized :class:`~repro.schemes.Scheme` for a registry recipe.

        Accepts one spec, a stack of specs, or the ``"padding+or"``
        composition syntax.  Object identity is stable per canonical
        recipe — the same guarantee :meth:`schemes` gives for the
        legacy reshaper dict — so the window cache reuses plans, flows
        and matrices across cells, windows, and experiments.  Seeding
        comes from the scenario (single schemes build with
        ``scenario.seed`` verbatim; stack stages get order-salted
        derivations — see :func:`repro.schemes.build_stack`).
        """
        if isinstance(composition, SchemeSpec):
            composition = (composition,)
        key = canonical_stack(composition)
        if key not in self._built:
            with obs.unattributed():
                self._built[key] = build_stack(key, self.scenario.seed)
        return self._built[key]

    def _resolve(self, scheme: "SchemeLike") -> Scheme | None:
        """The identity-stable :class:`Scheme` for any scheme-like input.

        Specs/compositions build through :meth:`scheme`; a bare
        reshaper or defense gets one adapter per object, so the cache
        keys on the same Scheme every time the caller passes it.
        ``None`` — the undefended original — stays ``None``.
        """
        if scheme is None or isinstance(scheme, Scheme):
            return scheme
        if isinstance(scheme, (SchemeSpec, str, Sequence)):
            return self.scheme(scheme)
        if scheme not in self._adapted:
            self._adapted[scheme] = as_scheme(scheme)
        return self._adapted[scheme]

    def observable_flows(self, scheme: "SchemeLike", trace: Trace) -> list[Trace]:
        """What the eavesdropper captures when ``trace`` runs under ``scheme``.

        Memoized in the window cache like the evaluation path's
        fallback, with the scheme's telemetry replayed on every request.
        """
        applied = self._resolve(scheme)
        if applied is None:
            return [trace]
        return _defended(applied, trace, self._cache).observable_flows

    def evaluate(
        self,
        scheme: "SchemeLike",
        pipeline: AttackPipeline,
        traces_by_label: dict[str, list[Trace]],
    ) -> tuple[AttackReport, list[tuple[StageOverhead, ...]]]:
        """Attack ``traces_by_label`` defended by ``scheme``.

        Every trace goes through :func:`defended_matrices` with this
        runner's cache at ``pipeline``'s window and ``min_packets``;
        the pipeline scores all flows in one batch.  Returns the report
        and each trace's per-stage cost, in label-then-trace order.
        """
        applied = self._resolve(scheme)
        matrices_by_label: dict[str, list[np.ndarray]] = {}
        costs: list[tuple[StageOverhead, ...]] = []
        for label, traces in traces_by_label.items():
            matrices_by_label[label] = []
            for trace in traces:
                matrices, stages = defended_matrices(
                    applied, trace, pipeline.window, pipeline.min_packets, self._cache
                )
                matrices_by_label[label].extend(matrices)
                costs.append(stages)
        return pipeline.evaluate_matrices(matrices_by_label), costs

    def schemes(self, interfaces: int = DEFAULT_INTERFACES) -> dict[str, Reshaper | None]:
        """The runner's scheme set (built once per interface count).

        Reshaper identity must be stable across calls so the window
        cache can reuse reshaped flows across windows and experiments.
        """
        if interfaces not in self._schemes:
            self._schemes[interfaces] = build_schemes(interfaces, self.scenario.seed)
        return self._schemes[interfaces]

    def evaluate_all_schemes(
        self,
        window: float,
        interfaces: int = DEFAULT_INTERFACES,
    ) -> dict[str, AttackReport]:
        """Reports for Original / FH / RA / RR / OR at one window size."""
        traces_by_label = self.scenario.evaluation_by_label()
        return {
            name: self.evaluate(reshaper, self.pipeline(window), traces_by_label)[0]
            for name, reshaper in self.schemes(interfaces).items()
        }

    @staticmethod
    def app_order() -> tuple[AppType, ...]:
        """Row order used by every table (br, ch, ga, do, up, vo, bt)."""
        return (
            AppType.BROWSING,
            AppType.CHATTING,
            AppType.GAMING,
            AppType.DOWNLOADING,
            AppType.UPLOADING,
            AppType.VIDEO,
            AppType.BITTORRENT,
        )
