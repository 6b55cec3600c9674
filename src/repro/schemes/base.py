"""The unified defense-scheme interface: one trace transform to rule them all.

The paper's defenses come in two shapes —
:class:`~repro.core.base.Reshaper` for the scheduling schemes and
:class:`~repro.defenses.base.Defense` for the byte-level baselines.  A
:class:`Scheme` subsumes both: a named, pure transform
``apply(trace) -> DefendedTraffic`` whose output carries its own
overhead/handshake accounting, and which may also describe itself as a
:class:`~repro.defenses.base.FusedPlan` (:meth:`Scheme.fused_plan`).
The evaluation loop takes the plan when there is one and ``apply``
otherwise — one dispatch,
:func:`repro.experiments.runner.defended_matrices`.  Because every scheme
speaks the same contract, they **compose**: :class:`SchemeStack` chains
any sequence (padding → OR → FH, ...), fanning each stage over the
previous stage's observable flows and rolling the per-stage accounting
up into one report.

Composition semantics:

* Stage *k+1* is applied to **each** observable flow stage *k* emitted,
  independently (each flow is its own association); its outputs
  concatenate, renumbered in stage-major order.
* ``extra_bytes`` / ``handshake_bytes`` are **additive** across stages:
  the stack's totals are the per-stage sums, and every stage's own
  contribution is preserved in ``DefendedTraffic.stages``.
* Determinism: ``apply`` reads no online state (reshapers assign in
  batch with reset semantics), so a stack is a pure function of
  ``(stack construction, trace)`` — the property the flow cache and the
  parallel executor both rely on.
* RNG hygiene: stages inside a stack are built with per-stage seeds
  derived from ``derive_seed(seed, "scheme-stack", position, name)``
  (see :func:`~repro.schemes.registry.build_stack`), so two instances
  of the same stochastic scheme in one stack can never alias RNG
  streams, whatever their order.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.core.base import Reshaper
from repro.core.optimization import verify_partition
from repro.defenses.base import (
    ChainedSizeTransform,
    DefendedTraffic,
    Defense,
    FusedPlan,
    FusedStage,
    StageOverhead,
)
from repro.obs import add, gauge, observe, span
from repro.traffic.trace import Trace

__all__ = [
    "CONFIG_MESSAGE_BYTES",
    "DefenseScheme",
    "IdentityScheme",
    "ReshaperScheme",
    "Scheme",
    "SchemeStack",
    "as_scheme",
]


def _record_apply(name: str, defended: DefendedTraffic) -> DefendedTraffic:
    """Telemetry for one leaf scheme application.

    Counters are additive per apply — aggregate totals plus a
    ``scheme[<name>].*`` breakdown (the paper's per-stage overhead
    accounting, as counters) — and record into whatever collection
    context is active, so the window cache's capture-and-replay makes
    them follow logical requests, not physical executions.  Stacks do
    not call this: their stages are leaves and already counted, which
    keeps the byte totals additive instead of double-counted.
    """
    flows = defended.observable_flows
    packets_out = sum(len(flow) for flow in flows)
    add("scheme.apply_calls")
    add("scheme.packets_in", len(defended.original))
    add("scheme.packets_out", packets_out)
    add("scheme.extra_bytes", defended.extra_bytes)
    add("scheme.handshake_bytes", defended.handshake_bytes)
    add(f"scheme[{name}].apply_calls")
    add(f"scheme[{name}].packets_out", packets_out)
    add(f"scheme[{name}].extra_bytes", defended.extra_bytes)
    add(f"scheme[{name}].handshake_bytes", defended.handshake_bytes)
    observe("scheme.fanout", len(flows))
    return defended


def _record_fused(plan: FusedPlan, n_packets: int) -> None:
    """Telemetry for one fused plan, counter-for-counter with the legacy path.

    Every ``scheme.*`` counter and histogram observation the
    materializing path would have recorded is replayed from the plan's
    per-stage accounting (fusable schemes conserve packets, so each
    stage's leaves see ``n_packets`` in and out in total).  A cell's
    profile is therefore identical whether its flows were materialized
    or planned — only the ``batch.*`` namespace says which path ran.
    """
    for stage in plan.stages:
        if stage.applies == 0:
            # A dead stack arm: the legacy path never calls the stage.
            continue
        add("scheme.apply_calls", stage.applies)
        add("scheme.packets_in", n_packets)
        add("scheme.packets_out", n_packets)
        add("scheme.extra_bytes", stage.extra_bytes)
        add("scheme.handshake_bytes", stage.handshake_bytes)
        add(f"scheme[{stage.scheme}].apply_calls", stage.applies)
        add(f"scheme[{stage.scheme}].packets_out", n_packets)
        add(f"scheme[{stage.scheme}].extra_bytes", stage.extra_bytes)
        add(f"scheme[{stage.scheme}].handshake_bytes", stage.handshake_bytes)
        for fanout in stage.fanouts:
            observe("scheme.fanout", fanout)
    if plan.stack:
        add("scheme.stacks_applied")
        observe("scheme.stack_fanout", plan.n_flows)
    add("batch.fused_plans")
    gauge("batch.plan_bytes", plan.plan_bytes)


class Scheme(abc.ABC):
    """A named, composable defense: trace in, observable flows out."""

    #: Registry name (stacks use the ``a+b`` composition label).
    name: str = "scheme"

    @abc.abstractmethod
    def apply(self, trace: Trace) -> DefendedTraffic:
        """Defend ``trace``; deterministic in ``(self, trace)``."""

    @property
    def reshaper(self) -> Reshaper | None:
        """The underlying packet scheduler, when the scheme has one.

        The streaming loop (:mod:`repro.stream.adaptive`) schedules
        packet by packet, so it unwraps the scheduler from whatever
        scheme the batch path evaluates; byte-level defenses return
        ``None`` (they have no online form).
        """
        return None

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan | None:
        """Describe :meth:`apply` as a :class:`FusedPlan`, if possible.

        The fusion protocol: reshaping-only schemes — whose observable
        flows are masked selections/relabelings of the source columns,
        optionally with an elementwise size rewrite — return a plan the
        batch featurizer evaluates with zero intermediate ``Trace``
        allocation.  Schemes that genuinely rewrite traffic (morphing)
        return ``None`` (the default) and the pipeline falls back to
        :meth:`apply`.  Implementations must be bit-identical to
        ``apply``: plan flow ``f`` selects exactly the packets of
        ``apply(trace).observable_flows[f]``, in order.
        """
        return None

    def fused_plan(self, trace: Trace) -> FusedPlan | None:
        """The fused plan for ``trace``, with scheme telemetry recorded.

        Returns ``None`` for non-fusable schemes without recording
        anything — the fallback's real ``apply`` will count itself.  On
        success records the exact ``scheme.*`` counters the legacy path
        would have (see :func:`_record_fused`).
        """
        with span(f"scheme.fuse[{self.name}]"):
            plan = self.fused_plan_columns(
                trace.times, trace.sizes, trace.directions, trace.label
            )
        if plan is not None:
            _record_fused(plan, len(trace))
        return plan


class IdentityScheme(Scheme):
    """The undefended original: one flow, the trace itself, zero cost."""

    name = "original"

    def apply(self, trace: Trace) -> DefendedTraffic:
        with span(f"scheme.apply[{self.name}]"):
            defended = DefendedTraffic(
                original=trace,
                flows={0: trace},
                stages=(StageOverhead(self.name, 0, 0, 1),),
            )
        return _record_apply(self.name, defended)

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        return FusedPlan.single_flow(
            len(times), stages=(FusedStage(self.name, 1, (1,), 0, 0),)
        )


#: Size of one configuration-protocol message on the wire (request or
#: reply payload + frame overhead); measured from the protocol encoding.
CONFIG_MESSAGE_BYTES = 196

#: Fig. 2 handshake of one association: one request plus one reply —
#: the only message overhead reshaping introduces (Sec. V-B).
_HANDSHAKE_BYTES = 2 * CONFIG_MESSAGE_BYTES


class ReshaperScheme(Scheme):
    """Adapter: any :class:`~repro.core.base.Reshaper` as a :class:`Scheme`.

    ``apply`` reshapes the whole trace through the scheduler's batch
    :meth:`~repro.core.base.Reshaper.assign_columns` — the assignment
    its fused plan uses — verifies that reshaping is a pure partition of
    the original traffic (Sec. III-A), and splits the result into
    per-interface observable flows.  The scheduler's online state is
    neither read nor advanced, so a reshaper shared with a streaming
    loop is left as it was.  Each apply is one association, charged one
    Fig. 2 configuration handshake as the stage's ``handshake_bytes``.
    """

    def __init__(self, name: str, reshaper: Reshaper):
        self.name = str(name)
        self._reshaper = reshaper

    @property
    def reshaper(self) -> Reshaper:
        return self._reshaper

    def apply(self, trace: Trace) -> DefendedTraffic:
        with span(f"scheme.apply[{self.name}]"):
            reshaped = self._reshaper.reshape(trace)
            verify_partition(trace, reshaped)
            flows = reshaped.split_by_iface()
            defended = DefendedTraffic(
                original=trace,
                flows=flows,
                extra_bytes=0,
                handshake_bytes=_HANDSHAKE_BYTES,
                stages=(StageOverhead(self.name, 0, _HANDSHAKE_BYTES, len(flows)),),
            )
        return _record_apply(self.name, defended)

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        plan = FusedPlan.from_assignments(
            self._reshaper.assign_columns(times, sizes, directions)
        )
        return plan.with_stages(
            (FusedStage(self.name, 1, (plan.n_flows,), 0, _HANDSHAKE_BYTES),)
        )


class DefenseScheme(Scheme):
    """Adapter: any :class:`~repro.defenses.base.Defense` as a :class:`Scheme`."""

    def __init__(self, name: str, defense: Defense):
        self.name = str(name)
        self._defense = defense

    @property
    def defense(self) -> Defense:
        """The wrapped byte-level defense."""
        return self._defense

    def apply(self, trace: Trace) -> DefendedTraffic:
        with span(f"scheme.apply[{self.name}]"):
            result = self._defense.apply(trace)
            defended = replace(
                result,
                stages=(
                    StageOverhead(
                        self.name, result.extra_bytes, result.handshake_bytes,
                        len(result.flows),
                    ),
                ),
            )
        return _record_apply(self.name, defended)

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan | None:
        plan = self._defense.fused_plan_columns(times, sizes, directions, label)
        if plan is None or not plan.stages:
            return plan
        # The stage is reported under the *scheme's* label, which may
        # differ from the wrapped defense's registry name.
        stage = plan.stages[0]
        if stage.scheme == self.name:
            return plan
        return plan.with_stages((replace(stage, scheme=self.name),))


class SchemeStack(Scheme):
    """A chain of schemes applied flow-wise, with rolled-up accounting."""

    def __init__(self, stages: Sequence[Scheme], name: str | None = None):
        if not stages:
            raise ValueError("a SchemeStack needs at least one stage")
        self._stages = tuple(stages)
        self.name = name if name is not None else "+".join(s.name for s in self._stages)

    @property
    def stages(self) -> tuple[Scheme, ...]:
        """The chained schemes, in application order."""
        return self._stages

    @property
    def reshaper(self) -> Reshaper | None:
        """The scheduler of a single-stage stack (stacks have no online form)."""
        if len(self._stages) == 1:
            return self._stages[0].reshaper
        return None

    def apply(self, trace: Trace) -> DefendedTraffic:
        flows: list[Trace] = [trace]
        accounting: list[StageOverhead] = []
        # Stage applies are leaves: they record their own counters and
        # spans (nested under this one), so the stack adds only its
        # fan-out observation — byte totals stay additive.
        with span(f"scheme.apply[{self.name}]"):
            for stage in self._stages:
                emitted: list[Trace] = []
                extra = 0
                handshake = 0
                for flow in flows:
                    result = stage.apply(flow)
                    emitted.extend(result.observable_flows)
                    extra += result.extra_bytes
                    handshake += result.handshake_bytes
                accounting.append(
                    StageOverhead(stage.name, extra, handshake, len(emitted))
                )
                flows = emitted
        add("scheme.stacks_applied")
        observe("scheme.stack_fanout", len(flows))
        return DefendedTraffic(
            original=trace,
            flows=dict(enumerate(flows)),
            extra_bytes=sum(stage.extra_bytes for stage in accounting),
            handshake_bytes=sum(stage.handshake_bytes for stage in accounting),
            stages=tuple(accounting),
        )

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan | None:
        """Compose the stages' plans into one stack plan.

        Mirrors :meth:`apply` at the column level: stage *k+1* plans
        each of stage *k*'s flows independently, and flows renumber in
        stage-major order (input-flow order, then each sub-plan's own
        sorted order) — exactly the order ``apply`` emits.  Size
        transforms chain: later stages plan against the running
        (transformed) sizes, and the final plan's transform is the whole
        chain applied to the original column.  Any stage that cannot
        fuse — or that is itself a stack (nested stacks keep their own
        accounting; not worth flattening) — makes the whole stack fall
        back.
        """
        n = len(times)
        times = np.asarray(times)
        current_sizes = np.asarray(sizes)
        directions = np.asarray(directions)
        assignments = np.zeros(n, dtype=np.int64)
        n_flows = 1
        transforms: list = []
        stage_records: list[FusedStage] = []
        for stage in self._stages:
            new_assignments = np.empty(n, dtype=np.int64)
            new_sizes = None
            stage_transform = None
            offset = 0
            applies = 0
            fanouts: list[int] = []
            extra = 0
            handshake = 0
            for flow in range(n_flows):
                if n_flows == 1:
                    # Single input flow (every stack's first stage, and
                    # any stage after a non-partitioning one): the mask
                    # is all-true — plan on the columns directly instead
                    # of copying them through a full-length gather.
                    mask = None
                    flow_times = times
                    flow_sizes = current_sizes
                    flow_directions = directions
                else:
                    mask = assignments == flow
                    flow_times = times[mask]
                    flow_sizes = current_sizes[mask]
                    flow_directions = directions[mask]
                sub = stage.fused_plan_columns(
                    flow_times, flow_sizes, flow_directions, label
                )
                if sub is None or sub.stack:
                    return None
                # Offsets are added in int64: a narrow sub-plan index
                # plus a Python int stays narrow and wraps (uint8 200 +
                # 100 is 44) even when written into an int64 array.
                if mask is None:
                    np.add(sub.assignments, offset, out=new_assignments,
                           dtype=np.int64)
                else:
                    new_assignments[mask] = np.add(
                        sub.assignments, offset, dtype=np.int64
                    )
                offset += sub.n_flows
                applies += 1
                fanouts.append(sub.n_flows)
                extra += sub.extra_bytes
                handshake += sub.handshake_bytes
                if sub.size_transform is not None:
                    if stage_transform is None:
                        stage_transform = sub.size_transform
                        if mask is not None:
                            new_sizes = current_sizes.astype(np.int64, copy=True)
                    elif stage_transform != sub.size_transform:
                        # Flows disagree on the rewrite: not elementwise.
                        return None
                    if mask is None:
                        new_sizes = sub.size_transform(flow_sizes, flow_directions)
                    else:
                        new_sizes[mask] = sub.size_transform(
                            flow_sizes, flow_directions
                        )
            assignments = new_assignments
            n_flows = offset
            if stage_transform is not None:
                transforms.append(stage_transform)
                current_sizes = new_sizes
            stage_records.append(
                FusedStage(stage.name, applies, tuple(fanouts), extra, handshake)
            )
        if not transforms:
            size_transform = None
        elif len(transforms) == 1:
            size_transform = transforms[0]
        else:
            size_transform = ChainedSizeTransform(tuple(transforms))
        return FusedPlan.from_assignments(
            assignments,
            n_flows=n_flows,
            size_transform=size_transform,
            stages=tuple(stage_records),
            stack=True,
        )


def as_scheme(obj: Scheme | Reshaper | Defense, name: str | None = None) -> Scheme:
    """Wrap ``obj`` into the unified :class:`Scheme` interface.

    Schemes pass through; reshapers and defenses get the appropriate
    adapter.  ``name`` overrides the wrapped object's default label.
    """
    if isinstance(obj, Scheme):
        return obj
    if isinstance(obj, Reshaper):
        return ReshaperScheme(name or type(obj).__name__, obj)
    if isinstance(obj, Defense):
        return DefenseScheme(name or obj.name, obj)
    raise TypeError(
        f"cannot interpret {type(obj).__name__} as a Scheme "
        "(expected a Scheme, Reshaper, or Defense)"
    )
