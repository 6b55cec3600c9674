"""Vectorized batch featurization of eavesdropping windows.

The attacker loop of Sec. IV (train on undefended windows, classify
every window of every observable flow) is the hot path behind every
table and figure.  The reference implementation
(:func:`~repro.analysis.windows.sliding_windows` →
:func:`~repro.analysis.features.extract_features`) materializes one
:class:`~repro.traffic.trace.Trace` per window and runs a Python loop
per window and per direction.  This module computes the full
``(n_windows, 12)`` feature matrix of a flow in a handful of numpy
passes instead:

* one :func:`numpy.searchsorted` against the shared window grid
  (:func:`~repro.analysis.windows.window_edges`) locates every window
  boundary in each direction,
* segmented ``ufunc.reduceat`` reductions produce per-window count /
  max / min / mean / std of packet size,
* interarrival means come from one :func:`numpy.diff` over re-based
  timestamps with idle gaps masked and summed via ``bincount``.

No per-window ``Trace`` is materialized and no column is copied.  The
legacy per-window path is kept as the reference oracle; the property
tests assert the two paths agree element-for-element.

``_direction_block`` doubles as the shared per-window kernel of the
streaming engine: :class:`repro.stream.featurizer.StreamingFeaturizer`
applies it to each closed window's buffered packets with a two-edge
grid, which is what makes streaming output bit-identical to this
module's matrices (a ufunc reduction sees the same contiguous float64
values either way).  Changes to its arithmetic are parity-tested from
both sides.

:class:`WindowCache` memoizes what the evaluation dispatch
(:func:`repro.experiments.runner.defended_matrices`) computes per
(scheme, trace): fused plans and their per-flow matrices, or the
materialized defended traffic and its per-flow matrices — so the scheme
grid and multi-window sweeps share windowing work.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro import obs
from repro.analysis.features import _IAT_EPSILON, FEATURE_NAMES
from repro.analysis.windows import window_edges, window_key
from repro.defenses.base import DefendedTraffic, FusedPlan
from repro.traffic.packet import DOWNLINK, UPLINK
from repro.traffic.stats import DEFAULT_IDLE_CUTOFF
from repro.traffic.trace import Trace
from repro.util.validation import require, require_positive

__all__ = [
    "WindowCache",
    "augment_direction_dropout",
    "flow_feature_matrix",
    "fused_feature_matrices",
    "fused_flow_matrices",
]

_N_FEATURES = len(FEATURE_NAMES)


def _direction_block(
    dtimes: np.ndarray,
    dsizes: np.ndarray,
    edges: np.ndarray,
    window: float,
    idle_cutoff: float,
    block: np.ndarray,
) -> None:
    """Per-window 6-feature block of one direction, for every window.

    ``dtimes``/``dsizes`` are the (sorted) timestamps and float sizes of
    the direction's packets; ``edges`` is the full window grid of the
    flow.  Results are written into ``block``, a ``(n_windows, 6)``
    column slice of the flow's feature matrix.  Windows where the
    direction is silent get the empty-direction encoding (zero counts,
    interarrival pinned to the window length).
    """
    n_windows = len(edges) - 1
    block[:, :5] = 0.0
    block[:, 5] = np.log(window + _IAT_EPSILON)
    if len(dtimes) == 0:
        return

    bounds = np.searchsorted(dtimes, edges)
    counts = bounds[1:] - bounds[:-1]
    occupied = np.flatnonzero(counts)
    if len(occupied) == 0:  # unreachable: edges cover every packet
        return
    seg_counts = counts[occupied]
    seg_starts = bounds[:-1][occupied]

    # Size statistics via segmented reductions.  Consecutive occupied
    # windows have contiguous segments (silent windows contribute no
    # packets), so reduceat over the occupied starts partitions dsizes.
    sums = np.add.reduceat(dsizes, seg_starts)
    means = sums / seg_counts
    deviations = dsizes - np.repeat(means, seg_counts)
    variances = np.add.reduceat(deviations * deviations, seg_starts) / seg_counts
    block[occupied, 0] = np.log1p(seg_counts)
    block[occupied, 1] = np.maximum.reduceat(dsizes, seg_starts)
    block[occupied, 2] = np.minimum.reduceat(dsizes, seg_starts)
    block[occupied, 3] = means
    block[occupied, 4] = np.sqrt(variances)

    # Interarrival means over re-based timestamps.  Re-basing before the
    # diff mirrors the reference path's subtraction order so idle-gap
    # cutoff decisions land on identical float values.
    window_of = np.repeat(occupied, seg_counts)
    rebased = dtimes - np.repeat(edges[:-1][occupied], seg_counts)
    gaps = rebased[1:] - rebased[:-1]
    keep = (window_of[1:] == window_of[:-1]) & (gaps <= idle_cutoff)
    kept_gaps = gaps[keep]
    mean_iat = np.full(n_windows, float(window))
    if len(kept_gaps):
        # Surviving gaps are grouped by (non-decreasing) window; sum each
        # run with one segmented reduction.
        kept_windows = window_of[1:][keep]
        run_starts = np.searchsorted(kept_windows, occupied, side="left")
        run_counts = np.searchsorted(kept_windows, occupied, side="right") - run_starts
        has_gaps = run_counts > 0
        gap_sums = np.add.reduceat(kept_gaps, run_starts[has_gaps])
        mean_iat[occupied[has_gaps]] = gap_sums / run_counts[has_gaps]
    block[:, 5] = np.log(mean_iat + _IAT_EPSILON)


def flow_feature_matrix(
    trace: Trace,
    window: float,
    min_packets: int = 2,
) -> np.ndarray:
    """The ``(n_windows, 12)`` feature matrix of one observable flow.

    Equivalent to ``sliding_windows`` followed by per-window
    ``extract_features`` — same window grid, same ``min_packets``
    filter, same feature encoding — but computed in whole-flow numpy
    passes.  Row ``k`` corresponds to the ``k``-th surviving window in
    time order.
    """
    require_positive(window, "window")
    require(min_packets >= 1, "min_packets must be >= 1")
    if len(trace) == 0:
        return np.empty((0, _N_FEATURES), dtype=np.float64)
    matrix, _ = _one_flow_matrix(
        trace.times, trace.sizes, trace.directions, float(window), min_packets
    )
    return matrix


def _one_flow_matrix(
    times: np.ndarray,
    sizes: np.ndarray,
    directions: np.ndarray,
    window: float,
    min_packets: int,
) -> tuple[np.ndarray, int]:
    """Feature matrix of one non-empty flow, straight off its columns.

    The shared body of :func:`flow_feature_matrix` and the one-flow
    case of :func:`fused_feature_matrices`.  Returns the matrix and the
    bytes of the per-direction copies it gathered.
    """
    edges = window_edges(times, window)
    totals = np.diff(np.searchsorted(times, edges))
    idle_cutoff = min(DEFAULT_IDLE_CUTOFF, window)
    matrix = np.empty((len(edges) - 1, _N_FEATURES), dtype=np.float64)
    gathered = 0
    for column, direction in ((0, DOWNLINK), (6, UPLINK)):
        mask = directions == int(direction)
        # Slice per direction *before* the float conversion: converting
        # the masked int64 slice touches only that direction's packets.
        # int64 → float64 is exact per element, so the values — and the
        # resulting features — are bit-identical either way.
        dtimes = times[mask]
        dsizes = sizes[mask].astype(np.float64)
        gathered += dtimes.nbytes + dsizes.nbytes
        _direction_block(
            dtimes, dsizes, edges, window, idle_cutoff,
            matrix[:, column : column + 6],
        )
    return matrix[totals >= min_packets], gathered


def fused_feature_matrices(
    times: np.ndarray,
    sizes: np.ndarray,
    directions: np.ndarray,
    plan: FusedPlan,
    window: float,
    min_packets: int = 2,
) -> list[np.ndarray]:
    """Per-flow feature matrices of a defended trace, straight off columns.

    The fused counterpart of ``apply`` → :func:`flow_feature_matrix`:
    ``plan`` (from :meth:`repro.schemes.Scheme.fused_plan`) says which
    observable flow each packet lands in and how sizes are rewritten,
    and this kernel gathers each flow's packets directly from the source
    columns — in-memory arrays or ``TraceStore``/``ShardSet`` memmap
    slices alike — with **zero intermediate Trace allocation**.  Flow
    ``f``'s matrix is bit-identical to
    ``flow_feature_matrix(defended.observable_flows[f], ...)``: the
    gather yields the same contiguous float64 values the materialized
    flow's columns would hold, and the per-window arithmetic is the
    shared :func:`_direction_block` kernel.

    Telemetry makes the no-materialization claim checkable instead of
    trusted: ``batch.fused_flows``/``batch.fused_windows`` count the
    work, and the ``batch.bytes_materialized`` gauge records the
    largest single-flow working set (gathered columns + per-direction
    float views) — O(one flow), never O(trace × flows).
    """
    require_positive(window, "window")
    require(min_packets >= 1, "min_packets must be >= 1")
    window = float(window)
    idle_cutoff = min(DEFAULT_IDLE_CUTOFF, window)
    transform = plan.size_transform
    times = np.asarray(times)
    sizes = np.asarray(sizes)
    directions = np.asarray(directions)
    matrices: list[np.ndarray] = []

    if plan.n_flows == 1:
        # One observable flow containing every packet (identity,
        # padding): the gather would be the identity permutation — read
        # the source columns in place instead of copying them.
        obs.add("batch.fused_flows")
        if len(times) == 0:
            obs.gauge("batch.bytes_materialized", 0)
            return [np.empty((0, _N_FEATURES), dtype=np.float64)]
        fsizes = sizes
        materialized = 0
        if transform is not None:
            fsizes = transform(fsizes, directions)
            materialized += fsizes.nbytes
        kept, gathered = _one_flow_matrix(
            times, fsizes, directions, window, min_packets
        )
        obs.add("batch.fused_windows", len(kept))
        obs.gauge("batch.bytes_materialized", materialized + gathered)
        return [kept]

    # Multi-flow: one stable radix sort by (flow, direction) makes every
    # (flow, direction) group a contiguous run of the gather index, in
    # time order (source columns are time-sorted and the sort is
    # stable).  Each group then gathers straight into the exact
    # per-direction arrays the featurizer consumes — no per-flow
    # boolean masks, no intermediate whole-flow copy.  The key is kept
    # in the narrowest dtype that fits 2 * n_flows: numpy's stable sort
    # is a radix sort only for <= 16-bit integers (5-6x faster here
    # than the int32/int64 timsort fallback), and flow counts are tiny.
    up = int(UPLINK)
    if 2 * plan.n_flows < np.iinfo(np.int16).max:
        key = plan.assignments.astype(np.int16)
        key <<= 1
        key += directions == up
    elif 2 * plan.n_flows < np.iinfo(np.int32).max:
        key = plan.assignments.astype(np.int32) * 2 + (directions == up)
    else:
        key = plan.assignments.astype(np.int64) * 2 + (directions == up)
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=2 * plan.n_flows)
    bounds = np.zeros(2 * plan.n_flows + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    for flow in range(plan.n_flows):
        obs.add("batch.fused_flows")
        down_idx = order[bounds[2 * flow] : bounds[2 * flow + 1]]
        up_idx = order[bounds[2 * flow + 1] : bounds[2 * flow + 2]]
        if len(down_idx) == 0 and len(up_idx) == 0:
            matrices.append(np.empty((0, _N_FEATURES), dtype=np.float64))
            continue
        materialized = 0
        by_direction: list[tuple[np.ndarray, np.ndarray]] = []
        for indices, direction in ((down_idx, DOWNLINK), (up_idx, UPLINK)):
            dtimes = times[indices]
            dsizes = sizes[indices]
            materialized += dtimes.nbytes + dsizes.nbytes
            if transform is not None:
                dsizes = transform(
                    dsizes,
                    np.broadcast_to(
                        directions.dtype.type(int(direction)), dsizes.shape
                    ),
                )
                materialized += dsizes.nbytes
            dsizes = dsizes.astype(np.float64)
            materialized += dsizes.nbytes
            by_direction.append((dtimes, dsizes))
        # The flow's window grid depends only on its first and last
        # timestamp; both are the extrema of the per-direction runs.
        firsts = [dtimes[0] for dtimes, _ in by_direction if len(dtimes)]
        lasts = [dtimes[-1] for dtimes, _ in by_direction if len(dtimes)]
        edges = window_edges(np.array([min(firsts), max(lasts)]), window)
        totals = np.diff(np.searchsorted(by_direction[0][0], edges)) + np.diff(
            np.searchsorted(by_direction[1][0], edges)
        )
        matrix = np.empty((len(edges) - 1, _N_FEATURES), dtype=np.float64)
        for (dtimes, dsizes), column in zip(by_direction, (0, 6)):
            _direction_block(
                dtimes, dsizes, edges, window, idle_cutoff,
                matrix[:, column : column + 6],
            )
        kept = matrix[totals >= min_packets]
        matrices.append(kept)
        obs.add("batch.fused_windows", len(kept))
        obs.gauge("batch.bytes_materialized", materialized)
    return matrices


def fused_flow_matrices(
    trace: Trace,
    plan: FusedPlan,
    window: float,
    min_packets: int = 2,
) -> list[np.ndarray]:
    """:func:`fused_feature_matrices` over a trace's columns.

    Works identically for in-memory traces and store-backed traces
    whose columns are read-only memmap slices — the kernel only ever
    gathers per-flow index views out of them.
    """
    return fused_feature_matrices(
        trace.times, trace.sizes, trace.directions, plan, window, min_packets
    )


def augment_direction_dropout(matrix: np.ndarray, window: float) -> np.ndarray:
    """Batched capture-asymmetry augmentation of a feature matrix.

    Vectorized counterpart of
    :func:`repro.analysis.features.direction_dropout_variants`: for each
    input row emits its downlink-only then uplink-only variant, skipping
    variants whose kept direction is empty.  Row order matches iterating
    the reference function over the matrix rows.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    empty_iat = np.log(window + _IAT_EPSILON)
    empty = np.array([0.0, 0.0, 0.0, 0.0, 0.0, empty_iat], dtype=np.float64)
    variants = np.empty((len(matrix), 2, _N_FEATURES), dtype=np.float64)
    variants[:, 0, :6] = matrix[:, :6]
    variants[:, 0, 6:] = empty
    variants[:, 1, :6] = empty
    variants[:, 1, 6:] = matrix[:, 6:]
    # The count feature is log1p(count): positive exactly when the
    # direction carried at least one packet.
    kept = np.stack([matrix[:, 0] > 0, matrix[:, 6] > 0], axis=1)
    return variants[kept]


class WindowCache:
    """Memoizes windowing work shared across schemes and window sweeps.

    Four layers, two per evaluation path:

    * ``fused_plan`` — a scheme's fused plan of a trace (or ``None``
      for a scheme that cannot fuse), keyed by (scheme identity, trace
      identity).
    * ``fused_matrices`` — the fused kernel's per-flow matrices, keyed
      by scheme and trace identity plus the normalized window
      (:func:`window_key`) and the ``min_packets`` threshold.
    * ``defended_flows`` — the materialized :class:`DefendedTraffic` of
      a non-fusable scheme, keyed like plans.  A window sweep applies
      each scheme to each trace once instead of once per window.  Safe
      because ``Scheme.apply`` reads no online state, making it
      deterministic in (scheme, trace).
    * ``feature_matrix`` — per-flow feature matrices of materialized
      flows, keyed by flow identity, window and ``min_packets``.

    Every layer but ``feature_matrix`` carries the telemetry captured
    while it was built, handed back on every request for replay, so
    counters stay logical (see :meth:`defended_flows`).

    Cached keys pin their source objects so ``id()`` reuse after garbage
    collection cannot alias entries.
    """

    def __init__(self) -> None:
        self._features: dict[tuple[int, float, int], np.ndarray] = {}
        self._defended: dict[
            tuple[int, int], tuple[DefendedTraffic, "obs.Subprofile | None"]
        ] = {}
        self._plans: dict[
            tuple[int, int], tuple[FusedPlan | None, "obs.Subprofile | None"]
        ] = {}
        self._fused: dict[
            tuple[int, int, float, int],
            tuple[list[np.ndarray], "obs.Subprofile | None"],
        ] = {}
        self._pinned: dict[int, object] = {}
        self.hits: int = 0
        self.misses: int = 0

    def feature_matrix(
        self,
        flow: Trace,
        window: float,
        min_packets: int = 2,
    ) -> np.ndarray:
        """The (cached) feature matrix of ``flow`` at ``window``."""
        # repro-lint: allow[nondeterminism]: cache is strictly process-local (never pickled) and pins sources against id() reuse
        key = (id(flow), window_key(window), int(min_packets))
        cached = self._features.get(key)
        if cached is None:
            self.misses += 1
            obs.add("proc.window_cache.feature_misses")
            # repro-lint: allow[nondeterminism]: pin keeps the id() key alive; cache never crosses a process boundary
            self._pinned[id(flow)] = flow
            cached = flow_feature_matrix(flow, window, min_packets)
            self._features[key] = cached
        else:
            self.hits += 1
            obs.add("proc.window_cache.feature_hits")
        return cached

    def defended_flows(
        self,
        scheme: object,
        trace: Trace,
        build: Callable[[], tuple[DefendedTraffic, "obs.Subprofile | None"]],
    ) -> tuple[DefendedTraffic, "obs.Subprofile | None"]:
        """The (cached) defended traffic of ``trace`` under ``scheme``.

        ``build`` runs on a miss, must be deterministic in (scheme,
        trace), and returns ``(defended, subprofile)`` where the
        subprofile is the telemetry the scheme application recorded
        while it physically ran (see :func:`repro.obs.captured`).  The
        cache stores both and hands the subprofile back on *every*
        request — hit or miss — so callers can :func:`repro.obs.replay`
        it and keep counters logical: a cell sees the same counts
        whether its flows were computed here or reused from a warmer
        cache.
        """
        # repro-lint: allow[nondeterminism]: cache is strictly process-local (never pickled) and pins sources against id() reuse
        key = (id(scheme), id(trace))
        if key not in self._defended:
            self.misses += 1
            obs.add("proc.window_cache.flow_misses")
            # repro-lint: allow[nondeterminism]: pin keeps the id() key alive; cache never crosses a process boundary
            self._pinned[id(trace)] = trace
            # repro-lint: allow[nondeterminism]: pin keeps the id() key alive; cache never crosses a process boundary
            self._pinned[id(scheme)] = scheme
            self._defended[key] = build()
        else:
            self.hits += 1
            obs.add("proc.window_cache.flow_hits")
        return self._defended[key]

    def fused_plan(
        self,
        scheme: object,
        trace: Trace,
        build: Callable[[], tuple["FusedPlan | None", "obs.Subprofile | None"]],
    ) -> tuple["FusedPlan | None", "obs.Subprofile | None"]:
        """The (cached) fused plan of ``trace`` under ``scheme``.

        ``build`` runs on a miss and returns ``(plan, subprofile)``
        where the plan may legitimately be ``None`` (non-fusable scheme)
        — the miss is cached either way so fallback schemes don't
        re-attempt fusion per window.  Like :meth:`defended_flows`, the
        captured telemetry is handed back on every request for replay.
        """
        # repro-lint: allow[nondeterminism]: cache is strictly process-local (never pickled) and pins sources against id() reuse
        key = (id(scheme), id(trace))
        if key not in self._plans:
            self.misses += 1
            obs.add("proc.window_cache.plan_misses")
            # repro-lint: allow[nondeterminism]: pin keeps the id() key alive; cache never crosses a process boundary
            self._pinned[id(trace)] = trace
            # repro-lint: allow[nondeterminism]: pin keeps the id() key alive; cache never crosses a process boundary
            self._pinned[id(scheme)] = scheme
            self._plans[key] = build()
        else:
            self.hits += 1
            obs.add("proc.window_cache.plan_hits")
        return self._plans[key]

    def fused_matrices(
        self,
        scheme: object,
        trace: Trace,
        window: float,
        min_packets: int,
        build: Callable[[], tuple[list[np.ndarray], "obs.Subprofile | None"]],
    ) -> tuple[list[np.ndarray], "obs.Subprofile | None"]:
        """The (cached) fused per-flow matrices of one (scheme, trace, window).

        Keyed like :meth:`feature_matrix` — scheme and trace identity
        plus the normalized window and ``min_packets`` — so fused
        memoization behaves exactly like the materializing path's
        per-flow matrix cache across schemes, windows and experiments.
        """
        # repro-lint: allow[nondeterminism]: cache is strictly process-local (never pickled) and pins sources against id() reuse
        key = (id(scheme), id(trace), window_key(window), int(min_packets))
        if key not in self._fused:
            self.misses += 1
            obs.add("proc.window_cache.fused_misses")
            # repro-lint: allow[nondeterminism]: pin keeps the id() key alive; cache never crosses a process boundary
            self._pinned[id(trace)] = trace
            # repro-lint: allow[nondeterminism]: pin keeps the id() key alive; cache never crosses a process boundary
            self._pinned[id(scheme)] = scheme
            self._fused[key] = build()
        else:
            self.hits += 1
            obs.add("proc.window_cache.fused_hits")
        return self._fused[key]

    def clear(self) -> None:
        """Drop every cached artifact (and the object pins)."""
        self._features.clear()
        self._defended.clear()
        self._plans.clear()
        self._fused.clear()
        self._pinned.clear()
        self.hits = 0
        self.misses = 0
