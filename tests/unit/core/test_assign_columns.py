"""Batch assignment (`Reshaper.assign_columns`) against the online oracle.

The fused evaluation path never constructs a Trace, and every scheme's
``apply`` reshapes through the same call, so each scheduler must
reproduce — bit for bit — what a fresh instance's per-packet
``assign_packet`` replay emits, from raw columns alone.  Statefulness is
the trap: ``assign_columns`` must neither read nor advance accumulated
online state (that's what "reset semantics" means).
"""

import numpy as np
import pytest

from oracles.replay import replay_packets
from repro.core.adaptive import QuantileBoundaryReshaper
from repro.core.schedulers import (
    FrequencyHoppingScheduler,
    ModuloReshaper,
    OrthogonalReshaper,
    RandomReshaper,
    RoundRobinReshaper,
)
from repro.core.target_driven import TargetDrivenReshaper
from repro.core.targets import TargetDistribution
from repro.traffic.trace import Trace


def make_trace(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return Trace.from_arrays(
        np.sort(rng.uniform(0.0, 30.0, n)),
        rng.integers(1, 1577, n),
        directions=rng.choice([0, 1], n),
    )


def greedy_targets():
    matrix = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.3, 0.4, 0.3]])
    return TargetDistribution((500, 1000, 1576), matrix)


#: Factories, so every test (and every oracle) gets a fresh instance.
SCHEDULERS = {
    "RandomReshaper": lambda: RandomReshaper(interfaces=3, seed=7),
    "RoundRobinReshaper": lambda: RoundRobinReshaper(interfaces=3),
    "OrthogonalReshaper": lambda: OrthogonalReshaper.paper_default(3),
    "ModuloReshaper": lambda: ModuloReshaper(interfaces=4),
    "FrequencyHoppingScheduler": lambda: FrequencyHoppingScheduler(),
    "QuantileBoundaryReshaper": lambda: QuantileBoundaryReshaper.fit(
        make_trace(seed=3), interfaces=3
    ),
    "TargetDrivenReshaper": lambda: TargetDrivenReshaper(greedy_targets()),
}

by_scheduler = pytest.mark.parametrize(
    "factory", SCHEDULERS.values(), ids=SCHEDULERS.keys()
)


def columns(trace):
    return trace.times, trace.sizes, trace.directions


class TestAssignColumnsBitIdentity:
    @by_scheduler
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fresh_per_packet_replay(self, factory, seed):
        trace = make_trace(n=300, seed=seed)
        reference = replay_packets(factory(), trace)
        vectorized = factory().assign_columns(*columns(trace))
        assert vectorized.dtype == np.int16
        np.testing.assert_array_equal(vectorized, reference)

    @by_scheduler
    def test_ignores_accumulated_state(self, factory):
        """Columns answer as a *fresh* scheduler even after online use."""
        trace = make_trace()
        reference = replay_packets(factory(), trace)
        reshaper = factory()
        # Poison any online state, then ask again at the column level.
        for k in range(17):
            reshaper.assign_packet(time=float(k), size=100 + k, direction=k % 2)
        np.testing.assert_array_equal(
            reshaper.assign_columns(*columns(trace)), reference
        )

    @by_scheduler
    def test_leaves_online_state_alone(self, factory):
        """A batch call between online packets does not shift the stream."""
        trace = make_trace(n=60, seed=4)
        first = trace.select(np.arange(60) < 30)
        second = trace.select(np.arange(60) >= 30)
        interrupted = factory()
        replay_packets(interrupted, first)
        interrupted.assign_columns(*columns(make_trace(n=400, seed=5)))
        continued = replay_packets(interrupted, second)
        straight = factory()
        replay_packets(straight, first)
        np.testing.assert_array_equal(continued, replay_packets(straight, second))

    @by_scheduler
    def test_empty_columns(self, factory):
        out = factory().assign_columns(
            np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8)
        )
        assert len(out) == 0
        assert out.dtype == np.int16


class TestTargetDrivenOnlineContinuation:
    """Online state persists across packets until ``reset``."""

    def test_resumes_from_accumulated_state(self):
        """Packet-by-packet calls continue the recurrence across traces."""
        trace = make_trace(n=200, seed=9)
        first = trace.select(np.arange(200) < 100)
        second = trace.select(np.arange(200) >= 100)
        split = TargetDrivenReshaper(greedy_targets())
        resumed = np.concatenate(
            [replay_packets(split, first), replay_packets(split, second)]
        )
        whole = TargetDrivenReshaper(greedy_targets())
        np.testing.assert_array_equal(resumed, whole.assign_columns(*columns(trace)))

    def test_batch_leaves_the_counts_alone(self):
        reshaper = TargetDrivenReshaper(greedy_targets())
        replay_packets(reshaper, make_trace(n=50, seed=11))
        before = reshaper.achieved_distributions()
        reshaper.assign_columns(*columns(make_trace(n=300, seed=12)))
        np.testing.assert_array_equal(reshaper.achieved_distributions(), before)

    def test_reset_restarts_the_recurrence(self):
        trace = make_trace(n=80, seed=10)
        reshaper = TargetDrivenReshaper(greedy_targets())
        first = replay_packets(reshaper, trace)
        reshaper.reset()
        np.testing.assert_array_equal(replay_packets(reshaper, trace), first)
