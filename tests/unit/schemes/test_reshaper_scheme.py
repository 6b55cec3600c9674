"""Tests for the reshaper adapter: a scheduler applied to whole traces."""

import numpy as np
import pytest

from oracles.replay import replay_packets

from repro.core.base import Reshaper
from repro.core.schedulers import OrthogonalReshaper, RoundRobinReshaper
from repro.schemes import as_scheme
from repro.schemes.base import CONFIG_MESSAGE_BYTES
from repro.traffic.trace import Trace


@pytest.fixture
def trace():
    rng = np.random.default_rng(3)
    sizes = rng.choice([150, 700, 1570], size=300)
    return Trace.from_arrays(np.arange(300) * 0.02, sizes, label="bt")


class _ResizingReshaper(Reshaper):
    """A broken scheduler that rewrites sizes (reshaping must not)."""

    interfaces = 1

    def assign_packet(self, time: float, size: int, direction: int) -> int:
        return 0

    def assign_columns(self, times, sizes, directions):
        return np.zeros(len(times), dtype=np.int16)

    def reshape(self, trace: Trace) -> Trace:
        return trace.with_sizes(trace.sizes + 1)


class TestApply:
    def test_flows_partition_the_trace(self, trace):
        defended = as_scheme(OrthogonalReshaper.paper_default()).apply(trace)
        assert sum(len(f) for f in defended.flows.values()) == len(trace)
        assert len(defended.flows) == 3

    def test_zero_data_overhead(self, trace):
        # Sec. V-B: reshaping adds no noise traffic.
        defended = as_scheme(OrthogonalReshaper.paper_default()).apply(trace)
        assert defended.extra_bytes == 0
        assert defended.defended_bytes == trace.total_bytes

    def test_config_overhead_is_two_messages(self, trace):
        defended = as_scheme(OrthogonalReshaper.paper_default()).apply(trace)
        assert CONFIG_MESSAGE_BYTES == 196
        assert defended.handshake_bytes == 2 * CONFIG_MESSAGE_BYTES

    def test_observable_flows_in_interface_order(self, trace):
        defended = as_scheme(OrthogonalReshaper.paper_default()).apply(trace)
        flows = defended.observable_flows
        assert len(flows) == len(defended.flows)
        assert [int(flow.ifaces[0]) for flow in flows] == sorted(defended.flows)

    def test_scheduler_resets_between_traces(self, trace):
        scheme = as_scheme(RoundRobinReshaper(interfaces=3))
        first = [flow.times.copy() for flow in scheme.apply(trace).observable_flows]
        second = scheme.apply(trace).observable_flows
        assert all(np.array_equal(a, b.times) for a, b in zip(first, second))

    def test_leaves_online_state_alone(self, trace):
        """Counters advanced by assign_packet survive an apply."""
        reshaper = RoundRobinReshaper(interfaces=3)
        # Two downlink packets: the online rotation now points at iface 2.
        reshaper.assign_packet(0.0, 100, 0)
        reshaper.assign_packet(0.1, 100, 0)
        scheme = as_scheme(reshaper)
        defended = scheme.apply(trace)
        assert sorted(defended.flows) == [0, 1, 2]
        assert reshaper.assign_packet(0.2, 100, 0) == 2
        # ... and apply itself started from a fresh rotation.
        assert defended.observable_flows[0].times[0] == trace.times[0]

    def test_apply_matches_fresh_replay(self, trace):
        """apply's flows are the per-packet replay of a fresh scheduler."""
        replayed = trace.with_ifaces(
            replay_packets(RoundRobinReshaper(interfaces=3), trace)
        )
        defended = as_scheme(RoundRobinReshaper(interfaces=3)).apply(trace)
        expected = replayed.split_by_iface()
        assert sorted(defended.flows) == sorted(expected)
        for key, flow in expected.items():
            np.testing.assert_array_equal(defended.flows[key].times, flow.times)

    def test_stage_accounting(self, trace):
        defended = as_scheme(OrthogonalReshaper.paper_default(), "or").apply(trace)
        (stage,) = defended.stages
        assert (stage.scheme, stage.extra_bytes, stage.flows) == ("or", 0, 3)
        assert stage.handshake_bytes == defended.handshake_bytes

    def test_partition_is_verified(self, trace):
        with pytest.raises(AssertionError, match="sizes changed"):
            as_scheme(_ResizingReshaper()).apply(trace)
