"""Tests for the reshaper adapter: a scheduler applied to whole traces."""

import numpy as np
import pytest

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

    def test_stage_accounting(self, trace):
        defended = as_scheme(OrthogonalReshaper.paper_default(), "or").apply(trace)
        (stage,) = defended.stages
        assert (stage.scheme, stage.extra_bytes, stage.flows) == ("or", 0, 3)
        assert stage.handshake_bytes == defended.handshake_bytes

    def test_partition_is_verified(self, trace):
        with pytest.raises(AssertionError, match="sizes changed"):
            as_scheme(_ResizingReshaper()).apply(trace)
