"""Property tests on the baseline defenses."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import morphing_apply
from repro.defenses.morphing import TrafficMorphing, monotone_coupling
from repro.defenses.padding import PacketPadding
from repro.defenses.pseudonym import PseudonymDefense
from repro.traffic.packet import DOWNLINK, UPLINK
from repro.traffic.sizes import MAX_PACKET_SIZE
from repro.traffic.trace import Trace


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    gaps = draw(
        st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=n, max_size=n)
    )
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=MAX_PACKET_SIZE), min_size=n, max_size=n)
    )
    label = draw(st.sampled_from(["browsing", "uploading", "video", None]))
    return Trace.from_arrays(np.cumsum(np.asarray(gaps)), sizes, label=label)


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_padding_never_shrinks_and_reaches_target(trace):
    defended = PacketPadding(pad_both_directions=True).apply(trace)
    [flow] = defended.observable_flows
    assert np.all(flow.sizes >= trace.sizes)
    assert np.all(flow.sizes == np.maximum(trace.sizes, MAX_PACKET_SIZE))
    assert defended.extra_bytes == flow.total_bytes - trace.total_bytes
    assert defended.extra_bytes >= 0


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_padding_preserves_timing(trace):
    defended = PacketPadding().apply(trace)
    [flow] = defended.observable_flows
    assert np.array_equal(flow.times, trace.times)
    assert np.array_equal(flow.directions, trace.directions)


@given(trace=traces(), epoch=st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_pseudonym_partitions_without_overhead(trace, epoch):
    defended = PseudonymDefense(epoch=epoch).apply(trace)
    assert defended.extra_bytes == 0
    assert sum(len(flow) for flow in defended.flows.values()) == len(trace)
    # Epochs are contiguous time intervals: flow spans never exceed epoch.
    for flow in defended.flows.values():
        assert flow.duration <= epoch + 1e-9


@st.composite
def size_samples(draw):
    support = draw(
        st.lists(
            st.integers(min_value=1, max_value=1576),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    counts = draw(
        st.lists(
            st.integers(min_value=1, max_value=40),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return np.repeat(np.asarray(support), np.asarray(counts))


@given(source=size_samples(), target=size_samples())
@settings(max_examples=60, deadline=None)
def test_monotone_coupling_is_a_valid_transport_plan(source, target):
    coupling = monotone_coupling(source, target)
    plan = coupling.plan
    assert np.all(plan >= -1e-12)
    assert plan.sum() == np.float64(1.0) or abs(plan.sum() - 1.0) < 1e-9
    # Marginals match the empirical distributions.
    source_dist = np.unique(source, return_counts=True)[1] / len(source)
    target_dist = np.unique(target, return_counts=True)[1] / len(target)
    assert np.allclose(plan.sum(axis=1), source_dist, atol=1e-9)
    assert np.allclose(plan.sum(axis=0), target_dist, atol=1e-9)


@given(source=size_samples(), target=size_samples())
@settings(max_examples=40, deadline=None)
def test_monotone_coupling_is_comonotone(source, target):
    # The plan's support must be monotone: no "crossing" pairs.
    coupling = monotone_coupling(source, target)
    support = np.argwhere(coupling.plan > 1e-12)
    for i1, j1 in support:
        for i2, j2 in support:
            if i1 < i2:
                assert j1 <= j2, "coupling support must be monotone"


@st.composite
def tied_traces(draw, labels):
    """Traces on a coarse clock (many equal timestamps), all columns drawn."""
    label = draw(st.sampled_from(labels))
    n = draw(st.integers(min_value=0, max_value=60))
    ticks = draw(st.lists(st.integers(min_value=0, max_value=12), min_size=n, max_size=n))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    return Trace.from_arrays(
        times=np.sort(np.asarray(ticks, dtype=float)) * 0.25,
        sizes=column(st.integers(min_value=1, max_value=MAX_PACKET_SIZE)),
        directions=column(st.sampled_from([int(DOWNLINK), int(UPLINK)])),
        ifaces=column(st.integers(min_value=0, max_value=3)),
        channels=column(st.sampled_from([1, 6, 11])),
        rssi=column(st.floats(min_value=-90.0, max_value=-30.0, width=32)),
        label=label,
    )


@given(
    trace=tied_traces(["video", "uploading", "gaming", None]),
    target=tied_traces(["chatting", "uploading", None]),
    morph_all=st.booleans(),
    data_direction=st.sampled_from([None, DOWNLINK, UPLINK]),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_morphing_matches_materializing_oracle(trace, target, morph_all, data_direction, seed):
    options = dict(data_direction=data_direction, morph_all_packets=morph_all, seed=seed)
    defended = TrafficMorphing(target_trace=target, **options).apply(trace)
    morphing_apply.assert_same_defense(defended, morphing_apply.morph(trace, target, **options))
