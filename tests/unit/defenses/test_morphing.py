"""Tests for traffic morphing."""

import numpy as np
import pytest

from oracles import morphing_apply
from oracles.morphing_lp import morphing_matrix_lp
from repro.defenses.morphing import TrafficMorphing, monotone_coupling
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator
from repro.traffic.packet import DOWNLINK, UPLINK
from repro.traffic.trace import Trace


def assert_matches_oracle(trace, target, **options):
    """The morpher's output equals the materializing oracle's."""
    defended = TrafficMorphing(target_trace=target, **options).apply(trace)
    morphing_apply.assert_same_defense(defended, morphing_apply.morph(trace, target, **options))
    return defended


class TestMonotoneCoupling:
    def test_marginals_match(self):
        rng = np.random.default_rng(0)
        source = rng.choice([100, 500, 1500], 4000, p=[0.5, 0.3, 0.2])
        target = rng.choice([200, 900, 1576], 4000, p=[0.2, 0.3, 0.5])
        coupling = monotone_coupling(source, target)
        # Row sums reproduce the source distribution, column sums the target.
        p = coupling.plan.sum(axis=1)
        q = coupling.plan.sum(axis=0)
        assert np.allclose(p.sum(), 1.0)
        assert np.allclose(q.sum(), 1.0)
        assert p[0] == pytest.approx(0.5, abs=0.03)
        assert q[2] == pytest.approx(0.5, abs=0.03)

    def test_identity_when_distributions_equal(self):
        sizes = np.array([100] * 50 + [1500] * 50)
        coupling = monotone_coupling(sizes, sizes)
        conditional = coupling.conditional()
        assert np.allclose(np.diag(conditional), 1.0)

    def test_expected_mean(self):
        source = np.array([100] * 100)
        target = np.array([500] * 100)
        coupling = monotone_coupling(source, target)
        assert coupling.expected_target_mean() == pytest.approx(500.0)

    def test_sample_targets_follow_plan(self, rng):
        source = np.array([100] * 1000)
        target = np.array([300] * 500 + [700] * 500)
        coupling = monotone_coupling(source, target)
        out = coupling.sample_targets(np.full(2000, 100), rng)
        assert set(out.tolist()) == {300, 700}
        assert abs((out == 300).mean() - 0.5) < 0.05

    def test_sample_targets_matches_oracle(self):
        rng = np.random.default_rng(5)
        source = rng.choice([60, 100, 500, 900, 1500], 3000)
        target = rng.choice([200, 700, 900, 1576], 3000)
        coupling = monotone_coupling(source, target)
        out = coupling.sample_targets(source, np.random.default_rng(9))
        expected = morphing_apply.sample_targets(coupling, source, np.random.default_rng(9))
        np.testing.assert_array_equal(out, expected)


class TestMorphingLp:
    def test_lp_matches_monotone_cost_on_line(self):
        # On the real line with |.| cost, the comonotone coupling is
        # optimal, so the LP value must equal its transport cost.
        source_support = np.array([100, 500, 1500])
        target_support = np.array([200, 900, 1576])
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.3, 0.5])
        plan = morphing_matrix_lp(p, q, source_support, target_support)
        lp_cost = (
            plan * np.abs(target_support[None, :] - source_support[:, None])
        ).sum()

        source = np.repeat(source_support, (p * 1000).astype(int))
        target = np.repeat(target_support, (q * 1000).astype(int))
        monotone_cost = monotone_coupling(source, target).transport_cost()
        assert lp_cost == pytest.approx(monotone_cost, rel=0.02)

    def test_lp_marginals(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.3, 0.7])
        plan = morphing_matrix_lp(p, q, np.array([100, 800]), np.array([200, 1500]))
        assert np.allclose(plan.sum(axis=1), p, atol=1e-8)
        assert np.allclose(plan.sum(axis=0), q, atol=1e-8)

    def test_lp_rejects_bad_marginals(self):
        with pytest.raises(ValueError):
            morphing_matrix_lp(
                np.array([0.6, 0.6]), np.array([0.5, 0.5]),
                np.array([1, 2]), np.array([1, 2]),
            )


class TestTrafficMorphing:
    @pytest.fixture(scope="class")
    def traces(self):
        generator = TrafficGenerator(seed=21)
        return {
            "chatting": generator.generate(AppType.CHATTING, 90.0),
            "gaming": generator.generate(AppType.GAMING, 90.0),
            "video": generator.generate(AppType.VIDEO, 60.0),
            "downloading": generator.generate(AppType.DOWNLOADING, 30.0),
        }

    def test_morphed_distribution_moves_toward_target(self, traces):
        morpher = TrafficMorphing(target_trace=traces["gaming"], seed=0)
        defended = morpher.apply(traces["chatting"])
        flow = defended.observable_flows[0]
        source_mean = traces["chatting"].direction_view(DOWNLINK).sizes.mean()
        target_mean = traces["gaming"].direction_view(DOWNLINK).sizes.mean()
        morphed_mean = flow.direction_view(DOWNLINK).sizes.mean()
        assert abs(morphed_mean - target_mean) < abs(source_mean - target_mean)

    def test_overhead_positive_when_growing(self, traces):
        # chat -> gaming grows packets: overhead roughly the mean ratio.
        morpher = TrafficMorphing(target_trace=traces["gaming"], seed=0)
        defended = morpher.apply(traces["chatting"])
        assert defended.extra_bytes > 0

    def test_video_to_downloading_is_cheap(self, traces):
        # Table VI: video -> downloading costs ~1.8%.
        morpher = TrafficMorphing(target_trace=traces["downloading"], seed=0)
        defended = morpher.apply(traces["video"])
        down_bytes = traces["video"].direction_view(DOWNLINK).sizes.sum()
        overhead = defended.extra_bytes / down_bytes
        assert overhead < 0.10

    def test_shrinking_fragments_packets(self, traces):
        # gaming -> chatting must shrink some packets -> more packets out.
        morpher = TrafficMorphing(target_trace=traces["chatting"], seed=0)
        defended = morpher.apply(traces["gaming"])
        flow = defended.observable_flows[0]
        assert len(flow) >= len(traces["gaming"])

    def test_empty_trace_passthrough(self):
        morpher = TrafficMorphing(target_trace=Trace.empty("gaming"), seed=0)
        trace = Trace.from_arrays([0.0], [500], label="chatting")
        defended = morpher.apply(trace)
        assert defended.extra_bytes == 0

    def test_explicit_downlink_on_uploading_trace(self, traces):
        # DOWNLINK == 0 must not read as "unset": the explicit direction
        # wins over the uploading label's uplink default.
        uploading = TrafficGenerator(seed=22).generate(AppType.UPLOADING, 30.0)
        morpher = TrafficMorphing(
            target_trace=traces["gaming"], data_direction=DOWNLINK, seed=0
        )
        flow = morpher.apply(uploading).flows[0]
        np.testing.assert_array_equal(
            flow.direction_view(UPLINK).sizes, uploading.direction_view(UPLINK).sizes
        )
        target_sizes = set(traces["gaming"].direction_view(DOWNLINK).sizes.tolist())
        assert set(flow.direction_view(DOWNLINK).sizes.tolist()) <= target_sizes
        assert_matches_oracle(uploading, traces["gaming"], data_direction=DOWNLINK, seed=0)

    def test_paper_morph_pairs(self):
        pairs = TrafficMorphing.paper_morph_pairs()
        assert pairs["chatting"] == "gaming"
        assert pairs["video"] == "downloading"
        assert "downloading" not in pairs
        assert "uploading" not in pairs


class TestOracleParity:
    """The one-gather apply equals the select/from_arrays/merge construction."""

    @pytest.fixture(scope="class")
    def traces(self):
        generator = TrafficGenerator(seed=31)
        return {app.value: generator.generate(app, 40.0) for app in AppType}

    @pytest.mark.parametrize("morph_all", [False, True])
    @pytest.mark.parametrize("source, target", sorted(TrafficMorphing.paper_morph_pairs().items()))
    def test_paper_morph_pairs(self, traces, source, target, morph_all):
        assert_matches_oracle(traces[source], traces[target], morph_all_packets=morph_all, seed=3)

    def test_fragments(self, traces):
        # Uploading -> chatting shrinks most packets into several frames.
        defended = assert_matches_oracle(traces["uploading"], traces["chatting"], seed=1)
        assert len(defended.flows[0]) > len(traces["uploading"])

    def test_every_packet_masked(self):
        trace = Trace.from_arrays([0.0, 0.5, 1.0], [900, 1500, 80], label="video")
        target = Trace.from_arrays([0.0, 1.0], [300, 600], label="chatting")
        assert_matches_oracle(trace, target, seed=2)

    def test_no_packet_masked(self):
        trace = Trace.from_arrays([0.0, 0.5], [900, 1500], directions=[1, 1], label="video")
        target = Trace.from_arrays([0.0, 1.0], [300, 600], label="chatting")
        defended = assert_matches_oracle(trace, target, seed=2)
        assert defended.flows[0] is trace

    def test_one_packet(self):
        trace = Trace.from_arrays([0.25], [1200], rssi=[-48.0], label="browsing")
        target = Trace.from_arrays([0.0, 1.0], [100, 200], label="chatting")
        assert_matches_oracle(trace, target, seed=4)

    def test_same_timestamp_morphed_and_unmorphed(self):
        # Unmorphed uplink packets sit before and after morphed downlink
        # packets on one timestamp; morphed frames must come first.
        trace = Trace.from_arrays(
            [1.0, 1.0, 1.0, 1.0, 2.0], [40, 1500, 60, 700, 50],
            directions=[1, 0, 1, 0, 1], ifaces=[2, 2, 2, 2, 2],
            rssi=[-40.0, -41.0, -42.0, -43.0, -44.0], label="video",
        )
        target = Trace.from_arrays([0.0, 1.0], [200, 400], label="chatting")
        defended = assert_matches_oracle(trace, target, seed=5)
        flow = defended.flows[0]
        n_morphed = len(flow) - 3
        assert (flow.directions[:n_morphed] == 0).all()
        assert list(flow.sizes[n_morphed:]) == [40, 60, 50]
