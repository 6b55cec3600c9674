"""Tests for experiment orchestration: pipeline cache and window cache."""

import pytest

from repro.core.schedulers import OrthogonalReshaper
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import EvaluationScenario


@pytest.fixture(scope="module")
def runner():
    scenario = EvaluationScenario(
        seed=5,
        train_duration=40.0,
        eval_duration=30.0,
        train_sessions=2,
        eval_sessions=1,
    )
    return ExperimentRunner(scenario)


class TestPipelineCache:
    def test_pipeline_reused_per_window(self, runner):
        assert runner.pipeline(5.0) is runner.pipeline(5.0)

    def test_float_jitter_does_not_retrain(self, runner):
        # A sweep computing 0.1 + 0.2 must hit the same pipeline as 0.3
        # instead of silently training a duplicate.
        assert runner.pipeline(0.1 + 0.2) is runner.pipeline(0.3)

    def test_distinct_windows_get_distinct_pipelines(self, runner):
        assert runner.pipeline(5.0) is not runner.pipeline(10.0)


class TestWindowCacheSharing:
    def test_scheme_objects_stable_across_calls(self, runner):
        # Scheme identity keys the window cache, so the runner must
        # not rebuild fresh scheme objects per call.
        first = runner.schemes(3)
        second = runner.schemes(3)
        assert all(first[name] is second[name] for name in first)
        assert runner.schemes(2) is not first

    def test_reshaped_flows_cached_across_windows(self, runner):
        reshaper = OrthogonalReshaper.paper_default()
        trace = runner.scenario.evaluation_traces()[runner.app_order()[0]][0]
        first = runner.observable_flows(reshaper, trace)
        second = runner.observable_flows(reshaper, trace)
        assert all(a is b for a, b in zip(first, second))

    def test_original_flows_bypass_cache(self, runner):
        trace = runner.scenario.evaluation_traces()[runner.app_order()[0]][0]
        assert runner.observable_flows(None, trace) == [trace]

    def test_evaluation_populates_feature_cache(self, runner):
        runner.window_cache.clear()
        pipeline = runner.pipeline(5.0)
        traces = runner.scenario.evaluation_by_label()
        runner.evaluate(None, pipeline, traces)
        misses = runner.window_cache.misses
        assert misses > 0
        report, costs = runner.evaluate(None, pipeline, traces)
        assert costs == [()] * sum(len(group) for group in traces.values())
        assert runner.window_cache.misses == misses  # second pass all hits
        assert runner.window_cache.hits >= misses
        assert report.confusion.total > 0
