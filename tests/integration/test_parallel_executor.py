"""Serial/parallel equivalence of the experiment executor.

The acceptance bar for the orchestration subsystem: ``--jobs N``
reproduces the serial path's numbers exactly (same seed ⇒ same report),
and per-cell seeds don't depend on the process start method.  With
profiling on, the same bar extends to telemetry: the deterministic
projection of the captured profile (counters, histograms, span
structure — everything outside the ``process`` block) is bit-identical
between serial and parallel execution too.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.experiments import parallel, registry
from repro.experiments.registry import ScenarioParams
from repro.experiments.tables23 import classification_accuracy_table

TINY = ScenarioParams(
    seed=5, train_duration=30.0, eval_duration=20.0, train_sessions=1, eval_sessions=1
)


@pytest.fixture(autouse=True)
def fresh_worker_state():
    parallel.clear_worker_state()
    yield
    parallel.clear_worker_state()


def _assert_reports_equal(ours, reference):
    assert set(ours) == set(reference)
    for scheme in reference:
        np.testing.assert_array_equal(
            ours[scheme].confusion.matrix, reference[scheme].confusion.matrix
        )
        assert ours[scheme].confusion.classes == reference[scheme].confusion.classes


class TestJobsEquivalence:
    """jobs=1 and jobs=N produce identical reports for a small scenario."""

    def test_table2_parallel_matches_serial_and_legacy(self):
        serial = parallel.run_experiment("table2", TINY)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment("table2", TINY, jobs=4)
        _assert_reports_equal(fanned.reports, serial.reports)
        legacy = classification_accuracy_table(5.0, TINY.build())
        _assert_reports_equal(fanned.reports, legacy.reports)

    def test_window_sweep_parallel_matches_serial(self):
        options = {"windows": "5,10"}
        serial = parallel.run_experiment("window_sweep", TINY, options=options)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment(
            "window_sweep", TINY, options=options, jobs=4
        )
        assert fanned == serial  # frozen dataclass of float tuples

    def test_table6_parallel_matches_serial(self):
        serial = parallel.run_experiment("table6", TINY)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment("table6", TINY, jobs=2)
        assert fanned.accuracy == serial.accuracy
        assert fanned.padding_overhead == serial.padding_overhead
        assert fanned.morphing_overhead == serial.morphing_overhead


class TestEveryExperimentEquivalent:
    """The acceptance bar, verbatim: every registered deterministic
    experiment's rendered report — and its captured profile's
    deterministic projection — is identical at jobs=1 and jobs=2."""

    #: Shrink the expensive knobs so the full catalog runs in seconds.
    QUICK_OPTIONS = {
        "fig1": {"duration": 5.0},
        "fig4": {"duration": 5.0},
        "fig5": {"duration": 5.0},
        "table4": {"windows": "5,10"},
        "table5": {"interfaces": "2,3"},
        "window_sweep": {"windows": "5,10"},
        "tpc": {"duration": 8.0, "stations": 2},
        "stream_replay": {"schemes": "Original,OR"},
        "drift": {"phase_duration": 15.0},
        "arms_race": {"threshold": 0.6},
    }

    @pytest.mark.parametrize(
        "name",
        [spec.name for spec in registry.all_specs() if spec.deterministic],
    )
    def test_rendered_report_identical_at_any_job_count(self, name):
        options = self.QUICK_OPTIONS.get(name)
        serial = parallel.run_experiment_result(
            name, TINY, options=options, profile=True
        )
        parallel.clear_worker_state()
        fanned = parallel.run_experiment_result(
            name, TINY, options=options, jobs=2, profile=True
        )
        serial_json = json.loads(serial.to_json())
        fanned_json = json.loads(fanned.to_json())
        serial_profile = serial_json.pop("profile")
        fanned_profile = fanned_json.pop("profile")
        # The report itself is unchanged by profiling and by fan-out...
        assert fanned_json == serial_json
        # ...and every deterministic counter/histogram/span is
        # bit-identical between serial and --jobs 2 (only the proc.*
        # block and per-cell gauges may differ with process topology).
        assert obs.profiles_equal_deterministic(fanned_profile, serial_profile)


class TestStartMethodStability:
    """Per-cell seeds and cell results don't depend on the start method."""

    def test_cell_seeds_identical_regardless_of_execution_context(self):
        # Seeds are derived in the parent from (root seed, cell name)
        # via a pure hash: building the same cells twice — or anywhere
        # else — yields the same seeds.
        spec = registry.get("table2")
        options = spec.resolve_options(None)
        first = [cell.seed for cell in spec.build_cells(TINY, options)]
        second = [cell.seed for cell in spec.build_cells(TINY, options)]
        assert first == second

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_fig1_identical_across_start_methods(self, start_method):
        options = {"duration": 5.0}
        serial = parallel.run_experiment("fig1", TINY, options=options)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment(
            "fig1", TINY, options=options, jobs=2, start_method=start_method
        )
        assert set(fanned) == set(serial)
        for app in serial:
            for ours, reference in zip(fanned[app], serial[app]):
                np.testing.assert_array_equal(ours, reference)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_profile_counters_identical_across_start_methods(self, start_method):
        serial = parallel.run_experiment_result("table1", TINY, profile=True)
        parallel.clear_worker_state()
        fanned = parallel.run_experiment_result(
            "table1", TINY, jobs=2, start_method=start_method, profile=True
        )
        assert obs.profiles_equal_deterministic(
            fanned.meta["profile"], serial.meta["profile"]
        )


class TestProfileOptIn:
    """Profiling is strictly opt-in: the default output is untouched."""

    def test_profile_key_absent_without_flag(self):
        plain = parallel.run_experiment_result("table1", TINY)
        assert dict(plain.meta) == {}
        assert "profile" not in json.loads(plain.to_json())

    def test_profiling_changes_nothing_but_adds_the_payload(self):
        plain = parallel.run_experiment_result("table1", TINY)
        parallel.clear_worker_state()
        profiled = parallel.run_experiment_result("table1", TINY, profile=True)
        payload = json.loads(profiled.to_json())
        profile = payload.pop("profile")
        assert payload == json.loads(plain.to_json())
        assert profile["format"] == "repro-profile"
        assert profile["version"] == 1
        # One capture per cell, folded additively at run level.
        assert profile["counters"]["executor.cells_run"] == len(profile["cells"])
        assert profile["counters"]["scheme.apply_calls"] >= len(profile["cells"])


#: Registers an experiment whose second cell SIGKILLs the fork worker
#: running it, then runs it with two workers.  Which pending cell the
#: error names depends on scheduling, so only its presence is checked.  Executed in a subprocess
#: so a regression to an executor that waits on a dead worker forever
#: fails on the timeout instead of hanging the suite.
_WORKER_DEATH_SCRIPT = """
import os
import signal

from repro.experiments import parallel, registry
from repro.experiments.registry import ExperimentSpec, ScenarioParams, make_cell

PARENT = os.getpid()


def build_cells(params, options):
    return tuple(
        make_cell("worker_death", f"cell={index}", {"index": index}, params.seed)
        for index in range(2)
    )


def run_cell(cell):
    if cell.params["index"] == 1 and os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return cell.params["index"]


registry.register(
    ExperimentSpec(
        name="worker_death",
        title="a cell that kills its worker",
        description="executor fault test",
        build_cells=build_cells,
        run_cell=run_cell,
        combine=lambda params, options, results: results,
        to_result=lambda params, options, combined: combined,
    )
)
try:
    parallel.run_experiment(
        "worker_death", ScenarioParams(), jobs=2, start_method="fork"
    )
except parallel.WorkerDiedError as error:
    print("raised:", error)
else:
    print("no error")
"""


class TestWorkerDeath:
    """A dead worker fails the run loudly, naming experiment and cell."""

    def test_killed_worker_raises_named_error(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        completed = subprocess.run(
            [sys.executable, "-c", _WORKER_DEATH_SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert "raised:" in completed.stdout, completed.stdout
        assert "'worker_death'" in completed.stdout
        assert "cell 'cell=" in completed.stdout
