"""The benchmark's own tests.

    python3 -m pytest perfbench -q        (from the root of a checkout)

Most tests are structural and fast; ``test_same_seed_same_inputs``
runs the smallest workload three times (about half a minute).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, failed_cells  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_and_counts(spec):
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_spec_matches_code(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._unit(name) for name in tracing.LAYER_METRICS
    }
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items() if workload.listed
    }


def _fake_process(workload, traced: bool, digest: str = "d") -> dict:
    call = {"wall_s": 2.0, "failed": 0, "digest": digest}
    if traced:
        call["layers"] = {name: 1.0 for name in tracing.LAYER_METRICS}
        call["shares"] = {name: 0.5 for name in workload.stressed}
    return {"setup_s": 1.0, "peak_rss_mb": 100.0, "cells": 4, "calls": [call, dict(call)]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_emits_every_metric(name):
    workload = WORKLOADS[name]
    untraced = run.summarize(workload, {0: [_fake_process(workload, False)], 1: []}, False)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["metrics"] == {
        metric: {"value": untraced["metrics"][metric]["value"], "unit": unit}
        for metric, unit in run.END_TO_END.items()
    }
    assert untraced["correct"] and untraced["attempted"] == 8
    traced = run.summarize(
        workload,
        {0: [_fake_process(workload, False)], 1: [_fake_process(workload, True)]},
        True,
    )
    assert list(traced["metrics"]) == list(tracing.LAYER_METRICS)
    assert all(m["unit"] for m in traced["metrics"].values())
    assert traced["correct"]


def test_differing_digests_are_incorrect():
    workload = WORKLOADS["train_sweep"]
    procs = [_fake_process(workload, False), _fake_process(workload, False, digest="e")]
    assert not run.summarize(workload, {0: procs, 1: []}, False)["correct"]


def test_failed_cells():
    sweep = WORKLOADS["train_sweep"]
    rows = [(5.0, 90.0, 50.0, 40.0), (15.0, 60.0, 61.0, -1.0), (30.0, 101.0, 50.0, 51.0)]
    assert failed_cells(sweep, ("W", "o", "r", "g"), rows) == {
        "window=15/scheme=Original", "window=15/scheme=OR",
        "window=30/scheme=Original", "window=30/scheme=OR",
    }
    replay = WORKLOADS["stream_replay"]
    rows = [("OR", 10, 50.0, 50.0, "yes"), ("FH", 10, 50.0, 49.0, "NO")]
    assert failed_cells(replay, (), rows) == {"scheme=FH"}
    grid = WORKLOADS["scheme_grid"]
    headers = ("composition", "classifier", "mean acc %", "overhead %",
               "handshake B", "flows")
    rows = [("or", "svm", 40.0, 0.0, 10, 3), ("padding", "svm", 40.0, -1.0, 0, 1)]
    assert failed_cells(grid, headers, rows) == {"padding/svm"}


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.wrap("outer", outer_body)()
    self_s = tracer.self_times()
    assert 0.015 <= self_s["inner"] < 0.2
    assert 0.005 <= self_s["outer"] < self_s["inner"]


def _worker(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _inputs(seed: int) -> tuple[str, dict]:
    """(result digest, input packet counts) of one stream_replay call."""
    plan = _worker("plan", "--workload", "stream_replay", "--seed", str(seed))
    out = _worker("run", "--workload", "stream_replay", "--seed", str(seed),
                  "--scenario-seed", str(plan["scenario_seed"]))
    (call,) = out["calls"]
    assert call["failed"] == 0
    return call["digest"], out["packets"]


def test_same_seed_same_inputs():
    first, again, other = _inputs(7), _inputs(7), _inputs(8)
    assert first == again
    assert first[0] != other[0] and first[1] != other[1]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_sweep",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
