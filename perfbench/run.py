"""Benchmark entry point: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/repro``).
A run first chooses the scenario (``worker.py plan``), then starts
:data:`PROCESSES` worker processes one after another, each with an
equal share of what is left of ``--seconds``.  Each process sets up
once (imports; for corpus workloads a separate build process writes
the ``TraceStore`` first) and then calls the experiment cold, one call
at a time (a closed loop with one client), until its share is used.
Workers run with one BLAS/OpenMP thread.  End-to-end metrics are
medians: ``setup_s`` and ``peak_rss_mb`` over processes, ``wall_s``
over calls.

``--trace 0`` reports the end-to-end metrics from untraced processes.
``--trace 1`` makes the first and last process traced and the middle
one untraced, and reports the per-layer metrics (medians over traced
calls) plus ``trace.overhead_frac`` (traced over untraced median wall
clock, minus one).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` and ``failed`` count experiment cells over all calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics and their units (``BENCHMARK.json`` holds bounds).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "fraction",
}

#: Worker processes per run, so set-up is measured several times.
PROCESSES = 3

#: Per-layer metrics that are not additive across the build and run
#: processes of one repetition.
_NOT_ADDITIVE = {
    "schemes.plan.fused_ratio",
    "batch.cache.hit_ratio",
    "experiments.cell.p50_s",
    "experiments.cell.max_s",
    "experiments.unattributed_s",
    "experiments.unattributed_frac",
    "trace.overhead_frac",
}

#: Thread-pool sizes pinned to one in every worker process.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: No single worker may outlive this (the whole run must end in 180 s).
_WORKER_TIMEOUT_S = 150.0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "fraction"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _worker(root: str, mode: str, args, workload, extra=()):
    """Run one worker process; return (parsed JSON, elapsed seconds)."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", workload.name, "--seed", str(args.seed), *extra,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # One BLAS/OpenMP thread: on a few shared cores a second thread
    # measures the scheduler, not the program.
    env.update({name: "1" for name in _THREAD_VARS})
    spawned = time.perf_counter()
    completed = subprocess.run(
        command + ["--spawned", repr(spawned)],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=_WORKER_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - spawned
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1]), elapsed


def _process(root: str, work_dir: str, args, workload, extra, trace: int,
             deadline: float) -> dict:
    """One worker process (after a corpus build, for corpus workloads)."""
    extra = [*extra, "--trace", str(trace), "--deadline", repr(deadline)]
    if not workload.corpus:
        out, _ = _worker(root, "run", args, workload, extra)
        return out
    corpus = tempfile.mkdtemp(prefix=f"corpus-seed{args.seed}-", dir=work_dir)
    try:
        extra += ["--corpus", os.path.join(corpus, "store")]
        built, build_s = _worker(root, "build", args, workload, extra)
        out, _ = _worker(root, "run", args, workload, extra)
    finally:
        shutil.rmtree(corpus, ignore_errors=True)
    out["setup_s"] += build_s
    out["packets"] = built["packets"]
    if trace:
        for call in out["calls"]:
            for name, value in built["layers"].items():
                if name not in _NOT_ADDITIVE:
                    call["layers"][name] += value
    return out


def _provenance(root: str) -> dict:
    import numpy

    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(workload, procs: dict[int, list[dict]], trace: bool) -> dict:
    """The result object of a run, from its untraced (0) and traced (1) processes.

    ``correct`` needs every cell of every call to pass its checks and
    every call to print the same result digest; a traced run also needs
    its workload's target layer to have fired.
    """
    calls = {mode: [c for out in outs for c in out["calls"]] for mode, outs in procs.items()}
    every = [(out["cells"], c) for outs in procs.values() for out in outs for c in out["calls"]]
    attempted = sum(cells for cells, _ in every)
    failed = sum(c["failed"] for _, c in every)
    digests = {c["digest"] for _, c in every}
    correct = failed == 0 and len(digests) == 1 and None not in digests

    if not trace:
        values = {
            "setup_s": _median([out["setup_s"] for out in procs[0]]),
            "wall_s": _median([c["wall_s"] for c in calls[0]]),
            "peak_rss_mb": _median([out["peak_rss_mb"] for out in procs[0]]),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        return {"correct": correct, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    traced = [c["layers"] for c in calls[1] if "layers" in c]
    values = {name: _median([layers[name] for layers in traced])
              for name in LAYER_METRICS}
    untraced_wall = _median([c["wall_s"] for c in calls[0]])
    traced_wall = _median([c["wall_s"] for c in calls[1]])
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    for name in workload.fired:
        if not values[name] > 0:
            print(f"check failed: {name} = {values[name]} on {workload.name}",
                  file=sys.stderr)
            correct = False
    if workload.fused and values["schemes.plan.fused_ratio"] != 1.0:
        print(f"check failed: schemes.plan.fused_ratio = "
              f"{values['schemes.plan.fused_ratio']} on {workload.name}",
              file=sys.stderr)
        correct = False

    # Which layer the self time went to, against the layer this
    # workload was chosen to stress.  A mismatch is reported, not hidden.
    shares: dict[str, list[float]] = {}
    for c in calls[1]:
        for name, share in c.get("shares", {}).items():
            shares.setdefault(name, []).append(share)
    median_shares = {name: _median(v) for name, v in shares.items()}
    stressed = sum(median_shares.get(name, 0.0) for name in workload.stressed)
    others = {n: s for n, s in median_shares.items() if n not in workload.stressed}
    top_other = max(others, key=others.get, default=None)
    print(json.dumps({
        "self_time_share": {n: round(s, 4) for n, s in
                            sorted(median_shares.items(), key=lambda kv: -kv[1])},
        "stressed": list(workload.stressed),
        "stressed_share": round(stressed, 4),
        "largest_other": [top_other, round(others.get(top_other, 0.0), 4)],
        "stressed_is_largest": stressed >= others.get(top_other, 0.0),
    }))
    metrics = {name: {"value": values[name], "unit": _unit(name)}
               for name in LAYER_METRICS}
    return {"correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"no src/repro under {root}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so a running worker is killed and
    # reaped, and the corpus directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    planned, _ = _worker(root, "plan", args, workload)
    extra = ["--scenario-seed", str(planned["scenario_seed"])]
    print(json.dumps({"provenance": _provenance(root), "workload": workload.name,
                      "experiment": workload.experiment, "seed": args.seed,
                      **planned}))
    work_dir = os.path.join(root, ".perfbench")
    os.makedirs(work_dir, exist_ok=True)

    modes = (1, 0, 1) if args.trace else (0,) * PROCESSES
    procs: dict[int, list[dict]] = {0: [], 1: []}
    for index, mode in enumerate(modes):
        # An equal share of the time that is left, so time a process
        # did not use (a call that did not fit) goes to the next one.
        now = time.perf_counter()
        deadline = now + (start + args.seconds - now) / (len(modes) - index)
        out = _process(root, work_dir, args, workload, extra, mode, deadline)
        procs[mode].append(out)
        packets = out.get("packets", {})
        print(json.dumps({
            "process": index, "traced": mode,
            "setup_s": round(out["setup_s"], 4),
            "wall_s": [round(c["wall_s"], 4) for c in out["calls"]],
            "peak_rss_mb": round(out["peak_rss_mb"], 1),
            "cells": out["cells"], "failed": [c["failed"] for c in out["calls"]],
            "train_packets": packets.get("train"), "eval_packets": packets.get("eval"),
            "digests": sorted({c["digest"] for c in out["calls"]}, key=str),
        }))

    try:
        os.rmdir(work_dir)
    except OSError:
        pass  # another run is still using it
    print(json.dumps(summarize(workload, procs, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
