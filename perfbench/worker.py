"""One benchmark process: set up once, then run the experiment cold.

Three modes, each a fresh interpreter started by ``run.py``:

* ``plan``: choose the scenario seed of the stated input size (see
  :func:`workloads.scenario_seed`).  Prints ``{"scenario_seed", "tried"}``.
* ``build`` (corpus workloads): generate the scenario and write it to a
  ``TraceStore`` at ``--corpus``.  Prints the input packet counts, plus
  per-layer metrics when traced.
* ``run``: import and set up, then call ``run_experiment_result(...,
  jobs=1)`` repeatedly until ``--deadline`` (at least once).  Every call
  starts cold: ``clear_worker_state()`` drops the executor's per-process
  memo (scenario, trained pipelines, window cache), as ``repro bench``
  does, so each call regenerates or reopens its inputs.  Prints one JSON
  line with set-up time, peak RSS, input counts and, per call, its wall
  clock, failed cells and result digest (plus per-layer metrics when
  traced).

``--spawned`` and ``--deadline`` are ``time.perf_counter()`` values of
the orchestrator; on Linux that clock is system-wide, so ``setup_s``
counts interpreter start and imports too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, failed_cells, scenario_seed  # noqa: E402


def result_digest(result) -> str:
    """sha256 of the canonical JSON of an ``ExperimentResult``.

    The profile payload and the corpus path (a per-run temporary
    directory) are run metadata, not output, so they are left out.
    """
    payload = json.loads(result.to_json(indent=None))
    payload.pop("profile", None)
    payload["params"].pop("corpus", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _scenario_packets(scenario) -> dict[str, int]:
    return {
        split: sum(len(t) for traces in by_app.values() for t in traces)
        for split, by_app in (
            ("train", scenario.training_by_app()),
            ("eval", scenario.evaluation_by_app()),
        )
    }


def _params(args, workload):
    from repro.experiments.registry import ScenarioParams

    return ScenarioParams(
        seed=args.scenario_seed,
        train_duration=workload.train[0],
        train_sessions=workload.train[1],
        eval_duration=workload.eval[0],
        eval_sessions=workload.eval[1],
    )


def plan(args, workload) -> dict:
    """Pick the scenario seed for ``args.seed``."""
    chosen, tried = scenario_seed(workload, args.seed)
    return {"scenario_seed": chosen, "tried": tried}


def build(args, workload) -> dict:
    """Write the workload's scenario to a TraceStore at ``args.corpus``."""
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    scenario = _params(args, workload).build()
    scenario.save_corpus(args.corpus)
    out = {"packets": _scenario_packets(scenario)}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, time.perf_counter() - start, {})
    return out


def run(args, workload) -> dict:
    """Set up, then call the experiment cold until the deadline."""
    from repro.experiments import registry
    from repro.experiments.parallel import (
        clear_worker_state,
        run_experiment_result,
        shared_scenario,
    )
    from repro.experiments.registry import ScenarioParams

    if workload.corpus:
        params = ScenarioParams.for_corpus(args.corpus)
    else:
        params = _params(args, workload)
    spec = registry.get(workload.experiment)
    cells = len(spec.build_cells(params, spec.resolve_options(workload.options)))
    tracer = None
    call = run_experiment_result
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, workload.experiment)
        call = tracer.wrap(tracing.ROOT, run_experiment_result)

    out = {"setup_s": time.perf_counter() - args.spawned, "cells": cells, "calls": []}
    while True:
        if tracer is not None:
            tracer.reset()
        clear_worker_state()
        called = time.perf_counter()
        try:
            result = call(
                workload.experiment, params, workload.options, jobs=1,
                profile=tracer is not None,
            )
        except Exception as error:  # every cell of a raising call counts as failed
            print(f"{workload.name}: experiment raised {error!r}", file=sys.stderr)
            result = None
        wall_s = time.perf_counter() - called
        record = {"wall_s": wall_s, "failed": cells, "digest": None}
        if result is not None:
            record["failed"] = len(failed_cells(workload, result.headers, result.rows))
            record["digest"] = result_digest(result)
            if tracer is not None:
                profile = result.meta["profile"]
                counters = dict(profile["process"]["counters"])
                for key, value in profile["counters"].items():
                    counters[key] = counters.get(key, 0) + value
                record["layers"] = tracing.layer_metrics(tracer, wall_s, counters)
                record["shares"] = tracing.span_shares(tracer, wall_s)
        out["calls"].append(record)
        # Start another call only if at least half of it fits, so the
        # process ends close to its deadline on average.
        if time.perf_counter() + wall_s / 2 > args.deadline:
            break

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not workload.corpus and result is not None:
        # The executor memoized the scenario of the last call; count its inputs.
        out["packets"] = _scenario_packets(shared_scenario(params))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("plan", "build", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=None)
    parser.add_argument("--corpus", default=None)
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--deadline", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.spawned is None:
        args.spawned = time.perf_counter()
    workload = WORKLOADS[args.workload]
    out = {"plan": plan, "build": build, "run": run}[args.mode](args, workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
