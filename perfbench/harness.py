"""One workload run in the current process: set up, measure, check.

``perfbench/run.py`` starts this module in a fresh process per run::

    PYTHONPATH=src:. python3 -m perfbench.harness --workload serve_zipf \\
        --seed 1 --seconds 20 --trace 0

and reads the JSON object it prints as its last line of output.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from statistics import median

import numpy as np

from perfbench import mobility, pipeline, serve, tables
from perfbench.common import Pace, digest_of, percentile
from perfbench.run import THREAD_VARIABLES
from perfbench.trace import Tracer
from repro.graph import kernels

WORKLOADS = {
    "pipeline": pipeline,
    "mobility_paper": mobility,
    "serve_zipf": serve,
    "paper_tables": tables,
}


def peak_rss_mb():
    """Peak resident set of this process, or of its largest reaped child
    (a pool worker) when that is larger."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def environment(module, seed):
    return {
        "kernels": kernels.backend_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs": getattr(module, "JOBS", 1),
        "seed": seed,
        "threads": {name: os.environ.get(name)
                    for name in THREAD_VARIABLES},
    }


def measure(name, seed, seconds, traced):
    """Run workload ``name`` once; the result dict :mod:`run` reports."""
    module = WORKLOADS[name]
    tracer = Tracer(traced)
    pace = Pace()
    try:
        setups = []
        state = None
        for repeat in range(module.SETUP_REPEATS):
            last = repeat == module.SETUP_REPEATS - 1
            if last and hasattr(module, "instrument"):
                module.instrument(tracer)
            state = None  # release the previous set-up before the next one
            pace.tick()
            setup_start = time.perf_counter()
            state = module.setup(seed, tracer if last else Tracer(False),
                                 pace)
            setups.append((setup_start, time.perf_counter()))
        pace.tick()
        run_start = time.perf_counter()
        outcome = module.run(state, seconds, tracer, pace)
        run_end = time.perf_counter()
        pace.tick()
    finally:
        tracer.restore()
    if traced:
        layers = {f"{span}_s": spent
                  for span, spent in tracer.self_times().items()}
        layers.update(outcome.counts)
        layers.update(tracer.counts)
        layers["trace.coverage"] = tracer.coverage(
            int(setups[-1][0] * 1e9), int(run_end * 1e9))
    checks = module.check(state, outcome)
    failed = [check for check, passed in checks if not passed]
    steps_ms = [pace.scaled(*step) * 1e3 for step in outcome.steps]
    result = {
        "workload": name,
        "metrics": {
            "setup_s": median(pace.scaled(*setup) for setup in setups),
            "wall_s": pace.scaled(run_start, run_end),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": outcome.items
            / pace.scaled(*outcome.item_span),
            "step_ms_p50": percentile(steps_ms, 50),
            "step_ms_tail": percentile(steps_ms, module.TAIL_PERCENTILE),
        },
        "raw": {
            "setup_s": median(end - start for start, end in setups),
            "wall_s": run_end - run_start,
            "mean_speed": (pace.scaled(run_start, run_end)
                           / (run_end - run_start)),
        },
        "attempted": outcome.attempted + len(checks),
        "failed": len(failed),
        "failed_checks": failed,
        "digest": digest_of(outcome.digest),
        "steps": len(steps_ms),
        "tail": f"p{module.TAIL_PERCENTILE}",
        "diagnostics": {**outcome.diagnostics,
                        **{name: count / pace.scaled(*span) for name,
                           (count, span) in outcome.rates.items()}},
        "environment": environment(module, seed),
    }
    if traced:
        result["layers"] = layers
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
