"""Run one benchmark workload and print its metrics as one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 10 --trace 0

Every run starts the workload in a fresh Python process, so set-up time,
peak memory and module-level caches (memoized hierarchies, CSR
snapshots, kernel JIT state) belong to that workload alone.  BLAS and
OpenMP pools are pinned to one thread per process.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice, untraced and then traced, each in
its own process, and reports the per-layer metrics: span self times,
counts, ``trace.coverage`` and ``trace.overhead`` (traced ``wall_s``
over untraced ``wall_s``, minus one).

The last line of output is the result object; the line before it is
the full record of the run (environment, output digest, diagnostics).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")

# A run, traced runs with their two workload processes included, must
# end within three minutes.
DEADLINE_S = 170


def workload_process(root, args, traced, deadline):
    """Run :mod:`perfbench.harness` in a fresh process; its result dict."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "perfbench.harness",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced))]
    # A process group of its own, so a timeout stops pool workers as well.
    process = subprocess.Popen(command, cwd=root, env=env, text=True,
                               stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        sys.exit(f"perfbench: {args.workload} ran out of its {DEADLINE_S} s")
    if process.returncode != 0:
        sys.exit(f"perfbench: {args.workload} failed "
                 f"(exit code {process.returncode})")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: run from the repository root "
                 "(src/repro not found)")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")

    untraced = workload_process(root, args, False, deadline)
    records = [untraced]
    if args.trace:
        traced = workload_process(root, args, True, deadline)
        records.append(traced)
        values = dict(traced["layers"])
        values["trace.overhead"] = (traced["metrics"]["wall_s"]
                                    / untraced["metrics"]["wall_s"] - 1.0)
        declared = spec["per_layer"]
    else:
        values = untraced["metrics"]
        declared = spec["end_to_end"]
    names = {metric["name"] for metric in declared}
    if set(values) - names:
        sys.exit(f"perfbench: undeclared metrics {sorted(set(values) - names)}")
    if not args.trace and names - set(values):
        sys.exit(f"perfbench: missing metrics {sorted(names - set(values))}")
    for record in records:
        print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": all(record["failed"] == 0 for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {metric["name"]: {"value": values.get(metric["name"], 0),
                                     "unit": metric["unit"]}
                    for metric in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
