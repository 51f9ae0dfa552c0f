"""Smoke-size tests of the repository benchmark.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q

Every workload runs here at a size that takes seconds: the metric
set, the tracer's no-op and bookkeeping rules, and that each workload
reproduces the library entry point it mirrors.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, mobility, pipeline, run, serve, tables, trace
from perfbench.common import PACE_REFERENCE_S, Pace
from perfbench.trace import Tracer
from repro.collectors import (
    CollectorProxy,
    HeadLoadCollector,
    LatencyCollector,
    LinkLoadCollector,
    StretchCollector,
)
from repro.experiments.common import get_preset
from repro.experiments.mobility import SPEED_REGIMES, run_mobility_trace
from repro.experiments.stabilization_time import run_recovery_experiment
from repro.experiments.table4 import run_table4
from repro.workload.generators import ZipfPopularity, poisson_requests
from repro.workload.serve import CachedRouter, RouterStatsCollector, serve_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5

# Seconds per workload: sizes its work, and stays in seconds here.
SMOKE_SECONDS = {"pipeline": 1, "mobility_paper": 1,
                 "serve_zipf": 0.1, "paper_tables": 0.5}


@pytest.fixture(autouse=True)
def smoke_sizes(monkeypatch):
    """Shrink every workload to seconds."""
    for name, value in {"NODES": 3000, "WARM_NODES": 1000, "MAX_PAIRS": 5000,
                        "HOT_CLUSTERS": 8, "DEST_POOL": 500, "REQUESTS": 600,
                        "CHUNK": 40, "COLD_CHUNKS": 5, "DEGREE_SAMPLES": 20,
                        "SETUP_REPEATS": 2}.items():
        monkeypatch.setattr(pipeline, name, value)
    for name, value in {"NODES": 80, "WINDOWS": 10, "CHECK_EVERY": 5,
                        "SETUP_REPEATS": 2}.items():
        monkeypatch.setattr(mobility, name, value)
    for name, value in {"INTENSITY": 300, "WARM_BATCHES": 5,
                        "SAMPLE_EVERY": 3, "SETUP_REPEATS": 2}.items():
        monkeypatch.setattr(serve, name, value)
    monkeypatch.setattr(tables, "SETUP_REPEATS", 1)


def _run_main(monkeypatch, workload, traced):
    """:func:`run.main` with the workload process replaced by an
    in-process :func:`harness.measure` at smoke size."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(
        run, "workload_process",
        lambda root, args, traced, deadline: harness.measure(
            args.workload, args.seed, args.seconds, traced))
    out = io.StringIO()
    with redirect_stdout(out):
        run.main(["--workload", workload, "--seed", str(SEED),
                  "--seconds", str(SMOKE_SECONDS[workload]),
                  "--trace", str(int(traced))])
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "trace"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(monkeypatch, workload, traced):
    result = _run_main(monkeypatch, workload, traced)
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if traced:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_pipeline_reports_its_layer_split():
    record = harness.measure("pipeline", SEED, 1, traced=True)
    for layer in ("geometry.unit_disk_graph_s", "density.all_densities_s",
                  "incremental.update_s", "overlay.build_s",
                  "serve.overlay_path_s", "serve.route_batch_s"):
        assert record["layers"][layer] > 0


def test_disabled_tracer_is_a_no_op():
    tracer = Tracer(False)

    def layer():
        return 7

    assert tracer.span("layer") is trace._NULL
    assert tracer.wrap("layer", layer) is layer
    tracer.patch(serve, "BATCH", "layer")
    assert serve.BATCH == 64
    tracer.count("layer", 3)
    with tracer.span("layer"):
        layer()
    assert tracer.spans == [] and not tracer.counts
    assert tracer.self_times() == {}


def test_untraced_run_records_no_spans(monkeypatch):
    created = []
    original = Tracer.__init__

    def recording_init(self, enabled):
        original(self, enabled)
        created.append(self)

    monkeypatch.setattr(Tracer, "__init__", recording_init)
    harness.measure("serve_zipf", SEED, SMOKE_SECONDS["serve_zipf"],
                   traced=False)
    assert created and all(not t.spans and not t.counts for t in created)


def test_self_time_and_coverage():
    tracer = Tracer(True)
    tracer.spans = [["outer", 0, 100, -1], ["inner", 10, 40, 0],
                    ["inner", 50, 60, 0], ["next", 100, 150, -1],
                    ["worker", 0, 500, -2], ["worker.part", 0, 100, 4]]
    times = tracer.self_times()
    assert times["outer"] == pytest.approx(60e-9)
    assert times["inner"] == pytest.approx(40e-9)
    assert times["worker"] == pytest.approx(400e-9)
    # Remote (worker) roots run in parallel and never count as coverage.
    assert tracer.coverage(0, 200) == pytest.approx(0.75)


def test_worker_spans_merge_rerooted():
    worker = Tracer(True)
    with worker.span("earlier"):
        pass
    mark = len(worker.spans)
    with worker.span("engine.task"):
        with worker.span("oracle.compute_clustering"):
            pass
    worker.count("naming.calls", 2)
    spans, counts = worker.take(mark)
    assert len(worker.spans) == mark and not worker.counts
    parent = Tracer(True)
    with parent.span("engine.submit"):
        pass
    parent.merge(spans, counts)
    assert [span[3] for span in parent.spans] == [-1, -2, 1]
    assert parent.counts["naming.calls"] == 2


def test_patches_are_restored():
    tracer = Tracer(True)
    router_like = CachedRouter.__new__(CachedRouter)
    original_step = tables.StepSimulator.step
    tracer.patch(router_like, "route_batch", "serve.route_batch")
    tracer.replace(tables.StepSimulator, "step", lambda simulator: None)
    assert "route_batch" in vars(router_like)
    tracer.restore()
    assert "route_batch" not in vars(router_like)
    assert tables.StepSimulator.step is original_step


@pytest.mark.parametrize("regime", list(SPEED_REGIMES))
def test_mobility_loop_matches_run_mobility_trace(regime):
    traces = mobility.setup(SEED, Tracer(False), Pace())
    mobility.run(traces, 1, Tracer(False), Pace())
    driven = {trace.regime: trace.retention() for trace in traces}
    preset = get_preset("smoke", mobility_nodes=mobility.NODES,
                        mobility_duration=mobility.WINDOWS
                        * mobility.WINDOW_S)
    library = run_mobility_trace(regime, preset, radius=mobility.RADIUS,
                                 rng=SEED)
    assert library.windows == mobility.WINDOWS
    assert driven[regime] == library.retention_percent
    assert all(passed for _name, passed in mobility.check(traces, None))


def test_tables_run_matches_library_tables():
    pace = Pace()
    state = tables.setup(SEED, Tracer(False), pace)
    outcome = tables.run(state, SMOKE_SECONDS["paper_tables"], Tracer(False),
                         pace)
    runs = outcome.diagnostics["runs"]
    preset = get_preset("paper", runs=runs)
    table4, recovery = state.tables
    assert str(table4) == str(run_table4(preset, rng=SEED))
    assert str(recovery) == str(run_recovery_experiment(
        preset, rng=SEED, side=tables.RECOVERY_SIDE,
        max_steps=tables.RECOVERY_MAX_STEPS))
    assert len(outcome.steps) == 10 * runs


def test_serve_batches_match_one_serve_workload_call():
    state = serve.setup(SEED, Tracer(False), Pace())
    serve.run(state, SMOKE_SECONDS["serve_zipf"], Tracer(False), Pace())
    assert all(passed for _name, passed in serve.check(state, None))
    hierarchy = state.hierarchy
    nodes = sorted(hierarchy.physical.topology.graph.nodes)
    collector = CollectorProxy([
        LatencyCollector(), LinkLoadCollector(),
        HeadLoadCollector(hierarchy.physical.clustering.heads),
        StretchCollector(), RouterStatsCollector()])
    stream = poisson_requests(nodes, 2**62,
                              rng=np.random.default_rng((SEED, 1)),
                              popularity=ZipfPopularity(nodes,
                                                        serve.ZIPF_ALPHA))
    serve_workload(hierarchy, islice(stream, state.served), collector,
                   flat_every=serve.FLAT_EVERY, batch_size=serve.BATCH)
    assert collector.results() == state.collector.results()


def test_pipeline_routes_match_hierarchical_route():
    state = pipeline.setup(SEED, Tracer(False), Pace())
    outcome = pipeline.run(state, 1, Tracer(False), Pace())
    assert dict(pipeline.check(state, outcome)) == {
        f"pass 1 {name}": True
        for name in ("nodes", "edges", "degrees", "invariants", "routes")}
    assert len(state.passes[0].samples) == pipeline.ROUTE_SAMPLES


def test_pace_scales_by_interpolated_probe_speed():
    pace = Pace()
    # Probes that took twice the reference time: half speed.
    pace.add(1 - PACE_REFERENCE_S, 1 + PACE_REFERENCE_S)
    pace.add(3 - PACE_REFERENCE_S, 3 + PACE_REFERENCE_S)
    assert pace.scaled(0, 4) == pytest.approx(2.0)
    # Speed 2 at t = 0.5 and 1 at t = 1.5, linear in between.
    pace = Pace()
    pace.add(0.5 - PACE_REFERENCE_S / 4, 0.5 + PACE_REFERENCE_S / 4)
    pace.add(1.5 - PACE_REFERENCE_S / 2, 1.5 + PACE_REFERENCE_S / 2)
    assert pace.scaled(0.5, 1.5) == pytest.approx(1.5)


def test_pace_tick_probes_and_leaves_its_probes_out():
    pace = Pace()
    pace.tick()
    pace.tick()  # within the interval: no second probe
    assert len(pace.times) == 1
    time.sleep(0.15)
    pace.tick()
    first, second = pace.local_starts, pace.local_ends
    assert pace.scaled(first[0], second[1]) == pytest.approx(
        pace.scaled(second[0], first[1]), abs=1e-3)
    assert Pace().scaled(1.0, 3.5) == 2.5  # no probes: wall-clock time


def test_run_refuses_a_directory_without_the_library(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "serve_zipf", "--seed", "1",
                  "--seconds", "1"])
    assert exit_info.value.code not in (0, None)
