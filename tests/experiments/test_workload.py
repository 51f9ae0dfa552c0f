"""The ``repro workload`` experiment family: determinism across
``jobs`` and serving modes, chunk invariance, report shape, and the CLI
path."""

import pytest

from repro.cli import main
from repro.experiments.workload import (
    REQUESTS_BY_PRESET,
    WORKLOAD_KINDS,
    WorkloadReport,
    run_workload,
)
from repro.util.errors import ConfigurationError
from tests.oracles import serving


@pytest.fixture(scope="module")
def smoke_report():
    return run_workload("smoke", rng=2024)


class TestRunWorkload:
    def test_report_covers_every_kind(self, smoke_report):
        assert isinstance(smoke_report, WorkloadReport)
        assert set(smoke_report.results) == set(WORKLOAD_KINDS)
        for kind in WORKLOAD_KINDS:
            latency = smoke_report.results[kind]["latency"]
            assert latency["requests"] == REQUESTS_BY_PRESET["smoke"]

    def test_tables_render(self, smoke_report):
        text = str(smoke_report)
        assert "Serving latency" in text
        assert "Link load" in text
        assert "Cluster-head load" in text
        for kind in WORKLOAD_KINDS:
            assert kind in text

    def test_pool_jobs_match_serial(self, smoke_report):
        pooled = run_workload("smoke", rng=2024, jobs=2)
        assert str(pooled) == str(smoke_report)
        assert pooled.results == smoke_report.results

    def test_request_serving_matches_batched(self, smoke_report):
        # The batched router must serve the exact stream the per-request
        # loop does, flat-cache hit ratio included (same LRU sequence).
        request = serving.run_workload("smoke", rng=2024)
        assert str(request) == str(smoke_report)

    def test_chunk_count_does_not_change_results(self, smoke_report):
        # The chunk split is part of the spec (it fixes RNG streams and
        # stretch sampling), so equality here is with the same chunks;
        # a *different* chunking is a different sampling plan but must
        # still count every request.
        rechunked = run_workload("smoke", rng=2024, chunks=3)
        for kind in WORKLOAD_KINDS:
            assert rechunked.results[kind]["latency"]["requests"] == \
                REQUESTS_BY_PRESET["smoke"]

    def test_kind_subset_and_requests_override(self):
        report = run_workload("smoke", rng=7, kinds=("uniform",),
                              requests=250)
        assert list(report.results) == ["uniform"]
        assert report.results["uniform"]["latency"]["requests"] == 250

    def test_zipf_concentrates_head_load(self):
        report = run_workload("quick", rng=2024,
                              kinds=("uniform", "zipf-hot"), requests=4000)
        uniform = report.results["uniform"]["head_load"]
        skewed = report.results["zipf-hot"]["head_load"]
        # The paper-extension claim: destination skew concentrates load
        # on fewer cluster-heads, so Jain's fairness index drops.  (The
        # max/mean factor is less monotone -- under uniform traffic the
        # hottest head is already a transit hub -- so only fairness is
        # asserted.)
        assert skewed["jain"] < uniform["jain"]
        assert uniform["imbalance"] > 1.0 and skewed["imbalance"] > 1.0

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigurationError):
            run_workload("smoke", kinds=("nope",))
        with pytest.raises(ConfigurationError):
            run_workload("smoke", requests=0)


class TestWorkloadCli:
    def test_workload_listed(self, capsys):
        assert main(["list"]) == 0
        assert "workload" in capsys.readouterr().out

    def test_smoke_run_prints_tables(self, capsys):
        assert main(["workload", "--preset", "smoke", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "Serving latency" in out
        assert "mobility" in out

    def test_jobs_2_matches_jobs_1(self, capsys):
        assert main(["workload", "--preset", "smoke", "--seed", "9",
                     "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["workload", "--preset", "smoke", "--seed", "9",
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out
