"""Quick-preset determinism of the pool executor across worker counts.

For a fixed seed the pool must reduce to *byte-identical* tables no matter
how many worker processes serve the run or which runs land where.  The
serial (``jobs=1``) tables are the oracle; the pool runs at 2 and 3
workers at the paper's ``quick`` preset for Table 2, Table 4 and the
mobility experiment.
"""

import pytest

from repro.experiments.common import get_preset
from repro.experiments.mobility import run_mobility_experiment
from repro.experiments.table2 import run_table2
from repro.experiments.table4 import run_table4

QUICK = get_preset("quick")


def _run_family(family, jobs):
    if family == "table2":
        return str(run_table2(QUICK, rng=2024, jobs=jobs))
    if family == "table4":
        return str(run_table4(QUICK, rng=2024, jobs=jobs))
    return str(run_mobility_experiment(QUICK, rng=2024, runs=2, jobs=jobs))


@pytest.fixture(scope="module")
def serial_tables():
    """Serial-oracle tables shared by the determinism assertions."""
    return {family: _run_family(family, jobs=1)
            for family in ("table2", "table4", "mobility")}


class TestBackendDeterminism:
    """table2/table4/mobility quick presets: serial == pool(2) == pool(3)."""

    @pytest.mark.parametrize("family", ["table2", "table4", "mobility"])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_pool_matches_serial(self, serial_tables, family, jobs):
        assert _run_family(family, jobs) == serial_tables[family]
