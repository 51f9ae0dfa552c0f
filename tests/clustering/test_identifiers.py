"""Every clustering entry point answers a bad identifier with one
:class:`ConfigurationError` that names the rule.

The engines hold tie identifiers and DAG names as int64 columns, and
:func:`~repro.clustering.order.id_column` is their one check: integers
in ``(-2**63, 2**63)``, covering the graph, tie identifiers unique.
:func:`~repro.clustering.oracle.compute_clustering` ranks other real
numbers by their key tuples and rejects anything else.
"""

import pytest

from repro.cli import main
from repro.clustering.baselines import (
    degree_clustering,
    lowest_id_clustering,
    maxmin_clustering,
)
from repro.clustering.density import all_densities
from repro.clustering.engine import ENGINES, engine_for
from repro.clustering.incremental import IncrementalElection
from repro.clustering.oracle import compute_clustering
from repro.graph.generators import Topology, line_topology
from repro.util.errors import ConfigurationError
from tests.oracles import baselines
from tests.oracles import election

INT64_MAX = 2**63 - 1
BAD_TIE_IDS = {
    "beyond-int64": {0: 2**63 + 5, 1: 1, 2: 2},
    "int64-min": {0: -(2**63), 1: 1, 2: 2},
    "strings": {0: "x", 1: "y", 2: "z"},
    "floats": {0: 0.5, 1: 1.0, 2: 2.0},
}
RULE = r"tie_ids must be integers in \(-2\*\*63, 2\*\*63\)"
SCRATCH = {
    "lowest-id": lowest_id_clustering,
    "degree": degree_clustering,
    "max-min": maxmin_clustering,
}


def _line():
    return line_topology(3).graph


@pytest.mark.parametrize("ids", sorted(BAD_TIE_IDS))
@pytest.mark.parametrize("metric", sorted(SCRATCH))
def test_scratch_baselines_reject(metric, ids):
    with pytest.raises(ConfigurationError, match=RULE):
        SCRATCH[metric](_line(), tie_ids=BAD_TIE_IDS[ids])


@pytest.mark.parametrize("ids", sorted(BAD_TIE_IDS))
@pytest.mark.parametrize("metric", sorted(ENGINES))
def test_engines_reject(metric, ids):
    graph = _line()
    # Topology checks coverage and uniqueness only.
    topology = Topology(graph, ids=BAD_TIE_IDS[ids])
    with pytest.raises(ConfigurationError, match=RULE):
        engine_for(metric).init(topology)


def test_compute_clustering_rejects_non_numbers():
    strings = BAD_TIE_IDS["strings"]
    with pytest.raises(ConfigurationError,
                       match="tie_ids must be real numbers"):
        compute_clustering(_line(), tie_ids=strings)
    with pytest.raises(ConfigurationError,
                       match="dag_ids must be real numbers"):
        compute_clustering(_line(), dag_ids=strings)


def test_compute_clustering_ranks_other_numbers():
    """Through the key-tuple path, as the per-node oracle does."""
    graph = _line()
    for ids in ("beyond-int64", "int64-min", "floats"):
        tie_ids = BAD_TIE_IDS[ids]
        got = compute_clustering(graph, tie_ids=tie_ids, dag_ids=tie_ids)
        want = election.compute_clustering(graph, tie_ids=tie_ids,
                                           dag_ids=tie_ids)
        assert got.parents == want.parents


@pytest.mark.parametrize("ids", sorted(BAD_TIE_IDS))
def test_election_engine_rejects(ids):
    graph = _line()
    densities = all_densities(graph, exact=True)
    with pytest.raises(ConfigurationError, match=RULE):
        IncrementalElection().update(graph, densities,
                                     tie_ids=BAD_TIE_IDS[ids])
    with pytest.raises(ConfigurationError, match="dag_ids must be integers"):
        IncrementalElection().update(graph, densities,
                                     tie_ids={0: 0, 1: 1, 2: 2},
                                     dag_ids=BAD_TIE_IDS[ids])


def test_missing_and_duplicate_tie_ids_are_named():
    graph = _line()
    densities = all_densities(graph, exact=True)

    def election_engine(graph, tie_ids):
        return IncrementalElection().update(graph, densities, tie_ids=tie_ids)

    for clusterer in (*SCRATCH.values(), election_engine):
        with pytest.raises(ConfigurationError,
                           match="tie_ids must cover exactly"):
            clusterer(graph, tie_ids={0: 0, 1: 1})
        with pytest.raises(ConfigurationError,
                           match="tie_ids must be globally unique"):
            clusterer(graph, tie_ids={0: 0, 1: 1, 2: 1})


def test_maxmin_takes_the_int64_maximum():
    """The sentinel of the parent sweep equals the largest identifier
    the check admits; parents still follow the rule."""
    graph = line_topology(4).graph
    for row in range(4):
        tie_ids = {node: node + 1 for node in graph}
        tie_ids[row] = INT64_MAX
        for d in (1, 2):
            got = maxmin_clustering(graph, d=d, tie_ids=tie_ids)
            want = baselines.maxmin_clustering(graph, d=d, tie_ids=tie_ids)
            assert got.parents == want.parents, (row, d)


def test_cli_names_the_rule(tmp_path, capsys):
    """A file topology whose first node has tie id 2**63 + 5."""
    path = tmp_path / "big.edges"
    path.write_text("# repro edge list v1\n# radius 0.15\n# nodes 3\n"
                    "0 9223372036854775813 0.1 0.1\n1 1 0.2 0.1\n"
                    "2 2 0.3 0.1\n# edges 2\n0 1\n1 2\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["comparison", "--preset", "smoke", "--topology",
              f"file:{path}"])
    assert exit_info.value.code == 2
    assert "tie_ids must be integers in (-2**63, 2**63)" in \
        capsys.readouterr().err
