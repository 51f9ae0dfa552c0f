"""Routes over every graph of up to seven nodes.

``networkx.graph_atlas_g()`` lists all 1,253 graphs of at most seven
nodes up to isomorphism.  On a hierarchy over each non-empty one, with
the DAG renaming on and off, every ordered pair must route through
:class:`~repro.workload.serve.CachedRouter` exactly as through the
uncached :func:`~repro.hierarchy.routing.hierarchical_route`, along a
walk over graph edges from the source to the destination, never in
fewer hops than the flat shortest path, and not at all exactly when the
pair is disconnected.
"""

import networkx as nx
import pytest

from repro.graph.generators import Topology
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import build_hierarchy
from repro.hierarchy.routing import hierarchical_route
from repro.workload.serve import CachedRouter
from tests.oracles import traversal as traversal_oracle

ATLAS = [atlas for atlas in nx.graph_atlas_g() if len(atlas)]


@pytest.mark.parametrize("use_dag", [True, False])
def test_every_pair_of_every_atlas_graph(use_dag):
    pairs = 0
    for number, atlas in enumerate(ATLAS, 1):
        graph = Graph(nodes=list(atlas.nodes), edges=list(atlas.edges))
        hierarchy = build_hierarchy(Topology(graph), rng=number,
                                    use_dag=use_dag)
        router = CachedRouter(hierarchy)
        for source in graph.nodes:
            flat = traversal_oracle.bfs_distances(graph, source)
            for destination in graph.nodes:
                where = (number, source, destination)
                route, _head_path = router.route(source, destination)
                assert route == hierarchical_route(hierarchy, source,
                                                   destination), where
                pairs += 1
                if destination not in flat:
                    assert route is None, where
                    continue
                assert route[0] == source and route[-1] == destination, where
                assert all(graph.has_edge(u, v)
                           for u, v in zip(route, route[1:])), where
                assert len(route) - 1 >= flat[destination], where
    assert pairs == 57_843
