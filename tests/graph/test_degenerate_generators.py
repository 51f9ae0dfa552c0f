"""Every registered generator at degenerate parameters.

Each spec either raises :class:`ConfigurationError` at build, or its
topology runs the whole stack: the scratch election, every engine's
first window, a hierarchy, and cached routes and stretch between a few
node pairs.  The ``file`` scheme is left out: ``test_io.py`` fuzzes its
malformed inputs.
"""

import pytest

from repro.clustering.engine import ENGINES, engine_for
from repro.clustering.oracle import compute_clustering
from repro.graph.models import build_topology_spec
from repro.graph.models.registry import registered_topologies
from repro.hierarchy.hierarchy import build_hierarchy
from repro.util.errors import ConfigurationError
from repro.workload.serve import CachedRouter

#: Parameters at the edges of each generator's accepted range, and one
#: step past them.
SPECS = {
    "complete": ["count=0", "count=1", "count=2"],
    "distance_rule": ["count=0,degree=2", "count=1,degree=2",
                      "count=2,degree=1", "count=6,degree=0",
                      "count=6,degree=5"],
    "erdos_renyi": ["count=0,p=0.5", "count=1,p=1", "count=6,p=0",
                    "count=6,p=1", "count=6,p=1.5", "count=6,degree=0",
                    "count=6,degree=5"],
    "figure1": [""],
    "fixed_degree": ["count=0,degree=0", "count=1,degree=0",
                     "count=2,degree=1", "count=6,degree=5",
                     "count=6,degree=6"],
    "gaussian_degree": ["count=0,avg=2", "count=1,avg=0,std=0",
                        "count=6,avg=0,std=0", "count=6,avg=5,std=0"],
    "grid": ["rows=1,cols=1,radius=0.5", "rows=1,cols=3,radius=2",
             "rows=0,cols=3,radius=0.5"],
    "line": ["count=0", "count=1", "count=2"],
    "nw_small_world": ["count=2,k=1", "count=3,k=1,p=0", "count=7,k=3,p=1",
                       "count=7,k=4", "count=7,k=0", "count=7,k=1,p=1.5"],
    "poisson": ["intensity=1,radius=0.1", "intensity=4,radius=2"],
    "quasi_udg": ["count=0,r_min=0.1,r_max=0.2",
                  "count=1,r_min=0.1,r_max=0.2",
                  "count=3,r_min=1.5,r_max=2"],
    "ring": ["count=0", "count=1", "count=2", "count=3"],
    "scale_free": ["count=1,m=1", "count=2,m=1", "count=6,m=5",
                   "count=6,m=6", "count=6,m=0"],
    "square_grid": ["count=1,radius=0.5", "count=4,radius=2"],
    "star": ["leaves=0", "leaves=1", "leaves=2"],
    "uniform": ["count=0,radius=0.1", "count=1,radius=0.1",
                "count=3,radius=2"],
}

CASES = [f"{name}:{params},seed=3" if params else f"{name}:seed=3"
         for name, specs in sorted(SPECS.items()) for params in specs]


def test_every_generator_but_file_is_covered():
    assert set(SPECS) == set(registered_topologies()) - {"file"}


@pytest.mark.parametrize("spec", CASES)
def test_degenerate_spec_builds_and_serves_or_is_refused(spec):
    try:
        topology = build_topology_spec(spec)
    except ConfigurationError:
        return
    graph = topology.graph
    compute_clustering(graph, tie_ids=topology.ids)
    for metric in ENGINES:
        engine_for(metric).init(topology)
    router = CachedRouter(build_hierarchy(topology, rng=5))
    nodes = graph.nodes
    for source in nodes[:3]:
        for destination in nodes[-2:]:
            router.route(source, destination)
            router.route_stretch(source, destination)
