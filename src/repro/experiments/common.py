"""Shared experiment machinery: presets, workload builders, runners."""

import math
import numbers
from dataclasses import dataclass, replace

from repro.clustering.oracle import compute_clustering
from repro.graph.generators import poisson_topology, square_grid_topology
from repro.graph.models.registry import (
    accepted_parameters,
    as_topology_spec,
    build_topology_spec,
    degree_parameters,
)
from repro.naming.assign import assign_dag_ids
from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng, spawn_rngs


@dataclass(frozen=True)
class Preset:
    """Workload scale for one experiment family.

    ``paper`` reproduces the paper's parameters (1000 runs of
    1000-intensity deployments, 15-minute mobility); ``quick`` is sized for
    the benchmark suite and CI; ``smoke`` for unit tests.  Statistical
    estimators are identical across presets -- only sample counts and
    population sizes shrink.
    """

    name: str
    runs: int
    intensity: int           # Poisson intensity / approximate grid size
    mobility_nodes: int
    mobility_duration: float  # seconds
    mobility_window: float    # seconds


PRESETS = {
    "paper": Preset(name="paper", runs=1000, intensity=1000,
                    mobility_nodes=1000, mobility_duration=900.0,
                    mobility_window=2.0),
    "quick": Preset(name="quick", runs=8, intensity=1000,
                    mobility_nodes=400, mobility_duration=120.0,
                    mobility_window=2.0),
    "smoke": Preset(name="smoke", runs=2, intensity=200,
                    mobility_nodes=80, mobility_duration=20.0,
                    mobility_window=2.0),
}


def get_preset(preset, **overrides):
    """Resolve a preset by name (or pass through a :class:`Preset`),
    optionally overriding individual fields."""
    if isinstance(preset, Preset):
        resolved = preset
    elif preset in PRESETS:
        resolved = PRESETS[preset]
    else:
        raise ConfigurationError(
            f"unknown preset {preset!r}; expected one of {sorted(PRESETS)} "
            "or a Preset instance")
    if overrides:
        resolved = replace(resolved, **overrides)
    return resolved


def build_topology(kind, intensity, radius, rng, topology=None):
    """One evaluation workload: ``"random"`` (Poisson), ``"grid"``, or --
    when ``topology`` carries a spec -- any registered generator."""
    if topology is not None:
        spec = resolve_topology_spec(topology, count=intensity, radius=radius)
        return build_topology_spec(spec, rng=rng)
    if kind == "random":
        return poisson_topology(intensity, radius, rng=rng)
    if kind == "grid":
        return square_grid_topology(intensity, radius)
    raise ConfigurationError(f"unknown topology kind {kind!r}")


def matched_mean_degree(count, radius):
    """The UDG-equivalent mean degree: ``count * pi * radius**2``.

    A unit-square deployment of ``count`` nodes at transmission range
    ``radius`` has this expected degree (up to border effects); filling
    it into non-geometric generators makes cross-model comparisons
    degree-matched by construction.
    """
    return count * math.pi * radius * radius


def resolve_topology_spec(spec, preset=None, count=None, radius=None):
    """Fill experiment-family defaults into a topology spec.

    Only parameters the generator accepts *and* the spec doesn't pin are
    filled:

    * ``count`` (``intensity`` for the Poisson family) from the explicit
      ``count`` or the preset's intensity;
    * ``radius`` from the family's transmission range (quasi-UDG gets the
      matched ``r_max=radius``, ``r_min=radius/2`` pair);
    * ``degree`` -- the matched mean degree ``count * pi * radius**2`` --
      unless the spec already pins connectivity through the generator's
      own degree parameter (``p``, ``k``, ``m``, ...).

    Explicit spec parameters always win over every default.
    """
    spec = as_topology_spec(spec)
    accepted = set(accepted_parameters(spec.name))
    params = spec.param_dict()
    if count is None and preset is not None:
        count = get_preset(preset).intensity
    defaults = {}
    if count is not None:
        if "intensity" in accepted:
            if "count" not in params:
                defaults["intensity"] = int(count)
        elif "count" in accepted:
            defaults["count"] = int(count)
    if radius is not None:
        if "radius" in accepted:
            defaults["radius"] = radius
        if "r_max" in accepted and "r_min" in accepted:
            defaults["r_max"] = radius
            defaults["r_min"] = radius / 2.0
    if "degree" in accepted and "degree" not in params:
        pinned = any(name in params for name in degree_parameters(spec.name))
        filled = params.get("count", params.get("intensity", count))
        fill_radius = params.get("radius", radius)
        if not pinned and filled is not None and fill_radius is not None:
            for key, value in (("count", filled), ("radius", fill_radius)):
                if not isinstance(value, numbers.Real):
                    raise ConfigurationError(
                        f"topology {spec.name!r} parameter {key} must be "
                        f"a number, got {value!r}")
            defaults["degree"] = round(
                matched_mean_degree(filled, fill_radius), 4
            )
    return spec.with_defaults(**defaults)


def clustered(topology, rng=None, use_dag=True, order="basic", fusion=False,
              previous=None, dag_ids=None):
    """Oracle clustering of a topology, with or without the DAG layer.

    When ``use_dag`` and no ``dag_ids`` are supplied, names are built by
    the polite renaming first.  Returns ``(clustering, dag_ids)`` so
    callers can thread names across mobility windows.
    """
    if use_dag and dag_ids is None:
        dag_ids, _rounds = assign_dag_ids(topology, as_rng(rng))
    clustering = compute_clustering(
        topology.graph, tie_ids=topology.ids,
        dag_ids=dag_ids if use_dag else None,
        order=order, fusion=fusion, previous=previous)
    return clustering, dag_ids


def per_run_rngs(rng, runs):
    """Independent child RNGs, one per simulation run."""
    return spawn_rngs(rng, runs)
