"""Self-stabilization toolkit: legitimacy predicates, faults, monitoring."""

from repro.stabilization.faults import (
    clear_caches,
    clear_shared,
    duplicate_dag_ids,
    fabricate_caches,
    garbage_shared,
    random_subset,
    total_corruption,
)
from repro.stabilization.monitor import (
    StabilizationReport,
    recovery_time,
    steps_to_legitimacy,
    verify_closure,
)
from repro.stabilization.predicates import (
    GroundTruth,
    clustering_legitimate,
    densities_legitimate,
    make_stack_predicate,
    naming_legitimate,
    neighborhood_accurate,
    stack_legitimate,
    two_hop_accurate,
)

__all__ = [
    "GroundTruth",
    "StabilizationReport",
    "clear_caches",
    "clear_shared",
    "clustering_legitimate",
    "densities_legitimate",
    "duplicate_dag_ids",
    "fabricate_caches",
    "garbage_shared",
    "make_stack_predicate",
    "naming_legitimate",
    "neighborhood_accurate",
    "random_subset",
    "recovery_time",
    "stack_legitimate",
    "steps_to_legitimacy",
    "total_corruption",
    "two_hop_accurate",
    "verify_closure",
]
