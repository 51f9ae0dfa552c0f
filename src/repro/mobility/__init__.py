"""Mobility models and traces for the Section 5 stability experiment."""

from repro.mobility.base import MobilityModel
from repro.mobility.churn import ChurnProcess
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.random_waypoint import RandomWaypointModel
from repro.mobility.trace import (
    Trace,
    TraceFrame,
    record_trace,
    topology_at,
)

__all__ = [
    "ChurnProcess",
    "MobilityModel",
    "RandomDirectionModel",
    "RandomWaypointModel",
    "Trace",
    "TraceFrame",
    "record_trace",
    "topology_at",
]
