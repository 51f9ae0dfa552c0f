"""Control-overhead accounting.

The paper's case for the density metric is *traffic*: a good clustering
"allows to limit the exchanged traffic generated while clusters are
re-built and the nodes' tables updated."  This module provides the two
sides of that ledger:

* wire-level: an estimated serialized size for every frame payload the
  runtime broadcasts (:func:`payload_bytes`), accumulated by the
  simulator into :class:`TrafficStats`;
* event-level: re-affiliation counts between consecutive clusterings
  (:func:`reaffiliations`) -- each node whose head changes forces routing
  table updates throughout its old and new clusters.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

_SCALAR_BYTES = 4
_FRACTION_BYTES = 8
_FIXED_BYTES = {type(None): 1, bool: 1, Fraction: _FRACTION_BYTES,
                int: _SCALAR_BYTES, float: _SCALAR_BYTES}
_CONTAINERS = (list, tuple, set, frozenset)
# Summed sizes of dict key tuples made only of strings, by the tuple: a
# payload carries the same few variable names frame after frame.
_KEY_BYTES = {}
_KEY_BYTES_LIMIT = 256
_payload_of = attrgetter("payload")


def payload_bytes(value):
    """Estimated on-air bytes for one payload value.

    A deliberately simple fixed-width model: 1 byte for ``None`` and for
    a bool, 4 per other scalar (identifier, int, float), 8 per exact
    fraction, UTF-8 length for strings, recursive sum plus a 1-byte
    length prefix for containers.  Absolute values are nominal;
    *comparisons* between protocol configurations are the point.

    Values of the listed built-in types are sized by one lookup of their
    exact type; anything else (subclasses included) walks the
    ``isinstance`` chain, with the same result.  The key bytes of a dict
    whose keys are all strings are looked up by its key tuple once they
    have been summed.
    """
    kind = type(value)
    size = _FIXED_BYTES.get(kind)
    if size is not None:
        return size
    if kind is str:
        return len(value.encode("utf-8"))
    if kind is dict:
        return 1 + _keys_bytes(tuple(value)) + _items_bytes(value.values())
    if kind in _CONTAINERS:
        return 1 + _items_bytes(value)
    return _payload_bytes_by_isinstance(value)


def _keys_bytes(keys):
    """Summed sizes of a dict's ``keys``, memoized for string keys."""
    size = _KEY_BYTES.get(keys)
    if size is None:
        size = _items_bytes(keys)
        if all(type(key) is str for key in keys):
            if len(_KEY_BYTES) >= _KEY_BYTES_LIMIT:
                _KEY_BYTES.clear()
            _KEY_BYTES[keys] = size
    return size


def _items_bytes(items):
    """Summed sizes of ``items``, fixed-size scalars read off the table."""
    total = 0
    for item in items:
        size = _FIXED_BYTES.get(type(item))
        total += payload_bytes(item) if size is None else size
    return total


def _payload_bytes_by_isinstance(value):
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, Fraction):
        return _FRACTION_BYTES
    if isinstance(value, (int, float)):
        return _SCALAR_BYTES
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return 1 + sum(payload_bytes(item) for item in value)
    if isinstance(value, dict):
        return 1 + sum(payload_bytes(k) + payload_bytes(v)
                       for k, v in value.items())
    return _SCALAR_BYTES


def frame_bytes(frame):
    """Estimated bytes of a full frame: sender id + payload."""
    return _SCALAR_BYTES + payload_bytes(frame.payload)


@dataclass
class TrafficStats:
    """Cumulative channel usage of one simulation."""

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_delivered: int = 0
    per_step_bytes: list = field(default_factory=list)

    def record_step(self, frames, inboxes):
        # frame_bytes of every frame, summed.
        step_bytes = _SCALAR_BYTES * len(frames) + sum(
            map(payload_bytes, map(_payload_of, frames.values())))
        self.frames_sent += len(frames)
        self.bytes_sent += step_bytes
        self.per_step_bytes.append(step_bytes)
        self.frames_delivered += sum(map(len, inboxes.values()))

    def mean_bytes_per_step(self):
        if not self.per_step_bytes:
            return 0.0
        return self.bytes_sent / len(self.per_step_bytes)


def reaffiliations(before, after):
    """Nodes whose cluster-head assignment changed between two windows.

    Counted over the nodes present in both clusterings; each one is a
    routing-table update event.
    """
    common = set(before.head_of) & set(after.head_of)
    return sum(before.head_of[node] != after.head_of[node]
               for node in common)
