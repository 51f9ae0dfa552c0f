"""Per-node runtime state: shared variables and neighbor caches.

Following the shared-variable scheme of [11] that Section 4 builds on:
each node owns a set of *shared variables* whose values it broadcasts every
step, and keeps *cache copies* (the ``)Idq`` notation of the paper) of its
neighbors' shared variables, learned from received frames.

The cache is the node's only source of knowledge about the network: the
runtime never lets a node read the true graph.  Entries carry the step at
which they were last refreshed and expire after ``cache_timeout`` steps,
which is how departed neighbors (mobility, crash) fade out and how stale
corrupted caches heal -- a prerequisite for self-stabilization.

Caches hold one shared, immutable copy per frame: the simulator
snapshots a sender's payload once per step and every receiver caches the
same :class:`CacheEntry`, so what a receiver derives from the entry alone
(a clustering key) is computed once and memoized on it.  Direct callers
of :meth:`NodeRuntime.ingest` still get a private copy.
"""

from dataclasses import dataclass, field

from repro.util.errors import ConfigurationError

DEFAULT_CACHE_TIMEOUT = 4


@dataclass(frozen=True)
class CacheEntry:
    """Cached shared variables of one neighbor.

    Immutable, payload included (by convention: nothing writes to it), so
    every receiver of a frame may hold the same entry.  ``memo`` keeps
    values derived from the payload and the sender alone, keyed by the
    configuration that derived them; an entry is only ever cached under
    its sender.
    """

    payload: dict
    refreshed_at: int
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def get(self, name, default=None):
        return self.payload.get(name, default)


@dataclass
class NodeRuntime:
    """The complete local state of one node.

    Attributes
    ----------
    node_id:
        The node's label in the topology (also the frame sender field).
    tie_id:
        The node's globally unique integer "normal" identifier, used as the
        final tie-break by the clustering order.  Defaults to ``node_id``.
    shared:
        The node's own shared variables (what it broadcasts).
    caches:
        ``dict[neighbor_id, CacheEntry]`` -- cached copies of neighbors'
        shared variables.
    """

    node_id: object
    tie_id: object = None
    cache_timeout: int = DEFAULT_CACHE_TIMEOUT
    shared: dict = field(default_factory=dict)
    caches: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cache_timeout < 1:
            raise ConfigurationError(
                f"cache_timeout must be >= 1, got {self.cache_timeout}")
        if self.tie_id is None:
            self.tie_id = self.node_id

    # ------------------------------------------------------------------
    # frame handling
    # ------------------------------------------------------------------

    def ingest(self, frame, now):
        """Record a received frame as the fresh cache copy of its sender."""
        if frame.sender == self.node_id:
            return  # a node never caches itself
        self.caches[frame.sender] = CacheEntry(payload=dict(frame.payload),
                                               refreshed_at=now)

    def expire_caches(self, now):
        """Drop cache entries not refreshed within ``cache_timeout`` steps."""
        stale = [neighbor for neighbor, entry in self.caches.items()
                 if now - entry.refreshed_at >= self.cache_timeout]
        for neighbor in stale:
            del self.caches[neighbor]

    # ------------------------------------------------------------------
    # local views (everything a protocol may consult)
    # ------------------------------------------------------------------

    def known_neighbors(self):
        """The node's current belief about ``Np``: cached senders."""
        return set(self.caches)

    def cached(self, neighbor, name, default=None):
        """The cache copy ``)name`` of ``neighbor``'s shared variable."""
        entry = self.caches.get(neighbor)
        if entry is None:
            return default
        return entry.payload.get(name, default)

    def cached_all(self, name, default=None):
        """``{q: )name_q}`` over all cached neighbors."""
        return {q: entry.payload.get(name, default)
                for q, entry in self.caches.items()}

    def two_hop_view(self, neighbors_field="neighbors"):
        """The believed 2-neighborhood: union of reported neighbor sets.

        Excludes the node itself; includes 1-hop neighbors.
        """
        view = self.known_neighbors()
        for entry in self.caches.values():
            reported = entry.payload.get(neighbors_field)
            if reported:
                view.update(reported)
        view.discard(self.node_id)
        return view
