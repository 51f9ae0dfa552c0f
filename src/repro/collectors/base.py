"""The ``DataCollector`` protocol and the fan-out proxy.

A collector consumes :class:`~repro.workload.serve.ServedRequest`
events and keeps *mergeable* partial state: ``merge`` must be
associative and order-independent (the property suite enforces both),
so any chunking of a request stream -- served serially or on a process
pool -- reduces to the same final state.  ``results()`` renders the
state to a flat ``dict`` of plain scalars for table building.
"""

from repro.util.errors import ConfigurationError


class DataCollector:
    """One measurement over a served request stream.

    Subclasses implement :meth:`process` (one event), :meth:`merge`
    (fold another collector of the same type in, in place) and
    :meth:`results` (plain-scalar summary).  State must be picklable --
    chunk collectors travel back from worker processes.
    """

    name = "base"

    def process(self, served):
        """Absorb one :class:`~repro.workload.serve.ServedRequest`."""
        raise NotImplementedError

    def process_batch(self, batch):
        """Absorb a sequence of served requests.

        Equivalent by contract to ``for served in batch:
        self.process(served)`` -- the default does exactly that.
        Subclasses override it with vectorized/counter-based fast paths
        (the batched serving loop hands whole request chunks over), but
        the final state must stay bit-identical to the per-event loop.
        """
        for served in batch:
            self.process(served)

    def merge(self, other):
        """Fold ``other``'s partial state into this one; returns self."""
        raise NotImplementedError

    def results(self):
        """Summarize the absorbed events as a flat dict."""
        raise NotImplementedError

    def _check_mergeable(self, other):
        if type(other) is not type(self):
            raise ConfigurationError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )


class CollectorProxy(DataCollector):
    """Fan one event stream out to many collectors.

    Itself a :class:`DataCollector`: ``process`` forwards to every
    member, ``merge`` folds two proxies member by member (matched by
    collector name -- both sides must carry the same set), ``results``
    nests each member's summary under its name.
    """

    name = "proxy"

    def __init__(self, collectors):
        self.collectors = list(collectors)
        names = [collector.name for collector in self.collectors]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"collector names must be unique, got {names}")

    def __getitem__(self, name):
        for collector in self.collectors:
            if collector.name == name:
                return collector
        raise ConfigurationError(f"no collector named {name!r}")

    def process(self, served):
        for collector in self.collectors:
            collector.process(served)

    def process_batch(self, batch):
        batch = batch if isinstance(batch, (list, tuple)) else list(batch)
        for collector in self.collectors:
            collector.process_batch(batch)

    def merge(self, other):
        self._check_mergeable(other)
        theirs = {collector.name: collector for collector in other.collectors}
        if set(theirs) != {c.name for c in self.collectors}:
            raise ConfigurationError(
                "cannot merge proxies with different collector sets"
            )
        for collector in self.collectors:
            collector.merge(theirs[collector.name])
        return self

    def results(self):
        return {collector.name: collector.results() for collector in self.collectors}
