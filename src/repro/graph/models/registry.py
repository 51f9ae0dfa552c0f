"""The topology registry: named generators behind one :class:`TopologySpec`.

PR 8 gave clusterers a uniform seam (``engine_for(metric)``); this module
gives topologies the same treatment.  A :class:`TopologySpec` is a
picklable value object -- generator name, normalized parameters, optional
seed -- and :func:`build_topology_spec` resolves it through the registry
into a :class:`~repro.graph.generators.Topology`, so every experiment
family can consume ``--topology name:param=val,...`` without per-family
wiring.

Registered names cover three groups:

* the paper shapes (``poisson``, ``uniform``, ``grid``, ``square_grid``,
  ``quasi_udg``, ``figure1``, ``line``, ``ring``, ``star``,
  ``complete``) -- registered by :mod:`repro.graph.models.builtin`;
* the beyond-unit-disk generator suite (``distance_rule``,
  ``erdos_renyi``, ``nw_small_world``, ``scale_free``, ``fixed_degree``,
  ``gaussian_degree``) -- registered by their defining modules under
  :mod:`repro.graph.models`;
* the ``file`` scheme (:mod:`repro.graph.io`), which loads a recorded
  edge-list or GML topology from disk.

Factories are plain callables ``factory(rng=None, **params) ->
Topology``; :func:`register_topology` records them plus whether the
result carries geometric positions.  Experiments fill family defaults
(node count, matched mean degree) through :meth:`TopologySpec.
with_defaults` -- explicit parameters always win.
"""

import inspect
from dataclasses import dataclass, field, replace

from repro.util.errors import ConfigurationError

_TOPOLOGY_FACTORIES = {}
_GEOMETRIC = set()
_DEGREE_PARAMS = {}
_BUILTINS_LOADED = False


def register_topology(name, geometric=False, degree_params=()):
    """Decorator registering a topology factory under ``name``.

    ``geometric`` records whether the factory's topologies carry node
    positions (and hence can feed geometry-consuming workloads).
    ``degree_params`` names the factory parameters that pin the mean
    degree *instead of* ``degree=`` (``p`` for Erdős–Rényi, ``k`` for
    the small world, ...), so experiment default-filling knows when a
    matched-degree default would conflict with what the user gave.
    """

    def decorate(factory):
        if name in _TOPOLOGY_FACTORIES:
            raise ConfigurationError(
                f"topology {name!r} is already registered "
                f"(by {_TOPOLOGY_FACTORIES[name].__module__})"
            )
        _TOPOLOGY_FACTORIES[name] = factory
        if geometric:
            _GEOMETRIC.add(name)
        _DEGREE_PARAMS[name] = tuple(degree_params)
        return factory

    return decorate


def topology_for(name):
    """The registered factory for ``name`` (unknown names fail loudly)."""
    _load_builtins()
    try:
        return _TOPOLOGY_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_TOPOLOGY_FACTORIES))
        raise ConfigurationError(
            f"unknown topology {name!r}; registered generators: {known}"
        ) from None


def registered_topologies():
    """Sorted names with a registered topology factory."""
    _load_builtins()
    return sorted(_TOPOLOGY_FACTORIES)


def is_geometric(name):
    """True when ``name``'s topologies carry node positions."""
    topology_for(name)  # raises on unknown names
    return name in _GEOMETRIC


def degree_parameters(name):
    """Parameters that pin ``name``'s mean degree instead of ``degree=``."""
    topology_for(name)  # raises on unknown names
    return _DEGREE_PARAMS.get(name, ())


def accepted_parameters(name):
    """The keyword parameters ``name``'s factory accepts (sorted)."""
    signature = inspect.signature(topology_for(name))
    return sorted(
        parameter
        for parameter in signature.parameters
        if parameter != "rng"
        and signature.parameters[parameter].kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    )


def _load_builtins():
    """Import the modules whose import registers the built-in factories."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.graph.io  # noqa: F401  (the ``file`` scheme)
        import repro.graph.models  # noqa: F401


def _parse_value(text):
    """CLI parameter literal -> int / float / str (in that preference)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


@dataclass(frozen=True)
class TopologySpec:
    """A generator name plus normalized parameters and an optional seed.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so equal
    specifications compare (and hash, and pickle) equal regardless of
    the order parameters were given in.  ``seed`` feeds the build when
    the caller supplies no generator of its own.
    """

    name: str
    params: tuple = field(default=())
    seed: int = None

    @classmethod
    def make(cls, name, params=None, seed=None):
        """Build a spec from a parameter mapping (normalizing order)."""
        items = tuple(sorted((params or {}).items()))
        return cls(name=name, params=items, seed=seed)

    @classmethod
    def parse(cls, text):
        """Parse the CLI form ``name[:param=val,...]``.

        Values become ints or floats when they parse as such.  A
        ``seed=`` parameter populates the spec's seed field.  The
        ``file`` scheme accepts a bare path (``file:trace.gml``) as
        shorthand for ``file:path=trace.gml``.
        """
        text = text.strip()
        if not text:
            raise ConfigurationError("empty topology specification")
        name, _, rest = text.partition(":")
        name = name.strip()
        params = {}
        seed = None
        if rest and name == "file" and "=" not in rest:
            params["path"] = rest
            rest = ""
        for chunk in filter(None, (p.strip() for p in rest.split(","))):
            key, sep, raw = chunk.partition("=")
            if not sep or not key.strip():
                raise ConfigurationError(
                    f"malformed topology parameter {chunk!r} in {text!r}; "
                    "expected name:param=value,param=value"
                )
            value = _parse_value(raw.strip())
            if key.strip() == "seed":
                if not isinstance(value, int):
                    raise ConfigurationError(
                        f"topology seed must be an integer, got {raw!r}"
                    )
                seed = value
            else:
                params[key.strip()] = value
        return cls.make(name, params, seed=seed)

    def param_dict(self):
        """The parameters as a plain dict."""
        return dict(self.params)

    def with_defaults(self, **defaults):
        """A spec with ``defaults`` filled in for *absent* parameters
        only -- explicit parameters always win."""
        params = self.param_dict()
        merged = {key: value for key, value in defaults.items() if key not in params}
        if not merged:
            return self
        params.update(merged)
        return replace(self, params=tuple(sorted(params.items())))

    def __str__(self):
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        if self.seed is not None:
            rendered = ",".join(filter(None, (rendered, f"seed={self.seed}")))
        return f"{self.name}:{rendered}" if rendered else self.name


def as_topology_spec(spec):
    """Coerce a spec string or :class:`TopologySpec` into a spec."""
    if isinstance(spec, TopologySpec):
        return spec
    if isinstance(spec, str):
        return TopologySpec.parse(spec)
    raise ConfigurationError(
        f"expected a TopologySpec or 'name:param=val' string, got {spec!r}"
    )


def build_topology_spec(spec, rng=None):
    """Build ``spec``'s topology; returns it with ``spec`` attached.

    ``rng`` (int seed or generator) overrides the spec's own seed; with
    neither, generation uses fresh entropy exactly like calling the
    generator function directly.
    """
    spec = as_topology_spec(spec)
    factory = topology_for(spec.name)
    if rng is None:
        rng = spec.seed
    try:
        topology = factory(rng=rng, **spec.param_dict())
    except (TypeError, ValueError) as error:  # e.g. p=abc, unknown keys
        accepted = ", ".join(accepted_parameters(spec.name)) or "(none)"
        raise ConfigurationError(
            f"bad parameters for topology {spec.name!r}: {error}; "
            f"accepted parameters: {accepted}"
        ) from None
    topology.spec = spec
    return topology
