"""The ``≺`` precedence orders of Section 4.

The paper defines ``p ≺ q  iff  d_p < d_q  or  (d_p = d_q and Id_q < Id_p)``
(Section 4.2) and a refined order where, on density ties, an incumbent
cluster-head beats a non-head before identifiers are consulted
(Section 4.3).

Implementation notes
--------------------
* Orders are realized as *key functions*: ``key(view)`` returns a tuple that
  sorts nodes so that ``p ≺ q  iff  key(p) < key(q)``.  Keys make the
  fixpoint arguments trivial (parent chains strictly increase in key).
* Identifiers are compared "smaller wins", hence the negated components.
* When DAG identifiers (Section 4.1) are in use they take precedence over
  the normal unique identifier; the normal identifier is kept as the final
  component so keys are *globally* distinct even though DAG names are only
  locally unique.  This totalizes the paper's order (DESIGN.md, deviation 1)
  without changing any comparison the protocol actually performs between
  1-hop neighbors.
* The refined order of Section 4.3 leaves two equal-density incumbent heads
  incomparable; :class:`IncumbentOrder` falls back to identifiers in that
  case (DESIGN.md, deviation 1).
* The array engines hold identifiers as int64 columns; :func:`id_column`
  is their one identifier check.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.util.errors import ConfigurationError

_INT64_MIN = np.iinfo(np.int64).min


@dataclass(frozen=True)
class NodeView:
    """Everything the order needs to know about one node.

    ``dag_id`` is ``None`` when the DAG renaming layer is not in use.
    ``is_head`` reflects the node's *current* cluster-head status (used only
    by :class:`IncumbentOrder`).
    """

    node: object
    density: object
    tie_id: int
    dag_id: Optional[int] = None
    is_head: bool = False


class BasicOrder:
    """``p ≺ q iff d_p < d_q or (d_p = d_q and Id_q < Id_p)``."""

    name = "basic"

    def key(self, view):
        """Sort key: larger key means greater under ``≺`` ("wins")."""
        return (view.density,) + _id_components(view)

    def precedes(self, p_view, q_view):
        """True iff ``p ≺ q``."""
        key_p = self.key(p_view)
        key_q = self.key(q_view)
        if key_p == key_q:
            raise ConfigurationError(
                f"nodes {p_view.node!r} and {q_view.node!r} are "
                "indistinguishable under the order; tie identifiers must be "
                "unique")
        return key_p < key_q


class IncumbentOrder(BasicOrder):
    """Section 4.3 refinement: on density ties, incumbent heads win.

    ``p ≺ q`` iff ``d_p < d_q``, or densities tie and ``q`` is currently a
    head while ``p`` is not, or densities and head-status tie and ``q`` has
    the smaller identifier.  (The paper's relation leaves two equal-density
    heads incomparable; falling back to identifiers keeps ``≺`` total.)
    """

    name = "incumbent"

    def key(self, view):
        return (view.density, bool(view.is_head)) + _id_components(view)


def _id_components(view):
    """Identifier components of a key, smaller-identifier-wins.

    DAG names dominate; the globally unique tie identifier comes last so
    keys never collide even when two distant nodes share a DAG name.
    """
    if view.dag_id is None:
        return (-view.tie_id,)
    return (-view.dag_id, -view.tie_id)


def make_order(name):
    """Look up an order by name (``"basic"`` or ``"incumbent"``)."""
    orders = {BasicOrder.name: BasicOrder, IncumbentOrder.name: IncumbentOrder}
    if name not in orders:
        raise ConfigurationError(
            f"unknown order {name!r}; expected one of {sorted(orders)}")
    return orders[name]()


def id_column(ids, values=None, name="tie_ids", unique=True):
    """``values[node]`` for every node of ``ids``, as an int64 column.

    The identifier check of every array engine.  Raises
    :class:`ConfigurationError` unless ``values`` (default: the nodes
    themselves) maps exactly the nodes of ``ids`` to integers in
    ``(-2**63, 2**63)`` (int64 without its minimum, which the engines
    could not negate), globally unique when ``unique`` (tie identifiers;
    DAG names are only locally unique).
    """
    if values is None:
        values = dict(zip(ids, ids))
    n = len(ids)
    if len(values) != n:
        raise ConfigurationError(f"{name} must cover exactly the graph's nodes")
    column = None
    kinds = set(map(type, values.values()))
    if all(issubclass(kind, (int, np.integer)) for kind in kinds):
        try:
            column = np.fromiter(map(values.__getitem__, ids), dtype=np.int64,
                                 count=n)
        except KeyError:
            raise ConfigurationError(
                f"{name} must cover exactly the graph's nodes") from None
        except OverflowError:
            pass
    if column is None or (n and column.min() == _INT64_MIN):
        raise ConfigurationError(f"{name} must be integers in (-2**63, 2**63)")
    if unique and len(set(values.values())) != n:
        raise ConfigurationError(f"{name} must be globally unique")
    return column
