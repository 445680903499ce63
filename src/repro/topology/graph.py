"""Wireless mesh topology model.

A :class:`Topology` captures everything the routing metrics, the theory of
Chapter 5 and the simulator need to know about the network:

* the set of nodes (with optional 2-D/3-D positions, used by the synthetic
  testbed generator and by the interference model);
* the matrix of marginal delivery probabilities ``p[i, j]`` — the probability
  that a single broadcast by ``i`` is successfully received by ``j`` — which
  is the quantity ETX probing measures (Section 3.1.1).  It is fixed when the
  mesh is built and read-only from then on; an edited mesh is a new
  :class:`Topology`.

The routing control plane reads less than that: the directed links that
exist, as a :class:`LinkTable`.  A :class:`LinkView` is a mesh as the
control plane sees it — its nodes and one link table, O(links) — and a
:class:`Topology` is the one kind of view that also holds the N×N matrix
its table is derived from.  The probe-estimated control view
(:mod:`repro.topology.estimation`) is a plain :class:`LinkView`.

The reception model follows the paper's assumption of *independent*
receptions across receivers (Section 3.2.1, Section 5.5), which the
simulator also honours unless an interference event intervenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Hashable, NamedTuple, TypeVar

import numpy as np

T = TypeVar("T")


def _read_only(value: Any) -> None:
    """Make every array in ``value`` (an array, a tuple or a dataclass) read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif is_dataclass(value):
        for entry in fields(value):
            _read_only(getattr(value, entry.name))


@dataclass(frozen=True)
class Node:
    """A mesh router.

    Attributes:
        node_id: dense integer identifier (index into probability matrices).
        name: human-readable label.
        position: optional (x, y) or (x, y, z) coordinates in metres.
    """

    node_id: int
    name: str = ""
    position: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"n{self.node_id}")


class LinkTable(NamedTuple):
    """The directed links of a mesh in row-major order, CSR by sender.

    Row ``s`` — the links *out of* ``s`` — is the slice
    ``indptr[s]:indptr[s + 1]`` of the two per-link arrays, receivers in
    ascending order: the order of ``np.nonzero`` over the delivery matrix.
    A link absent from the table delivers nothing, and so does one listed
    with delivery 0 (a sampled estimate whose probes all got lost).

    Attributes:
        indptr: row boundaries, ``node_count + 1`` entries.
        receivers: receiving node of each link.
        delivery: delivery probability of each link.
    """

    indptr: np.ndarray
    receivers: np.ndarray
    delivery: np.ndarray

    def senders(self) -> np.ndarray:
        """Sending node of each link (the row each one sits in)."""
        return np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))


class LinkView:
    """A mesh as the routing control plane reads it: nodes and a link table.

    Read-only, and O(links): what ETX, EOTX, forwarding plans and best
    paths are computed from (:mod:`repro.metrics`).  The probe-estimated
    control view and the dead-node mask are plain views; a
    :class:`Topology` is a view that also holds its N×N matrix.
    """

    def __init__(self, nodes: list[Node], table: LinkTable) -> None:
        _read_only(table)
        self.nodes = nodes
        self._table = table
        self._derived: dict[Hashable, Any] = {}

    @property
    def node_count(self) -> int:
        """Number of nodes in the mesh."""
        return len(self.nodes)

    def link_table(self) -> LinkTable:
        """The directed links, CSR by sender (read-only, shared)."""
        return self._table

    def delivery(self, sender: int, receiver: int) -> float:
        """Delivery probability from ``sender`` to ``receiver``."""
        table = self.link_table()
        start, stop = int(table.indptr[sender]), int(table.indptr[sender + 1])
        index = start + int(np.searchsorted(table.receivers[start:stop], receiver))
        if index < stop and table.receivers[index] == receiver:
            return float(table.delivery[index])
        return 0.0

    def delivery_matrix(self) -> np.ndarray:
        """The delivery probabilities as a new N×N matrix (for analysis and tests)."""
        table = self.link_table()
        matrix = np.zeros((self.node_count, self.node_count))
        matrix[table.senders(), table.receivers] = table.delivery
        return matrix

    def derived(self, key: Hashable, derive: Callable[[], T]) -> T:
        """``derive()``, computed once per ``key`` while the links stay as they are.

        The one memo of what is derived from a mesh's link state alone:
        for the control plane the link table, the probe-free control view,
        the link-cost rows, the per-destination distance vectors and the
        forwarding plans; for the data plane the medium's carrier-sense
        rows and reception plans under a static channel, per
        ``ChannelConfig`` (:mod:`repro.sim.medium`).  Every flow, protocol
        and seed run over this view reads one copy.  A view's links never
        change (a :class:`Topology`'s matrix is read-only from
        construction), so nothing held here goes stale and nothing
        invalidates it.  Every caller gets the same object, so the arrays
        in it are made read-only and the medium's tables hold tuples; a
        function that hands out a list returns a fresh copy of it.  A value
        must not hold what uses it (a medium, a simulator): the view would
        keep that alive.
        """
        value = self._derived.get(key)
        if value is None:
            value = derive()
            _read_only(value)
            self._derived[key] = value
        return value

    def node_positions(self) -> list[tuple[float, ...]] | None:
        """Positions of all nodes, or ``None`` unless every node has one.

        The explicit all-nodes check (rather than the truthiness of node
        0's position) is what consumers that *must not* silently lose
        coordinates — estimation and the mobility layer —
        key off: a topology either carries a position for every node or
        none at all.
        """
        positions = [node.position for node in self.nodes]
        if any(position is None or len(position) == 0 for position in positions):
            return None
        return positions


def _link_table(matrix: np.ndarray) -> LinkTable:
    """The non-zero entries of ``matrix`` as a :class:`LinkTable`.

    One index array over the flattened matrix, then the table's two: no
    N×N temporary, and no per-link sender array.
    """
    count = matrix.shape[0]
    flat = np.flatnonzero(matrix)
    indptr = np.searchsorted(flat, np.arange(count + 1) * count)
    return LinkTable(indptr, flat % count, matrix.ravel()[flat])


class Topology(LinkView):
    """A wireless mesh described by per-link delivery probabilities.

    Immutable once built: the matrix is read-only from construction.
    """

    def __init__(self, delivery: np.ndarray, positions: list[tuple[float, ...]] | None = None,
                 names: list[str] | None = None) -> None:
        self._adopt(np.array(delivery, dtype=float, order="C"), positions, names)

    @classmethod
    def from_owned(cls, matrix: np.ndarray, positions: list[tuple[float, ...]] | None = None,
                   names: list[str] | None = None) -> "Topology":
        """Wrap a freshly-built delivery matrix without the defensive copy.

        The caller transfers ownership: ``matrix`` must be float64 and
        referenced by nothing that will read or write it afterwards.  Its
        diagonal is zeroed in place, then it is made read-only, so a later
        write to it raises.  Builders that have just allocated
        the matrix use this, so an N×N mesh exists once rather than twice;
        external callers should use the constructor, which copies.
        """
        assert matrix.dtype == np.float64
        topology = cls.__new__(cls)
        topology._adopt(matrix, positions, names)
        return topology

    def _adopt(self, matrix: np.ndarray, positions: list[tuple[float, ...]] | None,
               names: list[str] | None) -> None:
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("delivery matrix must be square")
        # min/max rather than an elementwise mask: no N×N temporaries, and
        # a NaN passes exactly as it passes the two comparisons.
        if matrix.size and (matrix.min() < 0 or matrix.max() > 1):
            raise ValueError("delivery probabilities must lie in [0, 1]")
        np.fill_diagonal(matrix, 0.0)
        matrix.flags.writeable = False
        self._delivery = matrix
        self._derived = {}
        count = matrix.shape[0]
        if positions is not None and len(positions) != count:
            raise ValueError("positions length must match node count")
        if names is not None and len(names) != count:
            raise ValueError("names length must match node count")
        self.nodes = [
            Node(
                node_id=i,
                name=names[i] if names else f"n{i}",
                position=tuple(positions[i]) if positions else (),
            )
            for i in range(count)
        ]

    def link_table(self) -> LinkTable:
        """The matrix's non-zero links, derived once per matrix."""
        return self.derived(("link_table",), lambda: _link_table(self._delivery))

    def delivery_matrix(self) -> np.ndarray:
        """Copy of the full delivery-probability matrix."""
        return self._delivery.copy()

    def delivery_view(self) -> np.ndarray:
        """The delivery-probability matrix itself, read-only (no copy).

        A mesh's links are fixed at construction: writing through the
        matrix raises.  Callers that want an edited mesh build one from
        :meth:`delivery_matrix`'s copy.  The data plane reads it; the
        control plane reads :meth:`link_table`.
        """
        return self._delivery

    def delivery(self, sender: int, receiver: int) -> float:
        """Delivery probability from ``sender`` to ``receiver``."""
        return float(self._delivery[sender, receiver])

    def __repr__(self) -> str:
        return f"Topology(nodes={self.node_count}, links={self.link_table().receivers.size})"
