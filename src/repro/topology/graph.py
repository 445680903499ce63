"""Wireless mesh topology model.

A :class:`Topology` captures everything the routing metrics, the theory of
Chapter 5 and the simulator need to know about the network:

* the set of nodes (with optional 2-D/3-D positions, used by the synthetic
  testbed generator and by the interference model);
* the marginal delivery probability ``p[i, j]`` of every directed link —
  the probability that a single broadcast by ``i`` is successfully received
  by ``j`` — which is the quantity ETX probing measures (Section 3.1.1).  A
  pair without a link delivers nothing.  The links are fixed when the mesh
  is built and read-only from then on; an edited mesh is a new
  :class:`Topology`.

Memory layout: a mesh is its links, O(links) and never N×N.  One
:class:`LinkTable` holds them CSR by sender (row ``s``: the receivers of
``s``'s links in ascending order, and their delivery probabilities), and
one :class:`InLinks` index, derived on first use, holds them CSR by
receiver.  A :class:`LinkView` is a mesh as the routing control plane sees
it — its nodes and one link table — and a :class:`Topology` is the ground
truth the data plane reads, built by the generators straight from their
links or from a hand-built dense matrix.  The probe-estimated control view
(:mod:`repro.topology.estimation`) and the dead-node mask are plain
link views.  Dynamic link state is a mesh too: a mobility epoch is a
:class:`Topology` (:meth:`repro.topology.mobility.MobilityModel.topology_at`),
the one view of it the medium resolves frames against, a channel model
is bound to and the refresh loop probes.
:meth:`LinkView.delivery_matrix` builds the dense form on request, for the
LP, the EOTX oracles, analysis and tests; no run path holds one.

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
    with delivery 0 (a sampled estimate whose probes all got lost; a
    :class:`Topology` lists only links that deliver).

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

    def sender_of(self, links: np.ndarray) -> np.ndarray:
        """Sending node of the links at positions ``links`` of the table."""
        return np.searchsorted(self.indptr, links, side="right") - 1

    def row(self, sender: int) -> np.ndarray:
        """Delivery from ``sender`` to every node, 0 off its links (a new array)."""
        row = np.zeros(self.indptr.size - 1)
        start, stop = self.indptr[sender], self.indptr[sender + 1]
        row[self.receivers[start:stop]] = self.delivery[start:stop]
        return row


class LinkView:
    """A mesh as the routing control plane reads it: nodes and a link table.

    Read-only, and O(links): what ETX, EOTX, forwarding plans and best
    paths are computed from (:mod:`repro.metrics`).  The probe-estimated
    control view and the dead-node mask are plain views; a
    :class:`Topology` is the ground-truth view.
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
        rows and reception plans over these links (:mod:`repro.sim.medium`,
        whose reception constants are fixed, so one pair serves every run);
        for both the receiver-major index (:meth:`incoming`).  Every flow,
        protocol and seed run over this view reads one copy.  A view's
        links never change (its link table is read-only from construction),
        so nothing held here goes stale and nothing invalidates it.  Every
        caller gets the same object, so the arrays in it are made read-only
        and the medium's tables hold tuples; a function that hands out a
        list returns a fresh copy of it.  A value must not hold what uses it
        (a medium, a simulator): the view would keep that alive.
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

    def incoming(self) -> "InLinks":
        """The links into each node, CSR by receiver (derived once, read-only).

        The one receiver-major index: the control plane's link rows
        (:func:`repro.metrics.etx.link_rows`) and the medium's
        carrier-sense rule (:func:`repro.sim.medium.sense_row`) both read
        it.  It depends on which links exist, not on what they deliver, so
        a view over the same links (the probe-estimated control view)
        shares it.
        """
        def derive() -> InLinks:
            table = self.link_table()
            indptr = np.zeros(self.node_count + 1, dtype=np.intp)
            np.cumsum(np.bincount(table.receivers, minlength=self.node_count),
                      out=indptr[1:])
            return InLinks(indptr, np.argsort(table.receivers, kind="stable"))

        return self.derived(("incoming",), derive)


class InLinks(NamedTuple):
    """The directed links of a mesh grouped by receiver: CSR by receiver.

    Row ``r`` — the links *into* ``r`` — is the slice
    ``indptr[r]:indptr[r + 1]`` of ``links``, the positions of those links
    in the mesh's :class:`LinkTable` in ascending order (so their senders
    ascend too).  What a link delivers is read from the table, so the
    index holds one integer per link.

    Attributes:
        indptr: row boundaries, ``node_count + 1`` entries.
        links: position of each link in the link table.
    """

    indptr: np.ndarray
    links: np.ndarray


def link_table_of(matrix: np.ndarray) -> LinkTable:
    """The non-zero off-diagonal entries of a square ``matrix`` as a :class:`LinkTable`.

    One index array over the flattened matrix, then the table's two: no
    N×N temporary, and no per-link sender array.  The diagonal is left
    out: a node does not link to itself.
    """
    count = matrix.shape[0]
    flat = np.flatnonzero(matrix)
    flat = flat[flat % (count + 1) != 0]
    indptr = np.searchsorted(flat, np.arange(count + 1) * count)
    return LinkTable(indptr, flat % count, matrix.ravel()[flat])


class Topology(LinkView):
    """A wireless mesh described by per-link delivery probabilities.

    It holds its links and nothing N×N: the ground truth the data plane
    reads.  Immutable once built: the link table is read-only from
    construction.  ``Topology(matrix)`` converts a hand-built dense matrix
    (its diagonal ignored); generators hand over a table
    (:meth:`from_links`).
    """

    def __init__(self, delivery: np.ndarray, positions: list[tuple[float, ...]] | None = None,
                 names: list[str] | None = None) -> None:
        matrix = np.asarray(delivery, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("delivery matrix must be square")
        self._adopt_links(link_table_of(matrix), positions, names)

    @classmethod
    def from_links(cls, table: LinkTable, positions: list[tuple[float, ...]] | None = None,
                   names: list[str] | None = None) -> "Topology":
        """A mesh over a link table, without a copy.

        The caller hands over a table no one writes again (a generator's,
        a mobility epoch's): its arrays are made read-only.  Row ``s`` must
        list ``s``'s receivers in ascending order, without ``s`` itself.
        """
        topology = cls.__new__(cls)
        topology._adopt_links(table, positions, names)
        return topology

    def _adopt_links(self, table: LinkTable, positions: list[tuple[float, ...]] | None,
                     names: list[str] | None) -> None:
        # min/max rather than an elementwise mask: a NaN passes exactly as
        # it passes the two comparisons.
        delivery = table.delivery
        if delivery.size and (delivery.min() < 0 or delivery.max() > 1):
            raise ValueError("delivery probabilities must lie in [0, 1]")
        count = table.indptr.size - 1
        if positions is not None and len(positions) != count:
            raise ValueError("positions length must match node count")
        if names is not None and len(names) != count:
            raise ValueError("names length must match node count")
        nodes = [
            Node(
                node_id=i,
                name=names[i] if names else f"n{i}",
                position=tuple(positions[i]) if positions else (),
            )
            for i in range(count)
        ]
        super().__init__(nodes, table)

    def __repr__(self) -> str:
        return f"Topology(nodes={self.node_count}, links={self.link_table().receivers.size})"
