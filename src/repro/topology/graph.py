"""Wireless mesh topology model.

A :class:`Topology` captures everything the routing metrics, the theory of
Chapter 5 and the simulator need to know about the network:

* the set of nodes (with optional 2-D/3-D positions, used by the synthetic
  testbed generator and by the interference model);
* the matrix of marginal delivery probabilities ``p[i, j]`` — the probability
  that a single broadcast by ``i`` is successfully received by ``j`` — which
  is the quantity ETX probing measures (Section 3.1.1);
* derived loss probabilities ``eps[i, j] = 1 - p[i, j]`` used by the
  Chapter 3 credit algorithms.

The reception model follows the paper's assumption of *independent*
receptions across receivers (Section 3.2.1, Section 5.5), which the
simulator also honours unless an interference event intervenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Hashable, TypeVar

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


class Topology:
    """A wireless mesh described by per-link delivery probabilities."""

    def __init__(self, delivery: np.ndarray, positions: list[tuple[float, ...]] | None = None,
                 names: list[str] | None = None) -> None:
        self._adopt(np.array(delivery, dtype=float, order="C"), positions, names)

    @classmethod
    def from_owned(cls, matrix: np.ndarray, positions: list[tuple[float, ...]] | None = None,
                   names: list[str] | None = None) -> "Topology":
        """Wrap a freshly-built delivery matrix without the defensive copy.

        The caller transfers ownership: ``matrix`` must be float64 and
        referenced by nothing that will read or write it afterwards.  Its
        diagonal is zeroed in place.  Builders that have just allocated
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
        self._delivery = matrix
        self._view = matrix.view()
        self._view.flags.writeable = False
        self._derived: dict[Hashable, Any] = {}
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

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def node_count(self) -> int:
        """Number of nodes in the mesh."""
        return len(self.nodes)

    def delivery_matrix(self) -> np.ndarray:
        """Copy of the full delivery-probability matrix."""
        return self._delivery.copy()

    def delivery_view(self) -> np.ndarray:
        """The delivery-probability matrix itself, read-only (no copy).

        For readers that only look: the view tracks :meth:`set_delivery`,
        and writing through it raises.  Callers that want to edit the
        matrix take :meth:`delivery_matrix`'s copy instead.
        """
        return self._view

    def derived(self, key: Hashable, derive: Callable[[], T]) -> T:
        """``derive()``, computed once per ``key`` while the matrix stays as it is.

        The one memo of what is derived from a topology's link state
        alone: for the control plane the probe-free control view, the
        link-cost rows, the per-destination distance vectors and the
        forwarding plans; for the data plane the medium's carrier-sense
        rows and reception plans under a static channel, per
        ``ChannelConfig`` (:mod:`repro.sim.medium`).  Every flow, protocol
        and seed run over this topology reads one copy.
        :meth:`set_delivery` drops all of it.  Every caller gets the same
        object, so the arrays in it are made read-only and the medium's
        tables hold tuples; a function that hands out a list returns a
        fresh copy of it.  A value must not hold what uses it (a medium, a
        simulator): the topology would keep that alive.
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
        coordinates — estimation, subtopologies, the mobility layer —
        key off: a topology either carries a position for every node or
        none at all.
        """
        positions = [node.position for node in self.nodes]
        if any(position is None or len(position) == 0 for position in positions):
            return None
        return positions

    def delivery(self, sender: int, receiver: int) -> float:
        """Delivery probability from ``sender`` to ``receiver``."""
        return float(self._delivery[sender, receiver])

    def loss(self, sender: int, receiver: int) -> float:
        """Loss probability ``eps`` from ``sender`` to ``receiver``."""
        return 1.0 - float(self._delivery[sender, receiver])

    def loss_matrix(self) -> np.ndarray:
        """Matrix of loss probabilities (diagonal forced to 1)."""
        eps = 1.0 - self._delivery
        np.fill_diagonal(eps, 1.0)
        return eps

    def set_delivery(self, sender: int, receiver: int, probability: float,
                     symmetric: bool = False) -> None:
        """Set the delivery probability of a directed (or symmetric) link.

        The only writer of the matrix, and so the only thing that
        invalidates what :meth:`derived` holds.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("delivery probability must lie in [0, 1]")
        if sender == receiver:
            raise ValueError("self links are not allowed")
        self._delivery[sender, receiver] = probability
        if symmetric:
            self._delivery[receiver, sender] = probability
        self._derived.clear()

    def neighbors(self, node: int, threshold: float = 0.0) -> list[int]:
        """Nodes reachable from ``node`` with delivery probability > threshold."""
        reachable = self._delivery[node] > threshold
        reachable[node] = False
        return np.nonzero(reachable)[0].tolist()

    def links(self, threshold: float = 0.0) -> list[tuple[int, int, float]]:
        """All directed links with delivery probability above ``threshold``."""
        senders, receivers = np.nonzero(self._delivery > threshold)
        distinct = senders != receivers
        senders, receivers = senders[distinct], receivers[distinct]
        return list(zip(senders.tolist(), receivers.tolist(),
                        self._delivery[senders, receivers].tolist()))

    # ------------------------------------------------------------------ #
    # Derived statistics (used to calibrate the synthetic testbed)
    # ------------------------------------------------------------------ #

    def link_loss_rates(self, threshold: float = 0.05) -> np.ndarray:
        """Loss rates of all usable links (delivery above ``threshold``)."""
        rates = [1.0 - p for _, _, p in self.links(threshold)]
        return np.asarray(rates, dtype=float)

    def average_loss_rate(self, threshold: float = 0.05) -> float:
        """Mean loss rate over usable links (paper reports about 27%)."""
        rates = self.link_loss_rates(threshold)
        return float(rates.mean()) if rates.size else 0.0

    def connectivity_check(self, threshold: float = 0.05) -> bool:
        """True if the graph of usable links is strongly connected."""
        count = self.node_count
        usable = self._delivery > threshold
        reachable = np.zeros(count, dtype=bool)
        stack = [0]
        reachable[0] = True
        while stack:
            node = stack.pop()
            for nxt in np.nonzero(usable[node])[0]:
                if not reachable[nxt]:
                    reachable[nxt] = True
                    stack.append(int(nxt))
        if not reachable.all():
            return False
        # Reverse direction.
        reachable = np.zeros(count, dtype=bool)
        stack = [0]
        reachable[0] = True
        while stack:
            node = stack.pop()
            for nxt in np.nonzero(usable[:, node])[0]:
                if not reachable[nxt]:
                    reachable[nxt] = True
                    stack.append(int(nxt))
        return bool(reachable.all())

    # ------------------------------------------------------------------ #
    # Reception sampling (used by expectation-free tests)
    # ------------------------------------------------------------------ #

    def sample_receivers(self, sender: int, rng: np.random.Generator) -> list[int]:
        """Sample the set of nodes that receive one broadcast from ``sender``.

        Receptions are independent across receivers per the paper's model.
        """
        draws = rng.random(self.node_count)
        received = np.nonzero(draws < self._delivery[sender])[0]
        return [int(i) for i in received if i != sender]

    def subtopology(self, node_ids: list[int]) -> "Topology":
        """Restrict the topology to the given nodes (relabelled densely)."""
        index = np.asarray(node_ids, dtype=int)
        matrix = self._delivery[np.ix_(index, index)]
        all_positions = self.node_positions()
        positions = [all_positions[i] for i in node_ids] if all_positions else None
        names = [self.nodes[i].name for i in node_ids]
        return Topology.from_owned(matrix, positions=positions, names=names)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Topology(nodes={self.node_count}, links={len(self.links())})"
