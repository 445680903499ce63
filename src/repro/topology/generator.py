"""Topology generators.

The paper evaluates MORE on a 20-node, 3-floor indoor testbed whose link
loss rates range from 0 to 60% and average about 27%, with best paths of 1-5
hops (Section 4.1).  We cannot use that physical testbed, so
:func:`indoor_testbed` synthesises a statistically comparable one: nodes are
placed on three office floors and per-link delivery probabilities are derived
from a log-distance path-loss model with log-normal shadowing, then clipped
so the resulting loss statistics match the paper's.

The module also provides the small analytic topologies used throughout the
thesis: the two-hop relay of Figure 1-1, chain/diamond/grid topologies for
unit tests, uniformly random meshes, and the contrived ETX-vs-EOTX gap
topology of Figure 5-1.
"""

from __future__ import annotations

import numpy as np

from repro.params import bad_parameter
from repro.rng import normal_uniform_pairs
from repro.topology.graph import LinkTable, Topology

#: Reference distance (m) at which delivery is essentially perfect.
_REFERENCE_DISTANCE = 5.0
#: Path-loss exponent typical of indoor office environments.
_PATH_LOSS_EXPONENT = 3.3
#: Shadowing standard deviation in dB.
_SHADOWING_SIGMA_DB = 6.0
#: SNR margin (dB) mapped onto delivery probability via a logistic curve.
_SNR_AT_REFERENCE_DB = 26.0
_DELIVERY_LOGISTIC_SCALE = 6.0
#: Floor separation penalty in dB per floor crossed.
_FLOOR_PENALTY_DB = 15.0
#: Best achievable frame delivery probability.  Urban 802.11 deployments see
#: a residual frame loss even on short links (local WLAN interference, the
#: paper reports an average transmission success rate of only 66% on its
#: testbed), so no link is perfect.
_MAX_DELIVERY = 0.90
#: Upper bound of the per-link ambient-interference loss, applied
#: multiplicatively on top of the path-loss model.
_AMBIENT_LOSS_MAX = 0.15
#: Delivery probabilities below this are treated as "no link".
_MIN_DELIVERY = 0.05
#: Layouts :func:`random_mesh` draws before it gives up on connecting one.
_RANDOM_MESH_ATTEMPTS = 200


def path_loss_margin_db(distance):
    """SNR margin (dB) at ``distance`` under the log-distance model.

    Accepts scalars or arrays.  This is the one propagation formula shared
    by the static generators here and the position-based
    :class:`repro.topology.mobility.RandomWaypoint` model, which evaluates
    it (without shadowing) at every epoch's node coordinates.
    """
    ratio = np.maximum(distance, 0.1) / _REFERENCE_DISTANCE
    return _SNR_AT_REFERENCE_DB - 10.0 * _PATH_LOSS_EXPONENT * np.log10(ratio)


def margin_to_delivery(margin_db, ambient_factor=1.0):
    """Map an SNR margin to a frame delivery probability (scalar or array).

    Logistic curve, multiplied by any ambient-loss factor, capped at
    ``_MAX_DELIVERY``, with sub-``_MIN_DELIVERY`` links cut to zero — the
    shared tail end of the propagation model above.
    """
    probability = 1.0 / (1.0 + np.exp(-np.asarray(margin_db, dtype=float)
                                      / _DELIVERY_LOGISTIC_SCALE))
    probability = probability * ambient_factor
    probability = np.minimum(probability, _MAX_DELIVERY)
    return np.where(probability < _MIN_DELIVERY, 0.0, probability)


def _require(kind: str, holds: bool, problem: str) -> None:
    """Reject an out-of-range parameter of generator ``kind`` in one line."""
    if not holds:
        raise bad_parameter("topology", kind, problem)


def _require_extent(kind: str, name: str, extent: float) -> None:
    _require(kind, 0 < extent < np.inf,
             f"{name} must be positive and finite, got {extent}")


def _require_seed(kind: str, seed: int) -> None:
    _require(kind, seed >= 0, f"seed must not be negative, got {seed}")


def _row_delivery(distance: np.ndarray, floors_crossed: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Map one node's link distances (and floor separations) to delivery.

    Log-distance path loss with log-normal shadowing gives an SNR margin,
    which a logistic curve converts into a frame delivery probability; this
    produces the long tail of intermediate-quality links that Roofnet-style
    measurements (and the paper's testbed) report.

    Each link takes one shadowing and one ambient-loss draw, in link order —
    a seed's topology depends on that stream.  The row's draws are read in
    one call, :func:`repro.rng.normal_uniform_pairs`, which returns what a
    ``standard_normal()`` / ``random()`` pair of calls per link would and
    leaves the generator where they would; they are scaled over the row:
    ``0.0 + sigma * z`` and ``0.0 + a * u`` are what ``normal(0.0, sigma)``
    and ``uniform(0.0, a)`` compute, bit for bit.  The propagation math runs
    once over the row too.  Coincident nodes (``distance <= 0``) deliver
    perfectly and take no draws.
    """
    apart = distance > 0
    normals, uniforms = normal_uniform_pairs(rng, int(apart.sum()))
    shadowing_db = 0.0 + _SHADOWING_SIGMA_DB * normals
    ambient_loss = 0.0 + _AMBIENT_LOSS_MAX * uniforms
    margin_db = (path_loss_margin_db(distance[apart])
                 - _FLOOR_PENALTY_DB * floors_crossed[apart] + shadowing_db)
    delivery = np.ones(distance.shape)
    delivery[apart] = margin_to_delivery(margin_db,
                                         ambient_factor=1.0 - ambient_loss)
    return delivery


def _pairwise_links(positions: list[tuple[float, float, float]],
                    rng: np.random.Generator) -> LinkTable:
    """The symmetric links over ``positions`` (4 m between floors).

    Links are drawn pair by pair in ``(i, j > i)`` order and each row keeps
    its non-zero ones; the temporaries are one row long, and nothing is
    N×N.
    """
    coords = np.asarray(positions, dtype=float)
    x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
    count = len(positions)
    above: list[np.ndarray] = []
    delivery: list[np.ndarray] = []
    for i in range(count - 1):
        rest = slice(i + 1, count)
        distance = np.hypot(x[i] - x[rest], y[i] - y[rest])
        floors_crossed = np.rint(np.abs(z[i] - z[rest]) / 4.0)
        row = _row_delivery(distance, floors_crossed, rng)
        linked = np.flatnonzero(row)
        above.append(linked + (i + 1))
        delivery.append(row[linked])
    indptr = np.zeros(count + 1, dtype=np.intp)
    # The last node has no higher one to link to.
    np.cumsum([row.size for row in above] + [0], out=indptr[1:])
    upper = LinkTable(indptr, np.concatenate(above), np.concatenate(delivery))
    del above, delivery  # freed before the table is mirrored, which doubles it
    return _symmetric_table(upper)


def _symmetric_table(upper: LinkTable) -> LinkTable:
    """Both directions of the links of ``upper``, whose rows list only higher nodes.

    Row ``s`` of the result lists its links to lower nodes (mirrored from
    the rows above it, in their order) and then those to higher ones, so
    receivers ascend.  Each row is filled in place: the temporaries are
    one index over the links and one row.
    """
    count = upper.indptr.size - 1
    below = np.bincount(upper.receivers, minlength=count)
    indptr = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.diff(upper.indptr) + below, out=indptr[1:])
    receivers = np.empty(indptr[-1], dtype=np.intp)
    delivery = np.empty(indptr[-1])
    mirrored = np.argsort(upper.receivers, kind="stable")
    mirrored_at = np.concatenate(([0], np.cumsum(below))).tolist()
    starts, upper_at = indptr.tolist(), upper.indptr.tolist()
    for node, start in enumerate(starts[:-1]):
        middle = start + mirrored_at[node + 1] - mirrored_at[node]
        links = mirrored[mirrored_at[node]:mirrored_at[node + 1]]
        receivers[start:middle] = upper.sender_of(links)
        delivery[start:middle] = upper.delivery[links]
        own = slice(upper_at[node], upper_at[node + 1])
        receivers[middle:starts[node + 1]] = upper.receivers[own]
        delivery[middle:starts[node + 1]] = upper.delivery[own]
    return LinkTable(indptr, receivers, delivery)


def indoor_testbed(node_count: int = 20, floors: int = 3, floor_width: float = 90.0,
                   floor_depth: float = 40.0, seed: int = 7) -> Topology:
    """Generate a synthetic multi-floor indoor testbed.

    Args:
        node_count: number of mesh routers (paper: 20).
        floors: number of building floors (paper: 3).
        floor_width: floor extent along x in metres.
        floor_depth: floor extent along y in metres.
        seed: RNG seed; the default produces a connected topology whose link
            loss statistics match the paper (losses 0-60%, mean about 27%).

    Returns:
        A connected :class:`Topology` with symmetric links and 3-D positions.
    """
    _require("indoor_testbed", node_count >= 2,
             f"node_count must be at least 2, got {node_count}")
    _require("indoor_testbed", floors >= 1, f"floors must be at least 1, got {floors}")
    for name, extent in (("floor_width", floor_width), ("floor_depth", floor_depth)):
        _require_extent("indoor_testbed", name, extent)
    _require_seed("indoor_testbed", seed)
    rng = np.random.default_rng(seed)
    per_floor = int(np.ceil(node_count / floors))
    # One call draws every node's x then y, the words per-node scalar draws read.
    xy = rng.uniform(0.0, (floor_width, floor_depth), size=(node_count, 2)).tolist()
    positions = [(x, y, index // per_floor * 4.0) for index, (x, y) in enumerate(xy)]

    links = _ensure_connected(_pairwise_links(positions, rng), positions, rng)
    return Topology.from_links(links, positions=positions)


def _strong_component(links: LinkTable, floor: float) -> np.ndarray:
    """The nodes that node 0 reaches and that reach node 0 over links delivering
    more than ``floor``.

    The component is every node exactly when the mesh is strongly
    connected, so a one-way link joins nothing.  One frontier walk along
    the links and one against them, a step being one pass over the usable
    links: O(links) per step, nothing N×N.
    """
    count = links.indptr.size - 1
    usable = links.delivery > floor
    senders, receivers = links.senders(), links.receivers
    component = np.ones(count, dtype=bool)
    for tails, heads in ((senders, receivers), (receivers, senders)):
        reached = np.zeros(count, dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():
            step = np.zeros(count, dtype=bool)
            step[heads[frontier[tails] & usable]] = True
            frontier = step & ~reached
            reached |= frontier
        component &= reached
    return component


def _ensure_connected(links: LinkTable, positions: list[tuple[float, float, float]],
                      rng: np.random.Generator) -> LinkTable:
    """``links``, with minimum-quality links patched in until it is connected.

    Real deployments are connected by construction (operators add relays);
    the synthetic generator occasionally isolates a node, so we join the
    node outside node 0's component that is geometrically nearest to it
    with a mid-quality symmetric link, rather than re-rolling the layout.
    The links are patched before they become a :class:`Topology`.
    """
    coords = np.asarray(positions, dtype=float)
    inside = _strong_component(links, _MIN_DELIVERY)
    while not inside.all():
        near, far = coords[inside], coords[~inside]
        distance = (np.hypot(far[:, None, 0] - near[:, 0], far[:, None, 1] - near[:, 1])
                    + np.abs(far[:, None, 2] - near[:, 2]))
        row, column = np.unravel_index(np.argmin(distance), distance.shape)
        i, j = np.flatnonzero(~inside)[row], np.flatnonzero(inside)[column]
        links = _with_link(links, min(i, j), max(i, j),
                           rng.uniform(0.4, min(0.7, _MAX_DELIVERY)))
        inside = _strong_component(links, _MIN_DELIVERY)
    return links


def _with_link(links: LinkTable, low: int, high: int, quality: float) -> LinkTable:
    """Symmetric ``links`` with the link between ``low < high`` set to ``quality``."""
    count = links.indptr.size - 1
    senders = links.senders()
    above = senders < links.receivers
    first, second, delivery = senders[above], links.receivers[above], links.delivery[above]
    keys = first * count + second
    at = int(np.searchsorted(keys, low * count + high))
    if at < keys.size and keys[at] == low * count + high:
        delivery[at] = quality
    else:
        first = np.insert(first, at, low)
        second = np.insert(second, at, high)
        delivery = np.insert(delivery, at, quality)
    return _upper_links(count, first, second, delivery)


def _upper_links(count: int, first: np.ndarray, second: np.ndarray,
                 delivery: np.ndarray) -> LinkTable:
    """The symmetric table of the links ``first[k] < second[k]``, listed in
    ``(first, second)`` order."""
    indptr = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.bincount(first, minlength=count), out=indptr[1:])
    return _symmetric_table(LinkTable(indptr, second, delivery))


def random_geometric(node_count: int = 16, area: float = 120.0, seed: int = 0) -> Topology:
    """A random geometric mesh: nodes uniform in an ``area`` × ``area`` square.

    Link qualities come from the same log-distance/shadowing model as
    :func:`indoor_testbed` (single floor), so the loss-rate distribution is
    Roofnet-like rather than uniform; the layout is patched to be connected.
    This is the outdoor-style counterpart of the indoor testbed and the
    topology family used by relay-count/rate studies of MORE.
    """
    _require("random_geometric", node_count >= 2,
             f"node_count must be at least 2, got {node_count}")
    _require_extent("random_geometric", "area", area)
    _require_seed("random_geometric", seed)
    rng = np.random.default_rng(seed)
    positions = [(x, y, 0.0) for x, y in
                 rng.uniform(0.0, area, size=(node_count, 2)).tolist()]
    links = _ensure_connected(_pairwise_links(positions, rng), positions, rng)
    return Topology.from_links(links, positions=positions)


def two_hop_relay(source_to_relay: float = 1.0, relay_to_destination: float = 1.0,
                  source_to_destination: float = 0.49) -> Topology:
    """The motivating example of Figure 1-1 (src, relay R, dst).

    Node ids: 0 = source, 1 = relay, 2 = destination.  Default probabilities
    reproduce the ETX comparison in Section 2.1.1 (direct-path ETX 1/0.49).
    """
    delivery = np.zeros((3, 3))
    delivery[0, 1] = delivery[1, 0] = source_to_relay
    delivery[1, 2] = delivery[2, 1] = relay_to_destination
    delivery[0, 2] = delivery[2, 0] = source_to_destination
    return Topology(delivery, names=["src", "R", "dst"])


def chain(hops: int, link_delivery: float = 0.8, skip_delivery: float = 0.0) -> Topology:
    """A linear chain of ``hops`` links (hops+1 nodes).

    Node 0 is the source end, node ``hops`` the destination end.  If
    ``skip_delivery`` is non-zero every two-hop-apart pair also gets a direct
    (weaker) link, modelling the "skipping hops" scenario of Figure 2-1(a).
    """
    if hops < 1:
        raise ValueError("a chain needs at least one hop")
    _require("chain", skip_delivery >= 0,
             f"skip_delivery must not be negative, got {skip_delivery}")
    count = hops + 1
    delivery = np.zeros((count, count))
    for i in range(hops):
        delivery[i, i + 1] = delivery[i + 1, i] = link_delivery
    if skip_delivery > 0:
        for i in range(count - 2):
            delivery[i, i + 2] = delivery[i + 2, i] = skip_delivery
    return Topology(delivery)


def diamond(source_to_relays: float = 0.5, relays_to_destination: float = 0.5,
            relay_count: int = 2, direct: float = 0.0) -> Topology:
    """Source -> {relays} -> destination, the multi-forwarder scenario of Fig 2-1(b).

    Node 0 is the source, nodes 1..relay_count are relays, the last node is
    the destination.
    """
    if relay_count < 1:
        raise ValueError("need at least one relay")
    count = relay_count + 2
    destination = count - 1
    delivery = np.zeros((count, count))
    for relay in range(1, relay_count + 1):
        delivery[0, relay] = delivery[relay, 0] = source_to_relays
        delivery[relay, destination] = delivery[destination, relay] = relays_to_destination
    if direct > 0:
        delivery[0, destination] = delivery[destination, 0] = direct
    return Topology(delivery)


def grid(rows: int, cols: int, link_delivery: float = 0.7,
         diagonal_delivery: float = 0.3) -> Topology:
    """A rows x cols grid mesh with optional diagonal links."""
    for name, size in (("rows", rows), ("cols", cols)):
        _require("grid", size >= 1, f"{name} must be at least 1, got {size}")
    count = rows * cols
    delivery = np.zeros((count, count))
    positions = []
    spacing = 10.0
    for r in range(rows):
        for c in range(cols):
            positions.append((c * spacing, r * spacing, 0.0))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                right = node + 1
                delivery[node, right] = delivery[right, node] = link_delivery
            if r + 1 < rows:
                down = node + cols
                delivery[node, down] = delivery[down, node] = link_delivery
            if diagonal_delivery > 0 and c + 1 < cols and r + 1 < rows:
                diag = node + cols + 1
                delivery[node, diag] = delivery[diag, node] = diagonal_delivery
            if diagonal_delivery > 0 and c > 0 and r + 1 < rows:
                diag = node + cols - 1
                delivery[node, diag] = delivery[diag, node] = diagonal_delivery
    return Topology(delivery, positions=positions)


def random_mesh(node_count: int, density: float = 0.4, seed: int = 0,
                min_delivery: float = 0.1, max_delivery: float = 1.0) -> Topology:
    """A random symmetric mesh; each pair is linked with probability ``density``.

    Link qualities are uniform in [min_delivery, max_delivery].  The result
    is re-rolled until connected (bounded number of attempts).
    """
    _require("random_mesh", node_count >= 2,
             f"node_count must be at least 2, got {node_count}")
    _require("random_mesh", 0 < density <= 1, f"density must lie in (0, 1], got {density}")
    _require("random_mesh", 0 <= min_delivery <= max_delivery <= 1,
             "need 0 <= min_delivery <= max_delivery <= 1, got "
             f"{min_delivery} and {max_delivery}")
    _require_seed("random_mesh", seed)
    rng = np.random.default_rng(seed)
    for _ in range(_RANDOM_MESH_ATTEMPTS):
        first, second, delivery = [], [], []
        for i in range(node_count):
            for j in range(i + 1, node_count):
                if rng.random() < density:
                    quality = rng.uniform(min_delivery, max_delivery)
                    if quality > 0:
                        first.append(i)
                        second.append(j)
                        delivery.append(quality)
        links = _upper_links(node_count, np.array(first, dtype=np.intp),
                             np.array(second, dtype=np.intp), np.array(delivery))
        if _strong_component(links, min_delivery / 2).all():
            return Topology.from_links(links)
    raise bad_parameter("topology", "random_mesh",
                        f"no connected mesh in {_RANDOM_MESH_ATTEMPTS} attempts at "
                        f"density {density}; raise density")


def cost_gap_topology(bridge_delivery: float = 0.1, branch_count: int = 8) -> Topology:
    """The Figure 5-1 topology proving the ETX-vs-EOTX gap is unbounded.

    Layout (node ids):

    * 0 — source
    * 1 — node A (perfect link to destination, lossy link from source)
    * 2 — node B (perfect link from source, lossy links to the C branch)
    * 3 .. 2+branch_count — nodes C_1..C_k (perfect links to destination)
    * last — destination

    The source reaches A with probability ``p`` (the ``bridge_delivery``
    parameter) and B with probability 1.  B reaches each C_i with
    probability ``p``; each C_i reaches the destination with probability 1;
    A reaches the destination with probability 1.  ETX ranks B as far from
    the destination as the source (ETX = 1/p + 1), so ETX-ordered forwarding
    can only use A, costing 1/p + 1 transmissions, while EOTX-ordered
    forwarding goes through B at a cost of 1/(1-(1-p)^k) + 2.
    """
    if not 0 < bridge_delivery < 1:
        raise ValueError("bridge_delivery must lie strictly between 0 and 1")
    if branch_count < 1:
        raise ValueError("need at least one branch node")
    count = 3 + branch_count + 1
    destination = count - 1
    source, node_a, node_b = 0, 1, 2
    delivery = np.zeros((count, count))
    delivery[source, node_a] = delivery[node_a, source] = bridge_delivery
    delivery[source, node_b] = delivery[node_b, source] = 1.0
    delivery[node_a, destination] = delivery[destination, node_a] = 1.0
    for branch in range(branch_count):
        node_c = 3 + branch
        delivery[node_b, node_c] = delivery[node_c, node_b] = bridge_delivery
        delivery[node_c, destination] = delivery[destination, node_c] = 1.0
    names = ["src", "A", "B"] + [f"C{i + 1}" for i in range(branch_count)] + ["dst"]
    return Topology(delivery, names=names)
