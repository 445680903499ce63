"""Differential tests: the per-link dynamic models vs their dense forms.

Gilbert-Elliott runs one chain per link of its nominal table, and every
mobility epoch is a link table.  The dense forms they replaced are kept
here, verbatim in what they compute: a Gilbert-Elliott chain per directed
pair over an N×N base, churn chains per unordered pair over the N×N
nominal matrix, and a waypoint epoch as the N×N matrix of the propagation
formula at the epoch's positions.  Every answer must be bit-identical: a
channel row on every link over a time grid, bound alone and re-bound to
each of a sequence of churn and waypoint epochs (links appear, vanish and
reappear), and every epoch's link table equal, field by field, to
:func:`~repro.topology.graph.link_table_of` of the dense epoch.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.rng import counter_uniform
from repro.sim.channels import _CHANNEL_STREAM, GilbertElliott
from repro.topology.generator import (
    indoor_testbed,
    margin_to_delivery,
    path_loss_margin_db,
    random_geometric,
)
from repro.topology.graph import LinkTable, Topology, link_table_of
from repro.topology.mobility import _MOBILITY_STREAM, MarkovLinkChurn, RandomWaypoint

GE_PARAMS = {"seed": 7, "bad_scale": 0.3, "mean_good_time": 0.03, "mean_bad_time": 0.01}


class DenseGilbertElliott:
    """The dense Gilbert-Elliott model: a chain per directed pair, linked or not."""

    def __init__(self, seed: int, bad_scale: float, mean_good_time: float,
                 mean_bad_time: float) -> None:
        self.seed, self.bad_scale = seed, bad_scale
        self.mean_good_time, self.mean_bad_time = mean_good_time, mean_bad_time

    def _uniform(self, links, draws):
        return counter_uniform(self.seed, _CHANNEL_STREAM, links, draws) + 2.0 ** -54

    def bind(self, topology: Topology) -> None:
        self._base = topology.delivery_matrix()
        count = self._base.shape[0]
        grid_i, grid_j = np.meshgrid(np.arange(count), np.arange(count), indexing="ij")
        self._link_ids = (grid_i * count + grid_j).astype(np.uint64)
        self._draws = np.zeros((count, count), dtype=np.uint64)
        p_good = self.mean_good_time / (self.mean_good_time + self.mean_bad_time)
        self._good = self._uniform(self._link_ids, self._draws) < p_good
        self._draws += 1
        holding = np.where(self._good, self.mean_good_time, self.mean_bad_time)
        self._next_flip = -holding * np.log(self._uniform(self._link_ids, self._draws))
        self._draws += 1

    def rebase(self, delivery: np.ndarray) -> None:
        """New nominal deliveries; every chain keeps running."""
        self._base = delivery

    def delivery_row(self, sender: int, start: float) -> np.ndarray:
        state, flips = self._good[sender], self._next_flip[sender]
        draws, links = self._draws[sender], self._link_ids[sender]
        lagging = np.nonzero(flips <= start)[0]
        while lagging.size:
            state[lagging] = ~state[lagging]
            holding = np.where(state[lagging], self.mean_good_time, self.mean_bad_time)
            flips[lagging] += -holding * np.log(self._uniform(links[lagging], draws[lagging]))
            draws[lagging] += 1
            lagging = lagging[flips[lagging] <= start]
        scale = np.where(self._good[sender], 1.0, self.bad_scale)
        return np.clip(self._base[sender] * scale, 0.0, 1.0)


def dense_churn(model: MarkovLinkChurn, nominal: np.ndarray, epoch: int) -> np.ndarray:
    """The churn epoch as the N×N nominal matrix scaled by per-pair chains."""
    count = nominal.shape[0]
    grid_i, grid_j = np.meshgrid(np.arange(count), np.arange(count), indexing="ij")
    ids = (np.minimum(grid_i, grid_j) * count + np.maximum(grid_i, grid_j)).astype(np.uint64)
    p_up = model.mean_up_time / (model.mean_up_time + model.mean_down_time)
    p_drop = 1.0 - float(np.exp(-model.epoch_length / model.mean_up_time))
    p_recover = 1.0 - float(np.exp(-model.epoch_length / model.mean_down_time))
    up = counter_uniform(model.seed, _MOBILITY_STREAM, ids, 0) < p_up
    for step in range(1, epoch + 1):
        draw = counter_uniform(model.seed, _MOBILITY_STREAM, ids, step)
        up = up ^ np.where(up, draw < p_drop, draw < p_recover)
    return nominal * np.where(up, 1.0, model.down_scale)


def dense_waypoint(model: RandomWaypoint, epoch: int) -> np.ndarray:
    """The waypoint epoch as the N×N matrix of the propagation formula."""
    coords = np.array(model.topology_at(epoch).node_positions())
    deltas = coords[:, None, :] - coords[None, :, :]
    delivery = margin_to_delivery(path_loss_margin_db(np.sqrt((deltas ** 2).sum(axis=2))))
    np.fill_diagonal(delivery, 0.0)
    return delivery


MESH = random_geometric(node_count=14, area=90.0, seed=3)

#: kind -> a fresh per-link model, bound to ``MESH`` by each test.  Churn
#: takes its default ``down_scale`` of 0, so a down link leaves the epoch.
EPOCHS = {
    "link_churn": lambda: MarkovLinkChurn(seed=5, epoch_length=0.05, mean_up_time=0.5,
                                          mean_down_time=0.1),
    # Nodes leave the 90 m layout for a 200 m arena: links thin out, break
    # and form again.
    "random_waypoint": lambda: RandomWaypoint(seed=5, epoch_length=0.05, speed_min=200.0,
                                              speed_max=400.0, area=200.0),
}
EPOCH_COUNT = 24


def _dense_epoch(model, epoch: int) -> np.ndarray:
    """``model``'s epoch as the dense form computed it."""
    if isinstance(model, MarkovLinkChurn):
        return dense_churn(model, MESH.delivery_matrix(), epoch)
    return dense_waypoint(model, epoch)


def _ids(table: LinkTable) -> set[int]:
    count = table.indptr.size - 1
    return set((table.senders() * count + table.receivers).tolist())


@pytest.mark.parametrize("mesh", [MESH, indoor_testbed(node_count=20, floors=3, seed=7)],
                         ids=["random_geometric_14", "indoor_testbed_20"])
def test_bursty_links_equal_the_dense_chains(mesh):
    """Bound alone: every sender's row, on every link, at every time — and
    after a long silence, hundreds of flips later."""
    model, dense = GilbertElliott(**GE_PARAMS), DenseGilbertElliott(**GE_PARAMS)
    model.bind(mesh)
    dense.bind(mesh)
    table = mesh.link_table()
    for time in np.linspace(0.0, 0.6, 61).tolist() + [30.0]:
        for sender in range(mesh.node_count):
            links = table.receivers[table.indptr[sender]:table.indptr[sender + 1]]
            row = dense.delivery_row(sender, time)
            assert np.array_equal(model.delivery_row(sender, time, time + 0.002), row[links])
            assert not np.delete(row, links).any()


@pytest.mark.parametrize("kind", sorted(EPOCHS))
def test_epoch_tables_are_the_dense_epochs(kind):
    """Each epoch lists exactly the links of the dense epoch, field by field."""
    model = EPOCHS[kind]()
    model.bind(MESH)
    for epoch in list(range(EPOCH_COUNT)) + [7, 3, 11]:
        table = model.topology_at(epoch).link_table()
        expected = link_table_of(_dense_epoch(model, epoch))
        for field, got, want in zip(LinkTable._fields, table, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want), (epoch, field)


@pytest.mark.parametrize("kind", sorted(EPOCHS))
def test_bursty_links_across_epochs(kind):
    """Bound to each epoch in turn, the per-link chains answer as the dense ones,
    and a link kept from one epoch to the next keeps its chain."""
    mobility = EPOCHS[kind]()
    mobility.bind(MESH)
    model, dense = GilbertElliott(**GE_PARAMS), DenseGilbertElliott(**GE_PARAMS)
    drawn: Counter = Counter()
    uniform = model._uniform

    def recording(links, draws):
        pairs = np.broadcast_arrays(np.asarray(links, np.uint64), np.asarray(draws, np.uint64))
        drawn.update(zip(*(side.ravel().tolist() for side in pairs)))
        return uniform(links, draws)

    model._uniform = recording
    model.bind(MESH)
    dense.bind(MESH)
    present = [_ids(MESH.link_table())]
    for epoch in range(EPOCH_COUNT):
        view = mobility.topology_at(epoch)
        table = view.link_table()
        model.bind(view)
        dense.rebase(_dense_epoch(mobility, epoch))
        present.append(_ids(table))
        for time in (epoch * 0.05 + offset for offset in (0.0, 0.013, 0.031, 0.049)):
            for sender in range(MESH.node_count):
                links = table.receivers[table.indptr[sender]:table.indptr[sender + 1]]
                assert np.array_equal(model.delivery_row(sender, time, time + 0.002),
                                      dense.delivery_row(sender, time)[links]), (epoch, sender)
    # The sequence exercises what a re-bind must survive: links that vanish
    # and come back, and links that stay throughout.
    def returns(link: int) -> bool:
        epochs = [at for at, links in enumerate(present) if link in links]
        return epochs[-1] - epochs[0] >= len(epochs)

    returning = {link for link in set().union(*present) if returns(link)}
    kept = set.intersection(*present[1:])
    assert returning and kept
    # Draw 0 starts a chain: a kept link is started once.
    assert [drawn[link, 0] for link in sorted(kept)] == [1] * len(kept)
