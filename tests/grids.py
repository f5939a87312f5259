"""Test grids, built as a scenario builds them."""

import numpy as np
from hypothesis import strategies as st

from spikeants.world import EvaporationConfig, Grid, PatchKind


def grid_of(kinds, food=1, clear_threshold=EvaporationConfig.clear_threshold):
    """The grid of these (height, width) kinds, with no pheromone and
    `food` units on each food cell: a number for every food cell, or a
    (height, width) array read on the food cells only. `Grid.from_kinds`
    gives every food cell the most units asked for, and a cell that asks
    for fewer has the rest eaten through `consume_food`."""
    kinds = np.asarray(kinds)
    on_food = kinds == PatchKind.FOOD
    units = np.where(on_food, food, 0)
    quantity = int(units.max())
    g = Grid.from_kinds(kinds, quantity, clear_threshold)
    for y, x in np.argwhere(on_food):
        for _ in range(quantity - units[y, x]):
            g.consume_food(x, y)
    return g


def kinds_of(w, h):
    """A strategy for random (h, w) kinds."""
    return st.lists(st.sampled_from(list(PatchKind)), min_size=w * h,
                    max_size=w * h).map(lambda kinds: np.reshape(kinds, (h, w)))
