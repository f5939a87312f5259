"""Grid world: patches, food sources and the two evaporating pheromone fields."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
import numpy as np


class Color(Enum):
    """Stimulus colors as the ants perceive them."""
    BLACK = "black"
    WHITE = "white"
    RED = "red"
    GREEN = "green"


class PatchKind(IntEnum):
    EMPTY = 0
    WALL = 1
    HARM = 2
    FOOD = 3


_EMPTY = PatchKind.EMPTY.value


class PheromoneField(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


# Stimulus color a cell presents, mixing base kind and pheromones, as a
# table indexed [kind][negative >= eps][positive >= eps]. Walls are always
# white and food always green; on anything else a negative deposit masks
# the cell red, while a positive deposit presents empty ground as green so
# that the food-conditioned response extends to marked trails. The
# priority is wall, food, negative, harm, positive, black.
_COLOR_RULE = (
    ((Color.BLACK, Color.GREEN), (Color.RED, Color.RED)),      # EMPTY
    ((Color.WHITE, Color.WHITE), (Color.WHITE, Color.WHITE)),  # WALL
    ((Color.RED, Color.RED), (Color.RED, Color.RED)),          # HARM
    ((Color.GREEN, Color.GREEN), (Color.GREEN, Color.GREEN)),  # FOOD
)
COLORS = tuple(Color)
# The same rule as indices into COLORS: nested tuples for one cell, an
# array for the whole grid.
_COLOR_CODES = tuple(tuple(tuple(COLORS.index(c) for c in by_pos) for by_pos in by_neg)
                     for by_neg in _COLOR_RULE)
_COLOR_INDEX = np.array(_COLOR_CODES, dtype=np.uint8)


def check_deposit_amount(amount: float, name: str = "deposit amount"):
    """The range of one pheromone deposit, `name` naming it in the error."""
    if not 0 <= amount < math.inf:
        raise ValueError(f"{name} must be finite and non-negative")


def _check_clear_threshold(threshold: float):
    if not 0 < threshold < math.inf:
        raise ValueError("clear_threshold must be positive and finite")


@dataclass(frozen=True)
class EvaporationConfig:
    rho_positive: float = 0.03
    rho_negative: float = 0.002
    clear_threshold: float = 0.05

    def __post_init__(self):
        for name in ("rho_positive", "rho_negative"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        _check_clear_threshold(self.clear_threshold)


_NO_CELLS = np.empty(0, dtype=np.intp)


class _Marks:
    """The flat indices of one pheromone field's non-zero cells.

    `cells` holds the survivors of the last evaporation, each at or
    above the clear threshold; `pending` the cells a deposit has moved
    from 0.0 since, which may lie below it. Each non-zero cell is in
    exactly one of them, once, so every cell outside both is 0.0.
    """

    __slots__ = ("flat", "cells", "pending")

    def __init__(self, field: np.ndarray):
        self.flat = field.reshape(-1)  # a view: writes land in `field`
        self.cells = _NO_CELLS
        self.pending: list[int] = []

    def add(self, i: int, amount: float):
        old = self.flat.item(i)
        self.flat[i] = old + amount
        if old == 0.0 and amount:
            self.pending.append(i)

    def zero(self, i: int):
        if self.flat.item(i) != 0.0:
            self.flat[i] = 0.0
            if i in self.pending:
                self.pending.remove(i)
            else:
                self.cells = self.cells[self.cells != i]

    def decay(self, scale: float, eps: float):
        """The dense rule, `field *= scale` then `field *= field >= eps`,
        on the indexed cells only: 0.0 maps to 0.0 under both. The field
        is finite and non-negative, so scaling by the keep-mask clears
        exactly the faint cells."""
        cells = self.cells
        if self.pending:
            cells = np.concatenate((cells, self.pending))
            self.pending.clear()
        if cells.size:
            values = self.flat[cells] * scale
            keep = values >= eps
            values *= keep
            self.flat[cells] = values
            cells = cells[keep]
        self.cells = cells

    def count_empty(self, kind: np.ndarray, eps: float) -> int:
        """Indexed cells at or above `eps` whose kind is EMPTY."""
        # Survivors are at or above `eps`; only pending cells need the test.
        if self.pending:
            cells = np.concatenate((self.cells, self.pending))
            return int(np.count_nonzero((kind.take(cells) == _EMPTY)
                                        & (self.flat[cells] >= eps)))
        if not self.cells.size:
            return 0
        return int(np.count_nonzero(kind.take(self.cells) == _EMPTY))


class Grid:
    """Rectangular field of patches with vectorized pheromone dynamics.

    Cell addressing is (x, y) with x the column and y the row; storage is
    row-major numpy. One writer per grid within a tick; snapshots taken
    between ticks may be shared freely.

    The `positive` and `negative` arrays are read freely but written only
    through `deposit`, `set_kind` and `evaporate_step`. Each field keeps
    an index of its non-zero cells, so evaporation and the census visit
    only those; a value written into the arrays directly is not indexed,
    and neither decays nor is counted.
    """

    def __init__(self, width: int, height: int,
                 clear_threshold: float = EvaporationConfig.clear_threshold):
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        _check_clear_threshold(clear_threshold)
        self.width = width
        self.height = height
        self.clear_threshold = clear_threshold
        self.kind = np.full((height, width), int(PatchKind.EMPTY), dtype=np.uint8)
        self.food = np.zeros((height, width), dtype=np.int64)
        self.positive = np.zeros((height, width), dtype=np.float64)
        self.negative = np.zeros((height, width), dtype=np.float64)
        self._positive = _Marks(self.positive)
        self._negative = _Marks(self.negative)

    # -- cell access ---------------------------------------------------

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_boundary(self, x: int, y: int) -> bool:
        return x == 0 or y == 0 or x == self.width - 1 or y == self.height - 1

    def set_kind(self, x: int, y: int, kind: PatchKind, food_quantity: int = 0):
        self._check(x, y)
        if (kind is PatchKind.FOOD) != (food_quantity > 0):
            raise ValueError("food_quantity must be positive exactly for food patches")
        self.kind[y, x] = int(kind)
        self.food[y, x] = food_quantity
        if kind is PatchKind.WALL:
            i = y * self.width + x
            self._positive.zero(i)
            self._negative.zero(i)

    def effective_color_at(self, x: int, y: int) -> Color:
        """Stimulus color one cell presents, by the rule in `_COLOR_RULE`."""
        self._check(x, y)
        return COLORS[self.color_index(x, y)]

    def color_index(self, x: int, y: int) -> int:
        """`effective_color_at` as an index into `COLORS`, without the
        bounds check: (x, y) must lie on the grid, since a negative
        coordinate would wrap to the far edge."""
        eps = self.clear_threshold
        return _COLOR_CODES[self.kind.item(y, x)][self.negative.item(y, x) >= eps][
            self.positive.item(y, x) >= eps]

    def effective_colors(self) -> np.ndarray:
        """`_COLOR_RULE` applied to every cell at once.

        Returns a (height, width) array of indices into `COLORS`.
        """
        eps = self.clear_threshold
        # Boolean arrays used as indices would select, not index: view
        # them as 0/1 integers.
        return _COLOR_INDEX[self.kind, (self.negative >= eps).view(np.uint8),
                            (self.positive >= eps).view(np.uint8)]

    # -- pheromone dynamics ---------------------------------------------

    def deposit(self, x: int, y: int, fieldkind: PheromoneField, amount: float):
        """Add pheromone to one cell; deposits accumulate additively.

        Attempts on wall cells are ignored.
        """
        self._check(x, y)
        check_deposit_amount(amount)
        if self.kind.item(y, x) == PatchKind.WALL:
            return
        marks = self._positive if fieldkind is PheromoneField.POSITIVE else self._negative
        marks.add(y * self.width + x, amount)

    def evaporate_step(self, cfg: EvaporationConfig):
        """One tick of multiplicative decay at `cfg`'s rates; residues
        below the grid's own `clear_threshold` snap to zero."""
        self._positive.decay(1.0 - cfg.rho_positive, self.clear_threshold)
        self._negative.decay(1.0 - cfg.rho_negative, self.clear_threshold)

    # -- food ------------------------------------------------------------

    def consume_food(self, x: int, y: int) -> int:
        """Take one unit; a patch whose last unit is taken turns empty.

        Returns the remaining quantity; a non-food patch is a no-op
        returning 0.
        """
        self._check(x, y)
        if self.kind.item(y, x) != PatchKind.FOOD:
            return 0
        q = int(self.food[y, x]) - 1
        self.food[y, x] = q
        if q == 0:
            self.kind[y, x] = int(PatchKind.EMPTY)
        return q

    def total_food(self) -> int:
        return int(self.food.sum())

    # -- metrics helpers ---------------------------------------------------

    def marked_cell_counts(self) -> tuple[int, int]:
        """Empty-ground cells currently masked red by negative pheromone,
        and those presented green by positive pheromone."""
        eps = self.clear_threshold
        return (self._negative.count_empty(self.kind, eps),
                self._positive.count_empty(self.kind, eps))

    def empty_cell_count(self) -> int:
        return int((self.kind == PatchKind.EMPTY.value).sum())

    def _check(self, x: int, y: int):
        if not self.in_bounds(x, y):
            raise ValueError(f"cell ({x}, {y}) out of bounds")
