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
_WALL = PatchKind.WALL.value
_HARM = PatchKind.HARM.value
_FOOD = PatchKind.FOOD.value


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
# A cell's sense byte packs its kind and the two marks `_COLOR_RULE`
# reads, as `kind << 2 | (negative >= eps) << 1 | (positive >= eps)`;
# SENSES[b] unpacks byte b as (kind, color), and `_COLOR_OF_SENSE` maps
# it to the color's index in COLORS as a `bytes.translate` table.
SENSES = tuple((kind, color) for kind, by_neg in zip(PatchKind, _COLOR_RULE)
               for by_pos in by_neg for color in by_pos)
_COLOR_OF_SENSE = bytes(COLORS.index(color) for _, color in SENSES).ljust(256, b"\0")


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

    def decay(self, scale: float, eps: float) -> list[int]:
        """The dense rule, `field *= scale` then `field *= field >= eps`,
        on the indexed cells only: 0.0 maps to 0.0 under both. The field
        is finite and non-negative, so scaling by the keep-mask clears
        exactly the faint cells. Returns the cells it cleared."""
        cells = self.cells
        cleared = []
        if self.pending:
            cells = np.concatenate((cells, self.pending))
            self.pending.clear()
        if cells.size:
            values = self.flat[cells] * scale
            keep = values >= eps
            values *= keep
            self.flat[cells] = values
            kept = cells[keep]
            if kept.size < cells.size:
                cleared = cells[~keep].tolist()
            cells = kept
        self.cells = cells
        return cleared


class Grid:
    """Rectangular field of patches with vectorized pheromone dynamics.

    Cell addressing is (x, y) with x the column and y the row; storage is
    row-major numpy. One writer per grid within a tick; snapshots taken
    between ticks may be shared freely.

    The `food`, `positive`, `negative` and `sense` arrays are read
    freely but written only through `from_kinds`, `set_kind`,
    `consume_food`, `deposit` and `evaporate_step`, which keep three
    derived records current:

    - each field's index of its non-zero cells, so that evaporation
      visits only those;
    - `sense`, one byte per cell, row-major: the cell's kind and the
      two marks `_COLOR_RULE` reads, as `kind << 2 | (negative >= eps)
      << 1 | (positive >= eps)` (unpacked by `SENSES`), so that
      perceiving a cell is one `bytearray` index; and its census, the
      number of cells holding each byte, which the cell counts read;
    - the food total that `total_food` returns.

    `kind` is read from the sense bytes, as a read-only array. A value
    written into an array directly updates none of these records.
    """

    def __init__(self, width: int, height: int,
                 clear_threshold: float = EvaporationConfig.clear_threshold):
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        _check_clear_threshold(clear_threshold)
        self.width = width
        self.height = height
        self.clear_threshold = clear_threshold
        self.food = np.zeros((height, width), dtype=np.int64)
        self.positive = np.zeros((height, width), dtype=np.float64)
        self.negative = np.zeros((height, width), dtype=np.float64)
        self._positive = _Marks(self.positive)
        self._negative = _Marks(self.negative)
        self.sense = bytearray(width * height)  # clean empty ground
        self._census = [width * height] + [0] * (len(SENSES) - 1)
        self._food_total = 0

    @classmethod
    def from_kinds(cls, kinds: np.ndarray, food_quantity: int,
                   clear_threshold: float = EvaporationConfig.clear_threshold) -> Grid:
        """A grid of these (height, width) kinds with `food_quantity` units
        on every food cell, and no pheromone."""
        height, width = kinds.shape
        grid = cls(width, height, clear_threshold=clear_threshold)
        food = kinds == _FOOD
        # Both fields are zero, so each cell's byte is its kind's alone. A
        # kind outside PatchKind falls in no bin.
        census = grid._census
        for kind in _EMPTY, _WALL, _HARM:
            census[kind << 2] = int(np.count_nonzero(kinds == kind))
        census[_FOOD << 2] = food_cells = int(np.count_nonzero(food))
        if sum(census) != kinds.size:
            raise ValueError("kinds must be PatchKind values")
        if food_quantity < 1 and food_cells:
            raise ValueError("food_quantity must be positive exactly for food patches")
        grid.sense[:] = (kinds.astype(np.uint8, copy=False) << 2).tobytes()
        grid.food[food] = food_quantity
        grid._food_total = food_quantity * food_cells
        return grid

    # -- cell access ---------------------------------------------------

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_boundary(self, x: int, y: int) -> bool:
        return x == 0 or y == 0 or x == self.width - 1 or y == self.height - 1

    @property
    def kind(self) -> np.ndarray:
        """Each cell's `PatchKind` value, as a read-only (height, width)
        array read from the sense bytes."""
        kind = np.frombuffer(self.sense, dtype=np.uint8).reshape(self.height, self.width) >> 2
        kind.flags.writeable = False
        return kind

    def set_kind(self, x: int, y: int, kind: PatchKind, food_quantity: int = 0):
        self._check(x, y)
        kind = PatchKind(kind)
        if (kind is PatchKind.FOOD) != (food_quantity > 0):
            raise ValueError("food_quantity must be positive exactly for food patches")
        self._food_total += food_quantity - self.food.item(y, x)
        self.food[y, x] = food_quantity
        i = y * self.width + x
        if kind is PatchKind.WALL:
            self._positive.zero(i)
            self._negative.zero(i)
        self._recolor(i, kind)

    def effective_color_at(self, x: int, y: int) -> Color:
        """Stimulus color one cell presents, by the rule in `_COLOR_RULE`."""
        self._check(x, y)
        return SENSES[self.sense[y * self.width + x]][1]

    def effective_colors(self) -> np.ndarray:
        """Every cell's color at once, as a (height, width) array of
        indices into `COLORS`."""
        colors = np.frombuffer(self.sense.translate(_COLOR_OF_SENSE), dtype=np.uint8)
        return colors.reshape(self.height, self.width)

    def _recolor(self, i: int, kind: int):
        """Set flat cell i's sense byte from this kind and both fields,
        moving the cell in the census from its old byte to the new."""
        eps = self.clear_threshold
        sense = kind << 2 | (self.negative.item(i) >= eps) << 1 | (self.positive.item(i) >= eps)
        self._census[self.sense[i]] -= 1
        self._census[sense] += 1
        self.sense[i] = sense

    # -- pheromone dynamics ---------------------------------------------

    def deposit(self, x: int, y: int, fieldkind: PheromoneField, amount: float):
        """Add pheromone to one cell; deposits accumulate additively.

        Attempts on wall cells are ignored.
        """
        self._check(x, y)
        check_deposit_amount(amount)
        i = y * self.width + x
        kind = self.sense[i] >> 2
        if kind == _WALL:
            return
        marks = self._positive if fieldkind is PheromoneField.POSITIVE else self._negative
        marks.add(i, amount)
        self._recolor(i, kind)

    def evaporate_step(self, cfg: EvaporationConfig):
        """One tick of multiplicative decay at `cfg`'s rates; residues
        below the grid's own `clear_threshold` snap to zero."""
        eps = self.clear_threshold
        cleared = (self._positive.decay(1.0 - cfg.rho_positive, eps)
                   + self._negative.decay(1.0 - cfg.rho_negative, eps))
        # Only a cleared cell can change color; the color reads both
        # fields, so it is recolored once both have decayed.
        for i in cleared:
            self._recolor(i, self.sense[i] >> 2)

    # -- food ------------------------------------------------------------

    def consume_food(self, x: int, y: int) -> int:
        """Take one unit; a patch whose last unit is taken turns empty.

        Returns the remaining quantity; a non-food patch is a no-op
        returning 0.
        """
        self._check(x, y)
        i = y * self.width + x
        if self.sense[i] >> 2 != _FOOD:
            return 0
        q = self.food.item(y, x) - 1
        self.food[y, x] = q
        self._food_total -= 1
        if q == 0:
            self._recolor(i, _EMPTY)
        return q

    def total_food(self) -> int:
        return self._food_total

    # -- metrics helpers ---------------------------------------------------

    def marked_cell_counts(self) -> tuple[int, int]:
        """Empty-ground cells currently masked red by negative pheromone,
        and those presented green by positive pheromone."""
        # Empty ground's bytes are 0-3: bit 1 marks negative, bit 0 positive.
        census = self._census
        return census[2] + census[3], census[1] + census[3]

    def empty_cell_count(self) -> int:
        return sum(self._census[:4])  # empty ground's bytes

    def _check(self, x: int, y: int):
        if not self.in_bounds(x, y):
            raise ValueError(f"cell ({x}, {y}) out of bounds")
