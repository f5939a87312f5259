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


_POSITIVE, _NEGATIVE = PheromoneField  # a read of an Enum member is slow
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
# A cell's sense byte packs its kind and the two marks `_COLOR_RULE`
# reads, as `kind << 2 | (negative >= eps) << 1 | (positive >= eps)`;
# SENSES[b] unpacks byte b as (kind, color), the one decoding of a byte.
SENSES = tuple((kind, color) for kind, by_neg in zip(PatchKind, _COLOR_RULE)
               for by_pos in by_neg for color in by_pos)


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


class _Marks:
    """One pheromone field, the one record of its values, as a sparse set
    (Briggs & Torczon 1993, *ACM LOPLAS* 2:59): `cells[:n]` lists the
    flat index of each non-zero cell once, in no set order, and `vals[:n]`
    holds their values in the same order; every cell outside the list is
    0.0. `slot[i]` is cell i's index into both, and counts only when
    `0 <= slot[i] < n` and `cells[slot[i]] == i`, so `slot` needs no
    initial values and a new grid touches none of its memory.

    `read` returns a snapshot: a (height, width) array built from the
    list on the first read after the field changes, and the same array
    on every later read until it changes again.

    `floor` bounds every listed value from below: a newly listed cell
    lowers it to its value, a deposit only raises a value, and a cell
    leaves the list only by clearing. Rounding is monotonic, so
    `floor * scale` bounds the decayed values too, and while it stays at
    or above the threshold no cell can clear. Only `decay` lowers values,
    and it drops each one it takes below the threshold, so the grid
    clears a cell's mark bit for this field on exactly the cells it returns."""

    __slots__ = ("shape", "cells", "vals", "slot", "n", "floor", "snapshot")

    def __init__(self, shape: tuple[int, int]):
        self.shape = shape
        size = shape[0] * shape[1]
        self.cells = np.empty(size, dtype=np.intp)
        self.vals = np.empty(size, dtype=np.float64)
        self.slot = np.empty(size, dtype=np.intp)
        self.n = 0
        self.floor = math.inf
        self.snapshot = None  # the field as last read, until it changes

    def read(self) -> np.ndarray:
        if self.snapshot is None:
            flat = np.zeros(self.slot.size)
            flat[self.cells[:self.n]] = self.vals[:self.n]
            self.snapshot = flat.reshape(self.shape)
        return self.snapshot

    def at(self, i: int) -> int:
        """Cell i's index into `cells` and `vals`, or -1 if it is not listed."""
        s = self.slot.item(i)
        return s if 0 <= s < self.n and self.cells.item(s) == i else -1

    def add(self, i: int, amount: float) -> float:
        """Cell i's value after adding `amount`, listing the cell if it
        moves from 0.0."""
        s = self.at(i)
        if s >= 0:
            self.vals[s] = value = self.vals.item(s) + amount
        elif amount:
            value, n = amount, self.n
            self.cells[n], self.vals[n], self.slot[i] = i, value, n
            self.n = n + 1
            self.floor = min(self.floor, value)
        else:
            return 0.0
        self.snapshot = None
        return value

    def _drop(self, s: int) -> int:
        """Move the last listed cell into slot s, dropping the cell there;
        returns the dropped cell."""
        cells, i = self.cells, self.cells.item(s)
        self.n = n = self.n - 1
        last = cells.item(n)
        cells[s] = last
        self.vals[s] = self.vals.item(n)
        self.slot[last] = s
        return i

    def decay(self, scale: float, eps: float) -> list[int]:
        """The dense rule, `field *= scale` then `field *= field >= eps`,
        on the listed values only: 0.0 maps to 0.0 under both, and the
        field is finite, so the mask clears exactly the values below eps.
        When `floor` shows that no cell can clear, only the scaling runs;
        otherwise one pass finds the faint cells and each is dropped in
        turn, in constant time, as the deposit that listed it took.
        Returns the cells it cleared."""
        n = self.n
        if not n:
            return []
        vals = self.vals[:n]
        vals *= scale
        self.snapshot = None
        floor = self.floor * scale
        if floor >= eps:
            self.floor = floor
            return []
        # Highest slot first, so the cell moved into a slot is never a
        # faint one still to drop.
        cleared = [self._drop(s) for s in reversed((vals < eps).nonzero()[0].tolist())]
        self.floor = self.vals.item(self.vals[:self.n].argmin()) if self.n else math.inf
        return cleared


class Grid:
    """Rectangular field of patches with vectorized pheromone dynamics.

    Cell addressing is (x, y) with x the column and y the row; storage is
    row-major numpy. One writer per grid within a tick; snapshots taken
    between ticks may be shared freely.

    The grid is written only through `from_kinds`, `consume_food`,
    `deposit` and `evaporate_step`, which keep these records current:

    - each field's sparse set of its non-zero cells (`_Marks`), the one
      record of its values: their flat indices and their values in two
      buffers, in one order, and a slot per cell into both, so that
      evaporation scales one contiguous buffer and a cell's value is
      found in O(1); and a floor at or below every listed value, so that
      a tick on which the floor shows that no cell can clear only scales
      them;
    - `sense`, one byte per cell, row-major: the cell's kind and the
      two marks `_COLOR_RULE` reads, as `kind << 2 | (negative >= eps)
      << 1 | (positive >= eps)` (unpacked by `SENSES`), so that
      perceiving a cell is one `bytearray` index; and its census, the
      number of cells holding each byte, which the cell counts read. A
      field's bit is `value >= eps`: the deposit that lifts a value to eps
      sets it, the evaporation that clears the cell from that field clears
      it, and a patch eaten empty keeps both; `_set_sense` moves the census;
    - each cell's food units, and the food total that `total_food`
      returns.

    `kind` and `food` are read-only arrays. `positive` and `negative` are
    snapshots of the buffers: a field's array is built on the first read
    after the grid writes that field, and later reads return the same
    array until the next write, so the tick loop, which never reads
    them, never pays for them. A value written into a snapshot changes
    no record: the ants, the renderer and the metrics never see it, and
    the next snapshot does not hold it.
    """

    def __init__(self, width: int, height: int,
                 clear_threshold: float = EvaporationConfig.clear_threshold):
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        _check_clear_threshold(clear_threshold)
        self.width = width
        self.height = height
        self.clear_threshold = clear_threshold
        self._food = np.zeros((height, width), dtype=np.int64)
        self._positive = _Marks((height, width))
        self._negative = _Marks((height, width))
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
        grid._food[food] = food_quantity
        grid._food_total = food_quantity * food_cells
        return grid

    # -- cell access ---------------------------------------------------

    def is_boundary(self, x: int, y: int) -> bool:
        return x == 0 or y == 0 or x == self.width - 1 or y == self.height - 1

    @property
    def positive(self) -> np.ndarray:
        """The positive field as a (height, width) array, a snapshot of
        its buffers since the grid last wrote that field."""
        return self._positive.read()

    @property
    def negative(self) -> np.ndarray:
        """The negative field as a (height, width) array, a snapshot of
        its buffers since the grid last wrote that field."""
        return self._negative.read()

    @property
    def food(self) -> np.ndarray:
        """Each cell's food units, as a read-only (height, width) array."""
        food = self._food.view()
        food.flags.writeable = False
        return food

    @property
    def kind(self) -> np.ndarray:
        """Each cell's `PatchKind` value, as a read-only (height, width)
        array read from the sense bytes."""
        kind = np.frombuffer(self.sense, dtype=np.uint8).reshape(self.height, self.width) >> 2
        kind.flags.writeable = False
        return kind

    def effective_color_at(self, x: int, y: int) -> Color:
        """Stimulus color one cell presents, by the rule in `_COLOR_RULE`."""
        self._check(x, y)
        return SENSES[self.sense[y * self.width + x]][1]

    def _set_sense(self, i: int, sense: int):
        """Set flat cell i's sense byte, moving the cell in the census
        from its old byte to the new."""
        self._census[self.sense[i]] -= 1
        self._census[sense] += 1
        self.sense[i] = sense

    # -- pheromone dynamics ---------------------------------------------

    def deposit(self, x: int, y: int, fieldkind: PheromoneField, amount: float):
        """Add pheromone to one cell; deposits accumulate additively.

        Attempts on wall cells are ignored. A deposit only raises a value,
        so only this field's set, floor and sense bit can change.
        """
        if fieldkind is not _POSITIVE and fieldkind is not _NEGATIVE:
            raise ValueError(f"fieldkind must be a PheromoneField, not {fieldkind!r}")
        self._check(x, y)
        check_deposit_amount(amount)
        i = y * self.width + x
        sense = self.sense[i]
        if sense >> 2 == _WALL:
            return
        marks, bit = (self._positive, 1) if fieldkind is _POSITIVE else (self._negative, 2)
        if marks.add(i, amount) >= self.clear_threshold and not sense & bit:
            self._set_sense(i, sense | bit)

    def evaporate_step(self, cfg: EvaporationConfig):
        """One tick of multiplicative decay at `cfg`'s rates; residues
        below the grid's own `clear_threshold` snap to zero."""
        eps = self.clear_threshold
        for i in self._positive.decay(1.0 - cfg.rho_positive, eps):
            self._set_sense(i, self.sense[i] & ~1)
        for i in self._negative.decay(1.0 - cfg.rho_negative, eps):
            self._set_sense(i, self.sense[i] & ~2)

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
        q = self._food.item(y, x) - 1
        self._food[y, x] = q
        self._food_total -= 1
        if q == 0:
            self._set_sense(i, self.sense[i] & 3)  # empty ground, marks kept
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
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"cell ({x}, {y}) out of bounds")
