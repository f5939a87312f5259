"""Snapshot rendering: one binary portable pixmap per world state.

One pixel per patch, colored by the stimulus color its sense byte
decodes to in `SENSES` (black empty, white wall, red negative marking /
harm, green food or positive marking) with ants drawn on top in blue.
Output bytes are a pure function of the state, so identically seeded
runs dump identical frames.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .agents import Ant
from .world import SENSES, Color, Grid

PALETTE = {
    Color.BLACK: (0, 0, 0),
    Color.WHITE: (255, 255, 255),
    Color.RED: (255, 0, 0),
    Color.GREEN: (0, 255, 0),
}
ANT_COLOR = (64, 64, 255)
_PIXELS = np.array([PALETTE[color] for _, color in SENSES], dtype=np.uint8)  # row per byte


def render_snapshot(grid: Grid, ants: Optional[Iterable[Ant]] = None) -> bytes:
    """Render the grid (and optionally its ants) as a binary PPM (P6)."""
    sense = np.frombuffer(grid.sense, dtype=np.uint8).reshape(grid.height, grid.width)
    pixels = _PIXELS.take(sense, axis=0)  # a gather by `take` beats fancy indexing
    if ants is not None:
        for ant in ants:
            x, y = ant.position
            pixels[y, x] = ANT_COLOR
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + pixels.tobytes()
