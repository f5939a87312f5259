"""Seeded arena generator for the `swarm_frames` workload.

`arena_text(seed)` is a pure function of the seed: it returns scenario
text for `spikeants.scenario.parse_scenario` describing a walled
200x200 arena with a fixed number of 3x3 food clusters and 4x4 harm
clusters at seeded positions, plus 100 randomly placed ants. Cluster
counts and sizes are fixed so that every seed asks for about the same
amount of work; only the layout moves.

Positions are drawn from `random.Random(seed).random()`, whose sequence
Python guarantees to stay the same across versions (unlike `randrange`).
"""

from __future__ import annotations

import random

WIDTH = 200
HEIGHT = 200
ANTS = 100
FOOD_QUANTITY = 10
FOOD_CLUSTERS = 24
FOOD_SIZE = 3
HARM_CLUSTERS = 24
HARM_SIZE = 4


def _corner(rng: random.Random, size: int, extent: int) -> int:
    """A cluster origin that keeps the cluster off the boundary wall."""
    return 1 + int(rng.random() * (extent - 2 - size + 1))


def arena_text(seed: int) -> str:
    rng = random.Random(seed)
    cells = [["."] * WIDTH for _ in range(HEIGHT)]
    for y in range(HEIGHT):
        cells[y][0] = cells[y][WIDTH - 1] = "#"
    for x in range(WIDTH):
        cells[0][x] = cells[HEIGHT - 1][x] = "#"
    for _ in range(FOOD_CLUSTERS):
        x0, y0 = _corner(rng, FOOD_SIZE, WIDTH), _corner(rng, FOOD_SIZE, HEIGHT)
        for y in range(y0, y0 + FOOD_SIZE):
            for x in range(x0, x0 + FOOD_SIZE):
                cells[y][x] = "F"
    for _ in range(HARM_CLUSTERS):
        x0, y0 = _corner(rng, HARM_SIZE, WIDTH), _corner(rng, HARM_SIZE, HEIGHT)
        for y in range(y0, y0 + HARM_SIZE):
            for x in range(x0, x0 + HARM_SIZE):
                if cells[y][x] == ".":
                    cells[y][x] = "R"
    header = [f"width {WIDTH}", f"height {HEIGHT}",
              f"food_quantity {FOOD_QUANTITY}", f"random_ants {ANTS}", "map"]
    return "\n".join(header + ["".join(row) for row in cells]) + "\n"
