"""Plain-text scenario files: world layout plus ant spawn points.

Format: a header of `key value` lines, a line consisting of `map`, then
exactly `height` rows of `width` cells. Cell characters:

    '#' wall    '.' empty    'F' food    'R' harm (red)    'A' ant spawn

Explicit spawns ('A') are numbered in row-major order and each needs a
`heading <index> <N|E|S|W>` header line; `random_ants <n>` asks the
engine to place a further n ants on empty cells using the seeded
generator. `food_quantity` sets the initial units on every food cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .agents import Heading
from .world import EvaporationConfig, Grid, PatchKind

CHAR_TO_KIND = {
    "#": PatchKind.WALL,
    ".": PatchKind.EMPTY,
    "F": PatchKind.FOOD,
    "R": PatchKind.HARM,
    "A": PatchKind.EMPTY,
}
# CHAR_TO_KIND as a `bytes.translate` table over the character's byte value.
_KIND_OF_BYTE = bytes(CHAR_TO_KIND.get(chr(b), 0) for b in range(256))


class ScenarioError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        place = ""
        if line is not None:
            place = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + place)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Scenario:
    width: int
    height: int
    food_quantity: int
    rows: tuple[str, ...]  # body characters, spawns replaced by '.'
    spawns: tuple[tuple[int, int, Heading], ...]  # (x, y, heading)
    random_ants: int = 0

    def build_grid(self, clear_threshold: float = EvaporationConfig.clear_threshold) -> Grid:
        kinds = np.frombuffer("".join(self.rows).encode("ascii").translate(_KIND_OF_BYTE),
                              dtype=np.uint8)
        return Grid.from_kinds(kinds.reshape(self.height, self.width), self.food_quantity,
                               clear_threshold=clear_threshold)

    def boundary_is_walled(self) -> bool:
        sides = {cell for row in self.rows for cell in (row[0], row[-1])}
        return (set(self.rows[0]) | set(self.rows[-1]) | sides) == {"#"}


_HEADER_KEYS = ("width", "height", "food_quantity", "random_ants")


def parse_scenario(text: str) -> Scenario:
    lines = text.splitlines()
    header: dict[str, int] = {}
    header_line: dict[str, int] = {}
    headings: dict[int, Heading] = {}
    body_start = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped == "map":
            body_start = i + 1
            break
        if not stripped:
            continue
        parts = stripped.split()
        key = parts[0]
        if key == "heading":
            if len(parts) != 3:
                raise ScenarioError("heading needs an index and a direction", line=i + 1)
            try:
                idx = int(parts[1])
            except ValueError:
                raise ScenarioError(f"bad spawn index '{parts[1]}'", line=i + 1)
            if idx in headings:
                raise ScenarioError(f"duplicate heading for spawn {idx}", line=i + 1)
            try:
                headings[idx] = Heading(parts[2])
            except ValueError:
                raise ScenarioError(f"unknown heading '{parts[2]}'", line=i + 1)
            continue
        if key not in _HEADER_KEYS:
            raise ScenarioError(f"unknown header key '{key}'", line=i + 1)
        if len(parts) != 2:
            raise ScenarioError(f"header key '{key}' needs one value", line=i + 1)
        if key in header:
            raise ScenarioError(f"duplicate header key '{key}'", line=i + 1)
        try:
            header[key] = int(parts[1])
        except ValueError:
            raise ScenarioError(f"bad integer '{parts[1]}' for '{key}'", line=i + 1)
        header_line[key] = i + 1
    if body_start is None:
        raise ScenarioError("missing 'map' line")
    for key in ("width", "height"):
        if key not in header:
            raise ScenarioError(f"missing header key '{key}'")
        if header[key] < 1:
            raise ScenarioError(f"'{key}' must be positive")
    width, height = header["width"], header["height"]
    food_quantity = header.get("food_quantity", 10)
    random_ants = header.get("random_ants", 0)
    if food_quantity < 1:
        raise ScenarioError("food_quantity must be positive")
    if random_ants < 0:
        raise ScenarioError("random_ants must be non-negative")

    body = lines[body_start:]
    while body and not body[-1].strip():
        body.pop()
    if len(body) != height:
        raise ScenarioError(f"expected {height} map rows, found {len(body)}",
                            line=body_start + 1)
    rows: list[str] = []
    spawns: list[tuple[int, int, Heading]] = []
    for y, raw in enumerate(body):
        line_no = body_start + y + 1
        if len(raw) != width:
            raise ScenarioError(f"row has {len(raw)} cells, expected {width}",
                                line=line_no)
        # Spawns left of the first unknown character are checked first,
        # so a row with two faults reports the leftmost.
        unknown = set(raw).difference(CHAR_TO_KIND)
        end = min(map(raw.index, unknown)) if unknown else width
        x = raw.find("A", 0, end)
        while x >= 0:
            idx = len(spawns)
            if idx not in headings:
                raise ScenarioError(f"missing heading for spawn {idx}",
                                    line=line_no, column=x + 1)
            spawns.append((x, y, headings[idx]))
            x = raw.find("A", x + 1, end)
        if unknown:
            raise ScenarioError(f"unknown cell character '{raw[end]}'",
                                line=line_no, column=end + 1)
        rows.append(raw.replace("A", "."))

    extras = set(headings) - set(range(len(spawns)))
    if extras:
        raise ScenarioError(f"heading given for nonexistent spawn {min(extras)}")
    # Grid.food is int64, and so is the total a run reports.
    food_cells = max(sum(row.count("F") for row in rows), 1)
    if food_quantity * food_cells > np.iinfo(np.int64).max:
        raise ScenarioError(f"food_quantity {food_quantity} is too large: {food_cells} "
                            "food cell(s) must hold at most 2**63 - 1 units in all",
                            line=header_line["food_quantity"])

    return Scenario(width=width, height=height, food_quantity=food_quantity,
                    rows=tuple(rows), spawns=tuple(spawns),
                    random_ants=random_ants)


def reference_scenario(name: str) -> Scenario:
    """Load one of the bundled scenarios: 'training' or 'foraging'."""
    if name not in ("training", "foraging"):
        raise ScenarioError(f"no bundled scenario named '{name}'")
    text = resources.files("spikeants").joinpath(f"data/{name}.txt").read_text()
    return parse_scenario(text)


def serialize_scenario(scenario: Scenario) -> str:
    lines = [
        f"width {scenario.width}",
        f"height {scenario.height}",
        f"food_quantity {scenario.food_quantity}",
    ]
    if scenario.random_ants:
        lines.append(f"random_ants {scenario.random_ants}")
    for idx, (_, _, heading) in enumerate(scenario.spawns):
        lines.append(f"heading {idx} {heading.value}")
    lines.append("map")
    cells = [list(row) for row in scenario.rows]
    for x, y, _ in scenario.spawns:
        cells[y][x] = "A"
    lines.extend(map("".join, cells))
    return "\n".join(lines) + "\n"
