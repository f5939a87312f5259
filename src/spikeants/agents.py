"""Embodied ants: perception, movement, eating and pheromone deposition.

Each ant owns one brain and a pose on the grid. Movement is 4-connected
with quarter-turn rotations, which keeps "the single cell directly
ahead" well defined as the only smell source. Walls block movement; the
blocked attempt registers as a collision that reaches the nociceptor on
the following world tick (standing on a red cell hurts directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .circuit import SMELLS, STIMULI, AntBrain, StimulusFrame
from .table import Tabled
from .world import SENSES, Color, Grid, PatchKind, PheromoneField, check_deposit_amount


class Heading(Enum):
    NORTH = "N"
    EAST = "E"
    SOUTH = "S"
    WEST = "W"

    def __init__(self, letter: str):
        # One step ahead as (dx, dy), with y growing southward. Stored on
        # the member, since a dict keyed by members would hash them.
        self.vector: tuple[int, int] = {
            "N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}[letter]


# Clockwise from north, in Heading's declaration order. The seeded
# heading draw in engine.build_ants indexes this tuple too, so reordering
# Heading changes every seeded run. Each member holds its two
# neighbours, so that a turn is an attribute read.
CLOCKWISE = tuple(Heading)
for _heading, _right in zip(CLOCKWISE, CLOCKWISE[1:] + CLOCKWISE[:1]):
    _heading._right, _right._left = _right, _heading
del _heading, _right
# Colors that hurt an ant standing on them.
_HARMFUL = (Color.WHITE, Color.RED)
# Stimulus code bits by a cell's sense byte (`Grid.sense`, unpacked by
# SENSES): the smell the cell gives off ahead of an ant, and the pain
# and reward it gives the ant standing on it (a positively marked trail
# does not feed). `_BLOCKS` tells the cells an ant cannot enter.
_SMELL_BITS = tuple(StimulusFrame(smell_ahead=c if c in SMELLS else None).code
                    for _, c in SENSES)
_UNDERFOOT_BITS = tuple(StimulusFrame(pain_contact=c in _HARMFUL,
                                      reward_contact=k is PatchKind.FOOD).code
                        for k, c in SENSES)
_PAIN_BIT = StimulusFrame(pain_contact=True).code
_REWARD_BIT = StimulusFrame(reward_contact=True).code
_BLOCKS = tuple(k is PatchKind.WALL for k, _ in SENSES)


class SimPhase(Enum):
    TRAINING = "training"
    FORAGING = "foraging"


@dataclass(frozen=True)
class AntConfig:
    positive_deposit_ticks: int = 6
    deposit_amount_positive: float = 1.0
    deposit_amount_negative: float = 1.0
    rotate_direction: str = "right"

    def __post_init__(self):
        if self.positive_deposit_ticks < 0:
            raise ValueError("positive_deposit_ticks must be non-negative")
        for name in ("deposit_amount_positive", "deposit_amount_negative"):
            check_deposit_amount(getattr(self, name), name)
        if self.rotate_direction not in ("right", "left"):
            raise ValueError("rotate_direction must be 'right' or 'left'")


@dataclass(slots=True)
class Ant:
    """An ant's pose and brain, held in a transition table while `tabled` is set."""
    position: tuple[int, int]
    heading: Heading
    brain: AntBrain
    initial_position: Optional[tuple[int, int]] = None
    initial_heading: Optional[Heading] = None
    positive_deposit_remaining: int = 0
    pain_pending: bool = False
    tabled: Optional[Tabled] = None

    def __post_init__(self):
        if self.initial_position is None:
            self.initial_position = self.position
        if self.initial_heading is None:
            self.initial_heading = self.heading


def perceive(grid: Grid, ant: Ant) -> StimulusFrame:
    """The stimulus frame for the ant's current pose, one of `STIMULI`.

    The only smell comes from the single cell directly ahead; pain is
    standing on a harm-colored cell or last tick's collision; reward is
    standing on actual food (a positively marked trail does not feed).
    """
    x, y = ant.position
    dx, dy = ant.heading.vector
    fx, fy = x + dx, y + dy
    width, sense = grid.width, grid.sense
    # The ant's own cell is on the grid; the cell ahead may not be.
    code = _UNDERFOOT_BITS[sense[y * width + x]]
    if ant.pain_pending:
        code |= _PAIN_BIT
    if 0 <= fx < width and 0 <= fy < grid.height:
        code |= _SMELL_BITS[sense[fy * width + fx]]
    return STIMULI[code]


def step_ant(grid: Grid, ants: Sequence[Ant], cfg: AntConfig, phase: SimPhase,
             pheromone_enabled: bool = True) -> tuple[int, int, int]:
    """Advance `ants` by one world tick, one after another in list order;
    returns the summed (ate, pain, reset).

    `ate` is the food units eaten, `pain` the ants that sensed pain this
    tick and `reset` the ants put back at their spawn pose. Each ant
    senses what `perceive` gives for its pose at its turn, so a later ant
    sees an earlier ant's meal, move and deposits of the same tick. An
    ant's brain moves by `Tabled.advance` while the ant is tabled, and by
    `AntBrain.world_tick` otherwise. The phase decides what
    training changes: in a training phase an ant lays no pheromone,
    whatever `pheromone_enabled` says, and touching a boundary puts it
    back at its spawn pose.
    """
    training = phase is SimPhase.TRAINING
    laying = pheromone_enabled and not training
    sense, width, height = grid.sense, grid.width, grid.height
    right = cfg.rotate_direction == "right"
    countdown = cfg.positive_deposit_ticks
    positive, negative = cfg.deposit_amount_positive, cfg.deposit_amount_negative
    to_positive, to_negative = PheromoneField.POSITIVE, PheromoneField.NEGATIVE
    ate = pain = resets = 0
    for ant in ants:
        # The frame as `perceive` builds it, with the byte ahead kept for
        # the wall test: only the ant's own cell can change before that.
        x, y = ant.position
        heading = ant.heading
        dx, dy = heading.vector
        fx, fy = x + dx, y + dy
        code = _UNDERFOOT_BITS[sense[y * width + x]]
        if ant.pain_pending:
            code |= _PAIN_BIT
            ant.pain_pending = False
        ahead = -1
        if 0 <= fx < width and 0 <= fy < height:
            ahead = sense[fy * width + fx]
            code |= _SMELL_BITS[ahead]
        if code & _PAIN_BIT:
            pain += 1

        tabled = ant.tabled
        act = ant.brain.world_tick(STIMULI[code]) if tabled is None else tabled.advance(code)

        # Consumption happens at the cell where the reward contact was
        # sensed: the motor drive moves the ant every tick, so testing the
        # post-move cell would leave contacted food permanently uneaten.
        if code & _REWARD_BIT and act.emit_positive_pheromone:
            grid.consume_food(x, y)
            ate += 1
            ant.positive_deposit_remaining = countdown

        reset = False
        if act.rotate:
            ant.heading = heading._right if right else heading._left
        elif act.move_forward:
            if ahead < 0 or _BLOCKS[ahead]:
                # An open grid edge counts as hitting the world boundary.
                ant.pain_pending = True
                reset = training and grid.is_boundary(fx, fy)
            else:
                ant.position = x, y = fx, fy

        # Positive pheromone is released while the post-food countdown runs;
        # negative pheromone follows the energy-counter neuron directly.
        # Stigmergy belongs to the collective foraging stage; an ant in
        # conditioning would only poison its own arena with deposits.
        counting_down = ant.positive_deposit_remaining > 0
        if counting_down:
            ant.positive_deposit_remaining -= 1
        if laying:
            if counting_down:
                grid.deposit(x, y, to_positive, positive)
            if act.emit_negative_pheromone:
                grid.deposit(x, y, to_negative, negative)

        if training:
            if grid.is_boundary(x, y):
                reset = True
                if _UNDERFOOT_BITS[sense[y * width + x]] & _PAIN_BIT:
                    # Touching a harmful boundary still has to reach the
                    # senses even though the pose snaps back before the
                    # next perceive.
                    ant.pain_pending = True
            if reset:
                # Only the pose is reset; the brain (and its learning
                # state) carries straight through the repositioning.
                ant.position = ant.initial_position
                ant.heading = ant.initial_heading
                resets += 1

    return ate, pain, resets
