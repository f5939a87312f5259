"""Top-level simulation loop: phases, determinism and metrics.

Within one world tick the ants step in ascending id order (world
mutations land in that order), then both pheromone fields evaporate
once, then the metrics row is sampled. The seeded generator is consumed
only while placing randomly spawned ants before tick 0, so the whole
run is a pure function of (seed, config, scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .agents import CLOCKWISE, Ant, Heading, SimPhase, step_ant
from .circuit import AntBrain
from .config import SimConfig, config_hash
from .scenario import Scenario
from .world import Color, Grid, PatchKind


class SimulationError(ValueError):
    pass


@dataclass
class Metrics:
    """Per-tick measurement log of one run."""
    seed: int
    config_digest: str
    initial_food: int = 0
    ticks: list[int] = field(default_factory=list)
    total_food: list[int] = field(default_factory=list)
    neg_cells: list[int] = field(default_factory=list)
    pos_cells: list[int] = field(default_factory=list)
    harm_contacts: list[int] = field(default_factory=list)      # cumulative
    boundary_resets: list[int] = field(default_factory=list)    # cumulative
    food_consumed: int = 0

    CSV_HEADER = "tick,total_food,neg_cells,pos_cells,harm_contacts,boundary_resets"

    def sample(self, tick: int, grid: Grid, harm_total: int, reset_total: int):
        self.ticks.append(tick)
        self.total_food.append(grid.total_food())
        self.neg_cells.append(grid.negative_cell_count())
        self.pos_cells.append(grid.positive_cell_count())
        self.harm_contacts.append(harm_total)
        self.boundary_resets.append(reset_total)

    @property
    def boundary_reset_ticks(self) -> list[int]:
        """Each sampled tick, listed once per boundary reset that fell on it."""
        return np.repeat(self.ticks, np.diff(self.boundary_resets, prepend=0)).tolist()

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for i in range(len(self.ticks)):
            lines.append(f"{self.ticks[i]},{self.total_food[i]},{self.neg_cells[i]},"
                         f"{self.pos_cells[i]},{self.harm_contacts[i]},"
                         f"{self.boundary_resets[i]}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "config_hash": self.config_digest,
            "ticks": len(self.ticks),
            "initial_total_food": self.initial_food,
            "final_total_food": self.total_food[-1] if self.ticks else self.initial_food,
            "food_consumed": self.food_consumed,
            "final_neg_cells": self.neg_cells[-1] if self.ticks else 0,
            "final_pos_cells": self.pos_cells[-1] if self.ticks else 0,
            "harm_contacts": self.harm_contacts[-1] if self.ticks else 0,
            "boundary_resets": self.boundary_resets[-1] if self.ticks else 0,
        }


def ant_count(scenario: Scenario, cfg: SimConfig) -> int:
    """Ants a run spawns: `n_ants` when set, else the scenario's own count.

    `n_ants` counts the explicit spawns too, so it may not be below them,
    and the random ants beyond them must fit on the empty cells.
    """
    explicit = len(scenario.spawns)
    if 0 < cfg.n_ants < explicit:
        raise SimulationError(
            f"n_ants={cfg.n_ants} below the {explicit} explicit spawns")
    total = cfg.n_ants or explicit + scenario.random_ants
    if total < 1:
        raise SimulationError("scenario provides no ants")
    if total - explicit > sum(row.count(".") for row in scenario.rows):
        raise SimulationError("not enough empty cells for random spawns")
    return total


def build_ants(scenario: Scenario, cfg: SimConfig, grid: Grid,
               rng: np.random.Generator, learning: bool) -> list[Ant]:
    """Spawn ants: explicit scenario spawns first, then random placements.

    Randomness is a fixed draw sequence on the run's PCG64 stream: for
    each random ant, one draw for the cell (from the row-major list of
    empty cells, without replacement) and one for the heading.
    """
    poses: list[tuple[int, int, Heading]] = list(scenario.spawns)
    n_random = ant_count(scenario, cfg) - len(poses)
    empty = np.flatnonzero(grid.kind == PatchKind.EMPTY.value)
    for _ in range(n_random):
        idx = int(rng.integers(empty.size))
        y, x = divmod(int(empty[idx]), grid.width)
        empty = np.delete(empty, idx)
        heading = CLOCKWISE[int(rng.integers(4))]
        poses.append((x, y, heading))

    ants = []
    for i, (x, y, heading) in enumerate(poses):
        brain = AntBrain(cfg.circuit, cfg.stdp, learning=learning, kickstart=True)
        ants.append(Ant(id=i, position=(x, y), heading=heading, brain=brain,
                        initial_position=(x, y), initial_heading=heading))
    return ants


def _execute(cfg: SimConfig, scenario: Scenario,
             weights: Optional[dict[tuple[Color, str], float]],
             schedule: Sequence[tuple[SimPhase, int]],
             frame_hook=None) -> tuple[Metrics, list[Ant]]:
    if any(phase is SimPhase.FORAGING for phase, _ in schedule):
        if not scenario.boundary_is_walled():
            raise SimulationError("foraging scenarios must be enclosed by walls")

    grid = scenario.build_grid(clear_threshold=cfg.evaporation.clear_threshold)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    # The phase loop sets learning before each phase's first step.
    ants = build_ants(scenario, cfg, grid, rng, learning=False)
    if weights is not None:
        for ant in ants:
            ant.brain.set_weights(weights)

    metrics = Metrics(seed=cfg.seed, config_digest=config_hash(cfg),
                      initial_food=grid.total_food())
    harm_total = 0
    reset_total = 0
    tick = 0
    for phase, phase_ticks in schedule:
        learning = phase is SimPhase.TRAINING or cfg.learn_during_foraging
        # Stigmergy belongs to the collective foraging stage; an ant in
        # conditioning would only poison its own arena with deposits.
        deposition = cfg.pheromone_enabled and phase is not SimPhase.TRAINING
        for ant in ants:
            ant.brain.learning = learning
        for _ in range(phase_ticks):
            tick += 1
            for ant in ants:
                ev = step_ant(grid, ant, cfg.ant, phase,
                              pheromone_enabled=deposition)
                if ev.pain:
                    harm_total += 1
                if ev.boundary_reset:
                    reset_total += 1
                metrics.food_consumed += ev.ate
            grid.evaporate_step(cfg.evaporation)
            metrics.sample(tick, grid, harm_total, reset_total)
            if frame_hook is not None:
                frame_hook(tick, grid, ants)
    return metrics, ants


def run(cfg: SimConfig, scenario: Scenario,
        weights: Optional[dict[tuple[Color, str], float]] = None,
        frame_hook=None) -> Metrics:
    """Execute a full simulation and return its metrics.

    The phases are the config's phase_schedule, or a single foraging
    phase of `world_ticks` when that is empty. `frame_hook(tick, grid,
    ants)`, when given, is called after every sampled tick (the CLI uses
    it for snapshot dumps).
    """
    schedule = cfg.phase_schedule or ((SimPhase.FORAGING, cfg.world_ticks),)
    metrics, _ = _execute(cfg, scenario, weights, schedule, frame_hook)
    return metrics


def run_training(cfg: SimConfig, scenario: Scenario,
                 ) -> tuple[dict[tuple[Color, str], float], Metrics]:
    """Train a single embodied ant; returns its weights and the metrics.

    The run lasts `world_ticks`, so a config that sets a phase_schedule
    is rejected. The scenario must hold both harmful and rewarding
    patches, otherwise there is nothing to condition on.
    """
    if cfg.phase_schedule:
        raise SimulationError("training runs last world_ticks and take no phase_schedule")
    kinds = "".join(scenario.rows)
    if "R" not in kinds and "#" not in kinds:
        raise SimulationError("training scenario has no harmful patches")
    if "F" not in kinds:
        raise SimulationError("training scenario has no reward patches")
    if ant_count(scenario, cfg) != 1:
        raise SimulationError("training runs use exactly one ant")
    metrics, ants = _execute(cfg, scenario, None,
                             ((SimPhase.TRAINING, cfg.world_ticks),))
    return ants[0].brain.weights(), metrics


@dataclass(frozen=True)
class CompareResult:
    enabled: Metrics
    disabled: Metrics

    def summary(self) -> dict:
        on, off = self.enabled, self.disabled
        return {
            "food_consumed_enabled": on.food_consumed,
            "food_consumed_disabled": off.food_consumed,
            "final_food_enabled": on.total_food[-1],
            "final_food_disabled": off.total_food[-1],
            "consumption_advantage": on.food_consumed - off.food_consumed,
        }


def compare(cfg: SimConfig, scenario: Scenario,
            weights: Optional[dict[tuple[Color, str], float]] = None) -> CompareResult:
    """Paired runs differing only in pheromone_enabled, same seed."""
    on = run(replace(cfg, pheromone_enabled=True), scenario, weights=weights)
    off = run(replace(cfg, pheromone_enabled=False), scenario, weights=weights)
    return CompareResult(enabled=on, disabled=off)
