"""A reference swarm run long enough for negative pheromone to clear.

A 1.0 negative deposit lasts about 1500 ticks at the default
`rho_negative`, so neither the golden runs (200 and 300 ticks) nor the
benchmark workloads (1000 and 300 ticks) see a negative cell snap to
zero. These 2000-tick runs do, and pin the metrics CSV of each seed so
that the clearing path of the negative field's evaporation is checked
end to end. A 3000-tick run of the benchmark's 100-ant arena fills a
transition table's node index, so the default bound is met on real
traffic too.
"""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from spikeants import table
from spikeants.circuit import trained_reference_weights
from spikeants.config import SimConfig
from spikeants.engine import run
from spikeants.scenario import parse_scenario, reference_scenario
from spikeants.snn import Network

LONG_RUN_TICKS = 2000
ARENA = Path(__file__).resolve().parent.parent / "benchmarks" / "arena.py"


@pytest.mark.parametrize("seed, csv_digest, negative_cells_cleared", [
    (1, "f549ca2241c313a2", 226),
    (2, "fe71abf625834a26", 219),
])
def test_long_foraging_run_clears_negative_cells(seed, csv_digest, negative_cells_cleared):
    cfg = replace(SimConfig(), seed=seed, world_ticks=LONG_RUN_TICKS)
    seen = {"marked": None, "cleared": 0}

    def count_cleared(tick, grid, ants):
        # Foraging never walls a cell, so a negative cell that turns
        # zero between two ticks was cleared by evaporation.
        marked = grid.negative != 0.0
        if seen["marked"] is not None:
            seen["cleared"] += int((seen["marked"] & ~marked).sum())
        seen["marked"] = marked

    metrics = run(cfg, reference_scenario("foraging"),
                  weights=trained_reference_weights(cfg.stdp), frame_hook=count_cleared)
    assert hashlib.sha256(metrics.to_csv_text().encode()).hexdigest()[:16] == csv_digest
    assert seen["cleared"] == negative_cells_cleared


def test_a_long_swarm_run_stays_in_the_table():
    """Every one of the benchmark arena's 100 ants stays tabled on every
    tick of a 3000-tick run: networks step only to compute new slots,
    180 brain ticks in all, and the node index fills and is cut before
    the run ends, then once more at its end."""
    spec = importlib.util.spec_from_file_location("arena", ARENA)
    arena = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(arena)
    cfg = replace(SimConfig(), seed=1, world_ticks=3000)
    original_step, original_cut = Network.step, table.TransitionTable.cut
    steps, cuts, ticks = [], [], []

    def counted_step(net):
        steps.append(1)
        return original_step(net)

    def recorded_cut(tbl):
        cuts.append((len(ticks), len(tbl._nodes)))
        return original_cut(tbl)

    def check_tabled(tick, grid, ants):
        assert len(ants) == 100 and all(ant.tabled is not None for ant in ants)
        ticks.append(tick)

    with mock.patch.object(Network, "step", counted_step), \
            mock.patch.object(table.TransitionTable, "cut", recorded_cut):
        metrics = run(cfg, parse_scenario(arena.arena_text(1)),
                      weights=trained_reference_weights(cfg.stdp), frame_hook=check_tabled)
    assert hashlib.sha256(metrics.to_csv_text().encode()).hexdigest()[:16] == "dc991887ca482c2d"
    assert ticks == list(range(1, cfg.world_ticks + 1))
    assert len(steps) == 180
    (filled_at, filled), (ended_at, _) = cuts
    assert filled == table.MAX_TABLE_STATES and filled_at < cfg.world_ticks
    assert ended_at == cfg.world_ticks
