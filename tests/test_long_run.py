"""A reference swarm run long enough for negative pheromone to clear.

A 1.0 negative deposit lasts about 1500 ticks at the default
`rho_negative`, so neither the golden runs (200 and 300 ticks) nor the
benchmark workloads (1000 and 300 ticks) see a negative cell snap to
zero. These 2000-tick runs do, and pin the metrics CSV of each seed so
that the clearing path of the negative field's evaporation is checked
end to end.
"""

import hashlib
from dataclasses import replace

import pytest

from spikeants.circuit import trained_reference_weights
from spikeants.config import SimConfig
from spikeants.engine import run
from spikeants.scenario import reference_scenario

LONG_RUN_TICKS = 2000


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
