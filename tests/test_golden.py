"""Golden outputs: the bundled scenarios must keep producing the same bytes.

Each digest is the first 16 hex digits of a SHA-256 over an output a user
can save: the foraging metrics CSV, the trained weight file plus its CSV,
and one rendered frame. They pin behaviour across refactors: a change that
alters one of them changes what the simulator does and has to re-record it
on purpose.
"""

import hashlib
from dataclasses import replace

from spikeants.circuit import format_weights, trained_reference_weights
from spikeants.config import SimConfig
from spikeants.engine import run, run_training
from spikeants.render import render_snapshot
from spikeants.scenario import reference_scenario

FORAGING_TICKS = 200
TRAINING_TICKS = 300

FORAGING_CSV = "e4a52de506545f46"
TRAINING_WEIGHTS_AND_CSV = "04f1a62e93335e21"
FORAGING_LAST_FRAME = "32b3af6492dd4bc9"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_foraging_csv_and_last_frame():
    cfg = replace(SimConfig(), seed=1, world_ticks=FORAGING_TICKS)
    frames = {}

    def keep_last_frame(tick, grid, ants):
        if tick == FORAGING_TICKS:
            frames[tick] = render_snapshot(grid, ants)

    metrics = run(cfg, reference_scenario("foraging"),
                  weights=trained_reference_weights(cfg.stdp),
                  frame_hook=keep_last_frame)
    assert digest(metrics.to_csv_text().encode()) == FORAGING_CSV
    assert digest(frames[FORAGING_TICKS]) == FORAGING_LAST_FRAME


def test_training_weights_and_csv():
    cfg = replace(SimConfig(), seed=1, world_ticks=TRAINING_TICKS)
    weights, metrics = run_training(cfg, reference_scenario("training"))
    text = format_weights(weights) + metrics.to_csv_text()
    assert digest(text.encode()) == TRAINING_WEIGHTS_AND_CSV
