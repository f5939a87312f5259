"""Golden outputs of the runs that hand brains between stepping and a
transition table.

Recorded before brains could be looked up, so they pin that the table
changes nothing: a training phase that hands learned brains over to the
table, learning during foraging (never in a table), and untrained
weights (a second weight set). Each digest covers the metrics CSV, every
ant's final weight file and the last rendered frame. They must also hold
when the table has room for a single core state, so that every ant
leaves it early and is stepped from there, and with room for 8, which
holds every core state of these runs (at most 3) but makes each
table's move cache empty itself.
"""

import hashlib

import pytest

from spikeants import table
from spikeants.circuit import format_weights, trained_reference_weights
from spikeants.config import parse_config
from spikeants.engine import run
from spikeants.render import render_snapshot
from spikeants.scenario import reference_scenario

RUNS = {
    "training_then_foraging": ("phase_schedule = training:300,foraging:200", False,
                               "be1441aaf4d80934"),
    "learning_while_foraging": ("world_ticks = 200\nlearn_during_foraging = true", True,
                                "0ff0810cfcd9b2bf"),
    "untrained_foraging": ("world_ticks = 200", False, "075fc2b548b8e372"),
}


def run_digest(text: str, reference_weights: bool) -> str:
    cfg = parse_config(f"seed = 1\n{text}\n")
    last = {}

    def keep_last(tick, grid, ants):
        last["frame"] = render_snapshot(grid, ants)
        last["weights"] = "".join(format_weights(ant.brain.weights()) for ant in ants)

    weights = trained_reference_weights(cfg.stdp) if reference_weights else None
    metrics = run(cfg, reference_scenario("foraging"), weights=weights, frame_hook=keep_last)
    data = (metrics.to_csv_text() + last["weights"]).encode() + last["frame"]
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("bound", [table.MAX_TABLE_STATES, 8, 1])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_digest(name, bound, monkeypatch):
    text, reference_weights, expected = RUNS[name]
    monkeypatch.setattr(table, "MAX_TABLE_STATES", bound)
    assert run_digest(text, reference_weights) == expected
