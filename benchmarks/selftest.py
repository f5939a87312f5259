"""Quick self-tests of the benchmark itself, at a tiny tick count:

    python3 benchmarks/selftest.py

They check that a tampered output is counted as failed, that a traced
run restores every name it patched (and changes no output), and that
the arena generator is a pure function of its seed.
"""

from __future__ import annotations

import math
import unittest

import harness
from arena import arena_text
from spantrace import TARGETS, Tracer, summarize
from spikeants.scenario import parse_scenario
from spikeants.world import Grid

TINY = 12  # world ticks per repeat
SEED = 7


def repeats(name: str, n: int = 3, tracer=None) -> list[harness.Repeat]:
    wl = harness.WORKLOADS[name]
    text = wl.scenario_text(SEED)
    return [harness.run_repeat(wl, text, SEED, TINY, tracer) for _ in range(n)]


def patched_objects() -> list:
    return [vars(owner).get(attr) for owner, attr, _ in TARGETS]


class OutputCheck(unittest.TestCase):
    def test_identical_repeats_pass(self):
        for name in harness.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(harness.failed_flags(repeats(name)), [False] * 3)

    def test_tampered_output_is_counted(self):
        reps = repeats("forage_ref")
        csv = reps[1].outputs["csv"]
        reps[1].outputs["csv"] = csv[:-2] + bytes([csv[-2] ^ 1]) + csv[-1:]
        flags = harness.failed_flags(reps)
        self.assertEqual(flags, [False, True, False])
        self.assertAlmostEqual(sum(flags) / len(flags), 1 / 3)

    def test_tampered_weights_are_counted(self):
        reps = repeats("train_ref")
        reps[0].outputs["weights"] += b"#"
        self.assertEqual(harness.failed_flags(reps), [True, False, False])

    def test_reference_mismatch_fails_every_repeat(self):
        reps = repeats("forage_ref", n=2)
        self.assertEqual(harness.failed_flags(reps, reference="0" * 16), [True, True])

    def test_broken_invariant_is_counted(self):
        reps = repeats("forage_ref", n=2)
        reps[1].errors.append("food not conserved")
        self.assertEqual(harness.failed_flags(reps), [False, True])

    def test_field_check(self):
        grid = Grid(3, 3)
        self.assertEqual(harness.field_errors(grid), [])
        grid.negative[1, 1] = -0.5
        grid.positive[0, 0] = math.nan
        self.assertEqual(harness.field_errors(grid),
                         ["non-finite positive pheromone", "negative negative pheromone"])


class TracedRun(unittest.TestCase):
    def test_every_patched_name_is_restored(self):
        before = patched_objects()
        tracer = Tracer()
        with tracer.installed():
            during = patched_objects()
            repeats("swarm_frames", n=1, tracer=tracer)
        after = patched_objects()
        for (owner, attr, _), b, d, a in zip(TARGETS, before, during, after):
            with self.subTest(target=f"{owner.__name__}.{attr}"):
                self.assertIsNotNone(b)
                self.assertIsNot(d, b)
                self.assertIs(a, b)

    def test_names_are_restored_after_an_error(self):
        before = patched_objects()
        with self.assertRaises(RuntimeError):
            with Tracer().installed():
                raise RuntimeError("inside a traced block")
        for b, a in zip(before, patched_objects()):
            self.assertIs(a, b)

    def test_tracing_changes_no_output(self):
        for name in harness.WORKLOADS:
            with self.subTest(workload=name):
                with Tracer().installed() as tracer:
                    traced = repeats(name, n=1, tracer=tracer)[0]
                self.assertEqual(traced.digest, repeats(name, n=1)[0].digest)

    def test_counts_repeat_exactly(self):
        tracer = Tracer()
        counts = []
        with tracer.installed():
            for _ in range(2):
                tracer.clear()
                repeats("train_ref", n=1, tracer=tracer)
                layers = harness.layer_metrics(summarize(tracer.names, tracer.columns()),
                                               TINY, 1)
                counts.append({k: layers[k] for k in harness.COUNT_METRICS})
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["snn.steps"], TINY * 10)
        self.assertEqual(counts[0]["agents.step_ant_calls"], TINY)


class ArenaGenerator(unittest.TestCase):
    def test_same_seed_same_text(self):
        for seed in (0, 1, 2, 99, 2**31):
            self.assertEqual(arena_text(seed), arena_text(seed))

    def test_seeds_give_different_arenas(self):
        self.assertEqual(len({arena_text(seed) for seed in range(6)}), 6)

    def test_arena_is_a_valid_walled_swarm_scenario(self):
        scen = parse_scenario(arena_text(3))
        self.assertEqual((scen.width, scen.height), (200, 200))
        self.assertEqual(scen.random_ants, 100)
        self.assertTrue(scen.boundary_is_walled())
        body = "".join(scen.rows)
        self.assertIn("F", body)
        self.assertIn("R", body)


if __name__ == "__main__":
    unittest.main()
