"""Workloads, timed repeats and output checks for the spikeants benchmark.

Everything here drives the simulator through its public API
(`scenario.parse_scenario`, `engine.run`, `engine.run_training`,
`render.render_snapshot`). A workload is a scenario text plus a config
text, both made from the workload seed; the simulator sees nothing else.

One repeat parses the scenario, builds the world and the ants exactly as
`engine.run` does before its first tick (timed as set-up), then calls
`engine.run`/`engine.run_training` for a fixed number of world ticks.
The tick loop is timed through `frame_hook`, in chunks of ticks; for
`run_training`, which takes no hook, it is the whole call less the part
of set-up the call repeats (grid, ants).

Host speed: the shared hosts this runs on change speed by up to 2x over
seconds to minutes, for the same work, without any sign inside the
machine. So every timed piece (chunk, frame, set-up) is paired with a
calibration loop timed next to it, and the reported times are scaled to
a host that runs that loop in REFERENCE_CALIBRATION_S. The raw host
figures are kept in the result file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "spikeants" / "__init__.py").is_file():
    raise ImportError(f"spikeants sources not found under {_SRC}")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

import spikeants  # noqa: E402
from spikeants import circuit, config, engine, render, scenario  # noqa: E402

import arena  # noqa: E402
from spantrace import Tracer, summarize  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference_hashes.json"
RESULTS = BENCH_DIR / "results"
REFERENCE_SEED = 1
WARMUP_TICKS = 20
MIN_REPEATS = 3
MIN_SETUPS = 9
CALIBRATION_ITERS = 60_000
REFERENCE_CALIBRATION_S = 0.010


def _bundled(name: str) -> Callable[[int], str]:
    def text(seed: int) -> str:
        return scenario.serialize_scenario(scenario.reference_scenario(name))
    return text


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_text: Callable[[int], str]
    ticks: int              # world ticks per repeat
    chunk: int = 0          # ticks per timed chunk of the loop (0: whole repeat)
    training: bool = False  # engine.run_training instead of engine.run
    frame_every: int = 0    # render one frame every N ticks (0: none)


# Each workload leans on different layers, so that an optimisation of one
# mechanism has a workload that exercises it and one that bypasses it:
#  forage_ref   - the paper's swarm experiment: Network.step and colour
#                 lookups dominate; no STDP, no frames.
#  train_ref    - the only workload with STDP bookkeeping and weight
#                 updates; one ant, small grid, so batching cannot help.
#  swarm_frames - 100 ants on a generated 200x200 arena with a frame
#                 every 100 ticks: per-ant scaling, render, evaporation
#                 of a large field, and the largest set-up and memory.
WORKLOADS = {
    "forage_ref": Workload("forage_ref", _bundled("foraging"), ticks=1000, chunk=50),
    "train_ref": Workload("train_ref", _bundled("training"), ticks=1000, training=True),
    "swarm_frames": Workload("swarm_frames", arena.arena_text, ticks=300, chunk=10,
                             frame_every=100),
}


def config_text(seed: int, ticks: int) -> str:
    return f"seed = {seed}\nworld_ticks = {ticks}\n"


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def calibrate() -> float:
    """Seconds this host takes now for a fixed piece of interpreter-bound
    work that uses no spikeants code."""
    started = time.perf_counter()
    acc: dict[int, float] = {}
    total = 0.0
    for i in range(CALIBRATION_ITERS):
        key = i & 63
        value = acc.get(key, 0.0) * 0.5 + i
        acc[key] = value
        total += value
    return time.perf_counter() - started


def host_scale(calibration_s: float, scaled: bool = True) -> float:
    """Factor that turns host seconds measured next to a calibration of
    `calibration_s` into seconds on the reference host."""
    return REFERENCE_CALIBRATION_S / calibration_s if scaled else 1.0


@dataclass
class Repeat:
    """One run of a workload: its timings and the outputs it produced.

    `chunks` holds (ticks, seconds, calibration seconds) pieces of
    tick-loop time with frame rendering and the benchmark's own hook
    work taken out; `render` holds (seconds, calibration seconds) per
    rendered frame. All times are raw host seconds.
    """
    setup_s: float
    setup_cal: float
    chunks: list[tuple[int, float, float]]
    render: list[tuple[float, float]]
    outputs: dict[str, bytes]
    errors: list[str] = field(default_factory=list)  # broken invariants
    layers: Optional[dict] = None  # span summary, traced repeats only

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(f"{key}:{len(self.outputs[key])}:".encode())
            h.update(self.outputs[key])
        return h.hexdigest()[:16]


def tick_rates(repeats: list[Repeat], frame_every: int, scaled: bool = True) -> list[float]:
    """World ticks per second of each chunk, with the median frame's
    render cost spread over the `frame_every` ticks it belongs to;
    at reference host speed unless `scaled` is false.

    Their median is the workload's tick-loop throughput. Taking the
    median chunk rather than the total time keeps bursts of load from
    other processes on the host out of the figure.
    """
    render_per_tick = 0.0
    if frame_every:
        render_per_tick = statistics.median(
            s * host_scale(c, scaled) for r in repeats for s, c in r.render) / frame_every
    return [n / (s * host_scale(c, scaled) + n * render_per_tick)
            for r in repeats for n, s, c in r.chunks]


def field_errors(grid) -> list[str]:
    errors = []
    for name in ("positive", "negative"):
        values = getattr(grid, name)
        if not np.isfinite(values).all():
            errors.append(f"non-finite {name} pheromone")
        elif (values < 0).any():
            errors.append(f"negative {name} pheromone")
    return errors


class FrameSink:
    """`frame_hook` that times the tick loop in chunks of `chunk` ticks,
    renders and hashes a frame every `every` ticks (in memory), and
    checks the pheromone fields after the last tick."""

    def __init__(self, every: int, last_tick: int, chunk: int):
        self.every = every
        self.last_tick = last_tick
        self.chunk = chunk
        self.frames = hashlib.sha256()
        self.render: list[tuple[float, float]] = []
        self.chunks: list[tuple[int, float, float]] = []
        self.errors: Optional[list[str]] = None
        self._start: Optional[float] = None
        self._cal = 0.0
        self._hook_s = 0.0

    def __call__(self, tick, grid, ants):
        entered = time.perf_counter()
        if tick % self.chunk == 0:
            cal = calibrate()
            if self._start is not None:
                self.chunks.append((self.chunk, entered - self._start - self._hook_s,
                                    (self._cal + cal) / 2))
            self._start, self._cal, self._hook_s = entered, cal, 0.0
        if self.every and tick % self.every == 0:
            started = time.perf_counter()
            frame = render.render_snapshot(grid, ants)
            self.render.append((time.perf_counter() - started, self._cal))
            self.frames.update(frame)
        if tick == self.last_tick:
            self.errors = field_errors(grid)
        self._hook_s += time.perf_counter() - entered


def set_up(wl: Workload, text: str, cfg) -> tuple[scenario.Scenario, float, float]:
    """Build, from scenario text, what `engine.run` builds before its
    first tick. Returns the scenario, the seconds taken, and the seconds
    taken after parsing (the part `engine.run` repeats itself)."""
    t0 = time.perf_counter()
    scen = scenario.parse_scenario(text)
    t1 = time.perf_counter()
    grid = scen.build_grid(clear_threshold=cfg.evaporation.clear_threshold)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    ants = engine.build_ants(scen, cfg, grid, rng, learning=wl.training)
    if not wl.training:
        weights = circuit.trained_reference_weights(cfg.stdp)
        for ant in ants:
            ant.brain.set_weights(weights)
    t2 = time.perf_counter()
    return scen, t2 - t0, t2 - t1


def run_repeat(wl: Workload, text: str, seed: int, ticks: int,
               tracer: Optional[Tracer] = None) -> Repeat:
    cfg = config.parse_config(config_text(seed, ticks))
    setup_cal = calibrate()
    scen, setup_s, rebuilt_s = set_up(wl, text, cfg)
    sink = FrameSink(wl.frame_every, ticks, wl.chunk)
    hook = tracer.wrap("bench.hook", sink) if tracer else sink
    span = tracer.span("engine.run") if tracer else contextlib.nullcontext()
    started = time.perf_counter()
    with span:
        if wl.training:
            trained, metrics = engine.run_training(cfg, scen)
        else:
            metrics = engine.run(cfg, scen, weights=circuit.trained_reference_weights(cfg.stdp),
                                 frame_hook=hook)
    call_s = time.perf_counter() - started

    outputs = {"csv": metrics.to_csv_text().encode()}
    errors = []
    summary = metrics.summary()
    if summary["initial_total_food"] - summary["food_consumed"] != summary["final_total_food"]:
        errors.append("food not conserved")
    if wl.training:
        # run_training takes no frame hook: its loop is timed as the whole
        # call less the set-up it repeats. Training deposits no pheromone
        # and exposes no grid; its extra output is the weight set, which
        # must stay finite and in range.
        chunks = [(ticks, call_s - rebuilt_s, (setup_cal + calibrate()) / 2)]
        outputs["weights"] = circuit.format_weights(trained).encode()
        stdp = cfg.stdp
        if not all(math.isfinite(w) and stdp.w_min <= w <= stdp.w_max
                   for w in trained.values()):
            errors.append("weight outside [w_min, w_max]")
    else:
        chunks = sink.chunks
        if sink.errors is None:
            errors.append("run ended before its last tick")
        else:
            errors.extend(sink.errors)
        if wl.frame_every:
            outputs["frames"] = sink.frames.digest()
            if len(sink.render) != ticks // wl.frame_every:
                errors.append(f"{len(sink.render)} frames rendered")
    return Repeat(setup_s=setup_s, setup_cal=setup_cal, chunks=chunks, render=sink.render,
                  outputs=outputs, errors=errors)


def reference_digest(wl: Workload, seed: int) -> Optional[str]:
    """The recorded output digest of the workload, for the reference seed
    only (record it with `python3 benchmarks/harness.py`)."""
    if seed != REFERENCE_SEED:
        return None
    entry = json.loads(REFERENCE_FILE.read_text())[wl.name]
    if entry["seed"] != seed or entry["ticks"] != wl.ticks:
        raise ValueError(f"reference digest of {wl.name} was recorded for another "
                         "seed or tick count; record it again")
    return entry["digest"]


def record_reference():
    digests = {}
    for wl in WORKLOADS.values():
        rep = run_repeat(wl, wl.scenario_text(REFERENCE_SEED), REFERENCE_SEED, wl.ticks)
        if rep.errors:
            raise SystemExit(f"{wl.name}: {', '.join(rep.errors)}")
        digests[wl.name] = {"seed": REFERENCE_SEED, "ticks": wl.ticks,
                            "digest": rep.digest}
    REFERENCE_FILE.write_text(json.dumps(digests, indent=2) + "\n")


def failed_flags(repeats: list[Repeat], reference: Optional[str] = None) -> list[bool]:
    """A repeat fails when it broke an invariant or its digest differs
    from the reference (if given) or else from the most common digest
    of the run (ties go to the earliest)."""
    digests = [r.digest for r in repeats]
    expected = reference or Counter(digests).most_common(1)[0][0]
    return [bool(r.errors) or d != expected for r, d in zip(repeats, digests)]


def timed_repeats(wl: Workload, text: str, seed: int, seconds: float,
                  min_repeats: int, tracer: Optional[Tracer] = None) -> list[Repeat]:
    """Repeat the workload for about `seconds`: no repeat starts once the
    previous one's duration would overrun the budget."""
    repeats: list[Repeat] = []
    start = time.perf_counter()
    last = 0.0
    while len(repeats) < min_repeats or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        if tracer is not None:
            tracer.clear()
        repeats.append(run_repeat(wl, text, seed, wl.ticks, tracer))
        last = time.perf_counter() - t
        if tracer is not None:
            repeats[-1].layers = summarize(tracer.names, tracer.columns())
    return repeats


def setup_times(wl: Workload, text: str, seed: int, repeats: list[Repeat]
                ) -> list[tuple[float, float]]:
    """(seconds, calibration seconds) of every repeat's set-up, topped up
    to MIN_SETUPS samples."""
    times = [(r.setup_s, r.setup_cal) for r in repeats]
    cfg = config.parse_config(config_text(seed, wl.ticks))
    while len(times) < MIN_SETUPS:
        cal = calibrate()
        times.append((set_up(wl, text, cfg)[1], cal))
    return times


def warm_up(wl: Workload, text: str, seed: int):
    """Import-time and first-call costs are paid here, untimed."""
    run_repeat(wl, text, seed, min(wl.ticks, WARMUP_TICKS))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of a sample."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(summary: dict[str, dict], ticks: int, cells: int) -> dict[str, float]:
    """Per-layer figures of one traced repeat. `*_us`/`*_ms` are self time
    per call unless the metric is documented as inclusive; a layer with
    no calls reports 0."""
    empty = {"calls": 0, "incl_ns": 0.0, "self_ns": 0.0, "a": 0, "b": 0}

    def s(name):
        return summary.get(name, empty)

    def per_call(name, key="self_ns", unit_ns=1e3):
        calls = s(name)["calls"]
        return s(name)[key] / calls / unit_ns if calls else 0.0

    probe = s("bench.probe")
    pre, post = s("plasticity.on_pre_spike"), s("plasticity.on_post_spike")
    updates = pre["calls"] + post["calls"]
    return {
        "snn.step_us": per_call("snn.step"),
        "snn.steps": s("snn.step")["calls"],
        "snn.spikes": s("snn.step")["a"],
        "snn.idle_neuron_frac": probe["b"] / probe["a"] if probe["a"] else 0.0,
        "circuit.brain_step_us": per_call("circuit.brain_step", "incl_ns"),
        "circuit.stdp_self_us": per_call("circuit.brain_step"),
        "circuit.sense_us": per_call("circuit.sense"),
        "circuit.actuate_us": per_call("circuit.actuate"),
        "plasticity.pre_updates": pre["calls"],
        "plasticity.post_updates": post["calls"],
        "plasticity.update_us": ((pre["self_ns"] + post["self_ns"]) / updates / 1e3
                                 if updates else 0.0),
        "agents.perceive_us": per_call("agents.perceive"),
        "agents.step_ant_self_us": per_call("agents.step_ant"),
        "agents.step_ant_calls": s("agents.step_ant")["calls"],
        "world.color_lookups": s("world.effective_color_at")["calls"],
        "world.evaporate_us": per_call("world.evaporate_step"),
        "world.deposits": s("world.deposit")["calls"],
        "world.cells": cells,
        "engine.tick_self_us": s("engine.run")["self_ns"] / ticks / 1e3,
        "engine.sample_us": per_call("engine.sample"),
        "engine.build_ants_ms": per_call("engine.build_ants", "incl_ns", 1e6),
        "render.frame_ms": per_call("render.render_snapshot", "incl_ns", 1e6),
        "render.frames": s("render.render_snapshot")["calls"],
        "scenario.parse_ms": per_call("scenario.parse_scenario", "incl_ns", 1e6),
        "scenario.build_grid_ms": per_call("scenario.build_grid", "incl_ns", 1e6),
    }


COUNT_METRICS = ("snn.steps", "snn.spikes", "plasticity.pre_updates",
                 "plasticity.post_updates", "agents.step_ant_calls",
                 "world.color_lookups", "world.deposits", "world.cells",
                 "render.frames", "snn.idle_neuron_frac")


def measure_end_to_end(wl: Workload, text: str, seed: int, seconds: float,
                       reference: Optional[str]):
    """Untraced repeats for `seconds`: (repeats, failed flags, end-to-end
    stats, raw host figures)."""
    repeats = timed_repeats(wl, text, seed, seconds, MIN_REPEATS)
    flags = failed_flags(repeats, reference)
    setups = setup_times(wl, text, seed, repeats)
    stats = {
        "ticks_per_s": spread(tick_rates(repeats, wl.frame_every)),
        "setup_s": spread([s * host_scale(c) for s, c in setups]),
        "peak_rss_mb": spread([peak_rss_mb()]),
    }
    host = {
        "host.ticks_per_s": spread(tick_rates(repeats, wl.frame_every, scaled=False)),
        "host.setup_s": spread([s for s, _ in setups]),
        "host.calibration_s": spread([c for r in repeats for _, _, c in r.chunks]),
    }
    return repeats, flags, stats, host


def measure_layers(wl: Workload, text: str, seed: int, seconds: float,
                   reference: Optional[str]):
    """Half of `seconds` untraced, half traced: (repeats, failed flags,
    per-layer stats and tracing overhead, raw host figures). The spans
    of the last traced repeat are saved under RESULTS."""
    half = seconds / 2
    plain = timed_repeats(wl, text, seed, half, 2)
    tracer = Tracer()
    with tracer.installed():
        traced = timed_repeats(wl, text, seed, half, 2, tracer)
    RESULTS.mkdir(exist_ok=True)
    np.savez_compressed(RESULTS / f"spans-{wl.name}-seed{seed}.npz",
                        names=np.array(tracer.names), **tracer.columns())

    scen = scenario.parse_scenario(text)
    cells = scen.width * scen.height
    layers = [layer_metrics(r.layers, wl.ticks, cells) for r in traced]
    counts = {k: layers[0][k] for k in COUNT_METRICS}
    repeats = plain + traced
    flags = failed_flags(repeats, reference)
    # Counts are a pure function of the workload: a traced repeat whose
    # counts differ from the first one's is a failed repeat.
    for i, lm in enumerate(layers):
        if any(lm[k] != v for k, v in counts.items()):
            flags[len(plain) + i] = True
    stats = {name: spread([lm[name] for lm in layers]) for name in layers[0]}
    untraced = spread(tick_rates(plain, wl.frame_every))
    with_trace = spread(tick_rates(traced, wl.frame_every))
    stats["trace.ticks_per_s_untraced"] = untraced
    stats["trace.ticks_per_s_traced"] = with_trace
    stats["trace.overhead_frac"] = spread(
        [1.0 - with_trace["median"] / untraced["median"]])
    host = {"host.calibration_s": spread([c for r in repeats for _, _, c in r.chunks])}
    return repeats, flags, stats, host


# -- provenance ------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    workloads = {}
    for wl in WORKLOADS.values():
        cfg = config.parse_config(config_text(seed, wl.ticks))
        workloads[wl.name] = {
            "config_hash": config.config_hash(cfg),
            "scenario_hash": text_hash(wl.scenario_text(seed)),
            "ticks_per_repeat": wl.ticks,
            "frame_every": wl.frame_every,
        }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "package_version": spikeants.__version__,
        "workloads": workloads,
    }


if __name__ == "__main__":
    record_reference()
