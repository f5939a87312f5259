"""In-memory span tracer that times spikeants layers from outside.

A span is one call into a layer: (name, parent span, start ns, end ns,
a, b), where `a` and `b` carry per-call counts (spikes for a network
step; neurons examined and idle neurons for the idle probe). Spans are
appended to flat integer arrays and stay in memory until the caller
aggregates or saves them.

`Tracer.installed()` patches each traced name where the simulator looks
it up (module globals for functions imported by name, the class for
methods) and restores the exact original objects on exit, so the
untraced end-to-end runs execute the program with no wrappers at all.

Spans named `bench.*` cover the benchmark's own work inside a layer
call (the idle probe; the frame hook's calibration and hashing). They
are children of the layer span, so they are excluded from its self
time, and belong to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from spikeants import agents, circuit, engine, render, scenario, snn, world

# (owner, attribute, span name). Functions imported by name are patched
# in the module that calls them; methods are patched on their class.
TARGETS = (
    (snn.Network, "step", "snn.step"),
    (circuit.AntBrain, "step", "circuit.brain_step"),
    (circuit.AntBrain, "step_ticks", "circuit.step_ticks"),
    (circuit.AntBrain, "sense", "circuit.sense"),
    (circuit.AntBrain, "actuate", "circuit.actuate"),
    (circuit, "on_pre_spike", "plasticity.on_pre_spike"),
    (circuit, "on_post_spike", "plasticity.on_post_spike"),
    (engine, "step_ant", "agents.step_ant"),
    (agents, "perceive", "agents.perceive"),
    (world.Grid, "effective_color_at", "world.effective_color_at"),
    (world.Grid, "evaporate_step", "world.evaporate_step"),
    (world.Grid, "deposit", "world.deposit"),
    (engine.Metrics, "sample", "engine.sample"),
    (engine, "build_ants", "engine.build_ants"),
    (render, "render_snapshot", "render.render_snapshot"),
    (scenario, "parse_scenario", "scenario.parse_scenario"),
    (scenario.Scenario, "build_grid", "scenario.build_grid"),
)

PROBE = "bench.probe"
_OPEN = snn.NeuronPhase.OPEN


def idle_neurons(net: snn.Network) -> int:
    """Neurons the next step will leave unchanged: open, exactly at
    rest, and with no pulse due on that tick."""
    due = {post for post, _ in net.pending_pulses.get(net.current_tick + 1, ())}
    return sum(1 for i, (state, params) in enumerate(zip(net.states, net.params))
               if state.phase is _OPEN
               and state.membrane_potential == params.resting_potential
               and i not in due)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]

    def clear(self):
        """Drop every recorded span (the arrays are reused in place)."""
        for col in (self.name, self.parent, self.start, self.end, self.a, self.b):
            del col[:]
        del self._stack[1:]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.a.append(0)
        self.b.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)
        return traced

    def _wrap_network_step(self, fn):
        nid, probe = self._name_id("snn.step"), self._name_id(PROBE)
        opener, closer, a, b = self._open, self._close, self.a, self.b

        @functools.wraps(fn)
        def traced(net):
            pidx = opener(probe)
            a[pidx] = len(net.states)
            b[pidx] = idle_neurons(net)
            closer(pidx)
            idx = opener(nid)
            try:
                events = fn(net)
            finally:
                closer(idx)
            a[idx] = len(events)
            return events
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block.

        A target the program no longer defines is skipped; its layer
        then reports zero calls.
        """
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = vars(owner).get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                if name == "snn.step":
                    setattr(owner, attr, self._wrap_network_step(original))
                else:
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        """Copy of the recorded spans as numpy columns."""
        return {col: np.frombuffer(getattr(self, col), dtype=np.int64).copy()
                for col in ("name", "parent", "start", "end", "a", "b")}


def summarize(names: list[str], cols: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self ns, summed a and b.

    Self time is a span's duration minus the durations of its direct
    children (spans never overlap their parent's siblings, since the
    simulator is single-threaded).
    """
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_ns = dur - child
    out = {}
    for nid, name in enumerate(names):
        mask = cols["name"] == nid
        out[name] = {
            "calls": int(mask.sum()),
            "incl_ns": float(dur[mask].sum()),
            "self_ns": float(self_ns[mask].sum()),
            "a": int(cols["a"][mask].sum()),
            "b": int(cols["b"][mask].sum()),
        }
    return out
