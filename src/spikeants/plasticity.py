"""Spike-timing-dependent plasticity: learning window and weight updates.

The window follows the classical exponential form: a presynaptic pulse
arriving before the postsynaptic action potential potentiates the
synapse, one arriving at or after it depresses it. The time difference
convention throughout is

    delta_t = pre_arrival_tick - post_spike_tick

so negative delta_t means the causal (pre-before-post) case. Arrival
times already include the synaptic transmission delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .snn import Synapse


class PlasticityError(ValueError):
    """Raised when an update is applied to a non-plastic synapse."""


@dataclass(frozen=True)
class StdpConfig:
    # Potentiation outweighs depression so that embodied conditioning
    # (where stray acausal pairings are unavoidable) still converges.
    a_plus: float = 0.15
    a_minus: float = 0.02
    tau_plus: float = 20.0
    tau_minus: float = 20.0
    w_min: float = 0.0
    # The ceiling equals the neurons' firing threshold: a fully
    # conditioned pathway is exactly strong enough to act as a reflex,
    # which is also where the self-limiting conditioning dynamics settle.
    w_max: float = 1.0
    # Reach of the window in ticks, always derived from the time constants
    # (5 * max(tau_plus, tau_minus)), so dataclasses.replace derives it again.
    window_cutoff: int = field(init=False)

    def __post_init__(self):
        for name in ("a_plus", "a_minus", "tau_plus", "tau_minus"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.w_min < math.inf:
            raise ValueError("w_min must be finite and non-negative")
        if not self.w_max < math.inf:
            raise ValueError("w_max must be finite")
        if not self.w_min < self.w_max:
            raise ValueError("w_min must be below w_max")
        object.__setattr__(self, "window_cutoff",
                           math.ceil(5 * max(self.tau_plus, self.tau_minus)))


def stdp_window(delta_t: float, cfg: StdpConfig) -> float:
    """Weight change contributed by one (pre arrival, post spike) pair."""
    if delta_t < 0:
        return cfg.a_plus * math.exp(delta_t / cfg.tau_plus)
    return -cfg.a_minus * math.exp(-delta_t / cfg.tau_minus)


def on_post_spike(synapse: Synapse, arrivals: Iterable[int], post_tick: int,
                  cfg: StdpConfig) -> float:
    """Update a synapse when its postsynaptic neuron fires.

    `arrivals` are the ticks on which pulses through this synapse reached
    the postsynaptic membrane. Sums the window over every arrival at or
    before the action potential (later arrivals are the business of
    on_pre_spike, so each pair is counted exactly once) and clamps the
    result into [w_min, w_max]. Returns the new weight.

    A pulse arriving on the firing tick is credited with +a_plus, the
    limit from the causal side, not with the zero-gap depression value
    the window gives: the stepper integrates pulses before the threshold
    test, so within the tick a same-tick pulse in fact precedes the
    action potential it helped trigger.
    """
    _require_plastic(synapse)
    dw = 0.0
    for arrival in arrivals:
        if arrival > post_tick or post_tick - arrival > cfg.window_cutoff:
            continue
        if arrival == post_tick:
            dw += cfg.a_plus
        else:
            dw += stdp_window(arrival - post_tick, cfg)
    synapse.weight = _clamp(synapse.weight + dw, cfg)
    return synapse.weight


def on_pre_spike(synapse: Synapse, post_ticks: Iterable[int], arrival_tick: int,
                 cfg: StdpConfig) -> float:
    """Update a synapse when a presynaptic pulse arrives.

    `post_ticks` are the firing ticks of the postsynaptic neuron. Applies
    the depression branch against every one strictly before the arrival;
    simultaneous pairs were already handled by on_post_spike. Returns
    the new weight.
    """
    _require_plastic(synapse)
    dw = 0.0
    for post in post_ticks:
        if post < arrival_tick and arrival_tick - post <= cfg.window_cutoff:
            dw += stdp_window(arrival_tick - post, cfg)
    synapse.weight = _clamp(synapse.weight + dw, cfg)
    return synapse.weight


def _require_plastic(synapse: Synapse):
    if not synapse.plastic:
        raise PlasticityError("synapse is not plastic")


def _clamp(w: float, cfg: StdpConfig) -> float:
    if w < cfg.w_min:
        return cfg.w_min
    if w > cfg.w_max:
        return cfg.w_max
    return w
