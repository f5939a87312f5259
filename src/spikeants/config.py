"""Flat key-value run configuration.

Every tunable of the simulator appears here under a documented key with
a default; a config file may set any subset. Unknown keys are rejected
so typos fail loudly. Values are `key = value` lines; blank lines and
`#` comments are allowed.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from .agents import AntConfig, SimPhase
from .circuit import CircuitConfig
from .plasticity import StdpConfig
from .world import EvaporationConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs besides the scenario itself."""
    seed: int = 0
    world_ticks: int = 1000
    n_ants: int = 0  # 0 -> take the ant count from the scenario
    pheromone_enabled: bool = True
    learn_during_foraging: bool = False
    phase_schedule: tuple[tuple[SimPhase, int], ...] = ()
    stdp: StdpConfig = field(default_factory=StdpConfig)
    evaporation: EvaporationConfig = field(default_factory=EvaporationConfig)
    ant: AntConfig = field(default_factory=AntConfig)
    circuit: CircuitConfig = field(default_factory=CircuitConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.world_ticks < 1:
            raise ConfigError("world_ticks must be positive")
        if self.n_ants < 0:
            raise ConfigError("n_ants must be non-negative")
        if any(t < 1 for _, t in self.phase_schedule):
            raise ConfigError("phase_schedule ticks must be positive")

    @property
    def phases(self) -> tuple[tuple[SimPhase, int], ...]:
        """The phases a run steps: the phase_schedule, or a single
        foraging phase of world_ticks when that is empty."""
        return self.phase_schedule or ((SimPhase.FORAGING, self.world_ticks),)


def _parse_schedule(raw: str) -> tuple[tuple[SimPhase, int], ...]:
    """'training:2000,foraging:8000' -> ((TRAINING, 2000), (FORAGING, 8000))."""
    if not raw.strip():
        return ()
    out = []
    for part in raw.split(","):
        name, _, ticks = part.strip().partition(":")
        try:
            phase = SimPhase(name)
        except ValueError:
            raise ValueError(f"unknown phase '{name}'")
        out.append((phase, int(ticks)))
    return tuple(out)


def _format_schedule(schedule) -> str:
    return ",".join(f"{phase.value}:{ticks}" for phase, ticks in schedule)


def _parse_bool(raw: str) -> bool:
    if raw in ("true", "True", "1", "yes", "on"):
        return True
    if raw in ("false", "False", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: '{raw}'")


# key -> (section, field name, parser)
_KEYS: dict[str, tuple[Optional[str], str, Callable[[str], Any]]] = {
    "seed": (None, "seed", int),
    "world_ticks": (None, "world_ticks", int),
    "n_ants": (None, "n_ants", int),
    "pheromone_enabled": (None, "pheromone_enabled", _parse_bool),
    "learn_during_foraging": (None, "learn_during_foraging", _parse_bool),
    "phase_schedule": (None, "phase_schedule", _parse_schedule),
    "stdp_a_plus": ("stdp", "a_plus", float),
    "stdp_a_minus": ("stdp", "a_minus", float),
    "stdp_tau_plus": ("stdp", "tau_plus", float),
    "stdp_tau_minus": ("stdp", "tau_minus", float),
    "stdp_w_min": ("stdp", "w_min", float),
    "stdp_w_max": ("stdp", "w_max", float),
    "evap_rho_positive": ("evaporation", "rho_positive", float),
    "evap_rho_negative": ("evaporation", "rho_negative", float),
    "evap_clear_threshold": ("evaporation", "clear_threshold", float),
    "ant_brain_steps": ("circuit", "brain_steps_per_world_tick", int),
    "ant_positive_deposit_ticks": ("ant", "positive_deposit_ticks", int),
    "ant_deposit_amount_positive": ("ant", "deposit_amount_positive", float),
    "ant_deposit_amount_negative": ("ant", "deposit_amount_negative", float),
    "ant_rotate_direction": ("ant", "rotate_direction", str),
    "circuit_pacemaker_period": ("circuit", "pacemaker_period", int),
    "circuit_reflex_weight": ("circuit", "reflex_weight", float),
    "circuit_drive_weight": ("circuit", "drive_weight", float),
    "circuit_sense_amplitude": ("circuit", "sense_amplitude", float),
    "circuit_plastic_init_fraction": ("circuit", "plastic_init_fraction", float),
    "circuit_np_pulse_count": ("circuit", "np_pulse_count", int),
    "circuit_np_tau": ("circuit", "np_tau", float),
    "circuit_np_inhibit_weight": ("circuit", "np_inhibit_weight", float),
    "circuit_nociceptor_refractory": ("circuit", "nociceptor_refractory", int),
    "neuron_rest": ("circuit", "resting_potential", float),
    "neuron_threshold": ("circuit", "firing_threshold", float),
    "neuron_refractory_potential": ("circuit", "refractory_potential", float),
    "neuron_refractory_ticks": ("circuit", "refractory_ticks", int),
    "neuron_decay_tau": ("circuit", "membrane_tau", float),
}
# Field names are unique across sections, so each one maps back to its key.
_KEY_OF_FIELD = {attr: key for key, (_, attr, _) in _KEYS.items()}


def parse_config(text: str) -> SimConfig:
    """Parse config text into a SimConfig, layered over the defaults."""
    cfg = SimConfig()
    # Sections apply in this fixed order, the top level last, which
    # fixes the error reported for a config with several bad keys.
    sections: dict[Optional[str], dict[str, Any]] = {
        "stdp": {}, "evaporation": {}, "ant": {}, "circuit": {}, None: {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = parts
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        section, attr, parser = _KEYS[key]
        if attr in sections[section]:
            raise ConfigError(f"line {lineno}: repeated key '{key}'")
        try:
            sections[section][attr] = parser(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for '{key}': '{value}'")
    try:
        for section, fields in sections.items():
            if not fields:
                continue
            if section is not None:
                fields = {section: replace(getattr(cfg, section), **fields)}
            cfg = replace(cfg, **fields)
    except ValueError as exc:
        # The config classes name their own fields; report the keys.
        raise ConfigError(re.sub(r"\w+", lambda m: _KEY_OF_FIELD.get(m[0], m[0]), str(exc)))
    return cfg


def serialize_config(cfg: SimConfig) -> str:
    """Canonical full-precision dump of every key, sorted."""
    lines = []
    for key in sorted(_KEYS):
        section, attr, _ = _KEYS[key]
        obj = cfg if section is None else getattr(cfg, section)
        value = getattr(obj, attr)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        elif key == "phase_schedule":
            text = _format_schedule(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: SimConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def config_reference_text() -> str:
    """The documented defaults, as a ready-to-edit config file."""
    return serialize_config(SimConfig())
