"""Command-line interface.

Subcommands:
    train     train one ant on a scenario, write a weight file + CSV
    run       foraging run: metrics CSV/JSON, optional frame dumps
    compare   paired pheromone on/off runs with a delta summary
    render    draw a scenario's initial state as a PPM image
    validate  parse scenario (and config); print the brain ticks a run asks for
    defaults  print the reference configuration

All exits are 0 on success and nonzero with a one-line diagnostic on
stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .circuit import format_weights, parse_weights, trained_reference_weights
from .config import SimConfig, config_reference_text, parse_config
from .engine import ant_count, compare, run, run_training
from .render import render_snapshot
from .scenario import parse_scenario, reference_scenario


class CliError(ValueError):
    pass


def _load_scenario(path: str):
    if path.startswith("@"):
        return reference_scenario(path[1:])
    return parse_scenario(_read(path))


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"no such file: {path}")
    return p.read_text()


def _load_config(args) -> SimConfig:
    cfg = parse_config(_read(args.config)) if args.config else SimConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.ticks is not None:
        if cfg.phase_schedule:
            raise CliError("--ticks cannot override phase_schedule")
        cfg = replace(cfg, world_ticks=args.ticks)
    if args.pheromone is not None:
        cfg = replace(cfg, pheromone_enabled=args.pheromone)
    return cfg


def _load_weights(args, cfg: SimConfig) -> Optional[dict]:
    if args.weights and args.reference_weights:
        raise CliError("use either --weights or --reference-weights, not both")
    if args.weights:
        return parse_weights(_read(args.weights))
    if args.reference_weights:
        return trained_reference_weights(cfg.stdp)
    return None


def _write_summary(path: Optional[str], summary: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(summary, indent=2) + "\n")


def _cmd_train(args) -> int:
    scenario = _load_scenario(args.scenario)
    cfg = _load_config(args)
    weights, metrics = run_training(cfg, scenario)
    Path(args.out_weights).write_text(format_weights(weights))
    if args.out_csv:
        Path(args.out_csv).write_text(metrics.to_csv_text())
    _write_summary(args.out_json, metrics.summary())
    print(f"trained {metrics.ticks[-1]} ticks, "
          f"{metrics.boundary_resets[-1]} boundary resets, "
          f"weights -> {args.out_weights}")
    return 0


def _cmd_run(args) -> int:
    if args.frame_every < 1:
        raise CliError("--frame-every must be at least 1")
    scenario = _load_scenario(args.scenario)
    cfg = _load_config(args)
    weights = _load_weights(args, cfg)
    frame_hook = None
    if args.frames_dir:
        frames, every = Path(args.frames_dir), args.frame_every

        def frame_hook(tick, grid, ants):
            if tick == 1:
                frames.mkdir(parents=True, exist_ok=True)
            if tick % every == 0:
                (frames / f"frame_{tick:08d}.ppm").write_bytes(
                    render_snapshot(grid, ants))

    metrics = run(cfg, scenario, weights=weights, frame_hook=frame_hook)
    Path(args.out_csv).write_text(metrics.to_csv_text())
    s = metrics.summary()
    _write_summary(args.out_json, s)
    print(f"ran {s['ticks']} ticks, food {s['initial_total_food']} -> "
          f"{s['final_total_food']}, metrics -> {args.out_csv}")
    return 0


def _cmd_compare(args) -> int:
    scenario = _load_scenario(args.scenario)
    cfg = _load_config(args)
    weights = _load_weights(args, cfg)
    result = compare(cfg, scenario, weights=weights)
    Path(args.out_on).write_text(result.enabled.to_csv_text())
    Path(args.out_off).write_text(result.disabled.to_csv_text())
    summary = result.summary()
    _write_summary(args.out_summary, summary)
    print(f"pheromone on: {summary['food_consumed_enabled']} eaten, "
          f"off: {summary['food_consumed_disabled']} eaten")
    return 0


def _cmd_render(args) -> int:
    scenario = _load_scenario(args.scenario)
    grid = scenario.build_grid()
    Path(args.out).write_bytes(render_snapshot(grid))
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    scenario = _load_scenario(args.scenario)
    cfg = _load_config(args)
    n_ants = ant_count(scenario, cfg)
    world_ticks = sum(ticks for _, ticks in cfg.phase_schedule) or cfg.world_ticks
    steps = cfg.circuit.brain_steps_per_world_tick
    print(f"{world_ticks} world ticks x {n_ants} ants x {steps} ant_brain_steps = "
          f"{world_ticks * n_ants * steps} brain ticks")
    print(f"ok: {scenario.width}x{scenario.height}, "
          f"{scenario.build_grid().total_food()} food units, {n_ants} ants")
    return 0


def _cmd_defaults(args) -> int:
    print(config_reference_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikeants",
        description="Spiking-neural-network ants on a double-pheromone grid world.")
    # Subcommands without an option read its default from here.
    parser.set_defaults(scenario=None, config=None, seed=None, ticks=None,
                        pheromone=None, weights=None, reference_weights=False)
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: each option shared by several subcommands is declared once.
    scenario, config, overrides, weights = (
        argparse.ArgumentParser(add_help=False) for _ in range(4))
    scenario.add_argument("--scenario", required=True,
                          help="scenario file, or @training / @foraging for the bundled ones")
    config.add_argument("--config", help="flat key=value config file")
    overrides.add_argument("--seed", type=int, help="override the run seed")
    overrides.add_argument("--ticks", type=int, help="override world_ticks")
    weights.add_argument("--weights", help="trained weight file")
    weights.add_argument("--reference-weights", action="store_true",
                         help="use the idealized trained weight set")

    p = sub.add_parser("train", parents=[scenario, config, overrides],
                       help="train one ant, export weights")
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", parents=[scenario, config, overrides, weights],
                       help="run a foraging simulation")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json")
    p.add_argument("--pheromone", action=argparse.BooleanOptionalAction,
                   help="force pheromone deposition on or off")
    p.add_argument("--frames-dir", help="dump PPM frames into this directory")
    p.add_argument("--frame-every", type=int, default=100,
                   help="dump a frame every N ticks (default 100)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", parents=[scenario, config, overrides, weights],
                       help="paired pheromone on/off runs")
    p.add_argument("--out-on", required=True)
    p.add_argument("--out-off", required=True)
    p.add_argument("--out-summary")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("render", parents=[scenario], help="render a scenario to a PPM image")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("validate", parents=[scenario, config],
                       help="parse scenario/config and exit")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("defaults", help="print the reference configuration")
    p.set_defaults(func=_cmd_defaults)

    return parser


def _check_outputs(args):
    """Fail before anything runs on an unwritable output, on two outputs at
    one path, or on an output at the path of an input file."""
    # "@name" scenarios are bundled, not read from a file.
    inputs = {Path(path).resolve(): "--" + dest for dest in ("config", "weights", "scenario")
              if (path := getattr(args, dest))
              and not (dest == "scenario" and path.startswith("@"))}
    seen: dict[Path, str] = {}
    for dest, path in vars(args).items():
        if not path or not (dest in ("out", "frames_dir") or dest.startswith("out_")):
            continue
        target, flag = Path(path), "--" + dest.replace("_", "-")
        if dest == "frames_dir":
            # Created only once the run starts: a run that fails first leaves nothing.
            nearest = next(p for p in (target, *target.parents) if p.exists())
            if not nearest.is_dir():
                raise CliError(f"cannot create {path}: {nearest} is not a directory")
        elif not target.parent.is_dir():
            raise CliError(f"cannot write {path}: no such directory")
        elif target.is_dir():
            raise CliError(f"cannot write {path}: it is a directory")
        resolved = target.resolve()
        if resolved in inputs:
            raise CliError(f"{flag} would overwrite the {inputs[resolved]} file {path}")
        other = seen.setdefault(resolved, flag)
        if other != flag:
            raise CliError(f"{other} and {flag} both write {path}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
