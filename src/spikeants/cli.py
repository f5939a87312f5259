"""Command-line interface.

Subcommands:
    train     train one ant on a scenario, write a weight file + CSV
    run       foraging run: metrics CSV/JSON, optional frame dumps
    compare   paired pheromone on/off runs with a delta summary
    render    draw a scenario's initial state as a PPM image
    validate  parse scenario (and config) only
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


class CliError(Exception):
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
    cfg = SimConfig()
    if getattr(args, "config", None):
        cfg = parse_config(_read(args.config), base=cfg)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "ticks", None) is not None:
        if cfg.phase_schedule:
            raise CliError("--ticks cannot override phase_schedule")
        cfg = replace(cfg, world_ticks=args.ticks)
    pher = getattr(args, "pheromone", None)
    if pher is not None:
        cfg = replace(cfg, pheromone_enabled=pher)
    return cfg


def _load_weights(args) -> Optional[dict]:
    from_file = getattr(args, "weights", None)
    idealized = getattr(args, "reference_weights", False)
    if from_file and idealized:
        raise CliError("use either --weights or --reference-weights, not both")
    if from_file:
        return parse_weights(_read(from_file))
    if idealized:
        return trained_reference_weights()
    return None


def _cmd_train(args) -> int:
    scenario = _load_scenario(args.scenario)
    cfg = _load_config(args)
    weights, metrics = run_training(cfg, scenario)
    Path(args.out_weights).write_text(format_weights(weights))
    if args.out_csv:
        Path(args.out_csv).write_text(metrics.to_csv_text())
    if args.out_json:
        Path(args.out_json).write_text(json.dumps(metrics.summary(), indent=2) + "\n")
    print(f"trained {metrics.ticks[-1]} ticks, "
          f"{metrics.boundary_resets[-1]} boundary resets, "
          f"weights -> {args.out_weights}")
    return 0


def _cmd_run(args) -> int:
    if args.frame_every < 1:
        raise CliError("--frame-every must be at least 1")
    scenario = _load_scenario(args.scenario)
    cfg = _load_config(args)
    weights = _load_weights(args)
    frame_hook = None
    if args.frames_dir:
        frames = Path(args.frames_dir)
        frames.mkdir(parents=True, exist_ok=True)
        every = args.frame_every

        def frame_hook(tick, grid, ants):
            if tick % every == 0:
                (frames / f"frame_{tick:08d}.ppm").write_bytes(
                    render_snapshot(grid, ants))

    metrics = run(cfg, scenario, weights=weights, frame_hook=frame_hook)
    Path(args.out_csv).write_text(metrics.to_csv_text())
    if args.out_json:
        Path(args.out_json).write_text(json.dumps(metrics.summary(), indent=2) + "\n")
    s = metrics.summary()
    print(f"ran {s['ticks']} ticks, food {s['initial_total_food']} -> "
          f"{s['final_total_food']}, metrics -> {args.out_csv}")
    return 0


def _cmd_compare(args) -> int:
    scenario = _load_scenario(args.scenario)
    cfg = _load_config(args)
    weights = _load_weights(args)
    result = compare(cfg, scenario, weights=weights)
    Path(args.out_on).write_text(result.enabled.to_csv_text())
    Path(args.out_off).write_text(result.disabled.to_csv_text())
    summary = result.summary()
    if args.out_summary:
        Path(args.out_summary).write_text(json.dumps(summary, indent=2) + "\n")
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
    n_ants = ant_count(scenario, _load_config(args))
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
    sub = parser.add_subparsers(dest="command", required=True)

    scenario_help = "scenario file, or @training / @foraging for the bundled ones"

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--ticks", type=int, help="override world_ticks")

    p = sub.add_parser("train", help="train one ant, export weights")
    p.add_argument("--scenario", required=True, help=scenario_help)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="run a foraging simulation")
    p.add_argument("--scenario", required=True, help=scenario_help)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json")
    p.add_argument("--weights", help="trained weight file")
    p.add_argument("--reference-weights", action="store_true",
                   help="use the idealized trained weight set")
    p.add_argument("--pheromone", dest="pheromone", action="store_true",
                   default=None, help="force pheromone deposition on")
    p.add_argument("--no-pheromone", dest="pheromone", action="store_false",
                   help="disable pheromone deposition")
    p.add_argument("--frames-dir", help="dump PPM frames into this directory")
    p.add_argument("--frame-every", type=int, default=100,
                   help="dump a frame every N ticks (default 100)")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="paired pheromone on/off runs")
    p.add_argument("--scenario", required=True, help=scenario_help)
    p.add_argument("--out-on", required=True)
    p.add_argument("--out-off", required=True)
    p.add_argument("--out-summary")
    p.add_argument("--weights")
    p.add_argument("--reference-weights", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("render", help="render a scenario to a PPM image")
    p.add_argument("--scenario", required=True, help=scenario_help)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("validate", help="parse scenario/config and exit")
    p.add_argument("--scenario", required=True, help=scenario_help)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("defaults", help="print the reference configuration")
    p.set_defaults(func=_cmd_defaults)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every --out-* file must lie in an existing directory: check before any run.
        for dest, path in vars(args).items():
            if dest.startswith("out_") and path and not Path(path).parent.is_dir():
                raise CliError(f"cannot write {path}: no such directory")
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
