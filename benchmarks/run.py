"""Run one spikeants benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload forage_ref --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the simulator is imported from
`src/`. With `--trace 0` the workload is repeated for `--seconds` and the
end-to-end metrics are reported; with `--trace 1` half the time runs
untraced and half with every layer wrapped in spans, and the per-layer
metrics plus the tracing overhead are reported. The last line of
standard output is one JSON object (correct, attempted, failed,
metrics); the full result, with quartiles, output digests and
provenance, goes to `benchmarks/results/`.
"""

from __future__ import annotations

import argparse
import json
import sys

WORKLOAD_NAMES = ("forage_ref", "train_ref", "swarm_frames")
E2E_UNITS = {"ticks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.startswith("trace.ticks_per_s"):
        return "1/s"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import harness
    except ImportError as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[args.workload]
    text = wl.scenario_text(args.seed)
    reference = harness.reference_digest(wl, args.seed)
    harness.warm_up(wl, text, args.seed)

    measure = harness.measure_layers if args.trace else harness.measure_end_to_end
    repeats, flags, stats, host = measure(wl, text, args.seed, args.seconds, reference)
    unit = layer_unit if args.trace else E2E_UNITS.__getitem__
    failed = sum(flags)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(repeats),
        "failed": failed,
        "failed_frac": failed / len(repeats),
        "reference_digest": reference,
        "digests": [r.digest for r in repeats],
        "errors": sorted({e for r in repeats for e in r.errors}),
        "metrics": {name: dict(s, unit=unit(name)) for name, s in stats.items()},
        "host": host,
        "provenance": harness.provenance(args.seed),
    }
    harness.RESULTS.mkdir(exist_ok=True)
    out = harness.RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"repeats {len(repeats)}  failed {failed}  "
          f"failed_frac {result['failed_frac']:.3f}  digest {repeats[0].digest}")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    for name, s in stats.items():
        print(f"  {name:28s} {s['median']:14.6g} {unit(name):6s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    for name, s in host.items():
        print(f"  {name:28s} {s['median']:14.6g}  raw host figure, not scaled")
    print(f"  full result: {out.relative_to(harness.ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": unit(name)}
                    for name, s in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
