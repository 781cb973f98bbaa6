"""End-to-end benchmark of checked runs: one command, four workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload reduce-zipf --seed 1 \\
        --seconds 15 --trace 0 [--out results.jsonl] [--smoke]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  ``--out`` appends the full record (both metric sets
when tracing, the spans, the error messages) as one JSON line.  The exit
code is 1 when any operation failed or the traced replay diverged, 2 when
the benchmark cannot run at all (no ``src/`` to import, or a workload the
process backend cannot carry).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = {
    "reduce-zipf": "batch",
    "reduce-unique": "batch",
    "stream-windows": "stream",
    "service-chaos": "service",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full record here")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the smoke test"
    )
    return parser.parse_args(argv)


def _metrics(spec: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"workload did not measure {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec
    }


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing.shared_memory`` started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import importlib

    from common import WorkloadTooLarge, median

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        outcome = module.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    except WorkloadTooLarge as exc:
        print(f"refusing {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        _stop_resource_tracker()

    correct = outcome.failed == 0 and outcome.replay_matches is not False
    # A workload that gave up after repeated failures measured nothing.
    end_to_end = (
        _metrics(spec["end_to_end"], outcome.end_to_end) if outcome.end_to_end else {}
    )
    per_layer = (
        _metrics(spec["per_layer"], outcome.per_layer) if outcome.per_layer else {}
    )
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "error_rate": outcome.failed / max(outcome.attempted, 1),
            "replay_matches": outcome.replay_matches,
            "errors": outcome.errors,
            # Timings are reported at nominal speed; this is the median
            # factor that took the machine's measured speed there.
            "speed_factor": (
                median(outcome.probe.factors) if outcome.probe.factors else None
            ),
            "metrics": {**end_to_end, **per_layer},
            "spans": outcome.spans,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    for message in outcome.errors:
        print(f"error: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": per_layer if args.trace else end_to_end,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
