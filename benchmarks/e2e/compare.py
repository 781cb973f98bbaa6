"""Compare end-to-end benchmark results of two or more commits.

Usage::

    python3 benchmarks/e2e/compare.py BASE.jsonl OTHER.jsonl [MORE.jsonl ...]

Each file holds the records ``run.py --out`` appends, one JSON line per
run.  Every later file is compared with the first.  Runs pair up by
workload and seed (in file order when a seed repeats).  For each workload
and metric the table shows both medians and quartiles, the share of pairs
each side wins, and a verdict:

* counts (units ``count``, ``B`` and ``fraction``) must match exactly,
  pair by pair: ``same`` or ``CHANGED``;
* end-to-end metrics are judged against their ``BENCHMARK.json`` bound:
  ``REGRESSION`` when the other median is worse by more than the bound,
  ``improved`` when the other side wins at least nine tenths of the pairs
  and the medians differ by more than the base's quartile distance,
  ``no regression`` otherwise, and ``unresolved`` when the base's own
  spread (quartile distance over median) exceeds the bound, unless every
  run of one side beats every run of the other;
* other per-layer metrics are shown without a verdict.

The exit code is 1 when any verdict is ``REGRESSION`` or ``CHANGED`` or
the other side failed more operations, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)
COUNT_UNITS = ("count", "B", "fraction")


def load(path: Path) -> dict:
    """``{workload: {seed: [record, ...]}}`` of one results file."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs[record["workload"]][record["seed"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: dict, other: dict, metric: str) -> list[tuple[float, float]]:
    out = []
    for seed in sorted(set(base) & set(other)):
        for a, b in zip(base[seed], other[seed]):
            if metric in a["metrics"] and metric in b["metrics"]:
                out.append(
                    (a["metrics"][metric]["value"], b["metrics"][metric]["value"])
                )
    return out


def verdict(spec: dict, matched: list[tuple[float, float]]) -> str:
    base = [a for a, _ in matched]
    other = [b for _, b in matched]
    if spec["unit"] in COUNT_UNITS:
        return "same" if all(a == b for a, b in matched) else "CHANGED"
    if "bound" not in spec:
        return ""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    q1, med, q3 = quartiles(base)
    other_med = statistics.median(other)
    change = sign * (other_med - med) / abs(med) if med else 0.0
    if med and (q3 - q1) / abs(med) > spec["bound"]:
        if all(sign * (b - a) < 0 for a in base for b in other):
            return "improved (every run)"
        if change > spec["bound"] and all(
            sign * (b - a) > 0 for a in base for b in other
        ):
            return "REGRESSION (every run)"
        return "unresolved"
    if change > spec["bound"]:
        return "REGRESSION"
    wins = sum(sign * (b - a) < 0 for a, b in matched)
    if wins >= 0.9 * len(matched) and abs(other_med - med) > q3 - q1:
        return "improved"
    return "no regression"


def compare(base_runs: dict, other_runs: dict) -> bool:
    """Print one comparison table; return True when nothing regressed."""
    ok = True
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for workload in sorted(set(base_runs) & set(other_runs)):
        base, other = base_runs[workload], other_runs[workload]
        failed = [
            sum(r["failed"] for rs in side.values() for r in rs)
            for side in (base, other)
        ]
        print(f"\n{workload}: failed operations {failed[0]} -> {failed[1]}")
        if failed[1] > failed[0]:
            ok = False
        print(
            f"  {'metric':32} {'unit':8} {'base q1/med/q3':>30} "
            f"{'other q1/med/q3':>30} {'wins b/o':>9}  verdict"
        )
        for spec in metrics:
            matched = pairs(base, other, spec["name"])
            if not matched:
                continue
            a = quartiles([x for x, _ in matched])
            b = quartiles([y for _, y in matched])
            sign = 1.0 if spec["better"] == "lower" else -1.0
            base_wins = sum(sign * (x - y) < 0 for x, y in matched) / len(matched)
            other_wins = sum(sign * (y - x) < 0 for x, y in matched) / len(matched)
            judged = verdict(spec, matched)
            ok &= not judged.startswith(("REGRESSION", "CHANGED"))
            print(
                f"  {spec['name']:32} {spec['unit']:8} "
                f"{a[0]:10.4g}{a[1]:10.4g}{a[2]:10.4g} "
                f"{b[0]:10.4g}{b[1]:10.4g}{b[2]:10.4g} "
                f"{base_wins:4.0%}/{other_wins:<4.0%}  {judged}"
            )
    return ok


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = load(Path(argv[0]))
    ok = True
    for path in argv[1:]:
        print(f"=== {argv[0]} -> {path}")
        ok &= compare(base, load(Path(path)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
