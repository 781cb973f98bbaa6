"""Regenerate the paper's tables and figures as one text report.

Entry point::

    python -m repro.experiments --trials 1000 --out report.md

Produces the Table 2 / Table 3 reproductions, Fig 3 / Fig 5 accuracy
grids, Table 5 overhead rows, the Fig 4 scaling model and the Table 1
volume measurements — the same computations the benchmark suite asserts
on, collected into a single document.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.params import (
    PAPER_FIG5_LOG_H,
    PAPER_TABLE2_ROWS,
    PAPER_TABLE3_ACCURACY,
    PAPER_TABLE3_SCALING,
    PermCheckConfig,
    SumCheckConfig,
    optimize_parameters,
)
from repro.experiments.accuracy import perm_checker_accuracy, sum_checker_accuracy
from repro.experiments.overhead import OverheadEngine
from repro.experiments.report import format_table
from repro.experiments.scaling import modeled_streaming_windows, modeled_weak_scaling
from repro.experiments.volume import checker_volume_table
from repro.faults.manipulators import PERM_MANIPULATORS, SUM_MANIPULATORS


def _section_table2() -> str:
    rows = []
    for row in PAPER_TABLE2_ROWS:
        cfg = optimize_parameters(row["b"], row["delta"])
        rows.append(
            (
                row["b"],
                f"{row['delta']:.0e}",
                cfg.d,
                (cfg.rhat - 1).bit_length(),
                cfg.iterations,
                f"{cfg.failure_bound:.1e}",
            )
        )
    return "## Table 2 — optimal parameters\n\n" + format_table(
        ["b", "δ", "d", "log r̂", "#its", "achieved δ"], rows
    )


def _section_table3() -> str:
    rows = []
    for label in PAPER_TABLE3_ACCURACY + PAPER_TABLE3_SCALING:
        cfg = SumCheckConfig.parse(label)
        rows.append((label, cfg.table_bits, f"{cfg.failure_bound:.1e}"))
    return "## Table 3 — configurations\n\n" + format_table(
        ["configuration", "table bits", "δ"], rows
    )


def _section_fig3(trials: int) -> str:
    rows = []
    for manipulator in SUM_MANIPULATORS:
        for label in PAPER_TABLE3_ACCURACY:
            for fam in ("CRC", "Tab"):
                cfg = SumCheckConfig.parse(label).with_hash(fam)
                cell = sum_checker_accuracy(cfg, manipulator, trials, seed=0xF163)
                rows.append(
                    (
                        manipulator,
                        cfg.label(),
                        f"{cell.failure_rate:.4f}",
                        f"{cell.ratio:.3f}",
                    )
                )
    return (
        f"## Fig 3 — sum-checker accuracy ({trials} trials/cell)\n\n"
        + format_table(["manipulator", "config", "fail rate", "ratio"], rows)
    )


def _section_fig5(trials: int) -> str:
    rows = []
    for manipulator in PERM_MANIPULATORS:
        for fam in ("CRC", "Tab"):
            for log_h in PAPER_FIG5_LOG_H:
                cfg = PermCheckConfig(log_h=log_h, hash_family=fam)
                cell = perm_checker_accuracy(cfg, manipulator, trials, seed=0xF165)
                rows.append(
                    (
                        manipulator,
                        cfg.label(),
                        f"{cell.failure_rate:.4f}",
                        f"{cell.ratio:.3f}",
                    )
                )
    return (
        f"## Fig 5 — permutation-checker accuracy ({trials} trials/cell)\n\n"
        + format_table(["manipulator", "config", "fail rate", "ratio"], rows)
    )


def _section_table5(elements: int) -> str:
    # One engine pass times every configuration and the reduce baseline
    # over a single shared workload (the batched overhead engine).
    engine = OverheadEngine(n_elements=elements)
    rows = engine.measure_table5(PAPER_TABLE3_SCALING)
    return "## Table 5 — checker overhead\n\n" + format_table(
        ["configuration", "ns/element"],
        [(r.label, f"{r.ns_per_element:.1f}") for r in rows],
    )


def _section_multiseed(elements: int, num_seeds: int = 8) -> str:
    """Multi-seed re-checking: per element·seed cost vs the single-seed row."""
    engine = OverheadEngine(n_elements=elements)
    labels = ("8x16 CRC m15", "16x16 Tab64 m15")
    rows = engine.measure_table5(
        labels,
        include_baseline=False,
        multiseed=[(label, num_seeds) for label in labels],
    )
    return (
        f"## Multi-seed batched checking ({num_seeds} seeds)\n\n"
        + format_table(
            ["kernel", "ns/(element·seed)"],
            [(r.label, f"{r.ns_per_element:.1f}") for r in rows],
        )
    )


def _section_fig4() -> str:
    rows = []
    for label in ("5x16 CRC m5", "16x16 Tab64 m15"):
        for pt in modeled_weak_scaling(
            SumCheckConfig.parse(label), pes=(32, 128, 512, 2048, 4096)
        ):
            rows.append((label, pt.p, f"{pt.ratio:.3f}"))
    return "## Fig 4 — weak-scaling overhead (α–β model)\n\n" + format_table(
        ["configuration", "p", "time ratio"], rows
    )


def _section_streaming(elements: int) -> str:
    cfg = SumCheckConfig.parse("8x16 Tab64 m15")
    # Measure the per-element local cost once; both seed rows are pure
    # α–β model evaluations on top of it.
    (row,) = OverheadEngine(n_elements=elements).measure_table5(
        [cfg], include_baseline=False
    )
    check_ns = row.ns_per_element
    rows = []
    for num_seeds in (1, 8):
        for pt in modeled_streaming_windows(
            cfg,
            windows=(1, 4, 16, 64),
            num_seeds=num_seeds,
            check_local_ns=check_ns * num_seeds,
        ):
            rows.append(
                (
                    num_seeds,
                    pt.windows,
                    pt.wire_bits_total,
                    f"{pt.settle_seconds * 1e3:.3f}",
                )
            )
    return (
        "## Streaming — window count vs checker wire volume (α–β model)\n\n"
        + format_table(
            ["seeds", "windows", "wire bits", "settle ms (p=1024)"], rows
        )
    )


def _section_table1() -> str:
    rows = checker_volume_table(ns=(1_000, 10_000, 100_000), p=4)
    return "## Table 1 — checker communication volume\n\n" + format_table(
        ["checker", "n", "bottleneck bytes/PE", "max msgs/PE"],
        [(r.checker, r.n, r.bottleneck_bytes, r.max_messages_per_pe) for r in rows],
    )


_SECTIONS = {
    "table1": lambda args: _section_table1(),
    "table2": lambda args: _section_table2(),
    "table3": lambda args: _section_table3(),
    "table5": lambda args: _section_table5(args.elements),
    "multiseed": lambda args: _section_multiseed(args.elements),
    "fig3": lambda args: _section_fig3(args.trials),
    "fig4": lambda args: _section_fig4(),
    "fig5": lambda args: _section_fig5(args.trials),
    "streaming": lambda args: _section_streaming(args.elements),
}


def build_report(args) -> str:
    """Assemble the requested sections into one markdown document."""
    parts = [
        "# Reproduction report — Communication Efficient Checking of Big "
        "Data Operations",
        f"_generated by `python -m repro.experiments`, "
        f"{args.trials} accuracy trials/cell_",
    ]
    for name in args.sections:
        t0 = time.perf_counter()
        parts.append(_SECTIONS[name](args))
        parts.append(f"_({name}: {time.perf_counter() - t0:.1f}s)_")
    return "\n\n".join(parts) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "--trials", type=int, default=400, help="accuracy trials per cell"
    )
    parser.add_argument(
        "--elements",
        type=int,
        default=300_000,
        help="element count for overhead measurements",
    )
    parser.add_argument(
        "--sections",
        nargs="+",
        choices=sorted(_SECTIONS),
        default=sorted(_SECTIONS),
        help="which artefacts to regenerate",
    )
    parser.add_argument(
        "--out", type=str, default="-", help="output path ('-' = stdout)"
    )
    args = parser.parse_args(argv)
    report = build_report(args)
    if args.out == "-":
        sys.stdout.write(report)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
