"""Execution-backend weak scaling: thread mailboxes vs shared-memory processes.

Measured (not modeled) wall times for three distributed checker paths at
p ∈ {1, 2, 4, 8} with the per-rank input size held constant (weak
scaling), on both the thread-mailbox oracle backend and the
``multiprocessing.shared_memory`` process backend:

* ``sum-settle`` — the CPU-bound multi-seed sum settle
  (:meth:`MultiSeedSumChecker.check_distributed_condensed`: per-rank
  condense + table build, one packed reduction + verdict broadcast);
* ``perm-settle`` — the hash-sum permutation fingerprint settle
  (a one-seed :class:`MultiSeedHashSumChecker` from
  ``repro.core.permutation_checker``, with a distributed λ reduction);
* ``windowed-pipeline`` — the windowed streaming
  ``reduce_by_key_checked`` pipeline (exchange + per-window settles).

Every cell asserts cross-backend *verdict parity* — the process run must
be bit-identical to the thread oracle.  That holds in smoke mode too:
correctness is free, only the timings are thrown away.

Gates (skipped in smoke mode):

* wire volume — on the p = 4 process sum-settle row, the cost model's
  predicted payload bytes (``TrafficMeter.bytes_sent``) must agree with
  the actual serialized frame bytes (``wire_bytes_sent``) within 10%;
* speedup — the process backend must beat the thread backend on the
  CPU-bound sum-settle row at p = 4 **when the machine has ≥ 2 cores**.
  On a single-core machine real parallel speedup is physically
  impossible (there is nothing to run the extra processes on), so the
  artifact records ``cpu_count`` and the gate degrades to a bounded
  fork/IPC-overhead check (processes ≤ ``single_core_max_overhead`` ×
  threads).  The recorded numbers stay honest either way — the artifact
  says which gate was enforced.

Written to ``BENCH_backends.json``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from conftest import best_of, run_once, smoke_mode, write_artifact

from repro.comm.context import Context
from repro.core.multiseed import MultiSeedSumChecker, condense_kv
from repro.core.params import SumCheckConfig
from repro.core.permutation_checker import MultiSeedHashSumChecker
from repro.dataflow.streaming import StreamingKeyValueDIA
from repro.util.rng import derive_seed, derive_seed_array
from repro.workloads.kv import aggregate_reference, sum_workload

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_backends.json"
_CONFIG = SumCheckConfig.parse("8x16 m15")
_NUM_SEEDS = 8
_BACKENDS = ("threads", "processes")
_REPEATS = 3
_WIRE_TOLERANCE = 0.10
_SINGLE_CORE_MAX_OVERHEAD = 3.0
_PERM_ITERATIONS = 4
_CHUNKS_PER_WINDOW = 2


def _pes() -> tuple[int, ...]:
    # Smoke keeps the fork fan-out small; the parity suite already covers
    # p = 4 on every push.
    return (1, 2) if smoke_mode() else (1, 2, 4, 8)


def _scale() -> dict:
    if smoke_mode():
        return {"sum": 2_000, "perm": 4_000, "pipeline": 1_600, "chunk": 400}
    return {"sum": 60_000, "perm": 200_000, "pipeline": 24_000, "chunk": 3_000}


# -- SPMD jobs (module-level: fork-safe, no shared closures) ----------------


def _sum_settle_job(comm, keys, values, out_k, out_v, seeds):
    multi = MultiSeedSumChecker(_CONFIG, seeds)
    res = multi.check_distributed_condensed(
        comm, condense_kv(keys, values), condense_kv(out_k, out_v)
    )
    return bool(res.accepted), list(res.details["per_seed_accepted"])


def _perm_settle_job(comm, e_share, o_share, seed):
    checker = MultiSeedHashSumChecker(seed, iterations=_PERM_ITERATIONS)
    res = checker.check(e_share, o_share, comm=comm)
    return bool(res.accepted), list(res.details["per_seed_accepted"])


def _pipeline_job(comm, keys, values, chunk, seed):
    chunks = [
        (keys[i : i + chunk], values[i : i + chunk])
        for i in range(0, keys.size, chunk)
    ]
    run = StreamingKeyValueDIA.from_chunks(comm, chunks).reduce_by_key_checked(
        _CONFIG, seed=seed, chunks_per_window=_CHUNKS_PER_WINDOW
    )
    verdicts = [
        (r.window, r.accepted, int(r.seed), r.quarantined)
        for r in run.window_history
    ]
    digests = [(int(ov.sum()), int(ok.size)) for ok, ov in run.outputs]
    return bool(run.accepted), verdicts, digests


# -- per-section argument builders (weak scaling: n per rank constant) ------


def _sum_args(ctx: Context, n_per_rank: int):
    total = n_per_rank * ctx.num_pes
    keys, values = sum_workload(total, seed=derive_seed(0xBAC0, "sum-wl"))
    out_k, out_v = aggregate_reference(keys, values)
    seeds = derive_seed_array(
        0xBAC0, "sum-seeds", np.arange(_NUM_SEEDS, dtype=np.uint64)
    )
    args = list(
        zip(ctx.split(keys), ctx.split(values), ctx.split(out_k), ctx.split(out_v))
    )
    return args, (seeds,)


def _perm_args(ctx: Context, n_per_rank: int):
    total = n_per_rank * ctx.num_pes
    rng = np.random.default_rng(derive_seed(0xBAC0, "perm-wl"))
    data = rng.integers(0, 2**63, total, dtype=np.uint64)
    permuted = data[::-1].copy()
    args = list(zip(ctx.split(data), ctx.split(permuted)))
    return args, (int(derive_seed(0xBAC0, "perm-seed")),)


def _pipeline_args(ctx: Context, n_per_rank: int, chunk: int):
    total = n_per_rank * ctx.num_pes
    keys, values = sum_workload(
        total, num_keys=max(64, total // 50), seed=derive_seed(0xBAC0, "pipe-wl")
    )
    args = list(zip(ctx.split(keys), ctx.split(values)))
    return args, (chunk, int(derive_seed(0xBAC0, "pipe-seed")))


# -- measurement -------------------------------------------------------------


def _measure_section(name, job, build_args, pes) -> list[dict]:
    rows = []
    for p in pes:
        results = {}
        for backend in _BACKENDS:
            ctx = Context(p, backend=backend)
            per_rank, common = build_args(ctx)
            run = lambda: ctx.run(  # noqa: E731
                job, per_rank_args=per_rank, common_args=common
            )
            results[backend] = run()  # warm-up + parity sample
            seconds = best_of(run, _REPEATS)
            meters = ctx.meters
            row = {
                "section": name,
                "p": p,
                "backend": backend,
                "seconds": seconds,
                "modeled_bytes_sent": int(sum(m.bytes_sent for m in meters)),
                "messages": int(sum(m.messages_sent for m in meters)),
            }
            if backend == "processes":
                row["wire_bytes_sent"] = int(
                    sum(m.wire_bytes_sent for m in meters)
                )
            rows.append(row)
            assert results[backend][0], f"{name} rejected at p={p} ({backend})"
        # Bit-identical verdicts across backends, always (smoke included).
        assert results["processes"] == results["threads"], (
            f"{name} p={p}: process backend diverged from thread oracle"
        )
    return rows


def _row(rows, section, p, backend):
    return next(
        r
        for r in rows
        if r["section"] == section and r["p"] == p and r["backend"] == backend
    )


def test_backend_weak_scaling(benchmark):
    scale = _scale()
    pes = _pes()

    def measure():
        rows = []
        rows += _measure_section(
            "sum-settle",
            _sum_settle_job,
            lambda ctx: _sum_args(ctx, scale["sum"]),
            pes,
        )
        rows += _measure_section(
            "perm-settle",
            _perm_settle_job,
            lambda ctx: _perm_args(ctx, scale["perm"]),
            pes,
        )
        rows += _measure_section(
            "windowed-pipeline",
            _pipeline_job,
            lambda ctx: _pipeline_args(ctx, scale["pipeline"], scale["chunk"]),
            pes,
        )
        return rows

    rows = run_once(benchmark, measure)
    cpu_count = os.cpu_count() or 1

    gates: dict = {
        "wire_tolerance": _WIRE_TOLERANCE,
        "single_core_max_overhead": _SINGLE_CORE_MAX_OVERHEAD,
        "speedup_gate": "p4-speedup" if cpu_count >= 2 else "p4-overhead-bound",
    }
    gate_p = 4 if 4 in pes else max(pes)
    proc = _row(rows, "sum-settle", gate_p, "processes")
    thr = _row(rows, "sum-settle", gate_p, "threads")
    gates["sum_settle_p"] = gate_p
    gates["process_over_threads"] = proc["seconds"] / thr["seconds"]
    if proc["modeled_bytes_sent"]:
        gates["wire_over_modeled"] = (
            proc["wire_bytes_sent"] / proc["modeled_bytes_sent"]
        )

    payload = {
        "config": _CONFIG.label(),
        "num_seeds": _NUM_SEEDS,
        "perm_iterations": _PERM_ITERATIONS,
        "cpu_count": cpu_count,
        "pes": list(pes),
        "per_rank_elements": {
            "sum-settle": scale["sum"],
            "perm-settle": scale["perm"],
            "windowed-pipeline": scale["pipeline"],
        },
        "chunk": scale["chunk"],
        "chunks_per_window": _CHUNKS_PER_WINDOW,
        "repeats": 1 if smoke_mode() else _REPEATS,
        "gates": gates,
        "rows": rows,
    }
    write_artifact(_ARTIFACT, payload)
    benchmark.extra_info.update(cpu_count=cpu_count, artifact=str(_ARTIFACT))

    print()
    for section in ("sum-settle", "perm-settle", "windowed-pipeline"):
        for p in pes:
            t = _row(rows, section, p, "threads")["seconds"]
            q = _row(rows, section, p, "processes")["seconds"]
            print(
                f"{section} p={p}: threads {t * 1e3:.1f}ms, "
                f"processes {q * 1e3:.1f}ms ({q / t:.2f}x)"
            )
    print(
        f"sum-settle p={gate_p}: wire/modeled = "
        f"{gates.get('wire_over_modeled', float('nan')):.4f}, "
        f"processes/threads = {gates['process_over_threads']:.2f} "
        f"(cpu_count={cpu_count}, gate={gates['speedup_gate']})"
    )

    if smoke_mode():
        return

    # Gate 1: the α–β model's predicted payload volume must track the
    # actual serialized frame bytes on the sum-settle row.
    ratio = gates["wire_over_modeled"]
    assert abs(ratio - 1.0) <= _WIRE_TOLERANCE, (
        f"modeled wire volume off by {abs(ratio - 1.0):.1%} "
        f"(allowed {_WIRE_TOLERANCE:.0%}) on sum-settle p={gate_p}"
    )

    # Gate 2: real parallelism must pay for itself on the CPU-bound
    # settle — or, on a single core, at least stay within a bounded
    # fork/IPC overhead of the thread oracle.
    over = gates["process_over_threads"]
    if cpu_count >= 2:
        assert over < 1.0, (
            f"process backend {over:.2f}x threads on sum-settle p={gate_p} "
            f"with {cpu_count} cores — real parallelism must win"
        )
    else:
        assert over <= _SINGLE_CORE_MAX_OVERHEAD, (
            f"process backend {over:.2f}x threads on a single core "
            f"(allowed {_SINGLE_CORE_MAX_OVERHEAD}x)"
        )
