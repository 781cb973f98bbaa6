#!/usr/bin/env python3
"""MPI backend smoke: run the distributed checkers under real MPI ranks.

Launch under an MPI runner with the world size matching the context:

    mpiexec -n 4 python examples/mpi_backend_smoke.py

Every rank executes the same SPMD programs twice — once through the
mpi4py backend (native ``Allreduce``/``Exscan``/``Alltoallv`` fast paths
where the payload qualifies, round schedules over ``Send``/``Recv`` and
``Isend``-based ``exchange`` otherwise) and once through the in-process
thread-mailbox oracle — and asserts the results are bit-identical.
Exercises point-to-point, ``sendrecv`` (a pairwise swap and a ring shift
whose destination and source differ), the integer-array fast paths, a
pickled-payload collective, an all-to-all of tuples of arrays (raw tuple
frames: an empty member, mixed dtypes, a 2-d member), an all-to-all of
tuple payloads of more than 1 MiB per destination (far above MPI's eager
limit, where a blocking ``Send`` waits for its receive), the hypercube
all-to-all (power-of-two world sizes), and a full multi-seed sum settle.

Exits non-zero on any divergence; prints one OK line per rank otherwise.
"""

import hashlib
import sys

import numpy as np

from repro.comm import Context, ops
from repro.comm.backend import encode_frame
from repro.comm.mpi_backend import mpi_available, mpi_unavailable_reason
from repro.core.multiseed import MultiSeedSumChecker, condense_kv
from repro.core.params import SumCheckConfig
from repro.util.rng import derive_seed_array
from repro.workloads.kv import aggregate_reference, sum_workload

CONFIG = SumCheckConfig.parse("4x16 m15")
BIG = (1 << 20) // 8 + 64  # int64 elements: a frame above 1 MiB


def digest(payload) -> str:
    return hashlib.sha256(encode_frame(payload)).hexdigest()


def program(comm, chunk, keys, values, out_k, out_v, seeds):
    p, rank = comm.size, comm.rank
    total = comm.allreduce(chunk, op=ops.SUM)  # native Allreduce path
    offset = comm.exscan(int(chunk.sum()), op=ops.SUM, identity=0)
    swapped = comm.sendrecv(rank ^ 1, chunk[:3])
    ring = comm.sendrecv((rank + 1) % p, ("ring", rank), (rank - 1) % p)
    shares = comm.alltoall([chunk[:2] + r for r in range(p)])
    arrays = comm.alltoall(  # tuples of arrays travel as one raw frame
        [
            (
                np.zeros(0, dtype=np.int32),
                np.arange(rank + dst + 1, dtype=np.uint16),
                np.full((2, rank + 1), dst - 0.5, dtype=np.float64),
            )
            for dst in range(p)
        ]
    )
    big = comm.alltoall(  # tuples: no native path, one exchange per round
        [(rank, dst, np.arange(BIG, dtype=np.int64) * (rank + 1) + dst)
         for dst in range(p)]
    )
    hyper = None
    if p & (p - 1) == 0:
        hyper = comm.alltoall_hypercube([(rank, dst) for dst in range(p)])
    tags = comm.allgather(("rank", rank))  # pickled payloads
    settle = MultiSeedSumChecker(CONFIG, seeds).check_distributed_condensed(
        comm, condense_kv(keys, values), condense_kv(out_k, out_v)
    )
    comm.barrier()
    return (
        total.tolist(),
        offset,
        swapped.tolist(),
        ring,
        [s.tolist() for s in shares],
        [[(m.dtype.str, m.shape, m.tolist()) for m in t] for t in arrays],
        [digest(b) for b in big],
        hyper,
        tags,
        settle.accepted,
        settle.details["per_seed_accepted"],
    )


def main() -> int:
    if not mpi_available():
        print(f"mpi4py unavailable ({mpi_unavailable_reason()}); skipping")
        return 0
    from mpi4py import MPI

    p = MPI.COMM_WORLD.Get_size()
    data = np.arange(64 * p, dtype=np.int64)
    keys, values = sum_workload(5_000 * p, seed=11)
    out_k, out_v = aggregate_reference(keys, values)
    seeds = derive_seed_array(0x51, "mpi-smoke", np.arange(4, dtype=np.uint64))

    def run(backend):
        ctx = Context(p, backend=backend)
        args = list(
            zip(
                ctx.split(data),
                ctx.split(keys),
                ctx.split(values),
                ctx.split(out_k),
                ctx.split(out_v),
            )
        )
        return ctx.run(program, per_rank_args=args, common_args=(seeds,))

    over_mpi = run("mpi")
    oracle = run("threads")  # in-process oracle, replayed on every rank
    if over_mpi != oracle:
        print(f"rank {MPI.COMM_WORLD.Get_rank()}: MPI != thread oracle")
        return 1
    if not over_mpi[0][9]:
        print(f"rank {MPI.COMM_WORLD.Get_rank()}: settle rejected clean data")
        return 1
    print(f"rank {MPI.COMM_WORLD.Get_rank()}/{p}: OK (bit-identical to oracle)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
