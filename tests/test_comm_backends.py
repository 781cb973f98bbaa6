"""Transport-level tests for the pluggable execution backends.

Ring mechanics, the shared wire format, backend resolution, and the
process backend's runner (fork fan-out, meters, failure propagation).
These are tier-1: they must pass regardless of ``REPRO_COMM_BACKEND``.
"""

import errno
import hashlib
import multiprocessing
import os
import pickle
import threading
import time
from collections import namedtuple

import numpy as np
import pytest

from repro.comm import Comm, Context, SPMDError, ops, resolve_backend
from repro.comm.backend import (
    FRAME_HEADER,
    KIND_PICKLE,
    KIND_RAW,
    KIND_TUPLE,
    decode_frame,
    encode_frame,
)
from repro.comm import proc_backend
from repro.comm.context import Context as _Context
from repro.comm.proc_backend import (
    _DEFAULT_DATA_CAP,
    ShmEndpoint,
    ShmFabric,
    run_spmd,
)
from repro.service.daemon import TenantCommGrid


_Pair = namedtuple("_Pair", "keys values")


def _decode(frame: bytes):
    kind, meta_len, payload_len = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
    meta_end = FRAME_HEADER.size + meta_len
    return kind, decode_frame(kind, frame[FRAME_HEADER.size : meta_end], frame[meta_end:])


class TestWireFormat:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(100, dtype=np.int64),
            np.arange(7, dtype=np.uint8),
            np.zeros(0, dtype=np.float32),
            np.arange(12, dtype=np.uint64).reshape(3, 4),
        ],
    )
    def test_contiguous_arrays_go_raw(self, arr):
        kind, back = _decode(encode_frame(arr))
        assert kind == KIND_RAW
        assert back.dtype == arr.dtype and back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_noncontiguous_array_falls_back_to_pickle(self):
        arr = np.arange(20, dtype=np.int64)[::2]
        kind, back = _decode(encode_frame(arr))
        assert kind == KIND_PICKLE
        np.testing.assert_array_equal(back, arr)

    @pytest.mark.parametrize(
        "obj",
        [None, 17, 3.5, True, "text", b"bytes", (1, np.arange(3)), {"k": [1, 2]}],
    )
    def test_python_payload_roundtrip(self, obj):
        kind, back = _decode(encode_frame(obj))
        assert kind == KIND_PICKLE
        if isinstance(obj, tuple):
            np.testing.assert_array_equal(back[1], obj[1])
        else:
            assert back == obj

    def test_zero_dim_array_goes_raw(self):
        kind, back = _decode(encode_frame(np.array(-7, dtype=np.int16)))
        assert kind == KIND_RAW
        assert back.shape == () and back.dtype == np.int16 and back == -7

    @pytest.mark.parametrize(
        "dtype", [[("a", "<i8"), ("b", "<f4")], [("a", object)]]
    )
    def test_structured_arrays_pickle(self, dtype):
        # dtype.str would name only opaque |V records; object fields are
        # pointers into the sender's heap.
        arr = np.zeros(3, dtype=dtype)
        kind, back = _decode(encode_frame(arr))
        assert kind == KIND_PICKLE
        assert back.dtype == arr.dtype
        np.testing.assert_array_equal(back, arr)

    @pytest.mark.parametrize(
        "members",
        [
            (np.arange(5, dtype=np.uint64), np.arange(5, dtype=np.int64) - 2),
            (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)),
            (
                np.zeros(0, dtype=np.int32),
                np.array([1.5, -2.0], dtype=np.float32),
                np.array([True, False, True]),
                np.arange(6, dtype=">u2").reshape(2, 3),
                np.array(9, dtype=np.int8),
            ),
            (np.arange(12, dtype=np.complex128).reshape(3, 4),),
        ],
    )
    def test_tuples_of_arrays_go_raw(self, members):
        frame = encode_frame(members)
        kind, meta_len, payload_len = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
        assert kind == KIND_TUPLE
        assert payload_len == sum(m.nbytes for m in members)
        assert len(frame) == FRAME_HEADER.size + meta_len + payload_len
        meta = frame[FRAME_HEADER.size : FRAME_HEADER.size + meta_len]
        assert pickle.loads(meta) == [(m.dtype.str, m.shape) for m in members]
        _, back = _decode(frame)
        assert type(back) is tuple and len(back) == len(members)
        for got, sent in zip(back, members):
            assert got.dtype == sent.dtype and got.shape == sent.shape
            np.testing.assert_array_equal(got, sent)
            assert got.flags.writeable and got.flags.owndata

    @pytest.mark.parametrize(
        "payload",
        [
            (),
            (np.arange(6, dtype=np.int64), np.arange(20, dtype=np.int64)[::2]),
            (np.arange(3), np.array([None, 1], dtype=object)),
            (np.arange(3), 4),
        ],
        ids=["empty", "non-contiguous", "object", "non-array"],
    )
    def test_other_tuples_pickle(self, payload):
        kind, back = _decode(encode_frame(payload))
        assert kind == KIND_PICKLE
        assert type(back) is tuple and len(back) == len(payload)
        for got, sent in zip(back, payload):
            np.testing.assert_array_equal(np.asarray(got), np.asarray(sent))

    def test_tuple_subclass_keeps_its_type(self):
        kind, back = _decode(encode_frame(_Pair(np.arange(3), np.arange(3))))
        assert kind == KIND_PICKLE and isinstance(back, _Pair)

    def test_corrupt_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            decode_frame(99, b"", b"")


class TestBackendResolution:
    def test_default_is_threads(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMM_BACKEND", raising=False)
        assert resolve_backend(None) == "threads"

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMM_BACKEND", "processes")
        assert resolve_backend(None) == "processes"
        assert _Context(2).backend == "processes"

    def test_explicit_arg_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMM_BACKEND", "processes")
        assert resolve_backend("threads") == "threads"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown comm backend"):
            resolve_backend("osmosis")

    def test_mpi_falls_back_when_unavailable(self, monkeypatch):
        from repro.comm import mpi_backend

        monkeypatch.delenv("REPRO_COMM_BACKEND", raising=False)
        if mpi_backend.mpi_available():
            pytest.skip("mpi4py present: no fallback to exercise")
        monkeypatch.setitem(mpi_backend._state, "warned", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            ctx = Context(2, backend="mpi")
        assert ctx.backend == "threads"
        assert ctx.run(lambda comm: comm.allreduce(1, op=ops.SUM)) == [2, 2]


class TestShmRings:
    def test_ring_roundtrip_with_wraparound(self):
        fabric = ShmFabric.create(2, data_cap=64)
        try:
            a = ShmEndpoint(0, fabric)
            b = ShmEndpoint(1, fabric)
            # Repeated small messages cycle the write cursor past the
            # capacity boundary many times.
            for i in range(50):
                a.send(1, i)
                assert b.recv(0) == i
        finally:
            fabric.destroy()

    def test_message_larger_than_ring_is_chunked(self):
        fabric = ShmFabric.create(2, data_cap=1 << 10)
        try:
            big = np.arange(5_000, dtype=np.int64)  # 40 KB through a 1 KB ring

            def sender():
                ShmEndpoint(0, fabric).send(1, big)

            t = threading.Thread(target=sender, daemon=True)
            t.start()
            got = ShmEndpoint(1, fabric).recv(0)
            t.join()
            np.testing.assert_array_equal(got, big)
        finally:
            fabric.destroy()

    def test_exchange_is_nonblocking_for_oversized_frames(self):
        # Both directions exceed the ring: send-then-recv would deadlock,
        # the interleaved exchange must not.
        fabric = ShmFabric.create(2, data_cap=1 << 10)
        try:
            big = np.arange(4_000, dtype=np.int64)
            out = {}

            def run(rank):
                ep = ShmEndpoint(rank, fabric)
                out[rank] = ep.exchange(1 - rank, big + rank, 1 - rank)

            threads = [
                threading.Thread(target=run, args=(r,), daemon=True)
                for r in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            np.testing.assert_array_equal(out[0], big + 1)
            np.testing.assert_array_equal(out[1], big)
        finally:
            fabric.destroy()

    def test_barrier_tokens_never_mix_with_data(self):
        fabric = ShmFabric.create(2, data_cap=256)
        try:
            results = {}

            def run(rank):
                ep = ShmEndpoint(rank, fabric)
                # Data in flight across a barrier: the token must not be
                # consumed as payload or vice versa.
                if rank == 0:
                    ep.send(1, 41)
                ep.barrier()
                if rank == 1:
                    results["got"] = ep.recv(0)
                ep.barrier()

            threads = [
                threading.Thread(target=run, args=(r,), daemon=True)
                for r in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results["got"] == 41
        finally:
            fabric.destroy()


class TestProcessContext:
    def test_matches_thread_backend(self):
        data = np.arange(2_000, dtype=np.int64)

        def program(comm, chunk):
            total = comm.allreduce(int(chunk.sum()), op=ops.SUM)
            offset = comm.exscan(len(chunk), op=ops.SUM, identity=0)
            swapped = comm.sendrecv(comm.rank ^ 1, chunk[:3])
            comm.barrier()
            return total, offset, swapped.tolist()

        runs = {}
        for backend in ("threads", "processes"):
            ctx = Context(4, backend=backend)
            runs[backend] = ctx.run(program, per_rank_args=ctx.split(data))
        assert runs["processes"] == runs["threads"]

    def test_modeled_meter_bytes_match_thread_oracle(self):
        def program(comm, chunk):
            comm.allgather(chunk)
            return None

        data = np.arange(512, dtype=np.int64)
        meters = {}
        for backend in ("threads", "processes"):
            ctx = Context(4, backend=backend)
            ctx.run(program, per_rank_args=ctx.split(data))
            meters[backend] = [(m.bytes_sent, m.bytes_received) for m in ctx.meters]
        assert meters["processes"] == meters["threads"]

    def test_wire_bytes_recorded_and_close_to_model(self):
        def program(comm, chunk):
            comm.allreduce(chunk, op=ops.SUM)
            return None

        ctx = Context(2, backend="processes")
        ctx.run(program, per_rank_args=ctx.split(np.arange(4_096, dtype=np.int64)))
        for m in ctx.meters:
            assert m.wire_bytes_sent >= m.bytes_sent
            # Frame + dtype-meta overhead stays small for array payloads.
            assert m.wire_bytes_sent <= m.bytes_sent * 1.10

    def test_exception_propagates_as_spmd_error(self):
        def failer(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            return comm.rank

        with pytest.raises(SPMDError, match="boom on rank 1"):
            Context(2, backend="processes").run(failer)

    def test_per_rank_tuple_args_and_common_args(self):
        def program(comm, a, b, c):
            return comm.allreduce(a * b + c, op=ops.SUM)

        ctx = Context(2, backend="processes")
        outs = ctx.run(
            program, per_rank_args=[(1, 2), (3, 4)], common_args=(10,)
        )
        assert outs == [34, 34]

    def test_single_pe_runs_inline(self):
        ctx = Context(1, backend="processes")
        assert ctx.run(lambda comm, x: x + comm.rank, per_rank_args=[5]) == [5]

    def test_worker_exit_without_result_is_reported_at_once(self, deadline):
        def program(comm):
            if comm.rank == 1:
                os._exit(3)
            return comm.rank

        deadline(10)
        start = time.monotonic()
        with pytest.raises(SPMDError) as info:
            Context(2, backend="processes").run(program)
        assert time.monotonic() - start < 1.0
        assert set(info.value.failures) == {1}
        assert "PE 1" in str(info.value)
        assert "exited with code 3" in str(info.value.failures[1])

    @pytest.mark.parametrize("p", [2, 4])
    def test_result_larger_than_a_pipe_buffer(self, p, deadline):
        # 1 MiB per worker: each report blocks its worker until the parent
        # reads it, so the parent must read while the workers still run.
        def program(comm):
            return np.arange(1 << 17, dtype=np.int64) * (comm.rank + 1)

        deadline(30)
        ctx = Context(p, backend="processes")
        out = ctx.run(program)
        for rank, arr in enumerate(out):
            assert arr.nbytes == 1 << 20
            np.testing.assert_array_equal(
                arr, np.arange(1 << 17, dtype=np.int64) * (rank + 1)
            )
        assert len(ctx.meters) == p

    def test_stalled_wait_times_out_at_the_patched_deadline(
        self, monkeypatch, deadline
    ):
        # The forked workers inherit the patched module value; PE 0 waits
        # for a message PE 1 never sends.
        monkeypatch.setattr(proc_backend, "_OP_TIMEOUT", 0.5)

        def program(comm):
            if comm.rank == 0:
                return comm.recv(1)
            return None

        deadline(10)
        start = time.monotonic()
        with pytest.raises(SPMDError) as info:
            Context(2, backend="processes").run(program)
        assert time.monotonic() - start < 5.0
        assert set(info.value.failures) == {0}
        failure = info.value.failures[0]
        assert isinstance(failure, TimeoutError)
        assert "stalled for 0.5s" in str(failure)

    def test_failed_fork_leaks_no_pipe_end(self, monkeypatch):
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc/self/fd to count open descriptors")

        def refuse(process):
            raise OSError(errno.EAGAIN, "fork refused")

        fork_process = multiprocessing.get_context("fork").Process
        monkeypatch.setattr(fork_process, "start", refuse)
        before = len(os.listdir(fd_dir))
        with pytest.raises(OSError, match="fork refused"):
            run_spmd(2, lambda comm: None, None, ())
        assert len(os.listdir(fd_dir)) == before


def _digest(payload) -> bytes:
    return hashlib.sha256(encode_frame(payload)).digest()


class TestFramesLargerThanTheRing:
    """Every round that sends and receives goes through ``exchange``, so
    frames four times the shared-memory ring cannot deadlock a collective
    (they used to: every PE sent before any received)."""

    #: int64 elements per array: one frame exceeds 4 rings.
    N = 4 * _DEFAULT_DATA_CAP // 8 + 64

    @classmethod
    def _array(cls, rank: int, salt: int) -> np.ndarray:
        return np.arange(cls.N, dtype=np.int64) * (rank + 1) + salt

    @classmethod
    def _run(cls, p, program):
        runs = {}
        for backend in ("threads", "processes"):
            runs[backend] = Context(p, backend=backend).run(program)
        assert runs["processes"] == runs["threads"]
        return runs["processes"]

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_alltoall_tuple_payloads(self, p):
        def program(comm):
            payloads = [
                (comm.rank, self._array(comm.rank, dst)) for dst in range(p)
            ]
            assert len(encode_frame(payloads[0])) >= 4 * _DEFAULT_DATA_CAP
            return [_digest(x) for x in comm.alltoall(payloads)]

        out = self._run(p, program)
        for dst in range(p):
            assert out[dst] == [
                _digest((src, self._array(src, dst))) for src in range(p)
            ]

    @pytest.mark.parametrize("p", [2, 4])
    def test_alltoall_hypercube(self, p):
        def program(comm):
            payloads = [self._array(comm.rank, dst) for dst in range(p)]
            return [_digest(x) for x in comm.alltoall_hypercube(payloads)]

        out = self._run(p, program)
        for dst in range(p):
            assert out[dst] == [
                _digest(self._array(src, dst)) for src in range(p)
            ]

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_allreduce(self, p):
        def program(comm):
            return _digest(comm.allreduce(self._array(comm.rank, 1), ops.SUM))

        expected = sum(self._array(r, 1) for r in range(p))
        assert self._run(p, program) == [_digest(expected)] * p


class TestTenantCommGridBackends:
    def test_grid_process_backend_collectives(self):
        grid = TenantCommGrid(2, backend="processes")
        try:
            results = {}

            def run(rank):
                comm = grid.comm("tenant-a", rank)
                results[rank] = comm.allreduce(rank + 1, op=ops.SUM)
                comm.barrier()

            threads = [
                threading.Thread(target=run, args=(r,), daemon=True)
                for r in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == {0: 3, 1: 3}
        finally:
            grid.close()

    def test_grid_network_accessor_is_thread_only(self):
        grid = TenantCommGrid(2, backend="processes")
        try:
            with pytest.raises(RuntimeError, match="no mailbox"):
                grid.network("tenant-a")
        finally:
            grid.close()

    def test_grid_endpoints_are_cached_per_rank(self):
        grid = TenantCommGrid(2, backend="processes")
        try:
            c1 = grid.comm("t", 0)
            c2 = grid.comm("t", 0)
            assert c1.endpoint is c2.endpoint
        finally:
            grid.close()
