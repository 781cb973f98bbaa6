"""The one input domain (``repro.core.domain``).

Every public check, every checked dataflow operation and every service
engine reads its columns through one module.  A column of a dtype the
checkers cannot read exactly (float, bool, complex, object) is refused
by its dtype alone, an empty column's too: on two PEs with the column
empty on one of them, both PEs raise a ``TypeError`` naming the dtype,
and none waits in a collective its peer refused.  An exchange refused
on one PE alone is refused on every PE, whatever the dtype of the
others' ranks.  The service turns such a chunk into a ``PoisonRecord``.
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core import (
    MedianCertificate,
    SumCheckConfig,
    __all__ as core_names,
    check_average_aggregation,
    check_count_aggregation,
    check_globally_sorted,
    check_groupby_redistribution,
    check_join_redistribution,
    check_max_aggregation,
    check_median_aggregation,
    check_merge,
    check_min_aggregation,
    check_min_aggregation_bitvector,
    check_permutation_gf64,
    check_permutation_hashsum,
    check_permutation_polynomial,
    check_sort,
    check_sum_aggregation,
    check_union,
    check_zip,
)
from repro.core.groupby_checker import default_partitioner
from repro.dataflow import (
    DIA,
    KeyValueDIA,
    StreamingDIA,
    StreamingKeyValueDIA,
    checked_join,
    checked_reduce_by_key,
    checked_sort,
    exchange_by_destination,
    reduce_by_key,
    settle_reduce_window,
    settle_sum_window,
    settle_zip_window,
)
from repro.dataflow.pipeline import AdaptiveCheckPolicy
from repro.service import CheckedStreamService, TenantConfig
from repro.service.windows import ENGINES

CONFIG = SumCheckConfig.parse("4x16 m15")
ALWAYS = AdaptiveCheckPolicy(escalate_on="always", escalation_seeds=2)
DTYPES = ["float64", "float32", "bool", "complex128", "object"]


def _column(dtype, rank: int) -> np.ndarray:
    """Two elements of ``dtype`` on PE 0, an empty column on every other."""
    full = np.array([1, 2]).astype(dtype)
    return full if rank == 0 else full[:0]


def _ints(rank: int, dtype=np.uint64) -> np.ndarray:
    return _column(dtype, rank)


def _pick(slots: dict, slot: str, rank: int, bad):
    """Each slot's valid column on this PE, ``slot``'s replaced by ``bad``."""
    return {
        name: bad if name == slot else make(rank) for name, make in slots.items()
    }


KV = {"k": _ints, "v": lambda r: _ints(r, np.int64)}
KV2 = {"rk": _ints, "rv": lambda r: _ints(r, np.int64),
       "sk": _ints, "sv": lambda r: _ints(r, np.int64)}
SEQ = {"e": _ints, "o": _ints}
ZIP = {"s1": _ints, "s2": _ints, "f": _ints, "s": _ints}
UNION = {"s1": _ints, "s2": _ints, "out": lambda r: _column(np.uint64, r).repeat(2)}
JOIN = {f"{rel}{side}{col}": (_ints if col == "k" else KV["v"])
        for rel in "rs" for side in ("pre", "post") for col in "kv"}
MEDIAN = {"k": _ints, "v": KV["v"], "ak": _ints, "num": KV["v"],
          "den": lambda r: np.ones(_ints(r).size, np.int64), "uids": KV["v"],
          "low": KV["v"], "high": KV["v"]}
AVERAGE = {"k": _ints, "v": KV["v"], "ak": _ints, "num": KV["v"],
           "den": lambda r: np.ones(_ints(r).size, np.int64), "cnt": KV["v"]}
EXTREMUM = {"k": _ints, "v": KV["v"], "ak": _ints, "av": KV["v"],
            "owners": KV["v"]}
ONE = {"x": _ints}


def _part(comm):
    return default_partitioner(comm.size)


def _min_like(check):
    return lambda comm, c: check(
        (c["k"], c["v"]), c["ak"], c["av"], c["owners"], comm=comm
    )


#: Every public ``check_*`` of ``repro.core``: (slots, call).
CORE = {
    "check_sum_aggregation": (KV2, lambda comm, c: check_sum_aggregation(
        (c["rk"], c["rv"]), (c["sk"], c["sv"]), CONFIG, comm=comm)),
    "check_count_aggregation": (
        {"k": _ints, "ak": _ints, "av": KV["v"]},
        lambda comm, c: check_count_aggregation(
            c["k"], (c["ak"], c["av"]), CONFIG, comm=comm)),
    "check_average_aggregation": (AVERAGE, lambda comm, c: (
        check_average_aggregation(
            (c["k"], c["v"]), c["ak"], c["num"], c["den"], c["cnt"],
            CONFIG, comm=comm))),
    "check_min_aggregation": (EXTREMUM, _min_like(check_min_aggregation)),
    "check_max_aggregation": (EXTREMUM, _min_like(check_max_aggregation)),
    "check_min_aggregation_bitvector": (
        {"k": _ints, "v": KV["v"], "ak": _ints, "av": KV["v"]},
        lambda comm, c: check_min_aggregation_bitvector(
            (c["k"], c["v"]), c["ak"], c["av"], comm=comm)),
    "check_median_aggregation": (MEDIAN, lambda comm, c: (
        check_median_aggregation(
            c["k"], c["v"], c["ak"], c["num"], c["den"],
            MedianCertificate(c["low"], c["high"]), c["uids"], CONFIG,
            comm=comm))),
    "check_permutation_hashsum": (SEQ, lambda comm, c: (
        check_permutation_hashsum(c["e"], c["o"], comm=comm))),
    "check_permutation_polynomial": (SEQ, lambda comm, c: (
        check_permutation_polynomial(c["e"], c["o"], comm=comm))),
    "check_permutation_gf64": (SEQ, lambda comm, c: (
        check_permutation_gf64(c["e"], c["o"], comm=comm))),
    "check_globally_sorted": (ONE, lambda comm, c: (
        check_globally_sorted(c["x"], comm=comm))),
    "check_sort": (SEQ, lambda comm, c: check_sort(c["e"], c["o"], comm=comm)),
    "check_zip": (ZIP, lambda comm, c: check_zip(
        c["s1"], c["s2"], c["f"], c["s"], comm=comm)),
    "check_union": (UNION, lambda comm, c: check_union(
        c["s1"], c["s2"], c["out"], comm=comm)),
    "check_merge": (UNION, lambda comm, c: check_merge(
        c["s1"], c["s2"], c["out"], comm=comm)),
    "check_groupby_redistribution": (KV2, lambda comm, c: (
        check_groupby_redistribution(
            (c["rk"], c["rv"]), (c["sk"], c["sv"]), _part(comm), comm)),
    ),
    "check_join_redistribution": (JOIN, lambda comm, c: (
        check_join_redistribution(
            (c["rprek"], c["rprev"]), (c["sprek"], c["sprev"]),
            (c["rpostk"], c["rpostv"]), (c["spostk"], c["spostv"]),
            partitioner=_part(comm), comm=comm))),
    "check_join_redistribution[range]": (JOIN, lambda comm, c: (
        check_join_redistribution(
            (c["rprek"], c["rprev"]), (c["sprek"], c["sprev"]),
            (c["rpostk"], c["rpostv"]), (c["spostk"], c["spostv"]),
            mode="range", comm=comm))),
}


def _window(comm, c, settle, **kwargs):
    return settle(comm, [c], config=CONFIG, seed_w=3, window=0, **kwargs)


#: Every checked operation of ``repro.dataflow``: (slots, call).
DATAFLOW = {
    "exchange_by_destination": (
        {"dest": lambda r: _ints(r, np.int64) * 0},
        lambda comm, c: exchange_by_destination(comm, c["dest"])),
    "checked_reduce_by_key": (KV, lambda comm, c: checked_reduce_by_key(
        comm, c["k"], c["v"], CONFIG)),
    "checked_sort": (ONE, lambda comm, c: checked_sort(comm, c["x"])),
    "checked_join[hash]": (KV2, lambda comm, c: checked_join(
        comm, (c["rk"], c["rv"]), (c["sk"], c["sv"]))),
    "checked_join[range]": (KV2, lambda comm, c: checked_join(
        comm, (c["rk"], c["rv"]), (c["sk"], c["sv"]), mode="range")),
    "DIA.sort_checked": (ONE, lambda comm, c: (
        DIA(comm, c["x"]).sort_checked())),
    "DIA.union_checked": (SEQ, lambda comm, c: (
        DIA(comm, c["e"]).union_checked(DIA(comm, c["o"])))),
    "DIA.merge_checked": (SEQ, lambda comm, c: (
        DIA(comm, c["e"]).merge_checked(DIA(comm, c["o"])))),
    "DIA.zip_checked": (SEQ, lambda comm, c: (
        DIA(comm, c["e"]).zip_checked(DIA(comm, c["o"])))),
    "KeyValueDIA.reduce_by_key_checked": (KV, lambda comm, c: (
        KeyValueDIA(comm, c["k"], c["v"]).reduce_by_key_checked(CONFIG))),
    "KeyValueDIA.group_by_key_checked": (KV, lambda comm, c: (
        KeyValueDIA(comm, c["k"], c["v"]).group_by_key_checked())),
    "settle_reduce_window": (KV, lambda comm, c: _window(
        comm, (c["k"], c["v"]), settle_reduce_window)),
    "settle_sum_window": (ONE, lambda comm, c: _window(
        comm, c["x"], settle_sum_window)),
    "settle_zip_window": (SEQ, lambda comm, c: settle_zip_window(
        comm, [c["e"]], [c["o"]], seed_w=3, window=0)),
    "StreamingDIA.sum_checked": (ONE, lambda comm, c: (
        StreamingDIA.from_chunks(comm, [c["x"]]).sum_checked(CONFIG))),
    "StreamingDIA.zip_checked": (SEQ, lambda comm, c: (
        StreamingDIA.from_chunks(comm, [c["e"]]).zip_checked(
            StreamingDIA.from_chunks(comm, [c["o"]])))),
    "StreamingKeyValueDIA.reduce_by_key_checked": (KV, lambda comm, c: (
        StreamingKeyValueDIA.from_chunks(comm, [(c["k"], c["v"])])
        .reduce_by_key_checked(CONFIG))),
    "StreamingKeyValueDIA.count_by_key_checked": (
        {"k": _ints},
        lambda comm, c: StreamingKeyValueDIA.from_chunks(
            comm, [(c["k"], np.zeros(c["k"].size, np.int64))]
        ).count_by_key_checked(CONFIG)),
    # The adaptive variants read their columns the same way.
    "DIA.sort_checked[adaptive]": (ONE, lambda comm, c: (
        DIA(comm, c["x"]).sort_checked(policy=ALWAYS))),
    "DIA.union_checked[adaptive]": (SEQ, lambda comm, c: (
        DIA(comm, c["e"]).union_checked(DIA(comm, c["o"]), policy=ALWAYS))),
    "DIA.merge_checked[adaptive]": (SEQ, lambda comm, c: (
        DIA(comm, c["e"]).merge_checked(DIA(comm, c["o"]), policy=ALWAYS))),
    "DIA.zip_checked[adaptive]": (SEQ, lambda comm, c: (
        DIA(comm, c["e"]).zip_checked(DIA(comm, c["o"]), policy=ALWAYS))),
    "KeyValueDIA.reduce_by_key_checked[adaptive]": (KV, lambda comm, c: (
        KeyValueDIA(comm, c["k"], c["v"]).reduce_by_key_checked(
            CONFIG, policy=ALWAYS))),
    "KeyValueDIA.group_by_key_checked[adaptive]": (KV, lambda comm, c: (
        KeyValueDIA(comm, c["k"], c["v"]).group_by_key_checked(
            policy=ALWAYS))),
}
def _matrix(table):
    return [
        pytest.param(name, slot, dtype, id=f"{name}-{slot}-{dtype}")
        for name, (slots, _) in table.items()
        for slot in slots
        for dtype in DTYPES
    ]


def _assert_every_pe_refuses(table, name, slot, dtype, deadline):
    slots, call = table[name]

    def run(comm):
        try:
            call(comm, _pick(slots, slot, comm.rank, _column(dtype, comm.rank)))
        except TypeError as exc:
            return str(exc)
        return None

    deadline(20)
    msgs = Context(2).run(run)
    assert all(msg is not None and dtype in msg for msg in msgs), msgs


def test_every_core_check_is_in_the_matrix():
    checks = {n for n in core_names if n.startswith("check_")}
    assert checks - {"check_replicated"} == {n.split("[")[0] for n in CORE}


@pytest.mark.parametrize("name, slot, dtype", _matrix(CORE))
def test_core_check_refuses_on_every_pe(name, slot, dtype, deadline):
    _assert_every_pe_refuses(CORE, name, slot, dtype, deadline)


@pytest.mark.parametrize("name, slot, dtype", _matrix(DATAFLOW))
def test_checked_operation_refuses_on_every_pe(name, slot, dtype, deadline):
    _assert_every_pe_refuses(DATAFLOW, name, slot, dtype, deadline)


@pytest.mark.parametrize("name", sorted(CORE) + sorted(DATAFLOW))
def test_in_domain_columns_run(name, deadline):
    """The matrix's valid columns pass the domain: every refusal above is
    the bad column's."""
    slots, call = {**CORE, **DATAFLOW}[name]
    deadline(20)
    Context(2).run(lambda comm: call(comm, _pick(slots, None, comm.rank, None)))


def _list_partitioner(keys):
    """A user partitioner: int64 ranks, but float64 on a PE without keys."""
    return np.array([int(k) % 2 for k in keys])


#: Exchanges refused on PE 0 alone, or on PE 1 alone: (call, the error
#: every PE raises, a word of its message).
ONE_PE_REFUSES = {
    "empty-list-ranks-on-PE-1": (
        lambda comm: exchange_by_destination(
            comm, [0, 1] if comm.rank == 0 else []
        ), TypeError, "float64"),
    "user-partitioner-on-empty-PE-1": (
        lambda comm: reduce_by_key(
            comm, _ints(comm.rank), _ints(comm.rank, np.int64),
            partitioner=_list_partitioner,
        ), TypeError, "float64"),
    "rank-out-of-range-on-PE-0": (
        lambda comm: exchange_by_destination(
            comm, np.array([5] if comm.rank == 0 else [], dtype=np.int64)
        ), ValueError, "out of range"),
}


@pytest.mark.parametrize("case", sorted(ONE_PE_REFUSES))
def test_exchange_refusal_reaches_every_pe(case, deadline):
    """The refusing PE sends its refusal through the all-to-all, so its
    peers, whose own ranks pass, raise it too instead of waiting for rows
    it never sends."""
    call, error, word = ONE_PE_REFUSES[case]

    def run(comm):
        try:
            call(comm)
        except error as exc:
            return str(exc)
        return None

    deadline(20)
    msgs = Context(2).run(run)
    assert all(msg is not None and word in msg for msg in msgs), msgs


K = np.arange(8, dtype=np.uint64)
V = np.arange(8, dtype=np.int64)
#: One chunk per engine and column, with ``bad`` as that column.
SERVICE = {
    "reduce_by_key": [lambda bad: (bad, V[: bad.size]),
                      lambda bad: (K[: bad.size], bad)],
    "count_by_key": [lambda bad: bad],
    "sum": [lambda bad: bad],
    "zip": [lambda bad: (bad, V[: bad.size]),
            lambda bad: (V[: bad.size], bad)],
}


@pytest.mark.parametrize("op", sorted(ENGINES))
def test_every_engine_poisons_out_of_domain_chunks(op):
    bad = [
        chunk(np.arange(n).astype(dtype))
        for chunk in SERVICE[op]
        for dtype in DTYPES
        for n in (8, 0)
    ]
    good = SERVICE[op][0](K if op == "count_by_key" else V)
    with CheckedStreamService() as svc:
        handle = svc.register("t", TenantConfig(op=op, chunks_per_window=1))
        for chunk in bad:
            handle.submit(chunk)
        handle.submit(good)
        handle.close()
        assert svc.drain(timeout=60)
        res = handle.result()
    assert len(res.poisons) == len(bad)
    assert all(
        any(dtype in p.error for dtype in DTYPES) for p in res.poisons
    ), [p.error for p in res.poisons]
    assert res.stats.windows_settled == 1
    assert all(v.accepted for v in res.verdicts)


def test_sum_tenant_refuses_a_cast_overflowing_float_chunk():
    """Cast to int64, ``[1e19, 3.0]`` settled as an accepted total of
    −9223372036854775805: the float chunk is poison now."""
    with CheckedStreamService() as svc:
        handle = svc.register("t", TenantConfig(op="sum", chunks_per_window=1))
        handle.submit(np.array([1e19, 3.0]))
        handle.submit(np.array([5, 7], dtype=np.int64))
        handle.close()
        assert svc.drain(timeout=60)
        res = handle.result()
    assert len(res.poisons) == 1 and "float64" in res.poisons[0].error
    assert [int(o) for o in res.outputs] == [12]


def test_reduce_tenant_reads_negative_keys_as_words():
    """The core reads an int64 key as its two's-complement word; so does
    the service, which used to poison negative keys."""
    keys = np.array([-1, 3, -1, -(1 << 63)], dtype=np.int64)
    values = np.array([1, 2, 3, 4], dtype=np.int64)
    with CheckedStreamService() as svc:
        handle = svc.register(
            "t", TenantConfig(op="reduce_by_key", chunks_per_window=1)
        )
        handle.submit((keys, values))
        handle.close()
        assert svc.drain(timeout=60)
        res = handle.result()
    assert not res.poisons and all(v.accepted for v in res.verdicts)
    (out_k, out_v), = res.outputs
    assert out_k.dtype == np.uint64
    got = dict(zip(out_k.tolist(), out_v.tolist()))
    assert got == {(1 << 64) - 1: 4, 3: 2, 1 << 63: 4}


@pytest.fixture
def domain():
    """Imported here, so that the tables above also load against a tree
    without ``repro.core.domain``."""
    from repro.core import domain

    return domain


class TestRules:
    """The rules themselves, sequentially."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_reader_names_the_dtype(self, dtype, domain):
        empty = np.zeros(0, dtype=dtype)
        for read in (domain.words, domain.values, domain.ranks,
                     domain.ordered, lambda a: domain.concat([a])):
            with pytest.raises(TypeError, match=dtype):
                read(empty)

    def test_words_and_values(self, domain):
        signed = np.array([-1, 2], dtype=np.int64)
        assert domain.words(signed).tolist() == [(1 << 64) - 1, 2]
        assert np.shares_memory(domain.words(signed), signed)
        wide = np.array([(1 << 64) - 1], dtype=np.uint64)
        assert domain.values(wide).tolist() == [-1]
        assert domain.words(np.array([[1, 2]], np.int32)).tolist() == [1, 2]

    def test_ordered_sides_share_signedness(self, domain):
        with pytest.raises(TypeError, match="signedness"):
            domain.ordered(np.zeros(0, np.uint64), [np.zeros(0, np.int64)])
        assert domain.ordered([3, 1], [np.array([1, 3], np.int32)]).tolist() \
            == [3, 1]

    def test_seeds(self, domain):
        assert domain.seeds(-1).tolist() == [(1 << 64) - 1]
        with pytest.raises(ValueError, match="distinct"):
            domain.seeds([4, 4])
        with pytest.raises(TypeError, match="integer seeds"):
            domain.seeds([0.5])

    def test_concat_keeps_mixed_signedness_exact(self, domain):
        small = [np.array([-1], np.int64), np.array([5], np.uint64)]
        assert domain.concat(small).tolist() == [-1, 5]
        wide = [np.array([-1], np.int64), np.array([1 << 63], np.uint64)]
        assert domain.concat(wide).tolist() == [(1 << 64) - 1, 1 << 63]
        assert domain.concat([]).dtype == np.int64
        # Empty chunks keep their dtype: a PE with an empty uint64 window
        # must not turn its peers' zipped uint64 column into float64.
        assert domain.concat([np.zeros(0, np.uint64)] * 2).dtype == np.uint64
