"""DIA — a chainable, Thrill-flavoured API over the dataflow operations.

Thrill programs chain *distributed immutable arrays* (DIAs) through
operations; this module offers the same ergonomics on top of the functional
ops layer, including ``*_checked`` variants that return the operation's
result together with the checker verdict:

    def program(comm, chunk):
        dia = DIA(comm, chunk)
        out, verdict = dia.sort_checked(seed=1)
        assert verdict.accepted
        return out.collect_local()

Single-column data lives in :class:`DIA`; key-value data in
:class:`KeyValueDIA`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.comm import ops
from repro.core import domain
from repro.core.base import CheckResult
from repro.core.params import SumCheckConfig
from repro.core.sort_checker import check_globally_sorted, check_sort
from repro.core.multiseed import check_sum_aggregation
from repro.core.union_checker import check_union
from repro.core.merge_checker import check_merge
from repro.core.zip_checker import check_zip
from repro.core.groupby_checker import (
    check_groupby_redistribution,
    default_partitioner,
)
from repro.dataflow.pipeline import (
    AdaptiveCheckPolicy,
    adaptive_groupby_check,
    adaptive_permutation_check,
    adaptive_sort_check,
    adaptive_sum_check,
    adaptive_zip_check,
    hashsum_only_kwargs,
)
from repro.dataflow.ops.group_by_key import group_by_key
from repro.dataflow.ops.map_filter import filter_elements, map_elements, map_pairs
from repro.dataflow.ops.merge import merge_sorted
from repro.dataflow.ops.reduce_by_key import reduce_by_key
from repro.dataflow.ops.sort import sample_sort
from repro.dataflow.ops.union import union_arrays
from repro.dataflow.ops.zip_op import zip_arrays

_DEFAULT_CONFIG = SumCheckConfig(iterations=8, d=16, rhat=1 << 15)


class DIA:
    """One PE's handle on a distributed immutable array (single column)."""

    def __init__(self, comm, local):
        self.comm = comm
        self.local = np.asarray(local)

    # -- local (communication-free) ------------------------------------------
    def map(self, fn: Callable) -> "DIA":
        """Vectorized element transform."""
        return DIA(self.comm, map_elements(self.local, fn))

    def filter(self, predicate: Callable) -> "DIA":
        """Vectorized element filter."""
        return DIA(self.comm, filter_elements(self.local, predicate))

    def size(self) -> int:
        """Global element count (one all-reduction)."""
        n = int(self.local.size)
        if self.comm is None:
            return n
        return self.comm.allreduce(n, op=ops.SUM)

    def collect_local(self) -> np.ndarray:
        """This PE's local slice."""
        return self.local

    def collect(self) -> np.ndarray:
        """The full array, assembled at every PE (expensive; debugging)."""
        if self.comm is None:
            return self.local.copy()
        pieces = self.comm.allgather(self.local)
        return np.concatenate(pieces)

    # -- distributed operations ----------------------------------------------
    def sort(self) -> "DIA":
        return DIA(self.comm, sample_sort(self.comm, self.local))

    def sort_checked(
        self,
        seed: int = 0,
        policy: AdaptiveCheckPolicy | None = None,
        **kwargs,
    ) -> tuple["DIA", CheckResult]:
        """Sort + Theorem 7 checker; returns (sorted DIA, verdict).

        With a ``policy`` the permutation fingerprint runs 1 seed inline
        and escalates per the policy over the condensed element counts
        (the sortedness half is deterministic and runs once).
        """
        out = sample_sort(self.comm, self.local)
        if policy is not None:
            verdict = adaptive_sort_check(
                self.local, out, seed=seed, policy=policy, comm=self.comm,
                **kwargs,
            )
        else:
            verdict = check_sort(
                self.local, out, seed=seed, comm=self.comm, **kwargs
            )
        return DIA(self.comm, out), verdict

    def union(self, other: "DIA") -> "DIA":
        return DIA(self.comm, union_arrays(self.comm, self.local, other.local))

    def union_checked(
        self,
        other: "DIA",
        seed: int = 0,
        policy: AdaptiveCheckPolicy | None = None,
        **kwargs,
    ) -> tuple["DIA", CheckResult]:
        """Union + Corollary 12 checker (adaptive when ``policy`` given)."""
        out = union_arrays(self.comm, self.local, other.local)
        if policy is not None:
            verdict = adaptive_permutation_check(
                [self.local, other.local],
                out,
                seed=seed,
                policy=policy,
                comm=self.comm,
                checker="union-adaptive",
                **hashsum_only_kwargs(kwargs),
            )
        else:
            verdict = check_union(
                self.local, other.local, out, seed=seed, comm=self.comm,
                **kwargs,
            )
        return DIA(self.comm, out), verdict

    def merge(self, other: "DIA") -> "DIA":
        return DIA(self.comm, merge_sorted(self.comm, self.local, other.local))

    def merge_checked(
        self,
        other: "DIA",
        seed: int = 0,
        policy: AdaptiveCheckPolicy | None = None,
        **kwargs,
    ) -> tuple["DIA", CheckResult]:
        """Merge + Corollary 13 checker (adaptive when ``policy`` given)."""
        out = merge_sorted(self.comm, self.local, other.local)
        if policy is not None:
            domain.ordered(out, [self.local, other.local], "merge_checked")
            sortedness = check_globally_sorted(out, comm=self.comm)
            verdict = adaptive_permutation_check(
                [self.local, other.local],
                out,
                seed=seed,
                policy=policy,
                comm=self.comm,
                extra_ok=sortedness.accepted,
                extra_details={"sorted": sortedness.accepted},
                checker="merge-adaptive",
                **hashsum_only_kwargs(kwargs),
            )
        else:
            verdict = check_merge(
                self.local, other.local, out, seed=seed, comm=self.comm,
                **kwargs,
            )
        return DIA(self.comm, out), verdict

    def zip(self, other: "DIA") -> "KeyValueDIA":
        first, second = zip_arrays(self.comm, self.local, other.local)
        return KeyValueDIA(self.comm, first, second)

    def zip_checked(
        self,
        other: "DIA",
        seed: int = 0,
        iterations: int = 2,
        policy: AdaptiveCheckPolicy | None = None,
    ) -> tuple["KeyValueDIA", CheckResult]:
        """Zip + Theorem 11 checker (adaptive when ``policy`` given).

        The checker reuses the global offsets the zip exchange computed.
        """
        first, second, (off1, off2) = zip_arrays(
            self.comm, self.local, other.local, return_offsets=True
        )
        offsets = (off1, off2, off1)
        if policy is not None:
            verdict = adaptive_zip_check(
                self.local,
                other.local,
                first,
                second,
                seed=seed,
                policy=policy,
                comm=self.comm,
                iterations=iterations,
                offsets=offsets,
            )
        else:
            verdict = check_zip(
                self.local,
                other.local,
                first,
                second,
                iterations=iterations,
                seed=seed,
                comm=self.comm,
                offsets=offsets,
            )
        return KeyValueDIA(self.comm, first, second), verdict

    def with_values(self, values) -> "KeyValueDIA":
        """Pair this column (as keys) with a values column."""
        return KeyValueDIA(self.comm, self.local, values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rank = self.comm.rank if self.comm is not None else 0
        return f"DIA(rank={rank}, local_size={self.local.size})"


class KeyValueDIA:
    """One PE's handle on a distributed array of (key, value) pairs."""

    def __init__(self, comm, keys, values):
        self.comm = comm
        self.keys = np.asarray(keys)
        self.values = np.asarray(values)
        if self.keys.shape != self.values.shape:
            raise ValueError(
                f"keys and values must align: {self.keys.shape} vs "
                f"{self.values.shape}"
            )

    # -- local ------------------------------------------------------------
    def map_pairs(self, fn: Callable) -> "KeyValueDIA":
        k, v = map_pairs(self.keys, self.values, fn)
        return KeyValueDIA(self.comm, k, v)

    def filter_pairs(self, predicate: Callable) -> "KeyValueDIA":
        mask = np.asarray(predicate(self.keys, self.values), dtype=bool)
        return KeyValueDIA(self.comm, self.keys[mask], self.values[mask])

    def collect_local(self) -> tuple[np.ndarray, np.ndarray]:
        return self.keys, self.values

    # -- distributed ----------------------------------------------------------
    def reduce_by_key(self, partitioner=None) -> "KeyValueDIA":
        k, v = reduce_by_key(self.comm, self.keys, self.values, partitioner)
        return KeyValueDIA(self.comm, k, v)

    def reduce_by_key_checked(
        self,
        config: SumCheckConfig | None = None,
        seed: int = 0,
        partitioner=None,
        policy: AdaptiveCheckPolicy | None = None,
    ) -> tuple["KeyValueDIA", CheckResult]:
        """ReduceByKey + Theorem 1 checker.

        With a ``policy`` the check runs 1 seed inline on the raw pairs and
        escalates to the policy's ``T`` seeds on its trigger, against the
        sides condensed once to their unique-key aggregates.
        """
        k, v = reduce_by_key(self.comm, self.keys, self.values, partitioner)
        if policy is not None:
            verdict = adaptive_sum_check(
                (self.keys, self.values),
                (k, v),
                config or _DEFAULT_CONFIG,
                seed=seed,
                policy=policy,
                comm=self.comm,
            )
        else:
            verdict = check_sum_aggregation(
                (self.keys, self.values),
                (k, v),
                config or _DEFAULT_CONFIG,
                seed=seed,
                comm=self.comm,
            )
        return KeyValueDIA(self.comm, k, v), verdict

    def group_by_key(self, partitioner=None):
        """Returns (unique keys, list of per-key value arrays)."""
        return group_by_key(self.comm, self.keys, self.values, partitioner)

    def group_by_key_checked(
        self,
        seed: int = 0,
        partitioner=None,
        policy: AdaptiveCheckPolicy | None = None,
        **kwargs,
    ) -> tuple[tuple, CheckResult]:
        """GroupByKey + Corollary 14 (invasive redistribution) checker.

        With a ``policy``, records are encoded once, the placement test
        (deterministic) runs once, and the permutation fingerprint
        escalates adaptively over the shared record condensation.
        """
        if partitioner is None:
            size = self.comm.size if self.comm is not None else 1
            partitioner = default_partitioner(size)
        uk, groups, post = group_by_key(
            self.comm,
            self.keys,
            self.values,
            partitioner=partitioner,
            return_exchange=True,
        )
        if policy is not None:
            verdict = adaptive_groupby_check(
                (self.keys, self.values),
                post,
                partitioner,
                seed=seed,
                policy=policy,
                comm=self.comm,
                **kwargs,
            )
        else:
            verdict = check_groupby_redistribution(
                (self.keys, self.values),
                post,
                partitioner,
                comm=self.comm,
                seed=seed,
                **kwargs,
            )
        return (uk, groups), verdict

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rank = self.comm.rank if self.comm is not None else 0
        return f"KeyValueDIA(rank={rank}, local_size={self.keys.size})"
