"""The paper's manipulators (Tables 4 and 6).

Two families:

* **Key-value manipulators** (Table 4) attack a sum aggregation: the fault
  is injected *inside* the (black-box) reduction, so the checker sees the
  original input but an output aggregated from manipulated data.  The
  effect on the checker is fully described by the per-key aggregate deltas.
* **Sequence manipulators** (Table 6) attack a sort/permutation: one
  element of the input sequence is altered before sorting ("in order to
  test the permutation checker and not the trivial sortedness check").
  The effect is described by the (removed, added) element multisets.

Every ``apply`` returns both the manipulated data and the sparse effect.
Manipulators re-draw when a draw happens to be a no-op (e.g. RandKey
drawing the same key): a manipulator's contract is that it *does*
introduce a fault.  Values are stored integers: keys and elements wrap
modulo 2^64 and a key's aggregate delta wraps to int64, as the uint64 and
int64 records the data holds do.

``sample_delta_batch``/``sample_change_batch`` draw *many* trials' faults
in a few numpy passes and report only their sparse effects, for the
high-trial-count accuracy experiments.  Each trial consumes its own
:class:`repro.util.rng.SplitMixStream` draws in exactly the order
``apply`` would (redraws included), so the batched accuracy path is
trial-for-trial identical to a loop over ``apply``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import SplitMixStreamBatch, default_generator

_MAX_REDRAWS = 64


def _resolve_rng(rng):
    """Coerce an ``rng=`` argument to a draw source.

    Integers are root seeds, resolved through the sanctioned
    :func:`repro.util.rng.default_generator` bridge so injection stays
    replayable (and the ``determinism`` lint rule keeps exactly one
    generator constructor to whitelist).  Generators and
    :class:`~repro.util.rng.SplitMixStream` objects pass through; ``None``
    stays ``None`` (meaning "use the manipulator's bound generator").
    """
    if rng is None:
        return None
    if isinstance(rng, (int, np.integer)):
        return default_generator(int(rng))
    return rng


@dataclass
class KVManipulation:
    """Effect of a key-value manipulator."""

    keys: np.ndarray  # manipulated keys (full copy)
    values: np.ndarray  # manipulated values (full copy)
    delta_keys: np.ndarray  # sparse per-key aggregate deltas (output − correct)
    delta_values: np.ndarray


@dataclass
class SeqManipulation:
    """Effect of a sequence manipulator."""

    sequence: np.ndarray  # manipulated sequence (full copy)
    removed: np.ndarray  # multiset of elements removed from the sequence
    added: np.ndarray  # multiset of elements added


@dataclass
class KVManipulationBatch:
    """Sparse aggregate deltas of many independently drawn faults.

    Flat arrays: entry ``i`` contributes ``delta_values[i]`` to key
    ``delta_keys[i]`` of trial ``owner[i]``; entries are grouped by trial
    and every trial has at least one (non-zero) entry.
    """

    owner: np.ndarray  # (entries,) trial index per delta entry
    delta_keys: np.ndarray  # (entries,) uint64
    delta_values: np.ndarray  # (entries,) int64
    trials: int


@dataclass
class SeqManipulationBatch:
    """(removed, added) element of many single-element sequence faults."""

    removed: np.ndarray  # (trials,) uint64
    added: np.ndarray  # (trials,) uint64


_KEY_MASK = (1 << 64) - 1
_INT64_BIAS = 1 << 63


def _consolidate(keys: list[int], values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Merge duplicate delta keys and drop zero deltas.

    Keys wrap modulo 2^64 (stored-integer semantics: decrementing key 0
    yields key 2^64−1, exactly what the manipulated uint64 record holds)
    and each key's value sum wraps to int64 before the zero test, as the
    batch's int64 ``reduceat`` does (moving the value ``-2^63`` off a key
    leaves that key a delta of ``2^63``, stored as ``-2^63``).
    """
    agg: dict[int, int] = {}
    for k, v in zip(keys, values):
        k &= _KEY_MASK
        agg[k] = ((agg.get(k, 0) + v + _INT64_BIAS) & _KEY_MASK) - _INT64_BIAS
    kept = [(k, v) for k, v in agg.items() if v != 0]
    if not kept:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    ks, vs = zip(*kept)
    return np.array(ks, dtype=np.uint64), np.array(vs, dtype=np.int64)


def _consolidate_batch(
    owner: np.ndarray, keys: np.ndarray, values: np.ndarray, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`_consolidate` across trials.

    Merges duplicate (trial, key) entries, drops zero deltas, and returns
    ``(owner, keys, values, per-trial entry counts)`` sorted by trial.
    Entry *order within a trial* may differ from the scalar dict-insertion
    order; the minireduction table is order-invariant, so verdicts are
    unaffected.
    """
    owner = np.asarray(owner, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.uint64)
    values = np.asarray(values, dtype=np.int64)
    counts = np.zeros(trials, dtype=np.int64)
    if owner.size == 0:
        return owner.astype(np.intp), keys, values, counts
    order = np.lexsort((keys, owner))
    o, k, v = owner[order], keys[order], values[order]
    first = np.concatenate(([True], (o[1:] != o[:-1]) | (k[1:] != k[:-1])))
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(v, starts)
    o, k = o[starts], k[starts]
    keep = sums != 0
    o, k, sums = o[keep], k[keep], sums[keep]
    counts = np.bincount(o, minlength=trials)
    return o.astype(np.intp), k, sums, counts


# ---------------------------------------------------------------------------
# Table 4: sum-aggregation manipulators
# ---------------------------------------------------------------------------


class KVManipulator:
    """Base class; subclasses draw a fault and describe its aggregate delta.

    ``rng=`` (an int root seed or a generator) binds a default draw source
    at construction; per-call ``rng`` arguments override it.
    """

    name: str = "?"

    def __init__(self, rng=None):
        self.rng = _resolve_rng(rng)

    def _resolve(self, rng):
        rng = _resolve_rng(rng)
        if rng is None:
            rng = self.rng
        if rng is None:
            raise ValueError(
                f"{self.name}: pass rng= here or bind one at construction"
            )
        return rng

    def _draw(self, rng: np.random.Generator, keys, values):
        """Return (delta_keys, delta_values, edits) for one fault.

        ``edits`` is a list of (index, new_key, new_value) element rewrites
        used by :meth:`apply` to materialise the manipulated input.
        """
        raise NotImplementedError

    def apply(self, rng, keys, values) -> KVManipulation:
        """Draw a fault; return the manipulated copy plus its deltas.

        ``rng`` may be a generator, an int root seed, or ``None`` to use
        the generator bound at construction.
        """
        rng = self._resolve(rng)
        for _ in range(_MAX_REDRAWS):
            dk, dv, edits = self._draw(rng, keys, values)
            if dk.size:
                new_keys = np.array(keys, dtype=np.uint64, copy=True)
                new_values = np.array(values, dtype=np.int64, copy=True)
                for idx, nk, nv in edits:
                    new_keys[idx] = nk & _KEY_MASK
                    new_values[idx] = nv
                return KVManipulation(new_keys, new_values, dk, dv)
        raise RuntimeError(
            f"{self.name}: could not draw an effective fault in "
            f"{_MAX_REDRAWS} attempts (degenerate input?)"
        )

    def _draw_batch(
        self, rng: SplitMixStreamBatch, keys, values, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One attempt for trials ``idx``: consolidated (owner, dk, dv).

        Consumes each listed trial's stream draws exactly as the scalar
        :meth:`_draw` would; trials whose attempt was a no-op simply have
        no entries in the result.
        """
        raise NotImplementedError

    def sample_delta_batch(
        self, rng: SplitMixStreamBatch, keys, values, trials: int | None = None
    ) -> KVManipulationBatch:
        """The deltas of :meth:`apply`, one fault per stream in ``rng``.

        Trial ``t``'s fault (and stream consumption, redraws included)
        equals that of ``apply(SplitMixStream(seed_t), ...)`` for the seed
        behind ``rng``'s stream ``t``.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.int64)
        total = rng.size
        if trials is not None and trials != total:
            raise ValueError(f"rng carries {total} streams, trials={trials}")
        owner_parts, key_parts, val_parts = [], [], []
        pending = np.arange(total, dtype=np.intp)
        for _ in range(_MAX_REDRAWS):
            if pending.size == 0:
                break
            o, dk, dv = self._draw_batch(rng, keys, values, pending)
            owner_parts.append(o)
            key_parts.append(dk)
            val_parts.append(dv)
            effective = np.zeros(total, dtype=bool)
            effective[o] = True
            pending = pending[~effective[pending]]
        if pending.size:
            raise RuntimeError(
                f"{self.name}: could not draw an effective fault in "
                f"{_MAX_REDRAWS} attempts (degenerate input?)"
            )
        owner = np.concatenate(owner_parts) if owner_parts else np.zeros(0, np.intp)
        dk = np.concatenate(key_parts) if key_parts else np.zeros(0, np.uint64)
        dv = np.concatenate(val_parts) if val_parts else np.zeros(0, np.int64)
        order = np.argsort(owner, kind="stable")
        return KVManipulationBatch(owner[order], dk[order], dv[order], total)


class Bitflip(KVManipulator):
    """Flip a random bit of a random input element (key or value part).

    The element is the stored (key, value) record: ``key_bits`` key bits
    followed by ``value_bits`` value bits (soft-error model: a single DRAM
    bitflip inside the reduction's working set).
    """

    name = "Bitflip"

    def __init__(self, key_bits: int = 20, value_bits: int = 21, rng=None):
        super().__init__(rng)
        self.key_bits = key_bits
        self.value_bits = value_bits

    def _draw(self, rng, keys, values):
        i = int(rng.integers(len(keys)))
        bit = int(rng.integers(self.key_bits + self.value_bits))
        k = int(keys[i])
        v = int(values[i])
        if bit < self.value_bits:
            nv = v ^ (1 << bit)
            dk, dv = _consolidate([k], [nv - v])
            return dk, dv, [(i, k, nv)]
        nk = k ^ (1 << (bit - self.value_bits))
        dk, dv = _consolidate([k, nk], [-v, v])
        return dk, dv, [(i, nk, v)]

    def _draw_batch(self, rng, keys, values, idx):
        i = rng.integers(keys.size, index=idx).astype(np.intp)
        bit = rng.integers(self.key_bits + self.value_bits, index=idx)
        k, v = keys[i], values[i]
        val_flip = bit < np.uint64(self.value_bits)
        dv_val = (v ^ (np.int64(1) << bit.astype(np.int64))) - v
        key_shift = (bit - np.uint64(self.value_bits)) & np.uint64(63)
        nk = k ^ (np.uint64(1) << key_shift)
        kf = ~val_flip
        owner = np.concatenate((idx[val_flip], idx[kf], idx[kf]))
        dkeys = np.concatenate((k[val_flip], k[kf], nk[kf]))
        dvals = np.concatenate((dv_val[val_flip], -v[kf], v[kf]))
        return _consolidate_batch(owner, dkeys, dvals, rng.size)[:3]


class RandKey(KVManipulator):
    """Randomize the key of a random element (within the key domain)."""

    name = "RandKey"

    def __init__(self, key_domain: int = 10**6, rng=None):
        super().__init__(rng)
        self.key_domain = key_domain

    def _draw(self, rng, keys, values):
        i = int(rng.integers(len(keys)))
        k = int(keys[i])
        v = int(values[i])
        nk = int(rng.integers(self.key_domain))
        dk, dv = _consolidate([k, nk], [-v, v])
        return dk, dv, [(i, nk, v)]

    def _draw_batch(self, rng, keys, values, idx):
        i = rng.integers(keys.size, index=idx).astype(np.intp)
        nk = rng.integers(self.key_domain, index=idx)
        k, v = keys[i], values[i]
        owner = np.concatenate((idx, idx))
        dkeys = np.concatenate((k, nk))
        dvals = np.concatenate((-v, v))
        return _consolidate_batch(owner, dkeys, dvals, rng.size)[:3]


class SwitchValues(KVManipulator):
    """Switch the values of two random elements."""

    name = "SwitchValues"

    def _draw(self, rng, keys, values):
        n = len(keys)
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        ki, kj = int(keys[i]), int(keys[j])
        vi, vj = int(values[i]), int(values[j])
        dk, dv = _consolidate([ki, kj], [vj - vi, vi - vj])
        return dk, dv, [(i, ki, vj), (j, kj, vi)]

    def _draw_batch(self, rng, keys, values, idx):
        i = rng.integers(keys.size, index=idx).astype(np.intp)
        j = rng.integers(keys.size, index=idx).astype(np.intp)
        ki, kj = keys[i], keys[j]
        vi, vj = values[i], values[j]
        owner = np.concatenate((idx, idx))
        dkeys = np.concatenate((ki, kj))
        dvals = np.concatenate((vj - vi, vi - vj))
        return _consolidate_batch(owner, dkeys, dvals, rng.size)[:3]


class IncKey(KVManipulator):
    """Increment the key of a random element."""

    name = "IncKey"

    def _draw(self, rng, keys, values):
        i = int(rng.integers(len(keys)))
        k = int(keys[i])
        v = int(values[i])
        nk = (k + 1) & _KEY_MASK
        dk, dv = _consolidate([k, nk], [-v, v])
        return dk, dv, [(i, nk, v)]

    def _draw_batch(self, rng, keys, values, idx):
        i = rng.integers(keys.size, index=idx).astype(np.intp)
        k, v = keys[i], values[i]
        with np.errstate(over="ignore"):
            nk = k + np.uint64(1)
        owner = np.concatenate((idx, idx))
        dkeys = np.concatenate((k, nk))
        dvals = np.concatenate((-v, v))
        return _consolidate_batch(owner, dkeys, dvals, rng.size)[:3]


class IncDec(KVManipulator):
    """Increment the keys of n elements, decrement those of n others.

    All 2n touched elements have pairwise distinct keys (Table 4); this is
    the adversarial case for the checker because the ±v deltas may cancel
    within a bucket.
    """

    def __init__(self, n: int = 1, rng=None):
        super().__init__(rng)
        if n < 1:
            raise ValueError(f"IncDec needs n >= 1, got {n}")
        self.n = n
        self.name = f"IncDec{n}"

    def _draw(self, rng, keys, values):
        needed = 2 * self.n
        # Sample until we hold 2n elements with pairwise distinct keys.
        seen: dict[int, int] = {}
        for _ in range(64 * needed):
            i = int(rng.integers(len(keys)))
            k = int(keys[i])
            if k not in seen:
                seen[k] = i
            if len(seen) == needed:
                break
        else:
            return (
                np.zeros(0, dtype=np.uint64),
                np.zeros(0, dtype=np.int64),
                [],
            )
        picks = list(seen.values())
        delta_keys: list[int] = []
        delta_vals: list[int] = []
        edits = []
        for rank, i in enumerate(picks):
            k = int(keys[i])
            v = int(values[i])
            nk = (k + 1 if rank < self.n else k - 1) & _KEY_MASK
            delta_keys += [k, nk]
            delta_vals += [-v, v]
            edits.append((i, nk, v))
        dk, dv = _consolidate(delta_keys, delta_vals)
        return dk, dv, edits

    def _draw_batch(self, rng, keys, values, idx):
        # Re-enact the scalar rejection loop in lock-step: every incomplete
        # trial draws one index per step (duplicates of an already-picked
        # key are discarded, consuming the draw), and stops the moment it
        # holds 2n distinct keys.  Per-trial stream counters diverge
        # naturally through rng's index bookkeeping.
        needed = 2 * self.n
        m = idx.size
        picked_key = np.zeros((m, needed), dtype=np.uint64)
        picked_idx = np.zeros((m, needed), dtype=np.intp)
        counts = np.zeros(m, dtype=np.int64)
        ranks = np.arange(needed, dtype=np.int64)
        for _ in range(64 * needed):
            open_rows = np.flatnonzero(counts < needed)
            if open_rows.size == 0:
                break
            draws = rng.integers(keys.size, index=idx[open_rows]).astype(np.intp)
            k = keys[draws]
            dup = (
                (picked_key[open_rows] == k[:, None])
                & (ranks[None, :] < counts[open_rows, None])
            ).any(axis=1)
            rows = open_rows[~dup]
            picked_key[rows, counts[rows]] = k[~dup]
            picked_idx[rows, counts[rows]] = draws[~dup]
            counts[rows] += 1
        done = np.flatnonzero(counts == needed)
        pk = picked_key[done]  # (c, needed)
        pv = values[picked_idx[done]]
        with np.errstate(over="ignore"):
            nk = pk + np.where(ranks[None, :] < self.n, 1, -1).astype(np.uint64)
        owner = np.repeat(idx[done], 2 * needed)
        dkeys = np.stack((pk, nk), axis=2).reshape(-1)
        dvals = np.stack((-pv, pv), axis=2).reshape(-1)
        return _consolidate_batch(owner, dkeys, dvals, rng.size)[:3]


# ---------------------------------------------------------------------------
# Table 6: permutation/sort manipulators
# ---------------------------------------------------------------------------


class SeqManipulator:
    """Base class for single-element sequence manipulators.

    ``rng=`` binds a default draw source exactly as for
    :class:`KVManipulator`.
    """

    name: str = "?"

    def __init__(self, rng=None):
        self.rng = _resolve_rng(rng)

    def _resolve(self, rng):
        rng = _resolve_rng(rng)
        if rng is None:
            rng = self.rng
        if rng is None:
            raise ValueError(
                f"{self.name}: pass rng= here or bind one at construction"
            )
        return rng

    def _draw(self, rng: np.random.Generator, seq):
        """Return (index, new_value) or None if the draw was a no-op."""
        raise NotImplementedError

    def apply(self, rng, seq) -> SeqManipulation:
        """Draw a fault; return the manipulated sequence plus the change.

        ``rng`` may be a generator, an int root seed, or ``None`` to use
        the generator bound at construction.
        """
        rng = self._resolve(rng)
        for _ in range(_MAX_REDRAWS):
            drawn = self._draw(rng, seq)
            if drawn is not None:
                i, nv = drawn
                out = np.array(seq, dtype=np.uint64, copy=True)
                removed = np.array([out[i]], dtype=np.uint64)
                out[i] = nv
                return SeqManipulation(
                    out, removed=removed, added=np.array([nv], dtype=np.uint64)
                )
        raise RuntimeError(f"{self.name}: no effective fault in {_MAX_REDRAWS} draws")

    def _draw_batch(
        self, rng: SplitMixStreamBatch, seq: np.ndarray, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One attempt for trials ``idx``: ``(element index, new value, ok)``.

        Consumes each trial's stream draws exactly as the scalar
        :meth:`_draw`; ``ok`` marks trials whose draw was effective.
        """
        raise NotImplementedError

    def sample_change_batch(
        self, rng: SplitMixStreamBatch, seq, trials: int | None = None
    ) -> SeqManipulationBatch:
        """The change of :meth:`apply`, one (removed, added) per stream."""
        seq = np.asarray(seq, dtype=np.uint64)
        total = rng.size
        if trials is not None and trials != total:
            raise ValueError(f"rng carries {total} streams, trials={trials}")
        removed = np.zeros(total, dtype=np.uint64)
        added = np.zeros(total, dtype=np.uint64)
        pending = np.arange(total, dtype=np.intp)
        for _ in range(_MAX_REDRAWS):
            if pending.size == 0:
                break
            i, nv, ok = self._draw_batch(rng, seq, pending)
            good = pending[ok]
            removed[good] = seq[i[ok]]
            added[good] = nv[ok]
            pending = pending[~ok]
        if pending.size:
            raise RuntimeError(
                f"{self.name}: no effective fault in {_MAX_REDRAWS} draws"
            )
        return SeqManipulationBatch(removed, added)


class SeqBitflip(SeqManipulator):
    """Flip a random bit of a random element (within ``bit_width`` bits)."""

    name = "Bitflip"

    def __init__(self, bit_width: int = 27, rng=None):
        super().__init__(rng)
        self.bit_width = bit_width

    def _draw(self, rng, seq):
        i = int(rng.integers(len(seq)))
        bit = int(rng.integers(self.bit_width))
        return i, int(seq[i]) ^ (1 << bit)

    def _draw_batch(self, rng, seq, idx):
        i = rng.integers(seq.size, index=idx).astype(np.intp)
        bit = rng.integers(self.bit_width, index=idx)
        nv = seq[i] ^ (np.uint64(1) << bit)
        return i, nv, np.ones(idx.size, dtype=bool)


class Increment(SeqManipulator):
    """Increment a random element's value by one (the CRC killer)."""

    name = "Increment"

    def _draw(self, rng, seq):
        i = int(rng.integers(len(seq)))
        return i, (int(seq[i]) + 1) & _KEY_MASK

    def _draw_batch(self, rng, seq, idx):
        i = rng.integers(seq.size, index=idx).astype(np.intp)
        with np.errstate(over="ignore"):
            nv = seq[i] + np.uint64(1)
        return i, nv, np.ones(idx.size, dtype=bool)


class Randomize(SeqManipulator):
    """Set a random element to a random value in the universe."""

    name = "Randomize"

    def __init__(self, universe: int = 10**8, rng=None):
        super().__init__(rng)
        self.universe = universe

    def _draw(self, rng, seq):
        i = int(rng.integers(len(seq)))
        nv = int(rng.integers(self.universe))
        if nv == int(seq[i]):
            return None
        return i, nv

    def _draw_batch(self, rng, seq, idx):
        i = rng.integers(seq.size, index=idx).astype(np.intp)
        nv = rng.integers(self.universe, index=idx)
        return i, nv, nv != seq[i]


class Reset(SeqManipulator):
    """Reset a random element to the default value 0."""

    name = "Reset"

    def _draw(self, rng, seq):
        i = int(rng.integers(len(seq)))
        if int(seq[i]) == 0:
            return None
        return i, 0

    def _draw_batch(self, rng, seq, idx):
        i = rng.integers(seq.size, index=idx).astype(np.intp)
        return i, np.zeros(idx.size, dtype=np.uint64), seq[i] != 0


class SetEqual(SeqManipulator):
    """Set a random element equal to a *different* element.

    Produces a duplicated value — precisely the case where the mod-H
    hash-sum of Lemma 4 (without the wide-sum fix) loses soundness.
    """

    name = "SetEqual"

    def _draw(self, rng, seq):
        i = int(rng.integers(len(seq)))
        j = int(rng.integers(len(seq)))
        if int(seq[j]) == int(seq[i]):
            return None
        return i, int(seq[j])

    def _draw_batch(self, rng, seq, idx):
        i = rng.integers(seq.size, index=idx).astype(np.intp)
        j = rng.integers(seq.size, index=idx).astype(np.intp)
        return i, seq[j], seq[j] != seq[i]


# ---------------------------------------------------------------------------
# Registries (Table 4 and Table 6 rosters)
# ---------------------------------------------------------------------------

SUM_MANIPULATORS: dict[str, type | object] = {
    "Bitflip": Bitflip,
    "RandKey": RandKey,
    "SwitchValues": SwitchValues,
    "IncKey": IncKey,
    "IncDec1": lambda **kw: IncDec(1, **kw),
    "IncDec2": lambda **kw: IncDec(2, **kw),
}

PERM_MANIPULATORS: dict[str, type | object] = {
    "Bitflip": SeqBitflip,
    "Increment": Increment,
    "Randomize": Randomize,
    "Reset": Reset,
    "SetEqual": SetEqual,
}


def get_kv_manipulator(name: str, **kwargs) -> KVManipulator:
    """Instantiate a Table 4 manipulator by name."""
    try:
        factory = SUM_MANIPULATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown sum manipulator {name!r}; available: {sorted(SUM_MANIPULATORS)}"
        ) from None
    return factory(**kwargs)


def get_seq_manipulator(name: str, **kwargs) -> SeqManipulator:
    """Instantiate a Table 6 manipulator by name."""
    try:
        factory = PERM_MANIPULATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown sequence manipulator {name!r}; "
            f"available: {sorted(PERM_MANIPULATORS)}"
        ) from None
    return factory(**kwargs)


def kv_manipulator_names() -> tuple[str, ...]:
    """Sorted Table 4 manipulator names (the chaos harness's KV roster)."""
    return tuple(sorted(SUM_MANIPULATORS))


def seq_manipulator_names() -> tuple[str, ...]:
    """Sorted Table 6 manipulator names (the chaos harness's seq roster)."""
    return tuple(sorted(PERM_MANIPULATORS))
