"""What a check or a checked operation reads: the one input domain.

The checkers are one-sided only over inputs they read exactly: §4 folds
integer keys and values modulo ``r``, §5 hashes elements as 64-bit
words, and Lemma 5 needs every element below its universe.  Every check
and checked operation reads its arrays through this module:

* keys, hashed elements and zip columns are 64-bit words
  (:func:`words`): a signed integer reads as its two's-complement word,
  an unsigned one as it is;
* values are int64 (:func:`values`), and a uint64 value reads as its
  two's-complement word;
* the sides of an ordered check (sort, merge, sortedness) share one
  signedness (:func:`ordered`);
* seed arrays hold distinct integers (:func:`seeds`), and exchange ranks
  are integers (:func:`ranks`);
* integer chunks of mixed signedness concatenate exactly (:func:`concat`).

Anything else raises ``TypeError`` naming the dtype: a float key would be
truncated into its neighbours (1.5 and 1.7 both as 1), a bool read as
0/1, and a check would accept results it must reject.  The dtype alone
decides, an empty array's too, so PEs that pass one dtype refuse
together, before any message.  A PE whose dtype differs from its peers'
refuses alone, and they wait in their first collective, unless that is
the exchange: ``exchange_by_destination`` sends a refusal through its
all-to-all, so every PE raises it.  An empty column built from a Python
list is float64, so give it the dtype of the other PEs' columns.
"""

from __future__ import annotations

import numpy as np


def _integers(array, what: str) -> np.ndarray:
    array = np.asarray(array)
    if array.dtype.kind not in "iu":
        raise TypeError(f"integer {what} required, got dtype {array.dtype}")
    return array


def words(array, what: str = "keys") -> np.ndarray:
    """``array`` flattened to uint64 words, uncopied where the dtype allows."""
    array = _integers(array, what).ravel()
    if array.dtype.kind == "i":
        return array.astype(np.int64, copy=False).view(np.uint64)
    return array.astype(np.uint64, copy=False)


def values(array, what: str = "values") -> np.ndarray:
    """``array`` flattened to int64; int64 input comes back uncopied."""
    return _integers(array, what).astype(np.int64, copy=False).ravel()


def seeds(roots) -> np.ndarray:
    """One root seed or ``T`` distinct ones, as a 1-d uint64 word array.

    A duplicated seed re-runs the *same* checker: its verdicts agree by
    construction and the claimed δ^T bound would silently degrade to
    δ^(distinct seeds), so it raises ``ValueError``.
    """
    roots = np.atleast_1d(np.asarray(roots))
    if roots.ndim != 1 or roots.size < 1:
        raise ValueError(f"need a 1-d, non-empty seed array, got {roots!r}")
    roots = words(roots, "seeds")
    if roots.size > 1:
        # Sorted neighbours, not np.unique: numpy's hash-based unique pays
        # a one-off cost of ~15 ms on its first call in a process, which a
        # freshly forked PE would spend on its first window block.
        ordered_roots = np.sort(roots)
        if np.any(ordered_roots[1:] == ordered_roots[:-1]):
            raise ValueError("multi-seed checkers require distinct seeds")
    return roots


def ordered(output, inputs=(), check: str = "sortedness check") -> np.ndarray:
    """The elements of an ordered check's ``output``, in their own dtype.

    Sortedness compares elements in the dtype's own order, while the
    permutation half of the check reads them as words: int64 −1 and
    uint64 2^64 − 1 are one word but sort apart, so a sorted uint64
    output can be the word-for-word permutation of an int64 input it
    does not sort.  Each of ``inputs`` must share the output's
    signedness; they are read first, so a refusal names an input's dtype
    before the output's that the operation derived from it.
    """
    dtypes = [_integers(side, "elements").dtype for side in inputs]
    output = _integers(output, "elements")
    for dtype in dtypes:
        if dtype.kind != output.dtype.kind:
            raise TypeError(
                f"{check} needs input and output integers of one "
                f"signedness, got input dtype {dtype} and output dtype "
                f"{output.dtype}"
            )
    return output


def ranks(destinations) -> np.ndarray:
    """Destination PE ranks of an exchange (float ranks would truncate)."""
    return _integers(destinations, "ranks")


def concat(chunks) -> np.ndarray:
    """The chunks of one zip column, concatenated with every value exact.

    Chunks that share one dtype concatenate as they are.  Integer chunks
    whose common numpy type is a float (int64 next to uint64) would lose
    their low bits there, so each is read on its own: as int64 when every
    value fits in it, else as its word (a negative int64 then comes back
    as a uint64 above 2^63).  Either way each value keeps the word the
    zip fingerprint reads.  Empty chunks alone keep the first one's
    dtype, and no chunks give an empty int64 column.
    """
    parts = [_integers(c, "columns").ravel() for c in chunks]
    parts = [p for p in parts if p.size] or parts[:1]
    if not parts:
        return np.zeros(0, dtype=np.int64)
    if np.result_type(*{p.dtype for p in parts}).kind == "f":
        if all(p.dtype.kind == "i" or int(p.max()) < 1 << 63 for p in parts):
            parts = [p.astype(np.int64) for p in parts]
        else:
            parts = [words(p) for p in parts]
    return np.concatenate(parts)
