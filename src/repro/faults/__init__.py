"""Fault injection: the paper's manipulators (§7, Tables 4 and 6).

Manipulators "purposefully interfere with the computation and deliberately
introduce faults" — subtle, minimal changes, because large-scale corruption
is trivially detected.  Each manipulator's ``apply`` returns the
manipulated copy and the *exact sparse effect* of its change (per-key
aggregate deltas for the sum family; removed/added elements for the
permutation family).  The accuracy experiments draw that effect alone for
many trials at once (``sample_delta_batch``/``sample_change_batch``), the
same faults ``apply`` draws from the same streams.
"""

from repro.faults.manipulators import (
    PERM_MANIPULATORS,
    SUM_MANIPULATORS,
    Bitflip,
    IncDec,
    IncKey,
    Increment,
    KVManipulation,
    KVManipulator,
    RandKey,
    Randomize,
    Reset,
    SeqBitflip,
    SeqManipulation,
    SeqManipulator,
    SetEqual,
    SwitchValues,
    get_kv_manipulator,
    get_seq_manipulator,
    kv_manipulator_names,
    seq_manipulator_names,
)

__all__ = [
    "PERM_MANIPULATORS",
    "SUM_MANIPULATORS",
    "Bitflip",
    "IncDec",
    "IncKey",
    "Increment",
    "KVManipulation",
    "KVManipulator",
    "RandKey",
    "Randomize",
    "Reset",
    "SeqBitflip",
    "SeqManipulation",
    "SeqManipulator",
    "SetEqual",
    "SwitchValues",
    "get_kv_manipulator",
    "get_seq_manipulator",
    "kv_manipulator_names",
    "seq_manipulator_names",
]
