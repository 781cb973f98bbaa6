"""Named reduce operators for the collective surface.

Every collective in this repository historically took an anonymous
``lambda a, b: a + b``.  That is fine for the generic round schedules
(:mod:`repro.comm.collectives` folds any callable), but a *native*
backend — mpi4py's ``Allreduce``/``Exscan`` on a contiguous buffer —
can only map operators it can recognize.  A :class:`ReduceOp` is a plain
callable (drop-in for the lambdas, bit-identical results) that also
carries a stable name a backend may translate to its native operator
table.

Only operators whose result is independent of association order for the
payloads we put on the wire are defined here: integer addition, bitwise
and logical monoids, and min/max.  Floating-point addition is *not*
reassociable bit-for-bit, which is why backends must only take native
fast paths for integer-typed buffers (see
:meth:`repro.comm.mpi_backend.MpiEndpoint.native_allreduce`).
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

__all__ = [
    "BAND",
    "BOR",
    "BXOR",
    "LAND",
    "LOR",
    "MAX",
    "MIN",
    "SUM",
    "ReduceOp",
]


class ReduceOp:
    """A named, associative, commutative reduce operator.

    Calling it is exactly calling ``fn`` — existing call sites can swap a
    lambda for a ``ReduceOp`` without any behavioural change.  ``name``
    is the backend-facing identity (``"sum"``, ``"bxor"``, ...).
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable):
        self.name = name
        self.fn = fn

    def __call__(self, a, b):
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReduceOp({self.name})"


def _max(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return a if a >= b else b


def _min(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return a if a <= b else b


#: Addition (exact for Python ints and integer arrays).
SUM = ReduceOp("sum", operator.add)
#: Bitwise or / and / xor (ints and integer arrays).
BOR = ReduceOp("bor", operator.or_)
BAND = ReduceOp("band", operator.and_)
BXOR = ReduceOp("bxor", operator.xor)
#: Logical and/or with Python short-circuit *value* semantics
#: (``a and b`` / ``a or b``), matching the lambdas they replace.
LAND = ReduceOp("land", lambda a, b: a and b)
LOR = ReduceOp("lor", lambda a, b: a or b)
#: Elementwise maximum / minimum.
MAX = ReduceOp("max", _max)
MIN = ReduceOp("min", _min)
