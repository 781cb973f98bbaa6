"""Low-level utilities shared by every subsystem.

The paper's algorithms are all seeded-randomized: a checker instance draws a
random hash function and a random modulus per iteration.  To make every
experiment reproducible we route *all* randomness through a hierarchical
deterministic seeding scheme (:func:`derive_seed`) built on SplitMix64.
"""

from repro.util.rng import (
    SPLITMIX64_GAMMA,
    derive_seed,
    splitmix64,
    splitmix64_array,
    uniform_below,
)
from repro.util.bits import (
    bit_length,
    ceil_log2,
    is_power_of_two,
    mask,
    popcount64,
)
from repro.util.validation import (
    check_positive,
    check_probability,
    require,
)

__all__ = [
    "SPLITMIX64_GAMMA",
    "derive_seed",
    "splitmix64",
    "splitmix64_array",
    "uniform_below",
    "bit_length",
    "ceil_log2",
    "is_power_of_two",
    "mask",
    "popcount64",
    "check_positive",
    "check_probability",
    "require",
]
