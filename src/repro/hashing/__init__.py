"""Hash-function substrate for the checkers.

The paper's checkers assume "random hash functions" for analysis (§2) and are
evaluated with two practical families (§7): hardware CRC-32C and tabulation
hashing.  This package provides:

* :mod:`repro.hashing.crc32c` — software CRC-32C (same Castagnoli polynomial
  as the SSE 4.2 instruction), scalar and numpy-vectorized;
* :mod:`repro.hashing.tabulation` — Zobrist/tabulation hashing (Wegman &
  Carter; Pǎtraşcu & Thorup), 4 or 8 tables of 256 entries;
* :mod:`repro.hashing.mixers` — SplitMix64 finalizer as the ideal-model
  stand-in and multiply-shift universal hashing;
* :mod:`repro.hashing.families` — a uniform, seedable family interface and a
  registry keyed by the paper's abbreviations ("CRC", "Tab", "Tab64", …),
  with one entry point per access pattern: one seeded function
  (``instance``), one key array under many seeds (``multiseed_hasher``,
  read block by block through ``iter_hash_blocks``), and keys under
  per-key seeds (``hash_array_batch``);
* :mod:`repro.hashing.bitgroups` — bit-parallel splitting of one hash value
  into per-iteration bucket indices (§4 "Optimizations", §7.1);
* :mod:`repro.hashing.primes` — Miller–Rabin and Bertrand-interval prime
  search for the polynomial permutation checker (Lemma 5);
* :mod:`repro.hashing.gf2` — carry-less multiplication and GF(2^64)
  fingerprints (the paper's suggested Galois-field variant).
"""

from repro.hashing.crc32c import (
    CRC32C_POLY_REFLECTED,
    crc32c_bytes,
    crc32c_checksum,
    crc32c_u64,
    crc32c_u64_array,
)
from repro.hashing.tabulation import TabulationHash, tabulation_tables
from repro.hashing.mixers import MultiplyShiftHash, SplitMixHash
from repro.hashing.families import (
    AffineLaneHasher,
    HashFamily,
    HashFunction,
    LaneHasher,
    StackedLaneHasher,
    get_family,
    list_families,
)
from repro.hashing.bitgroups import BucketAssigner
from repro.hashing.primes import (
    bertrand_prime,
    is_prime,
    next_prime,
    random_prime_in_range,
)
from repro.hashing.gf2 import (
    GF64_MODULUS_TAIL,
    clmul,
    gf64_mul,
    gf64_mul_vec,
    gf64_pow,
    gf64_product,
)

__all__ = [
    "CRC32C_POLY_REFLECTED",
    "crc32c_bytes",
    "crc32c_checksum",
    "crc32c_u64",
    "crc32c_u64_array",
    "TabulationHash",
    "tabulation_tables",
    "MultiplyShiftHash",
    "SplitMixHash",
    "AffineLaneHasher",
    "HashFamily",
    "HashFunction",
    "LaneHasher",
    "StackedLaneHasher",
    "get_family",
    "list_families",
    "BucketAssigner",
    "bertrand_prime",
    "is_prime",
    "next_prime",
    "random_prime_in_range",
    "GF64_MODULUS_TAIL",
    "clmul",
    "gf64_mul",
    "gf64_mul_vec",
    "gf64_pow",
    "gf64_product",
]
