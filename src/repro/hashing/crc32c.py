"""Software CRC-32C (Castagnoli), matching the x86 SSE 4.2 instruction.

The paper's implementation uses the hardware ``crc32`` instruction (Gopal et
al., Intel white paper) as a fast hash with limited randomness.  We reproduce
the *same function* in software (table-driven, reflected polynomial
``0x82F63B78``) so that the accuracy anomalies the paper observes — elevated
failure rates of CRC on the ``Increment``/``IncDec1`` manipulators caused by
the low-bit linearity of CRC — appear identically in our experiments.

Seeding: the hardware instruction folds data into a running CRC state, so a
"random hash function" is obtained by starting from a random initial state.
``crc32c_u64(x, seed)`` is the raw (no pre/post inversion) CRC of the 8
little-endian bytes of ``x`` starting from state ``seed``; this mirrors
``_mm_crc32_u64(seed, x)``.

The vector kernel :func:`crc32c_u64_array` slices by bytes: it reads each
key through a little-endian byte view and XORs one lookup per byte from
eight 256-entry tables (table ``j`` holds byte ``b`` followed by ``j`` zero
bytes), so a key costs ``nbytes`` gathers instead of six array passes per
byte.  The seed enters afterwards through CRC's affinity in its initial
state, ``crc(x, s) = crc(x, 0) ⊕ crc(0^nbytes, s)``; the seed term is read
from four 256-entry tables of that linear map.
"""

from __future__ import annotations

import numpy as np

#: Reflected CRC-32C (Castagnoli) polynomial, as used by SSE 4.2 ``crc32``.
CRC32C_POLY_REFLECTED = 0x82F63B78


def _build_table() -> np.ndarray:
    table = np.zeros(256, dtype=np.uint32)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ CRC32C_POLY_REFLECTED
            else:
                crc >>= 1
        table[byte] = crc
    return table


#: The 256-entry byte-at-a-time lookup table (module-level, built once).
_TABLE = _build_table()
_TABLE_LIST = [int(x) for x in _TABLE]


def _zero_byte_step(states: np.ndarray) -> np.ndarray:
    """Fold one zero byte into every CRC state."""
    return (states >> np.uint32(8)) ^ _TABLE[states & np.uint32(0xFF)]


def _slicing_tables() -> np.ndarray:
    """``(8, 256)`` uint32: ``[j, b]`` is the CRC, from state 0, of byte
    ``b`` followed by ``j`` zero bytes."""
    tables = np.empty((8, 256), dtype=np.uint32)
    tables[0] = _TABLE
    for j in range(1, 8):
        tables[j] = _zero_byte_step(tables[j - 1])
    return tables


#: Slicing-by-8 tables: from state 0, the CRC of ``nbytes`` bytes
#: ``b_0 .. b_{n-1}`` is ``⊕_i _SLICES[n - 1 - i, b_i]`` (CRC is linear,
#: and a zero byte leaves state 0 at 0).
_SLICES = _slicing_tables()

#: Longest zero run whose state map :data:`_ZERO_ADVANCE` tabulates.
_TABLED_ZEROS = 8


def _zero_advance_tables() -> np.ndarray:
    """``(9, 4, 256)`` uint32: ``[n, k, b]`` is state ``b << 8k`` after
    ``n`` zero bytes.  The map is GF(2)-linear, so a 32-bit state's image
    is the XOR of its four bytes' entries."""
    shifts = np.uint32(8) * np.arange(4, dtype=np.uint32)[:, None]
    tables = np.empty((_TABLED_ZEROS + 1, 4, 256), dtype=np.uint32)
    tables[0] = np.arange(256, dtype=np.uint32)[None, :] << shifts
    for n in range(1, _TABLED_ZEROS + 1):
        tables[n] = _zero_byte_step(tables[n - 1])
    return tables


_ZERO_ADVANCE = _zero_advance_tables()
_ZERO_ADVANCE_LISTS = _ZERO_ADVANCE.tolist()


def _advance_tabled(states: np.ndarray, length: int) -> np.ndarray:
    """``states`` (uint32) after ``length <= 8`` zero bytes, by table."""
    z = _ZERO_ADVANCE[length]
    out = z[0].take(states & np.uint32(0xFF))
    out ^= z[1].take((states >> np.uint32(8)) & np.uint32(0xFF))
    out ^= z[2].take((states >> np.uint32(16)) & np.uint32(0xFF))
    out ^= z[3].take(states >> np.uint32(24))
    return out


def _advance_scalar(state: int, length: int) -> int:
    """One 32-bit ``state`` after ``length <= 8`` zero bytes (Python ints)."""
    z = _ZERO_ADVANCE_LISTS[length]
    return (
        z[0][state & 0xFF]
        ^ z[1][(state >> 8) & 0xFF]
        ^ z[2][(state >> 16) & 0xFF]
        ^ z[3][state >> 24]
    )


def crc32c_bytes(data: bytes, init: int = 0) -> int:
    """Raw CRC-32C of ``data`` starting from state ``init`` (no inversion)."""
    crc = init & 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE_LIST[(crc ^ byte) & 0xFF]
    return crc


def crc32c_checksum(data: bytes) -> int:
    """Standard CRC-32C checksum (init ``0xFFFFFFFF``, final inversion).

    Matches RFC 3720 / the ``crc32c`` of common libraries; used only to
    validate the table against published test vectors.
    """
    return crc32c_bytes(data, 0xFFFFFFFF) ^ 0xFFFFFFFF


def crc32c_u64(x: int, seed: int = 0) -> int:
    """CRC-32C of the 8 little-endian bytes of ``x``, from state ``seed``.

    Equivalent to the hardware sequence ``_mm_crc32_u64(seed, x)`` (modulo
    the instruction operating on 64-bit chunks at once — the result is the
    same because CRC is byte-serial).
    """
    return crc32c_bytes(int(x).to_bytes(8, "little", signed=False), seed)


def _zero_step_images() -> np.ndarray:
    """Images of the 32 basis states under one zero-byte CRC step.

    Folding a zero byte maps the state ``s ↦ (s >> 8) ^ T[s & 0xFF]`` — a
    GF(2)-linear map (the table itself is linear: ``T[a^b] = T[a]^T[b]``),
    so it is fully described by where it sends the 32 one-bit states.
    """
    return _zero_byte_step(np.uint32(1) << np.arange(32, dtype=np.uint32))


_ZERO_STEP_IMAGES = _zero_step_images()


def _apply_linear(images: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply the GF(2)-linear map given by basis ``images`` to ``states``."""
    out = np.zeros(states.shape, dtype=np.uint32)
    one = np.uint32(1)
    for bit in range(32):
        picked = ((states >> np.uint32(bit)) & one).astype(bool)
        out ^= np.where(picked, images[bit], np.uint32(0))
    return out


def crc32c_zero_advance(states, length: int) -> np.ndarray:
    """CRC state after folding ``length`` zero bytes, vectorized over states.

    This is the seed-dependent term of the affinity identity
    ``crc(m, s) = crc(m, 0) ⊕ crc(0^|m|, s)``: the state map of a zero-byte
    block is GF(2)-linear, so short blocks advance up to eight bytes at a
    time through the tabulated map (four lookups per state) and long
    blocks raise the one-byte step matrix to the ``length``-th power by
    squaring — O(log length) instead of O(length).
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    states = np.asarray(states, dtype=np.uint32)
    if length == 0:
        return states.copy()
    if length <= 64:
        crc = states
        while length:
            step = min(length, _TABLED_ZEROS)
            crc = _advance_tabled(crc, step)
            length -= step
        return crc
    step = _ZERO_STEP_IMAGES
    result = None  # identity map; powers of one matrix commute freely
    n = length
    while n:
        if n & 1:
            result = step.copy() if result is None else _apply_linear(step, result)
        n >>= 1
        if n:
            step = _apply_linear(step, step)
    return _apply_linear(result, states)


def crc32c_seed_constants(seed, nbytes: int = 8) -> np.uint64:
    """The seed term of the CRC affinity identity, as uint64.

    CRC-32C is GF(2)-linear in its initial state:
    ``crc(x, s) = crc(x, 0) ⊕ z(s)`` with ``z(s) = crc(0^nbytes, s)``
    depending only on the seed.  This computes ``z`` for one seed (only
    its low 32 bits matter, mirroring :func:`crc32c_u64_array`) — the
    per-seed XOR constant that lets all ``T`` CRC seed lanes of the
    multi-seed checkers share one table-lookup pass over the keys.  It
    is computed on Python ints, once per seed and key block of a fold.
    """
    return np.uint64(_advance_scalar(int(seed) & 0xFFFFFFFF, nbytes))


#: Keys per slicing pass of :func:`crc32c_u64_array`: the block's byte
#: view, state and scratch (~1 MB) stay cache-resident through its
#: ``nbytes`` gathers.
_SLICE_BLOCK = 1 << 16


def crc32c_u64_array(
    keys: np.ndarray, seed=0, nbytes: int = 8
) -> np.ndarray:
    """Vectorized CRC-32C over the low ``nbytes`` bytes of a uint64 array.

    Every key's bytes are read through a little-endian byte view and
    combined by slicing (one gather per byte from :data:`_SLICES`, XORed),
    in cache-sized blocks of keys; the seed is XORed in afterwards as its
    zero-advance over ``nbytes`` bytes.  Bit-identical to folding the
    bytes one at a time from state ``seed``.  ``nbytes`` matters for
    detection behaviour: CRC of a 32-bit value is a different function
    than CRC of the same value stored in 64 bits, and the paper's
    workloads store 32-bit elements.

    ``seed`` may be a scalar (one hash function) or an integer array
    broadcastable to ``keys.shape`` (a per-element initial state — the
    batched accuracy engine hashes each trial's keys under that trial's
    seed in one call).  Only the low 32 bits of a seed matter.  The
    result is uint32 with the shape of ``keys``.
    """
    if not 1 <= nbytes <= 8:
        raise ValueError(f"nbytes must be in 1..8, got {nbytes}")
    keys = np.asarray(keys, dtype=np.uint64)
    data = np.ascontiguousarray(keys.ravel(), dtype="<u8").view(np.uint8)
    data = data.reshape(-1, 8)
    n = data.shape[0]
    crc = np.empty(n, dtype=np.uint32)
    scratch = np.empty(min(n, _SLICE_BLOCK), dtype=np.uint32)
    for start in range(0, n, _SLICE_BLOCK):
        end = min(start + _SLICE_BLOCK, n)
        block = data[start:end]
        part = crc[start:end]
        tmp = scratch[: end - start]
        # mode="clip" skips the bounds check (and the buffered copy it
        # forces with ``out``); byte indices are always in range.
        _SLICES[nbytes - 1].take(block[:, 0], out=part, mode="clip")
        for i in range(1, nbytes):
            _SLICES[nbytes - 1 - i].take(block[:, i], out=tmp, mode="clip")
            part ^= tmp
    crc = crc.reshape(keys.shape)
    if np.ndim(seed) == 0:
        state = int(seed) & 0xFFFFFFFF
        if state:
            crc ^= np.uint32(_advance_scalar(state, nbytes))
    else:
        states = np.asarray(seed).astype(np.uint64) & np.uint64(0xFFFFFFFF)
        crc ^= _advance_tabled(states.astype(np.uint32), nbytes)
    return crc
