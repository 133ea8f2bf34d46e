"""Shortest-LFSR synthesis over GF(2) (Berlekamp–Massey).

The linear complexity of a bit sequence is the length of the shortest
linear feedback shift register that generates it.  Two engines:

- :func:`lfsr_complexity_int` runs BM on one sequence held as a Python
  integer, pre-multiplied by the current and previous connection
  polynomials, so each step is a couple of word-level shift/xor
  operations.  It is the engine of :func:`lfsr_complexity` and the
  oracle the lockstep kernel is tested against.
- :func:`lfsr_complexities` runs BM on many equal-length blocks at once,
  bit-sliced: block ``64 g + j`` lives in bit ``j`` of lane word ``g``.
  The blocks are transposed to an ``(N, G)`` word array ``S`` (row ``t``
  holds bit ``t`` of every block), and the connection polynomial ``C``
  and the pre-shifted ``x^(n-m) B`` are ``(N + 1, G)``-sized coefficient
  arrays.  Step ``n`` computes every lane's discrepancy as one masked
  AND/XOR-reduce of ``C`` against ``S`` reversed, then applies the update
  as one uniform masked XOR; lanes whose length changes (discrepancy and
  ``2L <= n``, a packed mask) swap in the old ``C`` as their new ``B``.
"""

from __future__ import annotations

import numpy as np

from .errors import as_count
from .extract import bit_array

__all__ = ["lfsr_complexity", "lfsr_complexity_int", "lfsr_complexities"]


def lfsr_complexity_int(seq: int, length: int) -> int:
    """Linear complexity of the first ``length`` bits of ``seq``.

    Bit ``i`` of ``seq`` (the coefficient of ``2**i``) is the ``i``-th
    sequence element.  The all-zero sequence has complexity 0.
    """
    length = as_count(length, "length")
    if seq < 0:
        raise ValueError("sequence integer must be non-negative")
    fold_c = seq  # sequence times current connection polynomial, low bits consumed
    fold_b = seq  # same for the polynomial before the last length change
    deg = 0  # current LFSR length
    gap = 0  # distance since the last discrepancy
    for pos in range(length):
        disc = fold_c & (1 << gap)
        gap += 1
        if disc:
            fold_c >>= gap
            gap = 0
            if 2 * deg <= pos:
                fold_b, fold_c = fold_c, fold_b
                deg = pos + 1 - deg
            fold_c ^= fold_b
    return deg


def lfsr_complexity(bits) -> int:
    """Linear complexity of a 0/1 sequence (list, tuple or ndarray)."""
    arr = bit_array(bits)
    packed = np.packbits(arr, bitorder="little")
    return lfsr_complexity_int(int.from_bytes(packed.tobytes(), "little"), arr.size)


def lfsr_complexities(blocks: np.ndarray) -> np.ndarray:
    """Linear complexity of each row of a 2-d 0/1 array, all rows in lockstep."""
    blocks = bit_array(blocks, ndim=2)
    nblocks, length = blocks.shape
    lanes = -(-nblocks // 64)
    # S[t, g] bit j = bit t of block 64 g + j; padding blocks are all zero.
    padded = np.zeros((lanes * 64, length), dtype=np.uint8)
    padded[:nblocks] = blocks
    seq = np.ascontiguousarray(
        np.packbits(padded.T.reshape(length, lanes, 64), axis=2, bitorder="little")
    ).view("<u8").reshape(length, lanes)
    conn = np.zeros((length + 1, lanes), dtype=np.uint64)
    conn[0] = ~np.uint64(0)
    # x^(n-m) B lives at shifted[base : base + n + 2]; multiplying by x is
    # base -= 1, and the row below base has never been written, so it is 0.
    shifted = np.zeros((length + 3, lanes), dtype=np.uint64)
    base = length + 1
    shifted[base + 1] = ~np.uint64(0)  # x^1 * B with B = 1, m = -1
    twice_len = np.zeros(lanes * 64, dtype=np.int64)  # 2L per block
    short = np.full(lanes, ~np.uint64(0))  # packed 2L <= n
    for n in range(length):
        disc = np.bitwise_xor.reduce(conn[: n + 1] & seq[n::-1], axis=0)
        prev = shifted[base : base + n + 2]
        conn[: n + 2] ^= prev & disc
        change = disc & short
        if change.any():
            # the changed lanes' new B is the old C = new C ^ old x^(n-m) B
            prev ^= conn[: n + 2] & change
            hit = np.unpackbits(change.view(np.uint8), bitorder="little").view(bool)
            twice_len[hit] = 2 * (n + 1) - twice_len[hit]
        short = np.packbits(twice_len <= n + 1, bitorder="little").view("<u8")
        base -= 1
    return twice_len[:nblocks] // 2
