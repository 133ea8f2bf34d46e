"""Shortest-LFSR synthesis over GF(2) (Berlekamp–Massey).

The linear complexity of a bit sequence is the length of the shortest
linear feedback shift register that generates it.
:func:`lfsr_complexities` runs BM on many equal-length blocks at once,
bit-sliced: block ``64 g + j`` lives in bit ``j`` of lane word ``g``.
The blocks are transposed to an ``(N, G)`` word array ``S`` (row ``t``
holds bit ``t`` of every block), and the connection polynomial ``C``
and the pre-shifted ``x^(n-m) B`` are ``(N + 1, G)``-sized coefficient
arrays.  Step ``n`` computes every lane's discrepancy as one masked
AND/XOR-reduce of ``C`` against ``S`` reversed, then applies the update
as one uniform masked XOR; lanes whose length changes (discrepancy and
``2L <= n``, a packed mask) swap in the old ``C`` as their new ``B``.

The step touches only rows ``[:top]``, ``top = max L + 1`` over all
blocks after the step's length changes.  ``deg C <= L`` always, and
``deg x^(n-m) B <= n + 1 - L``: that is at most ``L`` where a
discrepancy keeps the length (``2L > n``) and equals the new ``L``
where it changes it, and lanes without a discrepancy are not updated;
so every row at or above ``top`` is 0 wherever the step reads or
writes.  On random blocks ``L`` is about ``n / 2``, so this halves the
word work.  A changed block's ``2L`` becomes ``2(n + 1) - 2L``
by one masked add, ``2L += hit * (2(n + 1) - 4L)``, with ``hit`` the
change mask unpacked to 0/1 per block.

Its oracle is a scalar engine, ``reference_lfsr_complexity`` in
``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np

from .extract import bit_array

__all__ = ["lfsr_complexities"]


def lfsr_complexities(blocks: np.ndarray) -> np.ndarray:
    """Linear complexity of each row of a 2-d 0/1 array, all rows in lockstep."""
    blocks = bit_array(blocks, ndim=2)
    nblocks, length = blocks.shape
    lanes = -(-nblocks // 64)
    # S[t, g] bit j = bit t of block 64 g + j; padding blocks are all zero.
    columns = np.zeros((length, lanes * 64), dtype=np.uint8)
    columns[:, :nblocks] = blocks.T
    seq = np.packbits(columns.reshape(length, lanes, 64), axis=2, bitorder="little")
    seq = seq.view("<u8").reshape(length, lanes)
    conn = np.zeros((length + 1, lanes), dtype=np.uint64)
    conn[0] = ~np.uint64(0)
    # x^(n-m) B lives at shifted[base : base + n + 2]; multiplying by x is
    # base -= 1, and the row below base has never been written, so it is 0.
    shifted = np.zeros((length + 3, lanes), dtype=np.uint64)
    base = length + 1
    shifted[base + 1] = ~np.uint64(0)  # x^1 * B with B = 1, m = -1
    twice_len = np.zeros(lanes * 64, dtype=np.int64)  # 2L per block
    step = np.empty_like(twice_len)
    short = np.full(lanes, ~np.uint64(0))  # packed 2L <= n
    top = 1  # rows top.. of C and of x^(n-m) B are 0 in every lane
    for n in range(length):
        disc = np.bitwise_xor.reduce(conn[:top] & seq[n::-1][:top], axis=0)
        change = disc & short
        changed = change.any()
        if changed:
            # 2L <- 2(n + 1) - 2L in the changed blocks, as 2L += hit * (2(n + 1) - 4L)
            hit = np.unpackbits(change.view(np.uint8), bitorder="little")
            np.multiply(twice_len, -2, out=step)
            step += 2 * (n + 1)
            step *= hit
            twice_len += step
            top = int(twice_len.max()) // 2 + 1
        prev = shifted[base : base + top]
        conn[:top] ^= prev & disc
        if changed:
            # the changed lanes' new B is the old C = new C ^ old x^(n-m) B
            prev ^= conn[:top] & change
        short = np.packbits(twice_len <= n + 1, bitorder="little").view("<u8")
        base -= 1
    return twice_len[:nblocks] // 2
