"""Statistical randomness battery (NIST SP 800-22 procedures).

Thirteen test procedures applied per run of ``run_len`` bits: Frequency,
BlockFrequency, the two CumulativeSums directions, Runs, LongestRuns,
Rank, DFFT (spectral), Universal, ApproximateEntropy, the two Serial
p-values, and LinearComplexity.  Block-length parameters default to the
battery's recommended values for runs of 10^6 bits and are recorded in
the report.  A procedure whose prerequisites fail on a run is reported
as not applicable, never as failed.

The costliest procedures run on array kernels that hold no 8-byte value
per bit of the run.  CumulativeSums, LongestRuns, Universal and the
pattern count take their bits ``_CHUNK`` (2^16) at a time, carrying
exact integer state; DFFT holds one complex value per gcd(n, 8) bits.

- Serial and ApproximateEntropy share one overlapping-pattern count per
  run.  The circularly extended run is packed once, every m-bit window
  is read out of a ``uint64`` word, and ``np.add.at`` adds each chunk's
  windows into one table.  Circular counts for width
  m - 1 are ``c[0::2] + c[1::2]`` of those for m, so ``run_battery``
  counts once, at the wider of ApEn's width m + 1 and Serial's m among
  the widths w with 4 * 2^w <= n, and folds down for Serial (m, m - 1,
  m - 2) and ApEn (m + 1, m); each test that applies has n >= 4 * 2^w at
  its own w.  Either test called alone counts the same way.
- LinearComplexity runs Berlekamp–Massey on all blocks in lockstep,
  64 blocks per word (:func:`tickrng.lfsr.lfsr_complexities`).
- Rank packs each 32-bit matrix row into a word and eliminates all
  matrices together, one column per step.  A step reads its column as
  0/1 words and XORs the pivot row by a multiply into every row holding
  the column, the pivot row included, which leaves it 0: no used-row
  flags are kept.
- CumulativeSums takes the ``int64`` cumsum S of the +/-1 steps a chunk
  at a time, carrying S and its extremes.  The forward excursion is
  max |S_k|; the reverse walk's sums are S_n - S_j for j < n, so its
  excursion comes from S_n and the extremes of S_0 = 0, S_1 .. S_n.
  ``run_battery`` reads both rows off one walk.
- LongestRuns finds the longest run of ones of whole blocks a chunk at a
  time and adds up their class counts.
- Universal builds its L-bit block values (L <= 16) as ``uint16`` keys by
  shift-or over the L columns.  Within a chunk, numpy's stable argsort
  (a radix sort for 16-bit keys) groups the blocks by value; each group
  takes its distances from the last position of its value, carried over
  chunks, and writes them where a stable sort of the whole run would put
  them, from each value's count of test blocks.  So the log2 distances
  are summed in the same order as a sort of all blocks, to the same
  float.
- DFFT never holds a length-n transform.  With r = gcd(n, 8) and
  m = n / r, the bins k = r a + b of residue b are the length-m FFT of
  the signal folded into m values by W_r^{p b} and twiddled by
  W_n^{u b}.  Each residue b <= r / 2 is folded, a chunk of columns at a
  time, into one reused complex array and transformed in place, by the
  same split of m into gcd(m, 8) rows (pocketfft's scratch for a
  length-m transform is another m values); a residue 0 < b < r / 2 also
  counts the bins of residue r - b, through their mirrors n - k.

Each kernel is tested for exact equality against a slow oracle:
dictionary counts, a scalar Berlekamp–Massey on Python integers
(``reference_lfsr_complexity`` in ``tests/conftest.py``), row-by-row
elimination, one int64 walk per direction (``reference_cusum_excursion``),
a per-block scan for LongestRuns, int64 block values by a matrix product
and one whole-run sort (``reference_universal_pvalue``) and one
whole-length rfft (``reference_spectral_below``), at chunk sizes down to
one.

Every p-value is a normal or a chi-square tail, computed in closed form
with the standard library.  Normal tails are ``math.erfc``.  Each
chi-square statistic here has a whole number of degrees of freedom d, so
with x = stat / 2 its upper tail Q(d / 2, x) is a finite sum:

- even d: e^-x * sum over k < d / 2 of x^k / k!;
- odd d: erfc(sqrt x) + e^-x * sum over k < (d - 1) / 2 of
  x^(k + 1/2) / Gamma(k + 3/2).

Each term takes one ``math.lgamma``.  Against ``scipy.special.gammaincc``
the relative error is at most 1e-10 for d up to 2^16 and statistics up
to 40 standard deviations above the mean; the tests check this bound.
LongestRuns, Rank and LinearComplexity share one Pearson goodness-of-fit
helper, ``_chi2_fit``, over their class counts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, as_count
from .extract import bit_array
from .lfsr import lfsr_complexities

__all__ = [
    "TestId",
    "TestEntry",
    "TestReport",
    "DEFAULT_PARAMETERS",
    "frequency_test",
    "block_frequency_test",
    "cumulative_sums_test",
    "runs_test",
    "longest_runs_test",
    "rank_test",
    "dft_test",
    "universal_test",
    "approximate_entropy_test",
    "serial_test",
    "linear_complexity_test",
    "run_battery",
]


class TestId(str, Enum):
    """The battery's thirteen procedures, in report order."""

    FREQUENCY = "Frequency"
    BLOCK_FREQUENCY = "BlockFrequency"
    CUSUM_FORWARD = "CusumForward"
    CUSUM_REVERSE = "CusumReverse"
    RUNS = "Runs"
    LONGEST_RUNS = "LongestRuns"
    RANK = "Rank"
    DFFT = "DFFT"
    UNIVERSAL = "Universal"
    APPROXIMATE_ENTROPY = "ApproximateEntropy"
    SERIAL_1 = "Serial1"
    SERIAL_2 = "Serial2"
    LINEAR_COMPLEXITY = "LinearComplexity"

    @property
    def index(self) -> int:
        return _TEST_INDEX[self]


_TEST_INDEX = {tid: i + 1 for i, tid in enumerate(TestId)}

DEFAULT_PARAMETERS = {
    "block_frequency_block_len": 128,
    "approximate_entropy_block_len": 10,
    "serial_block_len": 16,
    "linear_complexity_block_len": 500,
    "rank_matrix_dim": 32,
}


# Bits (or as many whole blocks or words) per step of the chunked kernels:
# CumulativeSums, LongestRuns, Universal and the overlapping-pattern count.
_CHUNK = 1 << 16


def _require(n: int, needed: int, what: str) -> None:
    if n < needed:
        raise InsufficientDataError(f"{what} needs at least {needed} bits, got {n}")


def frequency_test(bits, min_n: int = 100) -> float:
    """Monobit test: p = erfc(|S| / sqrt(2 n)) with S the +/-1 sum."""
    x = bit_array(bits)
    n = x.size
    _require(n, max(min_n, 1), "frequency test")
    s = 2.0 * int(x.sum()) - n
    return math.erfc(abs(s) / math.sqrt(2.0 * n))


def block_frequency_test(bits, block_len: int = 128, min_n: int = 100) -> float:
    """Proportion of ones within disjoint blocks, chi-square against 1/2."""
    block_len = as_count(block_len, "block_len", positive=True)
    x = bit_array(bits)
    n = x.size
    _require(n, max(min_n, block_len), "block frequency test")
    nblocks = n // block_len
    pi = x[: nblocks * block_len].reshape(nblocks, block_len).mean(axis=1)
    chi2 = 4.0 * block_len * float(((pi - 0.5) ** 2).sum())
    return _chi2_sf(nblocks, chi2)


def _chi2_sf(dof: int, stat: float) -> float:
    """Chi-square upper tail for a whole ``dof``, by the sums in the module docstring."""
    if stat <= 0.0:
        return 1.0 if stat == 0.0 else math.nan
    x, top = stat / 2.0, dof // 2
    # A term j steps from the largest is at most exp(-j (j - 1) / (2 (x + j))) of
    # it, so those more than 10 sqrt(x) + 100 away are below 1e-21 of it: skipped.
    reach = 10.0 * math.sqrt(x) + 100.0
    lo = max(0, math.floor(min(x, top) - reach))
    a = np.arange(lo, min(top, math.ceil(x + reach))) + dof % 2 / 2.0
    lgammas = np.array([math.lgamma(v + 1.0) for v in a.tolist()])
    terms = float(np.exp(a * math.log(x) - x - lgammas).sum())
    return terms + math.erfc(math.sqrt(x)) if dof % 2 else terms


def _chi2_fit(counts: np.ndarray, probabilities: np.ndarray) -> float:
    """Pearson goodness-of-fit tail of class ``counts`` against class ``probabilities``."""
    expected = int(counts.sum()) * probabilities
    stat = float(((counts - expected) ** 2 / expected).sum())
    return _chi2_sf(len(probabilities) - 1, stat)


def _cusum_pvalue(n: int, z: int) -> float:
    sq = math.sqrt(n)
    cdf = np.vectorize(lambda j: 0.5 * math.erfc(-j * z / sq / math.sqrt(2.0)), otypes=[float])
    # Both arguments of a term with |k| > cap lie beyond +/-40 standard
    # deviations, where the normal CDF is exactly 0 or 1: the term is 0.
    cap = int(10 * sq / z) + 1
    lo1 = max(math.floor((-n / z + 1) / 4), -cap)
    lo2 = max(math.floor((-n / z - 3) / 4), -cap)
    hi = min(math.floor((n / z - 1) / 4), cap)
    k1 = np.arange(lo1, hi + 1, dtype=np.float64)
    k2 = np.arange(lo2, hi + 1, dtype=np.float64)
    s1 = float((cdf(4 * k1 + 1) - cdf(4 * k1 - 1)).sum())
    s2 = float((cdf(4 * k2 + 3) - cdf(4 * k2 + 1)).sum())
    return min(max(1.0 - s1 + s2, 0.0), 1.0)


def _cusum_excursions(x: np.ndarray) -> tuple[int, int]:
    """Largest |partial sum| of the +/-1 walk of ``x`` read forward and read
    backward, from one walk.

    With S_0 = 0 and S_j the forward sums, the backward walk's sums are
    S_n - S_j for j = n - 1 .. 0, so both excursions come from S_n and the
    extremes of S_0 .. S_n (the j = n term S_n - S_n = 0 never decides
    an excursion, which is at least 1).  The walk is taken ``_CHUNK``
    steps at a time, carrying its end and extremes.
    """
    end = lo = hi = 0
    for start in range(0, x.size, _CHUNK):
        walk = (x[start : start + _CHUNK].view(np.int8) * 2 - 1).astype(np.int64)
        # in place: an int64 cumsum of the int8 steps casts through a buffer at twice the time
        np.cumsum(walk, out=walk)
        walk += end
        end = int(walk[-1])
        lo = min(lo, int(walk.min()))
        hi = max(hi, int(walk.max()))
    return max(hi, -lo), max(end - lo, hi - end)


def _cumulative_sums(bits) -> tuple[float, float]:
    x = bit_array(bits)
    _require(x.size, 100, "cumulative sums test")
    forward, reverse = _cusum_excursions(x)
    return _cusum_pvalue(x.size, forward), _cusum_pvalue(x.size, reverse)


def cumulative_sums_test(bits, direction: str = "forward") -> float:
    """Maximal excursion of the +/-1 partial-sum walk, forward or reverse."""
    if direction not in ("forward", "reverse"):
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")
    forward, reverse = _cumulative_sums(bits)
    return forward if direction == "forward" else reverse


def runs_test(bits, min_n: int = 100) -> float:
    """Total number of runs; returns 0.0 when the frequency prerequisite fails."""
    x = bit_array(bits)
    n = x.size
    _require(n, max(min_n, 2), "runs test")
    pi = float(x.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(x[1:] != x[:-1]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return math.erfc(num / den)


_LONGEST_RUNS_TIERS = (
    # (minimum n, block length M, lowest class, highest class, class probabilities)
    (750_000, 10_000, 10, 16, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, 4, 9, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, 1, 4, (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _longest_runs(blocks: np.ndarray) -> np.ndarray:
    """The longest run of ones in each row of ``blocks``, as int64."""
    nblocks, block_len = blocks.shape
    padded = np.zeros((nblocks, block_len + 2), dtype=np.int8)
    padded[:, 1:-1] = blocks
    d = np.diff(padded.ravel())
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    longest = np.zeros(nblocks, dtype=np.int64)
    np.maximum.at(longest, starts // (block_len + 2), ends - starts)
    return longest


def longest_runs_test(bits) -> float:
    """Distribution of the longest run of ones per block, chi-square."""
    x = bit_array(bits)
    n = x.size
    _require(n, _LONGEST_RUNS_TIERS[-1][0], "longest runs test")
    for min_n, block_len, lo, hi, pi in _LONGEST_RUNS_TIERS:
        if n >= min_n:
            break
    nblocks = n // block_len
    step = max(1, _CHUNK // block_len)  # whole blocks per chunk
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    for start in range(0, nblocks, step):
        stop = min(start + step, nblocks)
        longest = _longest_runs(x[start * block_len : stop * block_len].reshape(-1, block_len))
        counts += np.bincount(np.clip(longest, lo, hi) - lo, minlength=hi - lo + 1)
    return _chi2_fit(counts, np.asarray(pi))


def _gf2_ranks(mats: np.ndarray) -> np.ndarray:
    """GF(2) ranks of a stack of m x m 0/1 matrices, all eliminated in lockstep.

    Row ``i`` of each matrix becomes a word whose bit ``c`` is column ``c``.
    Step ``c`` takes, in every matrix at once, the first row holding
    column ``c`` as the pivot and XORs it into every row holding that
    column, itself included: the pivot row becomes 0, so it never holds
    a later column, and the rank is the number of steps that found a
    pivot.  The holdings are 0/1 words, so the XOR is a multiply.
    """
    nmat, m, _ = mats.shape
    words = np.zeros((nmat * m, 8), dtype=np.uint8)
    words[:, : -(-m // 8)] = np.packbits(mats.reshape(nmat * m, m), axis=1, bitorder="little")
    rows = words.view("<u8").reshape(nmat, m)
    starts = np.arange(0, nmat * m, m)  # flat index of each matrix's row 0
    ranks = np.zeros(nmat, dtype=np.uint64)
    for col in range(m):
        holders = (rows >> np.uint64(col)) & np.uint64(1)
        pivot = holders.argmax(axis=1) + starts
        rows ^= holders * rows.ravel()[pivot][:, None]
        ranks += holders.ravel()[pivot]
    return ranks.astype(np.int64)


def _rank_probability(m: int, r: int) -> float:
    """Fraction of random m x m matrices over GF(2) with rank exactly r."""
    value = 2.0 ** (r * (2 * m - r) - m * m)
    for i in range(r):
        value *= (1.0 - 2.0 ** (i - m)) ** 2 / (1.0 - 2.0 ** (i - r))
    return value


def rank_test(bits, matrix_dim: int = 32) -> float:
    """Ranks of disjoint matrix_dim x matrix_dim binary matrices over GF(2)."""
    x = bit_array(bits)
    n = x.size
    m = as_count(matrix_dim, "matrix_dim", positive=True)
    if m > 64:
        raise ValueError(f"matrix dimension must lie in 1..64, got {m!r}")
    block = m * m
    nmat = n // block
    if nmat < 38:
        raise InsufficientDataError(
            f"rank test needs at least {38 * block} bits for 38 matrices, got {n}"
        )
    ranks = _gf2_ranks(x[: nmat * block].reshape(nmat, m, m))
    p_full = _rank_probability(m, m)
    p_one_less = _rank_probability(m, m - 1)
    p_rest = 1.0 - p_full - p_one_less
    counts = np.bincount(np.minimum(m - ranks, 2), minlength=3)  # full, one less, the rest
    return _chi2_fit(counts, np.array([p_full, p_one_less, p_rest]))


_DFT_RADIX = 8  # DFFT folds the signal into gcd(n, _DFT_RADIX) residues
_DFT_CHUNK = 1 << 12  # columns folded, and bins counted, per step


def _spectral_below(x: np.ndarray, threshold: float) -> int:
    """How many of the first n // 2 DFT bins of the +/-1 signal of ``x`` have
    a magnitude below ``threshold``, with no length-n transform held.

    With r = gcd(n, 8), m = n / r and bins k = r a + b,
    S_{r a + b} = sum over u of W_m^{u a} W_n^{u b} sum over p of
    s_{u + p m} W_r^{p b}: residue b's bins are the length-m FFT of the
    signal folded by W_r^{p b} and twiddled by W_n^{u b}.  Each residue
    b = 0 .. r / 2 is transformed alone, in place, and counts its bins
    k < n / 2; since |S_{n - k}| = |S_k|, a residue 0 < b < r / 2 also
    stands for residue r - b through its bins k > n - n / 2.  At r = 1
    this is the whole-length rfft.
    """
    n = x.size
    r = math.gcd(n, _DFT_RADIX)
    half = n // 2
    if r == 1:
        return int(np.count_nonzero(np.abs(np.fft.rfft(2.0 * x - 1.0)[:half]) < threshold))
    m = n // r
    rows = x.reshape(r, m)  # rows[p, u] = x[u + p m]
    spectrum = np.empty(m, dtype=np.complex128)
    below = 0
    for b in range(r // 2 + 1):
        angle = 2.0 * np.pi / r * (np.arange(r) * b % r)
        fold = np.stack((np.cos(angle), -np.sin(angle)))  # real and imaginary W_r^{p b}
        offset = fold.sum(axis=1)[:, None]  # the fold of the signal's -1s
        twiddle = np.exp(-2j * np.pi / n * b * np.arange(_DFT_CHUNK))
        for start in range(0, m, _DFT_CHUNK):
            folded = fold @ rows[:, start : start + _DFT_CHUNK]
            folded *= 2.0
            folded -= offset
            part = spectrum[start : start + _DFT_CHUNK]
            part.real = folded[0]
            part.imag = folded[1]
            if b:
                part *= twiddle[: part.size]
                part *= np.exp(-2j * np.pi / n * b * start)
        grid = _fft_in_place(spectrum)
        p = grid.shape[0]
        # bin a is k = r a + b: those below n / 2, then the mirrors above n - n / 2
        spans = [(0, -(-(half - b) // r))]
        if 0 < b < r - b:
            spans.append(((n - half - b) // r + 1, m))
        for lo, hi in spans:
            for c in range(p):  # bins a = c + p d
                row = grid[c, max(0, -(-(lo - c) // p)) : -(-(hi - c) // p)]
                for start in range(0, row.size, _DFT_CHUNK):
                    magnitude = np.abs(row[start : start + _DFT_CHUNK])
                    below += int(np.count_nonzero(magnitude < threshold))
    return below


def _fft_in_place(y: np.ndarray) -> np.ndarray:
    """The DFT of the complex ``y``, in place, as a (p, m / p) grid whose
    [c, d] holds bin c + p d, with m = y.size and p = gcd(m, 8).

    A length-m transform takes a scratch copy and a plan of about m values
    each.  The same split as :func:`_spectral_below`'s takes them of
    m / p: length-p transforms down the grid's columns, the twiddles
    W_m^{j c}, and length-m / p transforms along its rows.
    """
    m = y.size
    p = math.gcd(m, _DFT_RADIX)
    grid = y.reshape(p, m // p)
    np.fft.fft(grid, axis=0, out=grid)
    spin = np.exp(-2j * np.pi / m * np.arange(m // p))
    twiddle = spin.copy()
    for c in range(1, p):
        grid[c] *= twiddle
        twiddle *= spin
    for row in grid:
        np.fft.fft(row, out=row)
    return grid


def dft_test(bits) -> float:
    """Fraction of below-threshold spectral peaks against the expected 95%."""
    x = bit_array(bits)
    n = x.size
    _require(n, 1000, "spectral test")
    threshold = math.sqrt(math.log(20.0) * n)
    below = _spectral_below(x, threshold)
    expected = 0.95 * n / 2.0
    d = (below - expected) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return math.erfc(abs(d) / math.sqrt(2.0))


_UNIVERSAL_TABLE = {
    # block length L -> (expected value, variance)
    6: (5.2177052, 2.954),
    7: (6.1962507, 3.125),
    8: (7.1836656, 3.238),
    9: (8.1764248, 3.311),
    10: (9.1723243, 3.356),
    11: (10.170032, 3.384),
    12: (11.168765, 3.401),
    13: (12.168070, 3.410),
    14: (13.167693, 3.416),
    15: (14.167488, 3.419),
    16: (15.167379, 3.421),
}


def universal_test(bits) -> float:
    """Maurer's universal statistic: mean log2 distance to the previous
    occurrence of each non-overlapping L-bit block."""
    x = bit_array(bits)
    n = x.size
    # SP 800-22 2.9: the largest tabulated L with n >= (Q + K) L, Q = 10 * 2^L, K = 1000 * 2^L
    _require(n, 1010 * 6 * 2**6, "universal test")
    block_len = max(L for L in _UNIVERSAL_TABLE if n >= 1010 * L * 2**L)
    q = 10 * (1 << block_len)
    k = n // block_len - q
    columns = x[: (q + k) * block_len].reshape(q + k, block_len)
    blocks = np.zeros(q + k, dtype=np.uint16)  # block_len <= 16
    for col in range(block_len):
        blocks <<= 1
        blocks |= columns[:, col]
    # The distances are summed in the order of (block value, position), the
    # order a stable sort of all the blocks gives: the test blocks of value v
    # take the places from place[v] on.  Positions count from 1; last[v] is
    # the last position holding v so far, 0 before the first.
    tally = np.bincount(blocks[q:], minlength=1 << block_len)
    place = np.cumsum(tally) - tally
    last = np.zeros(1 << block_len, dtype=np.int64)
    dist = np.empty(k)
    step = max(1, _CHUNK // block_len)
    for lo in chain(range(0, q, step), range(q, q + k, step)):
        hi = min(lo + step, q if lo < q else q + k)
        # a stable sort of 16-bit keys is a radix sort
        pos = np.argsort(blocks[lo:hi], kind="stable")
        values = blocks[lo:hi][pos]
        pos += lo + 1
        first = np.ones(values.size, dtype=bool)
        np.not_equal(values[1:], values[:-1], out=first[1:])
        heads = np.flatnonzero(first)  # the chunk's runs of one value each
        value = values[heads]
        sizes = np.diff(heads, append=values.size)
        if lo >= q:
            gaps = np.empty(values.size)
            np.subtract(pos[1:], pos[:-1], out=gaps[1:])
            gaps[heads] = pos[heads] - last[value]
            at = np.repeat(place[value] - heads, sizes)
            at += np.arange(values.size)
            dist[at] = gaps
            place[value] += sizes
        last[value] = pos[heads + sizes - 1]
    fn = float(np.log2(dist, out=dist).sum()) / k
    expected, variance = _UNIVERSAL_TABLE[block_len]
    c = 0.7 - 0.8 / block_len + (4.0 + 32.0 / block_len) * k ** (-3.0 / block_len) / 15.0
    sigma = c * math.sqrt(variance / k)
    return math.erfc(abs(fn - expected) / (math.sqrt(2.0) * sigma))


def _overlapping_counts(x: np.ndarray, m: int) -> np.ndarray:
    """Counts of all 2^m overlapping m-bit patterns with circular extension.

    Pattern values read the window's first bit as the most significant.
    The extended run is packed once; the window at bit ``8 k + s`` is the
    top ``m`` bits of the big-endian word at byte ``k`` shifted left by
    ``s``, so all windows come from 8 shifts of each word; hence
    ``m + 7 <= 64``, far above any width whose 2^m table fits in memory.
    The windows are counted about ``_CHUNK`` at a time, by ``np.add.at``
    into one table.
    """
    n = x.size
    nwords = -(-n // 8)
    whole = n // 8
    # the run, its first m - 1 bits again and zeros, packed: word k is bytes k .. k + 7
    packed = np.zeros(nwords + 8, dtype=np.uint8)
    packed[:whole] = np.packbits(x[: 8 * whole])
    tail = np.packbits(np.concatenate((x[8 * whole :], x[: m - 1])))
    packed[whole : whole + tail.size] = tail
    shifts = np.arange(8, dtype=np.uint64)
    counts = np.zeros(1 << m, dtype=np.int64)
    step = max(1, _CHUNK // 8)  # words per chunk
    for start in range(0, nwords, step):
        words = sliding_window_view(packed, 8)[start : start + step].copy().view(">u8").astype(np.uint64)
        values = words << shifts
        values >>= np.uint64(64 - m)
        np.add.at(counts, values.ravel()[: n - 8 * start], 1)
    return counts


def _fold(counts: np.ndarray, m: int) -> np.ndarray:
    """Circular counts for width ``m`` from those of any wider width.

    A width-w pattern ``p`` is extended by one bit into ``2 p`` or
    ``2 p + 1``, so the width-(w - 1) counts are ``c[0::2] + c[1::2]``.
    """
    while counts.size > 1 << m:
        counts = counts[0::2] + counts[1::2]
    return counts


def _approximate_entropy(bits, block_len: int, counts=None) -> float:
    """``counts``: circular counts at width >= block_len + 1, or None to count here."""
    block_len = as_count(block_len, "block_len", positive=True)
    x = bit_array(bits)
    n = x.size
    _require(n, max(100, 1 << (block_len + 5)), "approximate entropy test")
    if counts is None:
        counts = _overlapping_counts(x, block_len + 1)
    phi = []
    for m in (block_len, block_len + 1):
        folded = _fold(counts, m)
        probs = folded[folded > 0] / n
        phi.append(float((probs * np.log(probs)).sum()))
    apen = phi[0] - phi[1]
    # ApEn <= ln 2, so the statistic is >= 0; on perfectly balanced input it
    # is 0 and rounding can leave it a hair below.
    chi2 = max(0.0, 2.0 * n * (math.log(2.0) - apen))
    return _chi2_sf(1 << block_len, chi2)


def approximate_entropy_test(bits, block_len: int = 10) -> float:
    """Compares frequencies of overlapping m and m+1 bit patterns."""
    return _approximate_entropy(bits, block_len)


def _serial(bits, block_len: int, counts=None) -> tuple[float, float]:
    """``counts``: circular counts at width >= block_len, or None to count here."""
    block_len = as_count(block_len, "block_len", positive=True)
    if block_len < 3:
        raise ValueError("block length must be >= 3")
    x = bit_array(bits)
    n = x.size
    _require(n, max(100, 1 << (block_len + 2)), "serial test")
    if counts is None:
        counts = _overlapping_counts(x, block_len)
    psi = []  # psi-square for widths m, m - 1, m - 2
    for m in (block_len, block_len - 1, block_len - 2):
        counts = _fold(counts, m)
        psi.append(float((counts.astype(np.float64) ** 2).sum() * (1 << m) / n - n))
    d1 = psi[0] - psi[1]
    d2 = psi[0] - 2.0 * psi[1] + psi[2]
    return _chi2_sf(1 << (block_len - 1), d1), _chi2_sf(1 << (block_len - 2), d2)


def serial_test(bits, block_len: int = 16) -> tuple[float, float]:
    """First- and second-difference psi-square statistics of overlapping patterns."""
    return _serial(bits, block_len)


# Exact class probabilities for the complexity deviation T: the geometric
# distribution of linear complexity around M/2 gives 1/96, 1/32, 1/8 below
# and 1/4, 1/16, 1/48 above the central 1/2.
_LC_CLASS_PROBS = np.array(
    [1 / 96, 1 / 32, 1 / 8, 1 / 2, 1 / 4, 1 / 16, 1 / 48]
)
_LC_CLASS_BOUNDS = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])


def linear_complexity_test(bits, block_len: int = 500) -> float:
    """Linear complexity of disjoint blocks, chi-square over 7 deviation classes."""
    block_len = as_count(block_len, "block_len", positive=True)
    x = bit_array(bits)
    n = x.size
    _require(n, 200 * block_len, "linear complexity test")
    nblocks = n // block_len
    mu = (
        block_len / 2.0
        + (9.0 + (-1.0) ** (block_len + 1)) / 36.0
        - (block_len / 3.0 + 2.0 / 9.0) / 2.0**block_len
    )
    sign = 1.0 if block_len % 2 == 0 else -1.0
    complexities = lfsr_complexities(x[: nblocks * block_len].reshape(nblocks, block_len))
    t_values = sign * (complexities - mu) + 2.0 / 9.0
    counts = np.bincount(np.searchsorted(_LC_CLASS_BOUNDS, t_values, side="left"), minlength=7)
    return _chi2_fit(counts, _LC_CLASS_PROBS)


@dataclass(frozen=True)
class TestEntry:
    """One procedure's outcome on one run; ``p_value`` is None where it did not apply."""

    test_id: TestId
    run_index: int
    p_value: float | None
    passed: bool

    @property
    def applicable(self) -> bool:
        return self.p_value is not None


@dataclass
class TestReport:
    """Battery outcome: one entry per (procedure, run), plus the parameters used."""

    entries: list[TestEntry]
    alpha: float
    run_len: int
    parameters: dict = field(default_factory=dict)

    def failures(self) -> list[TestEntry]:
        return [e for e in self.entries if e.applicable and not e.passed]

    def sorted_entries(self) -> list[TestEntry]:
        return sorted(self.entries, key=lambda e: (e.test_id.index, e.run_index))


def _run_procedures(x: np.ndarray, params: dict) -> Iterator[tuple[TestId, float | None]]:
    """Yield ``(test_id, p-value or None)`` for every report row of one run, in
    report order; ``None`` marks a procedure that does not apply to the run."""
    apen_len = params["approximate_entropy_block_len"]
    serial_len = params["serial_block_len"]
    # one count for ApEn and Serial at the docstring's width, made after DFFT
    # so that its table is not held through the transform's arrays
    widths = [w for w in (apen_len + 1, serial_len) if 4 << w <= x.size]
    counts = cache(lambda: _overlapping_counts(x, max(widths)) if widths else None)

    procedures = (
        ((TestId.FREQUENCY,), lambda: (frequency_test(x),)),
        (
            (TestId.BLOCK_FREQUENCY,),
            lambda: (block_frequency_test(x, block_len=params["block_frequency_block_len"]),),
        ),
        ((TestId.CUSUM_FORWARD, TestId.CUSUM_REVERSE), lambda: _cumulative_sums(x)),
        ((TestId.RUNS,), lambda: (runs_test(x),)),
        ((TestId.LONGEST_RUNS,), lambda: (longest_runs_test(x),)),
        ((TestId.RANK,), lambda: (rank_test(x, matrix_dim=params["rank_matrix_dim"]),)),
        ((TestId.DFFT,), lambda: (dft_test(x),)),
        ((TestId.UNIVERSAL,), lambda: (universal_test(x),)),
        ((TestId.APPROXIMATE_ENTROPY,), lambda: (_approximate_entropy(x, apen_len, counts()),)),
        ((TestId.SERIAL_1, TestId.SERIAL_2), lambda: _serial(x, serial_len, counts())),
        (
            (TestId.LINEAR_COMPLEXITY,),
            lambda: (linear_complexity_test(x, block_len=params["linear_complexity_block_len"]),),
        ),
    )
    for rows, call in procedures:
        try:
            p_values = call()
        except InsufficientDataError:
            p_values = (None,) * len(rows)
        yield from zip(rows, p_values)


def _slices(x: np.ndarray, run_len: int) -> Iterator[np.ndarray]:
    """``x`` in runs of ``run_len`` bits and then the shorter rest, as
    :func:`tickrng.formats.read_bit_runs` gives a file's."""
    for start in range(0, x.size + 1, run_len):
        yield x[start : start + run_len]


def run_battery(bits, alpha: float = 0.01, run_len: int = 1_000_000, **overrides) -> TestReport:
    """Partition ``bits`` into disjoint runs and apply all 13 procedures to each.

    ``bits`` is a :class:`~tickrng.extract.BitStream` or a bit array, or an
    iterator over its runs of ``run_len`` bits and then its shorter rest, as
    :func:`tickrng.formats.read_bit_runs` reads them from a file; the rest
    ends the input.  Keyword overrides replace entries of
    :data:`DEFAULT_PARAMETERS`.  A trailing remainder shorter than
    ``run_len`` is ignored.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    run_len = as_count(run_len, "run_len", positive=True)
    params = dict(DEFAULT_PARAMETERS)
    unknown = set(overrides) - set(params)
    if unknown:
        raise ValueError(f"unknown battery parameters: {sorted(unknown)}")
    params.update(overrides)
    params = {name: as_count(value, name, positive=True) for name, value in params.items()}
    runs = bits if isinstance(bits, Iterator) else _slices(bit_array(bits), run_len)
    entries, seen = [], 0
    for index, run in enumerate(runs):
        x = bit_array(run)
        seen += x.size
        if x.size > run_len:
            raise ValueError(f"a run of {x.size} bits is longer than run_len {run_len}")
        if x.size < run_len:
            break
        entries += [
            TestEntry(test_id, index, p, passed=p is not None and p >= alpha)
            for test_id, p in _run_procedures(x, params)
        ]
    if not entries:
        raise InsufficientDataError(f"battery needs at least one run of {run_len} bits, got {seen}")
    return TestReport(entries=entries, alpha=alpha, run_len=run_len, parameters=params)
