"""Statistical randomness battery (NIST SP 800-22 procedures).

Thirteen test procedures applied per run of ``run_len`` bits: Frequency,
BlockFrequency, the two CumulativeSums directions, Runs, LongestRuns,
Rank, DFFT (spectral), Universal, ApproximateEntropy, the two Serial
p-values, and LinearComplexity.  Block-length parameters default to the
battery's recommended values for runs of 10^6 bits and are recorded in
the report.  A procedure whose prerequisites fail on a run is reported
as not applicable, never as failed.

The costliest procedures run on whole-array kernels:

- Serial and ApproximateEntropy share one overlapping-pattern count per
  run.  The circularly extended run is packed once, every m-bit window
  is read out of a ``uint64`` word, and one ``bincount`` gives the
  counts.  Circular counts for width m - 1 are ``c[0::2] + c[1::2]`` of
  those for m, so ``run_battery`` counts once at the widest width an
  applicable test needs and folds down for Serial (m, m - 1, m - 2) and
  ApEn (m + 1, m).  Either test called alone counts the same way.
- LinearComplexity runs Berlekamp–Massey on all blocks in lockstep,
  64 blocks per word (:func:`tickrng.lfsr.lfsr_complexities`).
- Rank packs each 32-bit matrix row into a word and eliminates all
  matrices together, one column per step.  A step reads its column as
  0/1 words and XORs the pivot row by a multiply into every row holding
  the column, the pivot row included, which leaves it 0: no used-row
  flags are kept.
- CumulativeSums takes one ``int64`` cumsum S of the +/-1 steps per run.
  The forward excursion is max |S_k|; the reverse walk's sums are
  S_n - S_j for j < n, so its excursion comes from S_n and the extremes
  of S_0 = 0, S_1 .. S_n.  ``run_battery`` reads both rows off one walk.
- Universal builds its L-bit block values (L <= 16) as ``uint16`` keys by
  shift-or over the L columns; numpy's stable argsort sorts 16-bit keys
  by radix, in the same order as any stable sort.

Each kernel is tested for exact equality against a slow oracle:
dictionary counts, ``lfsr_complexity_int``, row-by-row elimination, one
int64 walk per direction (``reference_cusum_excursion`` in
``tests/conftest.py``) and int64 block values by a matrix product
(``reference_universal_pvalue``).

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
    an excursion, which is at least 1).
    """
    walk = (x.view(np.int8) * 2 - 1).astype(np.int64)
    # in place: an int64 cumsum of the int8 steps casts through a buffer at twice the time
    np.cumsum(walk, out=walk)
    end = int(walk[-1])
    lo = int(walk.min(initial=0))
    hi = int(walk.max(initial=0))
    return max(hi, -lo), max(end - lo, hi - end)


def _cumulative_sums(bits, min_n: int) -> tuple[float, float]:
    x = bit_array(bits)
    _require(x.size, max(min_n, 1), "cumulative sums test")
    forward, reverse = _cusum_excursions(x)
    return _cusum_pvalue(x.size, forward), _cusum_pvalue(x.size, reverse)


def cumulative_sums_test(bits, direction: str = "forward", min_n: int = 100) -> float:
    """Maximal excursion of the +/-1 partial-sum walk, forward or reverse."""
    if direction not in ("forward", "reverse"):
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")
    forward, reverse = _cumulative_sums(bits, min_n)
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


def longest_runs_test(bits) -> float:
    """Distribution of the longest run of ones per block, chi-square."""
    x = bit_array(bits)
    n = x.size
    _require(n, _LONGEST_RUNS_TIERS[-1][0], "longest runs test")
    for min_n, block_len, lo, hi, pi in _LONGEST_RUNS_TIERS:
        if n >= min_n:
            break
    nblocks = n // block_len
    blocks = x[: nblocks * block_len].reshape(nblocks, block_len)
    padded = np.zeros((nblocks, block_len + 2), dtype=np.int8)
    padded[:, 1:-1] = blocks
    flat = padded.ravel()
    d = np.diff(flat)
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    longest = np.zeros(nblocks, dtype=np.int64)
    np.maximum.at(longest, starts // (block_len + 2), ends - starts)
    clipped = np.clip(longest, lo, hi)
    return _chi2_fit(np.bincount(clipped - lo, minlength=hi - lo + 1), np.asarray(pi))


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


def dft_test(bits, min_n: int = 1000) -> float:
    """Fraction of below-threshold spectral peaks against the expected 95%."""
    x = bit_array(bits)
    n = x.size
    _require(n, max(min_n, 2), "spectral test")
    # The +-1 signal is built in place, and the signal and then the
    # spectrum are dropped as soon as each is used, so that no third
    # float array is alive beside them.
    signal = x.astype(np.float64)
    signal *= 2.0
    signal -= 1.0
    spectrum = np.fft.rfft(signal)
    del signal
    mags = np.abs(spectrum[: n // 2])
    del spectrum
    threshold = math.sqrt(math.log(20.0) * n)
    below = int(np.count_nonzero(mags < threshold))
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

_UNIVERSAL_THRESHOLDS = (
    (1_059_061_760, 16),
    (496_435_200, 15),
    (231_669_760, 14),
    (107_560_960, 13),
    (49_643_520, 12),
    (22_753_280, 11),
    (10_342_400, 10),
    (4_654_080, 9),
    (2_068_480, 8),
    (904_960, 7),
    (387_840, 6),
)


def universal_test(bits) -> float:
    """Maurer's universal statistic: mean log2 distance to the previous
    occurrence of each non-overlapping L-bit block."""
    x = bit_array(bits)
    n = x.size
    _require(n, _UNIVERSAL_THRESHOLDS[-1][0], "universal test")
    for threshold, block_len in _UNIVERSAL_THRESHOLDS:
        if n >= threshold:
            break
    q = 10 * (1 << block_len)
    k = n // block_len - q
    columns = x[: (q + k) * block_len].reshape(q + k, block_len)
    blocks = np.zeros(q + k, dtype=np.uint16)  # block_len <= 16
    for col in range(block_len):
        blocks <<= 1
        blocks |= columns[:, col]
    # A stable sort of 16-bit keys is a radix sort; positions count from 1.
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    sorted_pos = order + 1
    prev = np.empty_like(sorted_pos)
    prev[0] = 0
    same = sorted_blocks[1:] == sorted_blocks[:-1]
    prev[1:] = np.where(same, sorted_pos[:-1], 0)
    dist = (sorted_pos - prev)[sorted_pos > q]
    fn = float(np.log2(dist.astype(np.float64)).sum()) / k
    expected, variance = _UNIVERSAL_TABLE[block_len]
    c = 0.7 - 0.8 / block_len + (4.0 + 32.0 / block_len) * k ** (-3.0 / block_len) / 15.0
    sigma = c * math.sqrt(variance / k)
    return math.erfc(abs(fn - expected) / (math.sqrt(2.0) * sigma))


def _overlapping_counts(x: np.ndarray, m: int) -> np.ndarray:
    """Counts of all 2^m overlapping m-bit patterns with circular extension.

    Pattern values read the window's first bit as the most significant.
    The extended run is packed once; the window at bit ``8 k + s`` is the
    top ``m`` bits of the big-endian word at byte ``k`` shifted left by
    ``s``, so all windows come from 8 shifts of one word array; hence
    ``m + 7 <= 64``, far above any width whose 2^m table fits in memory.
    """
    n = x.size
    nwords = -(-n // 8)
    ext = np.zeros(8 * (nwords + 8), dtype=np.uint8)
    ext[:n] = x
    ext[n : n + m - 1] = x[: m - 1]
    packed = np.packbits(ext)
    words = sliding_window_view(packed, 8)[:nwords].copy().view(">u8").astype(np.uint64)
    values = (words << np.arange(8, dtype=np.uint64)) >> np.uint64(64 - m)
    return np.bincount(values.ravel()[:n].view(np.int64), minlength=1 << m)


def _fold(counts: np.ndarray, m: int) -> np.ndarray:
    """Circular counts for width ``m`` from those of any wider width.

    A width-w pattern ``p`` is extended by one bit into ``2 p`` or
    ``2 p + 1``, so the width-(w - 1) counts are ``c[0::2] + c[1::2]``.
    """
    while counts.size > 1 << m:
        counts = counts[0::2] + counts[1::2]
    return counts


def _approximate_entropy_min_bits(block_len: int, min_n: int = 100) -> int:
    return max(min_n, 1 << (block_len + 5))


def _serial_min_bits(block_len: int, min_n: int = 100) -> int:
    return max(min_n, 1 << (block_len + 2))


def _approximate_entropy(bits, block_len: int, min_n: int, count) -> float:
    block_len = as_count(block_len, "block_len", positive=True)
    x = bit_array(bits)
    n = x.size
    _require(n, _approximate_entropy_min_bits(block_len, min_n), "approximate entropy test")
    wide = count(x, block_len + 1)
    phi = []
    for m in (block_len, block_len + 1):
        counts = _fold(wide, m)
        probs = counts[counts > 0] / n
        phi.append(float((probs * np.log(probs)).sum()))
    apen = phi[0] - phi[1]
    # ApEn <= ln 2, so the statistic is >= 0; on perfectly balanced input it
    # is 0 and rounding can leave it a hair below.
    chi2 = max(0.0, 2.0 * n * (math.log(2.0) - apen))
    return _chi2_sf(1 << block_len, chi2)


def approximate_entropy_test(bits, block_len: int = 10, min_n: int = 100) -> float:
    """Compares frequencies of overlapping m and m+1 bit patterns."""
    return _approximate_entropy(bits, block_len, min_n, _overlapping_counts)


def _serial(bits, block_len: int, min_n: int, count) -> tuple[float, float]:
    block_len = as_count(block_len, "block_len", positive=True)
    if block_len < 3:
        raise ValueError("block length must be >= 3")
    x = bit_array(bits)
    n = x.size
    _require(n, _serial_min_bits(block_len, min_n), "serial test")
    counts = count(x, block_len)
    psi = []  # psi-square for widths m, m - 1, m - 2
    for m in (block_len, block_len - 1, block_len - 2):
        counts = _fold(counts, m)
        psi.append(float((counts.astype(np.float64) ** 2).sum() * (1 << m) / n - n))
    d1 = psi[0] - psi[1]
    d2 = psi[0] - 2.0 * psi[1] + psi[2]
    return _chi2_sf(1 << (block_len - 1), d1), _chi2_sf(1 << (block_len - 2), d2)


def serial_test(bits, block_len: int = 16, min_n: int = 100) -> tuple[float, float]:
    """First- and second-difference psi-square statistics of overlapping patterns."""
    return _serial(bits, block_len, min_n, _overlapping_counts)


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
    """One procedure's outcome on one run."""

    test_id: TestId
    run_index: int
    p_value: float
    passed: bool
    applicable: bool = True

    @property
    def test_index(self) -> int:
        return self.test_id.index

    def _key(self) -> tuple:
        # A NaN p-value marks a procedure that did not apply; two such
        # entries are equal by value, not only when they share one NaN.
        p_value = None if math.isnan(self.p_value) else self.p_value
        return (self.test_id, self.run_index, p_value, self.passed, self.applicable)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, TestEntry) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass
class TestReport:
    """Battery outcome: one entry per (procedure, run), plus the parameters used."""

    entries: list[TestEntry]
    alpha: float
    run_len: int
    parameters: dict = field(default_factory=dict)

    def failures(self) -> list[TestEntry]:
        return [e for e in self.entries if e.applicable and not e.passed]

    @property
    def all_passed(self) -> bool:
        return not self.failures()

    def sorted_entries(self) -> list[TestEntry]:
        return sorted(self.entries, key=lambda e: (e.test_index, e.run_index))


def _run_procedures(x: np.ndarray, params: dict) -> Iterator[tuple[TestId, float | None]]:
    """Yield ``(test_id, p-value or None)`` for every report row of one run, in
    report order; ``None`` marks a procedure that does not apply to the run."""
    apen_len = params["approximate_entropy_block_len"]
    serial_len = params["serial_block_len"]
    # One overlapping-count pass serves ApEn (m + 1, m) and Serial (m, m - 1,
    # m - 2): count once at the widest width an applicable test uses, then fold.
    # A test too long for the run sets no width, so no 2^m table is allocated for it.
    width = max(
        apen_len + 1 if x.size >= _approximate_entropy_min_bits(apen_len) else 0,
        serial_len if x.size >= _serial_min_bits(serial_len) else 0,
    )
    wide = _overlapping_counts(x, width) if width else None

    def counts(_bits: np.ndarray, m: int) -> np.ndarray:
        return _fold(wide, m)

    procedures = (
        ((TestId.FREQUENCY,), lambda: (frequency_test(x),)),
        (
            (TestId.BLOCK_FREQUENCY,),
            lambda: (block_frequency_test(x, block_len=params["block_frequency_block_len"]),),
        ),
        ((TestId.CUSUM_FORWARD, TestId.CUSUM_REVERSE), lambda: _cumulative_sums(x, 100)),
        ((TestId.RUNS,), lambda: (runs_test(x),)),
        ((TestId.LONGEST_RUNS,), lambda: (longest_runs_test(x),)),
        ((TestId.RANK,), lambda: (rank_test(x, matrix_dim=params["rank_matrix_dim"]),)),
        ((TestId.DFFT,), lambda: (dft_test(x),)),
        ((TestId.UNIVERSAL,), lambda: (universal_test(x),)),
        ((TestId.APPROXIMATE_ENTROPY,), lambda: (_approximate_entropy(x, apen_len, 100, counts),)),
        ((TestId.SERIAL_1, TestId.SERIAL_2), lambda: _serial(x, serial_len, 100, counts)),
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


def run_battery(bits, alpha: float = 0.01, run_len: int = 1_000_000, **overrides) -> TestReport:
    """Partition ``bits`` into disjoint runs and apply all 13 procedures to each.

    Keyword overrides replace entries of :data:`DEFAULT_PARAMETERS`.  A
    trailing remainder shorter than ``run_len`` is ignored.
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
    x = bit_array(bits)
    runs = x.size // run_len
    if runs < 1:
        raise InsufficientDataError(
            f"battery needs at least one run of {run_len} bits, got {x.size}"
        )
    entries = [
        TestEntry(test_id, i, p, passed=p >= alpha)
        if p is not None
        else TestEntry(test_id, i, float("nan"), passed=False, applicable=False)
        for i in range(runs)
        for test_id, p in _run_procedures(x[i * run_len : (i + 1) * run_len], params)
    ]
    return TestReport(entries=entries, alpha=alpha, run_len=run_len, parameters=params)
