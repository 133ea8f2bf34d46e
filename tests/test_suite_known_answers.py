"""Known answers and independent oracles for the 13-test battery.

Each procedure is checked against hand-computable degenerate inputs and
against a naive reimplementation of its statistic (direct DFT sum,
dictionary pattern counts, per-block scans, Gaussian elimination,
textbook shortest-LFSR synthesis, an exact random-walk recursion), so a
regression in the vectorised code cannot hide behind its own formula.
"""

import functools
import hashlib
import math

import numpy as np
import pytest
from scipy.special import gammaincc, ndtr
from scipy.stats import chi2 as chi2_dist

from conftest import (
    reference_cusum_excursion,
    reference_lfsr_complexity,
    reference_spectral_below,
    reference_universal_pvalue,
    rss_rise_mb,
    traced_peak,
)
from tickrng.errors import InsufficientDataError
from tickrng.extract import BitStream, extract_mod2, flip_debias
from tickrng.formats import write_report
from tickrng.lfsr import lfsr_complexities
from tickrng.models import Distribution, SourceModel
from tickrng import suite
from tickrng.sim import ClockConfig, ClockMode, IntraGateProfile, generate_gated
from tickrng.suite import (
    DEFAULT_PARAMETERS,
    _chi2_sf,
    _cusum_excursions,
    _cusum_pvalue,
    _fold,
    _gf2_ranks,
    _overlapping_counts,
    TestId,
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    dft_test,
    frequency_test,
    linear_complexity_test,
    longest_runs_test,
    rank_test,
    run_battery,
    runs_test,
    serial_test,
    universal_test,
)


def random_bits(seed: int, n: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=n, dtype=np.uint8)


ADVERSARIAL = ("random", "all-zero", "all-one", "alternating", "period-7", "sparse")


def adversarial_bits(kind: str, n: int, seed: int) -> np.ndarray:
    """Random input, or one of the degenerate shapes fast kernels get wrong."""
    rng = np.random.default_rng(seed)
    index = np.arange(n)
    if kind == "random":
        return rng.integers(0, 2, size=n, dtype=np.uint8)
    if kind == "all-zero":
        return np.zeros(n, dtype=np.uint8)
    if kind == "all-one":
        return np.ones(n, dtype=np.uint8)
    if kind == "alternating":
        return (index % 2).astype(np.uint8)
    if kind == "period-7":
        return np.array([1, 0, 1, 1, 0, 0, 0], dtype=np.uint8)[index % 7]
    if kind == "sparse":
        return (rng.random(n) < 0.01).astype(np.uint8)
    raise ValueError(kind)


def gated_mod2_bits(slots_per_gate: int, seed: int, n: int) -> np.ndarray:
    """Raw mod-2 bits of ``n`` gated detections (dead time 3, mu_eta 0.5)."""
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=slots_per_gate, dead_slots=3)
    source = SourceModel(Distribution.POISSON, 0.5)
    stream = generate_gated(source, clock, IntraGateProfile.uniform(), n, seed=seed)
    return extract_mod2(stream).bits


# Million-bit streams whose battery reports are pinned, with the SHA-256 of
# each ``write_report`` CSV.  Their p-values spread over the whole unit
# interval, which the degenerate shapes' do not: all-zero, period-7 and
# sparse share one report, and all-one and dense another.
PIN_STREAMS = {
    # debiased gated r = 2: p-values from 7e-210 to 0.98
    "debiased-r2": "379cdb2a967201c32d2caff1538e4a43894eae2986a4b9ff0ff3dbb7545a5a33",
    # PCG64 bits with P(1) = 0.5008: all 13 p-values in 0.13-0.94
    "biased-pcg": "ee4b8943d19d3775d5d2013230c71a1c446418adb33ba901e71e07e30ef8216a",
    # raw gated r = 8, the benchmark's binary pipeline: p-values from 0 to 0.84
    "raw-r8": "6201c349b54098d9193d1f57ac634486c607acb2e8a443c4a0073a9385dd7cc1",
}


@functools.cache
def pin_stream_bits(name: str, n: int = 1_000_000) -> np.ndarray:
    """``n`` bits made by the recipe of pin stream ``name``, read-only."""
    if name == "debiased-r2":
        bits = flip_debias(BitStream(gated_mod2_bits(2, 301, n))).bits
    elif name == "biased-pcg":
        bits = (np.random.Generator(np.random.PCG64(303)).random(n) < 0.5008).astype(np.uint8)
    else:
        bits = gated_mod2_bits(8, 977, n)
    bits.flags.writeable = False
    return bits


# Inputs every fast kernel must match its oracle on.
ORACLE_KINDS = ADVERSARIAL + tuple(PIN_STREAMS)


def oracle_bits(kind: str, n: int, seed: int) -> np.ndarray:
    return pin_stream_bits(kind, n) if kind in PIN_STREAMS else adversarial_bits(kind, n, seed)


def poisson_tail(a: int, x: float) -> float:
    """Upper chi-square tail with 2a degrees of freedom via the Poisson sum."""
    return math.exp(-x) * sum(x**k / math.factorial(k) for k in range(a))


# ----------------------------------------------------------- p-value tails


@pytest.mark.parametrize("dof", [1, 2, 3, 5, 6, 7812, 7813] + [1 << m for m in range(1, 17)])
def test_chi2_tail_matches_scipy(dof):
    """Closed-form tail against ``scipy.special.gammaincc`` from 0 to
    40 standard deviations above the mean."""
    stats = np.linspace(0.0, dof + 40.0 * math.sqrt(2.0 * dof), 201)
    expected = gammaincc(dof / 2.0, stats / 2.0)
    got = np.array([_chi2_sf(dof, float(s)) for s in stats])
    assert got[0] == 1.0
    checked = expected >= 1e-300
    assert (np.abs(got - expected)[checked] / expected[checked]).max() <= 1e-10


def scipy_cusum_pvalue(n: int, z: int) -> float:
    """The cumulative-sums p-value summed over every k with ``scipy.special.ndtr``."""
    sq = math.sqrt(n)
    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    s1 = (ndtr((4 * k1 + 1) * z / sq) - ndtr((4 * k1 - 1) * z / sq)).sum()
    s2 = (ndtr((4 * k2 + 3) * z / sq) - ndtr((4 * k2 + 1) * z / sq)).sum()
    return min(max(1.0 - s1 + s2, 0.0), 1.0)


@pytest.mark.parametrize("z", [1, 2, 20, 1000])
def test_cusum_pvalue_matches_the_scipy_sum(z):
    n = 1_000_000
    assert _cusum_pvalue(n, z) == pytest.approx(scipy_cusum_pvalue(n, z), rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------- frequency


def test_frequency_all_zeros_is_rejected():
    assert frequency_test(np.zeros(100, dtype=np.uint8)) < 1e-20


def test_frequency_balanced_input_scores_one():
    assert frequency_test(np.repeat([0, 1], 50)) == 1.0


def test_frequency_four_bit_hand_value():
    p = frequency_test([1, 1, 0, 1], min_n=1)
    assert p == pytest.approx(math.erfc(2 / math.sqrt(8)))
    assert p == pytest.approx(0.31731, abs=1e-5)


def test_frequency_requires_hundred_bits():
    with pytest.raises(InsufficientDataError):
        frequency_test(np.ones(99, dtype=np.uint8))


# ---------------------------------------------------------- block frequency


def test_block_frequency_two_block_hand_value():
    bits = [1] * 6 + [0] * 4 + [1] * 3 + [0] * 7  # proportions 0.6 and 0.3
    # chi2 = 4 * 10 * (0.1^2 + 0.2^2) = 2.0; two blocks -> upper tail exp(-1)
    assert block_frequency_test(bits, block_len=10, min_n=1) == pytest.approx(math.exp(-1.0))


def test_block_frequency_four_block_hand_value():
    bits = [1] * 5 + [0] * 5 + [1, 1, 1, 0, 0] + [1, 1, 0, 0, 0]
    chi2 = 4.0 * 5 * (0.25 + 0.25 + 0.01 + 0.01)
    p = block_frequency_test(bits, block_len=5, min_n=1)
    assert p == pytest.approx(poisson_tail(2, chi2 / 2.0))


def test_block_frequency_constant_input_is_rejected():
    assert block_frequency_test(np.ones(1024, dtype=np.uint8)) < 1e-20


# ----------------------------------------------------------------- cusum


def exact_excursion_pvalue(n: int, z: int) -> float:
    """P(max |partial sum| >= z) for a fair +/-1 walk, by state recursion."""
    probs = np.zeros(2 * z - 1)
    probs[z - 1] = 1.0
    for _ in range(n):
        nxt = np.zeros_like(probs)
        nxt[1:] += 0.5 * probs[:-1]
        nxt[:-1] += 0.5 * probs[1:]
        probs = nxt
    return 1.0 - float(probs.sum())


@pytest.mark.parametrize("z", [20, 30, 40, 55])
def test_cusum_matches_exact_walk_distribution(z):
    n = 1000
    bits = np.array([0] * z + [1, 0] * ((n - z) // 2), dtype=np.uint8)
    walk = np.cumsum(2 * bits.astype(np.int64) - 1)
    assert int(np.abs(walk).max()) == z  # the construction pins the excursion
    p = cumulative_sums_test(bits, "forward")
    assert p == pytest.approx(exact_excursion_pvalue(n, z), abs=0.005)


def test_cusum_palindrome_directions_agree():
    half = random_bits(7, 300)
    bits = np.concatenate([half, half[::-1]])
    forward = cumulative_sums_test(bits, "forward")
    assert forward == cumulative_sums_test(bits, "reverse")
    assert 0.0 <= forward <= 1.0


def test_cusum_reverse_equals_forward_of_reversed_input():
    bits = random_bits(11, 500)
    assert cumulative_sums_test(bits, "reverse") == cumulative_sums_test(bits[::-1], "forward")


def test_cusum_all_zeros_is_rejected():
    assert cumulative_sums_test(np.zeros(1_000_000, dtype=np.uint8), "forward") < 1e-20


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("n", [100, 101, 1001, 1_000_000])
def test_cusum_excursions_match_one_walk_per_direction(kind, n):
    bits = oracle_bits(kind, n, seed=n)
    forward = reference_cusum_excursion(bits, "forward")
    reverse = reference_cusum_excursion(bits, "reverse")
    assert _cusum_excursions(bits) == (forward, reverse)


# The chunk sizes every chunked kernel is checked at: one bit, a size that
# splits no block or word evenly, a small power of two, and the default.
CHUNKS = (1, 7, 64, None)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", ADVERSARIAL + ("period-8",))
def test_cusum_excursions_match_the_walks_in_any_chunk(monkeypatch, kind, chunk):
    if chunk is not None:
        monkeypatch.setattr(suite, "_CHUNK", chunk)
    for n in (100, 1001):
        bits = spectral_bits(kind, n)
        expected = (reference_cusum_excursion(bits, "forward"), reference_cusum_excursion(bits, "reverse"))
        assert _cusum_excursions(bits) == expected, n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cusum_excursions_of_the_shortest_walks(n):
    for code in range(1 << n):
        bits = np.array([(code >> i) & 1 for i in range(n)], dtype=np.uint8)
        expected = (reference_cusum_excursion(bits, "forward"), reference_cusum_excursion(bits, "reverse"))
        assert _cusum_excursions(bits) == expected


@pytest.mark.parametrize("kind, n", [(kind, 1001) for kind in ORACLE_KINDS] + [(k, 1_000_000) for k in PIN_STREAMS])
def test_cusum_alone_equals_the_battery_rows(kind, n):
    bits = oracle_bits(kind, n, seed=n)
    by_id = {e.test_id: e.p_value for e in run_battery(bits, run_len=n).entries}
    assert cumulative_sums_test(bits, "forward") == by_id[TestId.CUSUM_FORWARD]
    assert cumulative_sums_test(bits, "reverse") == by_id[TestId.CUSUM_REVERSE]


def test_cusum_rejects_unknown_direction():
    with pytest.raises(ValueError):
        cumulative_sums_test(np.zeros(200, dtype=np.uint8), "sideways")


# ------------------------------------------------------------------- runs


def test_runs_alternating_input_is_rejected():
    bits = np.tile([0, 1], 50)
    assert runs_test(bits) < 1e-20


def test_runs_all_ones_fails_the_prerequisite():
    assert runs_test(np.ones(100, dtype=np.uint8)) == 0.0


def test_runs_four_bit_hand_value():
    p = runs_test([0, 1, 0, 1], min_n=2)
    assert p == pytest.approx(math.erfc(math.sqrt(2)))
    assert p == pytest.approx(0.0455, abs=1e-4)


# ----------------------------------------------------------- longest runs


def longest_one_run(block) -> int:
    best = run = 0
    for b in block:
        run = run + 1 if b else 0
        best = max(best, run)
    return best


@pytest.mark.parametrize("n,block_len,lo,hi,dof", [(6272, 128, 4, 9, 5), (750_000, 10_000, 10, 16, 6)])
def test_longest_runs_matches_per_block_scan(n, block_len, lo, hi, dof):
    tier_probs = {
        128: (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124),
        10_000: (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727),
    }[block_len]
    bits = random_bits(13, n)
    nblocks = n // block_len
    counts = [0] * (hi - lo + 1)
    for i in range(nblocks):
        length = longest_one_run(bits[i * block_len : (i + 1) * block_len].tolist())
        counts[min(max(length, lo), hi) - lo] += 1
    chi2 = sum(
        (c - nblocks * p) ** 2 / (nblocks * p) for c, p in zip(counts, tier_probs)
    )
    assert longest_runs_test(bits) == pytest.approx(chi2_dist.sf(chi2, dof), abs=1e-12)


def per_block_longest_runs_pvalue(bits: np.ndarray) -> float:
    """A per-block loop over the tier's blocks: the oracle for the chunked
    LongestRuns counts, scored by the same goodness-of-fit helper."""
    n = bits.size
    block_len, lo, hi, pi = next(
        (m, lo, hi, pi) for min_n, m, lo, hi, pi in suite._LONGEST_RUNS_TIERS if n >= min_n
    )
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    for start in range(0, n - block_len + 1, block_len):
        # the longest run of ones is the widest gap between zeros, less one
        zeros = np.flatnonzero(bits[start : start + block_len] == 0)
        longest = int(np.diff(zeros, prepend=-1, append=block_len).max()) - 1
        counts[min(max(longest, lo), hi) - lo] += 1
    return suite._chi2_fit(counts, np.asarray(pi))


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", ADVERSARIAL + ("period-8",))
def test_longest_runs_match_a_per_block_loop_in_any_chunk(monkeypatch, kind, chunk):
    """All three tiers (block lengths 8, 128 and 10^4), with a partial
    block left over."""
    if chunk is not None:
        monkeypatch.setattr(suite, "_CHUNK", chunk)
    for n in (133, 6_300, 750_007):
        bits = spectral_bits(kind, n)
        assert longest_runs_test(bits) == per_block_longest_runs_pvalue(bits), n


def test_longest_runs_all_zero_hand_value():
    p = longest_runs_test(np.zeros(128, dtype=np.uint8))
    # 16 blocks all land in the lowest class (longest run <= 1)
    expected = [16 * q for q in (0.2148, 0.3672, 0.2305, 0.1875)]
    chi2 = (16 - expected[0]) ** 2 / expected[0] + sum(expected[1:])
    assert p == pytest.approx(chi2_dist.sf(chi2, 3), abs=1e-12)


def test_longest_runs_needs_a_full_block():
    with pytest.raises(InsufficientDataError):
        longest_runs_test(np.ones(127, dtype=np.uint8))


# -------------------------------------------------------------------- rank


def naive_gf2_rank(matrix: np.ndarray) -> int:
    m = matrix.astype(np.int8).copy()
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.flatnonzero(m[rank:, col]) + rank
        if pivots.size == 0:
            continue
        m[[rank, pivots[0]]] = m[[pivots[0], rank]]
        for row in range(m.shape[0]):
            if row != rank and m[row, col]:
                m[row] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def rank_fraction_by_enumeration(m: int, r: int) -> float:
    hits = total = 0
    for code in range(1 << (m * m)):
        matrix = np.array(
            [[(code >> (i * m + j)) & 1 for j in range(m)] for i in range(m)], dtype=np.int8
        )
        hits += naive_gf2_rank(matrix) == r
        total += 1
    return hits / total


def analytic_rank_probability(m: int, r: int) -> float:
    value = 2.0 ** (-((m - r) ** 2))
    for i in range(r):
        value *= (1.0 - 2.0 ** (i - m)) ** 2 / (1.0 - 2.0 ** (i - r))
    return value


@pytest.mark.parametrize("m", [2, 3])
def test_rank_probabilities_match_exhaustive_enumeration(m):
    for r in range(m + 1):
        assert rank_fraction_by_enumeration(m, r) == pytest.approx(
            analytic_rank_probability(m, r), abs=1e-12
        )


def test_rank_class_probabilities_for_production_matrices():
    assert analytic_rank_probability(32, 32) == pytest.approx(0.2888, abs=5e-5)
    assert analytic_rank_probability(32, 31) == pytest.approx(0.5776, abs=5e-5)
    rest = 1 - analytic_rank_probability(32, 32) - analytic_rank_probability(32, 31)
    assert rest == pytest.approx(0.1336, abs=5e-5)


def test_rank_test_on_identity_matrices():
    eye = np.eye(32, dtype=np.uint8).ravel()
    bits = np.tile(eye, 38)
    p_full = analytic_rank_probability(32, 32)
    p_one_less = analytic_rank_probability(32, 31)
    p_rest = 1 - p_full - p_one_less
    chi2 = 38 * ((1 - p_full) ** 2 / p_full + p_one_less + p_rest)
    assert rank_test(bits) == pytest.approx(poisson_tail(1, chi2 / 2.0))


def test_rank_test_agrees_with_naive_elimination():
    bits = random_bits(17, 40 * 1024)
    p = rank_test(bits)
    nmat = 40
    ranks = [
        naive_gf2_rank(bits[i * 1024 : (i + 1) * 1024].reshape(32, 32)) for i in range(nmat)
    ]
    freqs = [sum(r == 32 for r in ranks), sum(r == 31 for r in ranks)]
    freqs.append(nmat - freqs[0] - freqs[1])
    probs = [
        analytic_rank_probability(32, 32),
        analytic_rank_probability(32, 31),
    ]
    probs.append(1 - probs[0] - probs[1])
    chi2 = sum((f - nmat * q) ** 2 / (nmat * q) for f, q in zip(freqs, probs))
    assert p == pytest.approx(poisson_tail(1, chi2 / 2.0), abs=1e-12)


@pytest.mark.parametrize("kind", ADVERSARIAL + ("low-rank",))
@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 32, 64])
def test_lockstep_rank_matches_naive_elimination(kind, m):
    nmat = 40
    if kind == "low-rank":
        rng = np.random.default_rng(m)
        k = max(m // 2, 1)
        mats = (rng.integers(0, 2, (nmat, m, k)) @ rng.integers(0, 2, (nmat, k, m))) % 2
    else:
        mats = adversarial_bits(kind, nmat * m * m, seed=m).reshape(nmat, m, m)
    assert _gf2_ranks(mats.astype(np.uint8)).tolist() == [naive_gf2_rank(a) for a in mats]


def test_rank_needs_thirty_eight_matrices():
    with pytest.raises(InsufficientDataError):
        rank_test(np.ones(38 * 1024 - 1, dtype=np.uint8))


def test_rank_rejects_matrices_wider_than_64():
    with pytest.raises(ValueError, match=r"^matrix dimension must lie in 1\.\.64, got 65$"):
        rank_test(np.ones(38 * 65 * 65, dtype=np.uint8), matrix_dim=65)


# --------------------------------------------------------------------- dft


def test_dft_alternating_input_is_rejected():
    assert dft_test(np.tile([0, 1], 5000)) < 1e-20


def test_dft_constant_input_is_rejected():
    assert dft_test(np.ones(10_000, dtype=np.uint8)) < 1e-20


@pytest.mark.parametrize("n", [1000, 1001, 1002, 1004])  # r = 8, 1, 2, 4
def test_dft_matches_direct_transform(n):
    bits = random_bits(19, n)
    signal = 2.0 * bits - 1.0
    grid = np.exp(-2j * np.pi * np.outer(np.arange(n // 2), np.arange(n)) / n)
    mags = np.abs(grid @ signal)
    below = int(np.count_nonzero(mags < math.sqrt(math.log(20.0) * n)))
    d = (below - 0.95 * n / 2) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    assert dft_test(bits) == pytest.approx(math.erfc(abs(d) / math.sqrt(2.0)), abs=1e-9)


SPECTRAL_KINDS = ADVERSARIAL + ("period-3", "period-4", "period-8")


def spectral_bits(kind: str, n: int) -> np.ndarray:
    """``adversarial_bits``, or a fixed pattern of period 3, 4 or 8 repeated."""
    patterns = {"period-3": [1, 1, 0], "period-4": [1, 1, 0, 0], "period-8": [1, 0, 1, 1, 0, 0, 0, 1]}
    if kind in patterns:
        return np.array(patterns[kind], dtype=np.uint8)[np.arange(n) % len(patterns[kind])]
    return adversarial_bits(kind, n, seed=n)


@pytest.mark.parametrize(
    "n, chunk",
    [(n, chunk) for n in range(200, 216) for chunk in (None, 1, 7, 64)] + [(n, None) for n in (1_000_000, 625_000)],
)
def test_spectral_count_matches_the_whole_length_transform(monkeypatch, n, chunk):
    """n = 200 .. 215 takes every residue mod 8, so r = gcd(n, 8) is 1, 2,
    4 and 8, at an odd (n = 200) and an even (n = 208) m = n / 8; the
    grid of a residue's transform has gcd(m, 8) = 1 .. 8 rows.  At 10^6
    bits m = 125000 splits into 8 rows; at 625000, m = 5^7 does not split."""
    if chunk is not None:
        monkeypatch.setattr(suite, "_DFT_CHUNK", chunk)
    threshold = math.sqrt(math.log(20.0) * n)
    for kind in SPECTRAL_KINDS:
        bits = spectral_bits(kind, n)
        assert suite._spectral_below(bits, threshold) == reference_spectral_below(bits, threshold), kind


# --------------------------------------------------------------- universal


def naive_universal_pvalue(bits: np.ndarray, block_len: int) -> float:
    table = {6: (5.2177052, 2.954), 7: (6.1962507, 3.125)}
    q = 10 * (1 << block_len)
    k = bits.size // block_len - q
    last: dict[int, int] = {}
    total = 0.0
    for i in range(q + k):
        value = int("".join(map(str, bits[i * block_len : (i + 1) * block_len])), 2)
        if i >= q:
            total += math.log2(i + 1 - last.get(value, 0))
        last[value] = i + 1
    fn = total / k
    expected, variance = table[block_len]
    c = 0.7 - 0.8 / block_len + (4 + 32 / block_len) * k ** (-3 / block_len) / 15
    sigma = c * math.sqrt(variance / k)
    return math.erfc(abs(fn - expected) / (math.sqrt(2.0) * sigma))


def test_universal_matches_naive_bookkeeping():
    bits = random_bits(23, 400_000)  # block length 6 regime
    # the vectorised log2 sum and the running total differ by rounding order
    assert universal_test(bits) == pytest.approx(naive_universal_pvalue(bits, 6), abs=1e-6)


@pytest.mark.parametrize(
    "kind, n",
    # L = 6, 7 and 8 on every kind; L = 9, past a byte, on the cheap ones
    [(kind, n) for n in (387_840, 1_000_000, 2_068_480) for kind in ORACLE_KINDS]
    + [(kind, 4_654_080) for kind in ADVERSARIAL],
)
def test_universal_matches_the_matrix_product_oracle(kind, n):
    bits = oracle_bits(kind, n, seed=n)
    assert universal_test(bits) == reference_universal_pvalue(bits)


@pytest.mark.parametrize("chunk, kinds", [
    (1, ("random",)),  # one 6-bit block per chunk, as at 7 bits
    (64, ("random", "all-zero", "period-7")),
    (None, ORACLE_KINDS),
], ids=["1", "64", "None"])
def test_universal_matches_the_oracle_in_any_chunk(monkeypatch, chunk, kinds):
    """Chunks of one block, of ten and of many: the distances land in a
    whole-run sort's order, so the p-value is the same float.  Small
    chunks are slow, so they run on fewer inputs."""
    if chunk is not None:
        monkeypatch.setattr(suite, "_CHUNK", chunk)
    for kind in kinds:
        bits = oracle_bits(kind, 387_840, seed=11)
        assert universal_test(bits) == reference_universal_pvalue(bits), kind


# Exact Universal p-values of PCG64 bits (seed 20261019) on both sides of
# the first three block-length edges, L = 6/7, 7/8 and 8/9.
UNIVERSAL_EDGE_PINS = {
    904_959: 0.8233008084962024,
    904_960: 0.2569506927868441,
    2_068_479: 0.36534923290461085,
    2_068_480: 0.8182824474844841,
    4_654_079: 0.6428936430369132,
    4_654_080: 0.0695307875365124,
}


@pytest.mark.parametrize("n", UNIVERSAL_EDGE_PINS)
def test_universal_pvalues_at_the_block_length_edges_are_pinned(n):
    assert universal_test(random_bits(20261019, 4_654_080)[:n]) == UNIVERSAL_EDGE_PINS[n]


def test_universal_threshold_boundary():
    with pytest.raises(InsufficientDataError):
        universal_test(np.ones(387_839, dtype=np.uint8))
    assert 0.0 <= universal_test(random_bits(29, 387_840)) <= 1.0


# ------------------------------------------------------ approximate entropy


def circular_pattern_counts(bits: np.ndarray, m: int) -> dict[str, int]:
    text = "".join(map(str, bits))
    ext = text + text[: m - 1]
    counts: dict[str, int] = {}
    for i in range(len(text)):
        pattern = ext[i : i + m]
        counts[pattern] = counts.get(pattern, 0) + 1
    return counts


def dictionary_count_array(bits: np.ndarray, m: int) -> np.ndarray:
    expected = np.zeros(1 << m, dtype=np.int64)
    for pattern, count in circular_pattern_counts(bits, m).items():
        expected[int(pattern, 2)] = count
    return expected


@pytest.mark.parametrize("kind", ADVERSARIAL)
@pytest.mark.parametrize("n", [100, 1001, 4097])
def test_overlapping_counts_and_folds_match_dictionary_counts(kind, n):
    bits = adversarial_bits(kind, n, seed=n)
    wide = _overlapping_counts(bits, 16)
    for m in range(1, 17):
        expected = dictionary_count_array(bits, m)
        assert np.array_equal(_overlapping_counts(bits, m), expected), m
        assert np.array_equal(_fold(wide, m), expected), m


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", ADVERSARIAL + ("period-8",))
def test_overlapping_counts_match_dictionary_counts_in_any_chunk(monkeypatch, kind, chunk):
    if chunk is not None:
        monkeypatch.setattr(suite, "_CHUNK", chunk)
    for n in (100, 1001, 4099):
        bits = spectral_bits(kind, n)
        for m in (1, 2, 9, 16):
            assert np.array_equal(_overlapping_counts(bits, m), dictionary_count_array(bits, m)), (n, m)


def test_overlapping_counts_reach_twenty_bit_patterns():
    bits = random_bits(29, 4097)
    assert np.array_equal(_overlapping_counts(bits, 20), dictionary_count_array(bits, 20))


def test_approximate_entropy_matches_dictionary_counts():
    bits = random_bits(31, 512)
    m, n = 3, 512
    phi = []
    for width in (m, m + 1):
        counts = circular_pattern_counts(bits, width)
        phi.append(sum((c / n) * math.log(c / n) for c in counts.values()))
    chi2 = 2.0 * n * (math.log(2.0) - (phi[0] - phi[1]))
    expected = poisson_tail(1 << (m - 1), chi2 / 2.0)
    assert approximate_entropy_test(bits, block_len=m) == pytest.approx(expected, abs=1e-10)


def test_approximate_entropy_constant_input_is_rejected():
    assert approximate_entropy_test(np.zeros(200, dtype=np.uint8), block_len=2) < 1e-20


def de_bruijn_bits(order: int) -> np.ndarray:
    """The binary de Bruijn sequence of ``order``: every ``order``-bit window
    of its cyclic reading occurs exactly once (the Lyndon-word construction)."""
    word = [0] * (order + 1)
    out = []

    def extend(t: int, p: int) -> None:
        if t > order:
            if order % p == 0:
                out.extend(word[1 : p + 1])
            return
        word[t] = word[t - p]
        extend(t + 1, p)
        for bit in range(word[t - p] + 1, 2):
            word[t] = bit
            extend(t + 1, t)

    extend(1, 1)
    return np.array(out, dtype=np.uint8)


@pytest.mark.parametrize("order", [11, 12, 16])
def test_approximate_entropy_of_perfectly_balanced_input_is_one(order):
    """Tiling a de Bruijn sequence of order >= block_len + 1 makes every
    overlapping pattern equally frequent, so 2n(ln 2 - ApEn) is exactly 0;
    rounding must not push it below 0, where the tail is undefined."""
    cycle = de_bruijn_bits(order)
    assert cycle.size == 1 << order
    assert sorted(circular_pattern_counts(cycle, order).values()) == [1] * (1 << order)
    bits = np.tile(cycle, (1 << 20) >> order)
    assert approximate_entropy_test(bits) == 1.0


def test_approximate_entropy_validation():
    with pytest.raises(ValueError):
        approximate_entropy_test(np.ones(100, dtype=np.uint8), block_len=0)
    with pytest.raises(InsufficientDataError):
        approximate_entropy_test(np.ones(100, dtype=np.uint8), block_len=10)


# ------------------------------------------------------------------ serial


def naive_psi_squared(bits: np.ndarray, m: int) -> float:
    if m <= 0:
        return 0.0
    counts = circular_pattern_counts(bits, m)
    n = bits.size
    return sum(c * c for c in counts.values()) * (1 << m) / n - n


def test_serial_matches_dictionary_counts():
    bits = random_bits(37, 1024)
    m = 4
    d1 = naive_psi_squared(bits, m) - naive_psi_squared(bits, m - 1)
    d2 = (
        naive_psi_squared(bits, m)
        - 2 * naive_psi_squared(bits, m - 1)
        + naive_psi_squared(bits, m - 2)
    )
    p1, p2 = serial_test(bits, block_len=m)
    assert p1 == pytest.approx(poisson_tail(1 << (m - 2), d1 / 2.0), abs=1e-10)
    assert p2 == pytest.approx(poisson_tail(1 << (m - 3), d2 / 2.0), abs=1e-10)


def test_serial_constant_input_is_rejected():
    p1, p2 = serial_test(np.zeros(1024, dtype=np.uint8), block_len=3)
    assert p1 < 1e-20
    assert p2 < 1e-20


def test_serial_validation():
    with pytest.raises(ValueError):
        serial_test(np.ones(1024, dtype=np.uint8), block_len=2)
    with pytest.raises(InsufficientDataError):
        serial_test(np.ones(100, dtype=np.uint8), block_len=16)


# ------------------------------------------------------- linear complexity


def naive_berlekamp_massey(bits: list[int]) -> int:
    c = [1] + [0] * len(bits)
    b = [1] + [0] * len(bits)
    L, m = 0, -1
    for n in range(len(bits)):
        d = bits[n]
        for i in range(1, L + 1):
            d ^= c[i] & bits[n - i]
        if d:
            t = c.copy()
            shift = n - m
            for i in range(len(bits) + 1 - shift):
                c[i + shift] ^= b[i]
            if 2 * L <= n:
                L, m, b = n + 1 - L, n, t
    return L


@pytest.mark.parametrize("complexity", [
    lambda bits: int(lfsr_complexities([bits])[0]),
    reference_lfsr_complexity,
], ids=["lockstep", "oracle"])
def test_lfsr_complexity_hand_examples(complexity):
    assert complexity([0, 0, 1]) == 3
    assert complexity([0] * 16) == 0
    assert complexity([0, 1] * 5) == 2
    assert complexity([1]) == 1
    assert complexity(BitStream([0, 1, 1]).bits) == complexity([0, 1, 1]) == 2


def test_lfsr_complexity_matches_textbook_synthesis():
    """The lockstep kernel and its integer oracle both match textbook BM."""
    rng = np.random.default_rng(41)
    for length, count in ((1, 20), (2, 20), (3, 20), (7, 20), (16, 20), (33, 20), (64, 20), (500, 6)):
        blocks = np.array([rng.integers(0, 2, size=length) for _ in range(count)])
        textbook = [naive_berlekamp_massey(bits) for bits in blocks.tolist()]
        assert lfsr_complexities(blocks).tolist() == textbook
        assert [reference_lfsr_complexity(block) for block in blocks] == textbook


@pytest.mark.parametrize("kind", ADVERSARIAL)
@pytest.mark.parametrize(
    "block_len, nblocks",
    [(500, 200), (500, 2001), (499, 200), (17, 65), (1, 70), (2, 63), (64, 1)],
)
def test_lockstep_complexities_match_the_integer_oracle(kind, block_len, nblocks):
    blocks = adversarial_bits(kind, block_len * nblocks, seed=block_len).reshape(nblocks, block_len)
    assert lfsr_complexities(blocks).tolist() == [reference_lfsr_complexity(block) for block in blocks]


@pytest.mark.parametrize("block_len", [1, 2, 499, 500])
def test_lockstep_complexities_of_impulse_blocks(block_len):
    """Block j's only 1 sits at position block_len - 1 - j, so its complexity
    jumps from 0 to block_len - j at that step while the blocks still
    waiting stay at 0; the step's row bound must reach the new length."""
    nblocks = 130
    blocks = np.zeros((nblocks, block_len), dtype=np.uint8)
    j = np.arange(min(nblocks, block_len))
    blocks[j, block_len - 1 - j] = 1
    assert lfsr_complexities(blocks).tolist() == [reference_lfsr_complexity(block) for block in blocks]


def test_linear_complexity_matches_independent_binning():
    m = 500
    bits = random_bits(43, 200 * m)
    mu = m / 2 + (9 + (-1) ** (m + 1)) / 36 - (m / 3 + 2 / 9) / 2**m
    counts = [0] * 7
    for i in range(200):
        block = bits[i * m : (i + 1) * m]
        t = (-1) ** m * (reference_lfsr_complexity(block) - mu) + 2 / 9
        if t <= -2.5:
            counts[0] += 1
        elif t > 2.5:
            counts[6] += 1
        else:
            counts[math.floor(t + 2.5) + 1] += 1
    probs = [1 / 96, 1 / 32, 1 / 8, 1 / 2, 1 / 4, 1 / 16, 1 / 48]
    chi2 = sum((c - 200 * q) ** 2 / (200 * q) for c, q in zip(counts, probs))
    assert linear_complexity_test(bits, block_len=m) == pytest.approx(
        poisson_tail(3, chi2 / 2.0), abs=1e-10
    )


@pytest.mark.parametrize("procedure, n, message", [
    (longest_runs_test, 100, "longest runs test needs at least 128 bits, got 100"),
    (universal_test, 1000, "universal test needs at least 387840 bits, got 1000"),
    (linear_complexity_test, 1000, "linear complexity test needs at least 100000 bits, got 1000"),
], ids=["longest-runs", "universal", "linear-complexity"])
def test_length_messages_are_pinned(procedure, n, message):
    with pytest.raises(InsufficientDataError) as exc:
        procedure(np.ones(n, dtype=np.uint8))
    assert str(exc.value) == message


def test_linear_complexity_needs_two_hundred_blocks():
    with pytest.raises(InsufficientDataError):
        linear_complexity_test(np.ones(200 * 500 - 1, dtype=np.uint8))


def test_complexity_of_complement_moves_by_at_most_one():
    """Complementation adds the all-ones sequence (complexity 1), so each
    block's complexity shifts by at most 1 — the p-value itself is not
    complement-invariant, only this bound is."""
    rng = np.random.default_rng(47)
    blocks = np.array([rng.integers(0, 2, size=100, dtype=np.uint8) for _ in range(30)])
    assert np.all(np.abs(lfsr_complexities(blocks) - lfsr_complexities(1 - blocks)) <= 1)


# ------------------------------------------------- cross-test properties


def test_symmetric_tests_are_complement_invariant():
    # invariance is mathematical; float equality is only up to rounding
    # order (e.g. the ones proportion of the flipped stream is (n-S)/n,
    # one ulp away from 1 - S/n), hence the tight relative tolerance
    close = lambda value: pytest.approx(value, rel=1e-9)
    bits = random_bits(53, 300_000)
    flipped = 1 - bits
    assert frequency_test(bits) == frequency_test(flipped)
    assert runs_test(bits) == close(runs_test(flipped))
    assert dft_test(bits) == dft_test(flipped)
    p1, p2 = serial_test(flipped, block_len=8)
    assert serial_test(bits, block_len=8) == (close(p1), close(p2))
    assert approximate_entropy_test(bits, block_len=6) == close(
        approximate_entropy_test(flipped, block_len=6)
    )
    assert block_frequency_test(bits) == close(block_frequency_test(flipped))
    assert cumulative_sums_test(bits, "forward") == cumulative_sums_test(flipped, "forward")
    assert cumulative_sums_test(bits, "reverse") == cumulative_sums_test(flipped, "reverse")


def test_all_pvalues_lie_in_unit_interval():
    bits = random_bits(59, 1_000_000)
    report = run_battery(bits)
    for entry in report.entries:
        assert entry.applicable
        assert 0.0 <= entry.p_value <= 1.0


# ----------------------------------------------------------------- battery


def test_battery_identifiers_are_the_thirteen_procedures_in_order():
    assert [tid.value for tid in TestId] == [
        "Frequency",
        "BlockFrequency",
        "CusumForward",
        "CusumReverse",
        "Runs",
        "LongestRuns",
        "Rank",
        "DFFT",
        "Universal",
        "ApproximateEntropy",
        "Serial1",
        "Serial2",
        "LinearComplexity",
    ]
    assert [tid.index for tid in TestId] == list(range(1, 14))


def test_battery_on_debiased_simulator_output():
    source = SourceModel(Distribution.POISSON, 0.5)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    stream = generate_gated(source, clock, IntraGateProfile.uniform(), 2_000_000, seed=102)
    bits = flip_debias(extract_mod2(stream))
    report = run_battery(BitStream(bits.bits[:2_000_000]), run_len=1_000_000)
    assert len(report.entries) == 26
    passed = sum(1 for e in report.entries if e.applicable and e.passed)
    assert passed >= 25


def test_battery_flags_degenerate_input():
    report = run_battery(np.zeros(1_000_000, dtype=np.uint8))
    by_id = {e.test_id: e for e in report.entries}
    assert not by_id[TestId.FREQUENCY].passed
    assert by_id[TestId.FREQUENCY].applicable
    assert len(report.entries) == 13
    assert report.failures()


def test_battery_row_count_is_tests_times_runs():
    bits = random_bits(61, 350_000)
    report = run_battery(bits, run_len=100_000)
    assert len(report.entries) == 13 * 3  # remainder bits are dropped


def test_battery_marks_short_runs_not_applicable():
    bits = random_bits(67, 100_000)
    report = run_battery(bits, run_len=100_000)
    by_id = {e.test_id: e for e in report.entries}
    for tid in (TestId.UNIVERSAL, TestId.SERIAL_1, TestId.SERIAL_2):
        entry = by_id[tid]
        assert not entry.applicable
        assert not entry.passed
        assert entry.p_value is None
    assert by_id[TestId.FREQUENCY].applicable
    assert by_id[TestId.LINEAR_COMPLEXITY].applicable  # exactly 200 blocks
    assert not report.failures()  # not-applicable is distinct from failed


def test_battery_pass_flag_tracks_alpha():
    bits = random_bits(71, 200_000)
    report = run_battery(bits, alpha=0.5, run_len=200_000)
    for entry in report.entries:
        if entry.applicable:
            assert entry.passed == (entry.p_value >= 0.5)


def test_battery_is_deterministic():
    bits = random_bits(73, 1_000_000)
    a = run_battery(bits)
    b = run_battery(bits)
    assert a.entries == b.entries
    assert a.parameters == b.parameters
    # Not-applicable entries carry no p-value.
    a, b = (run_battery(bits[:2000], run_len=2000) for _ in range(2))
    assert sum(not e.applicable for e in a.entries) == 6
    assert all(e.p_value is None for e in a.entries if not e.applicable)
    assert a.entries == b.entries
    assert list(map(hash, a.entries)) == list(map(hash, b.entries))


def test_battery_entries_with_not_applicable_rows_compare_and_hash_by_value():
    """Two reports of one 2^13-bit stream, where six procedures do not apply,
    hold equal entries that collapse pairwise in a set, and no two entries of
    one report are equal."""
    bits = random_bits(20261019, 1 << 13)
    a, b = (run_battery(bits, run_len=1 << 13) for _ in range(2))
    assert sum(not e.applicable for e in a.entries) == 6
    assert a.entries == b.entries
    assert set(a.entries) == set(b.entries)
    assert len(set(a.entries)) == len(a.entries)


def test_battery_report_digest_is_pinned(tmp_path):
    """SHA-256 of the CSV report of a 3-run PCG64 stream.  The digest was
    taken with the earlier one-width-at-a-time pattern counts, one BM per
    block and one elimination per matrix, so it holds the shared and
    lockstep kernels to their output byte for byte."""
    bits = np.random.Generator(np.random.PCG64(20261018)).integers(0, 2, 3_000_000, dtype=np.uint8)
    path = tmp_path / "report.csv"
    write_report(run_battery(BitStream(bits)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "46696cb06a160aff7570cfc0ba4f8eeaa7c1e91a5fed4e59bb80afca7fd23491"
    )


@pytest.mark.parametrize("name", PIN_STREAMS)
def test_battery_report_of_a_pin_stream_is_pinned(name, tmp_path):
    """SHA-256 of the CSV report of one million-bit pin stream.  The digests
    were taken with one cumulative-sums walk per direction, int64 Universal
    block values, Berlekamp–Massey steps over every coefficient row and a
    boolean-mask rank step, so they hold the faster kernels to their
    output byte for byte."""
    path = tmp_path / "report.csv"
    write_report(run_battery(BitStream(pin_stream_bits(name))), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PIN_STREAMS[name]


# SHA-256 of the little-endian float64 bytes of each pin stream's exact
# p-values, which the reports' %.6g hides past the sixth digit.
EXACT_PVALUE_DIGESTS = {
    "debiased-r2": "ca840070ee13d66b437a61f55d5369883d2fa9591634bdd81da9714eee3a81d7",
    "biased-pcg": "88c42e9d7c433c79ae6b6cc9fcf0098532de09ef08c6683d9b6878ea146aab11",
    "raw-r8": "8e4f53ffa163bef236b46092c0251b15f0f8d64c670f8242203824bf6b0756b2",
}


@pytest.mark.parametrize("name", PIN_STREAMS)
def test_exact_pvalues_of_a_pin_stream_are_pinned(name):
    """Every battery p-value of the stream, Rank at m = 8, 16, 32 and 64,
    LinearComplexity at M = 500 and 1000, and LongestRuns on each of its
    three tiers (128, 6272 and 750,000 bits), all bit for bit."""
    x = pin_stream_bits(name)
    p = [e.p_value for e in run_battery(x).entries]
    p += [rank_test(x, matrix_dim=m) for m in (8, 16, 32, 64)]
    p += [linear_complexity_test(x, block_len=m) for m in (500, 1000)]
    p += [longest_runs_test(x[:n]) for n in (128, 6272, 750_000)]
    digest = hashlib.sha256(np.array(p, dtype="<f8").tobytes()).hexdigest()
    assert digest == EXACT_PVALUE_DIGESTS[name]


# PCG64 bits whose battery p-values are pinned at every run length below, on
# both sides of 2^13, 2^15 and 2^18, under four (ApEn, Serial) block lengths:
# the defaults, then (16, 10), (3, 3) and (12, 12).  Each case holds the rows
# that do not apply and the SHA-256 of the little-endian float64 p-values,
# NaN where a row does not apply.
BLOCK_LENGTH_PINS = {
    (10, 16): {
        8191: ("Rank Universal ApproximateEntropy Serial1 Serial2 LinearComplexity",
              "461577ceee92dfb11d662de19f53a5484637fcead08b94b02f670c4aa1562dea"),
        8192: ("Rank Universal ApproximateEntropy Serial1 Serial2 LinearComplexity",
              "e7fd5b84d66a75f2783ed76934074b458d2bb15257bb0961eb721c8e36eee85c"),
        32767: ("Rank Universal ApproximateEntropy Serial1 Serial2 LinearComplexity",
              "5262548d0efb6720aee7a97017f4754e3ecd95f6b83320360eaad6f7bf8231b4"),
        32768: ("Rank Universal Serial1 Serial2 LinearComplexity",
              "d02da24a71f5569a1750a0e0be58d479850a6450138fe7c0b097ace0d813a885"),
        262143: ("Universal Serial1 Serial2",
              "0c5f89ae3a5064c8f9753166339df20547d9790f7b9d4efd3cf021c582581e21"),
        262144: ("Universal",
              "87dbe57d9e567352d26b98a71981579927b4fadd030c5e67ee59a04e28a0d7a0"),
    },
    (16, 10): {
        8191: ("Rank Universal ApproximateEntropy LinearComplexity",
              "4fa2cc5320191369de4189fb3193724707796024d3e20c720ed08decc3432420"),
        8192: ("Rank Universal ApproximateEntropy LinearComplexity",
              "87d79db91350d0ff4bba93b9fa8fc4ddfaf3db3fa2fd4abe8a793b47f75bedab"),
        32767: ("Rank Universal ApproximateEntropy LinearComplexity",
              "acaa767448de4406e7cdeb4d8dbbcc5be31944187a73fcbe9dda6e68f9671348"),
        32768: ("Rank Universal ApproximateEntropy LinearComplexity",
              "c3ead79a26330706a81c6edab8d08e319f8a48a562edeec78940bc109b8ed372"),
        262143: ("Universal ApproximateEntropy",
              "016e523c37cd770140445333796e29beb824f68080b318f1a80cb717ed30e2ec"),
        262144: ("Universal ApproximateEntropy",
              "5cf54f0c6d4a472d28de3708b243187d19a85966a523be3fb8ac45140a24c927"),
    },
    (3, 3): {
        8191: ("Rank Universal LinearComplexity",
              "d3b4b57e3ab79a121bdffd8f80c71708e9dc51fac3cf9f8c4fb99fa0c9bd37a5"),
        8192: ("Rank Universal LinearComplexity",
              "f898a8ba3fbd5fe2bc61013fca82e1bc4c98039018810629b5875c749b4670d8"),
        32767: ("Rank Universal LinearComplexity",
              "b1deda7b9016644631fc2b1340a007c3dce21223db4a1c2a9ce11da85ace9afe"),
        32768: ("Rank Universal LinearComplexity",
              "783a6ef24dd881fc8f4ccf593bce0846e7d10e76dc720896902165cdef5e6274"),
        262143: ("Universal",
              "08d2fd80c7a8bce30a88f985b021936cd6a98fc05fee5105983b28e2a30a5d1c"),
        262144: ("Universal",
              "3f17e7c5b4ffd89eb40683704f88578c38f8cb48c4981543fd4d00a2459d4056"),
    },
    (12, 12): {
        8191: ("Rank Universal ApproximateEntropy Serial1 Serial2 LinearComplexity",
              "461577ceee92dfb11d662de19f53a5484637fcead08b94b02f670c4aa1562dea"),
        8192: ("Rank Universal ApproximateEntropy Serial1 Serial2 LinearComplexity",
              "e7fd5b84d66a75f2783ed76934074b458d2bb15257bb0961eb721c8e36eee85c"),
        32767: ("Rank Universal ApproximateEntropy LinearComplexity",
              "42470e062fa8c689abcc23caab3a1165d82ffa0b6dd5527ef4dab141855b9d86"),
        32768: ("Rank Universal ApproximateEntropy LinearComplexity",
              "d9f7e59036b6bede9be2de77396ceb521ead6513f9122998d0ba93e3dd1c2092"),
        262143: ("Universal",
              "a194db12c991fb6e004d408a71660c7cc18a3b5e08b94ea6b306ac4952991165"),
        262144: ("Universal",
              "9dcd605c2e5b18582b090d72b755be82ea9220cf2e112843c349bdaf55ffb1b6"),
    },
}


@pytest.mark.parametrize("apen_len, serial_len, n", [
    (apen_len, serial_len, n) for (apen_len, serial_len), cases in BLOCK_LENGTH_PINS.items() for n in cases
])
def test_exact_pvalues_under_each_block_length_setting_are_pinned(apen_len, serial_len, n):
    overrides = {} if (apen_len, serial_len) == (10, 16) else {
        "approximate_entropy_block_len": apen_len, "serial_block_len": serial_len}
    bits = random_bits(20261019, 1 << 18)[:n]
    entries = run_battery(bits, run_len=n, **overrides).entries
    not_applicable = " ".join(e.test_id.value for e in entries if not e.applicable)
    digest = hashlib.sha256(np.array([e.p_value for e in entries], dtype="<f8").tobytes()).hexdigest()
    assert (not_applicable, digest) == BLOCK_LENGTH_PINS[apen_len, serial_len][n]


@pytest.mark.parametrize("apen_len, serial_len", BLOCK_LENGTH_PINS)
@pytest.mark.parametrize("run_len", [(1 << 13) - 1, 1 << 13, 1 << 15, 1 << 18])
def test_battery_counts_patterns_at_most_once_per_run(monkeypatch, apen_len, serial_len, run_len):
    """ApEn and Serial share one overlapping-pattern count per run, and its
    table of 2^m counts is at most a quarter of the run."""
    widths = []

    def counting(x, m):
        widths.append(m)
        return _overlapping_counts(x, m)

    monkeypatch.setattr(suite, "_overlapping_counts", counting)
    run_battery(random_bits(97, 3 * run_len), run_len=run_len,
                approximate_entropy_block_len=apen_len, serial_block_len=serial_len)
    assert len(widths) <= 3
    assert all(4 << m <= run_len for m in widths)


def test_battery_counts_patterns_after_the_spectral_test(monkeypatch):
    """The shared pattern count is made when ApEn first asks for it, so its
    table is not held beside the spectral test's sub-spectra."""
    calls = []
    monkeypatch.setattr(suite, "_overlapping_counts", lambda x, m: calls.append("count") or _overlapping_counts(x, m))
    monkeypatch.setattr(suite, "dft_test", lambda x: calls.append("dft") or dft_test(x))
    run_battery(random_bits(97, 2 << 15), run_len=1 << 15)
    assert calls == ["dft", "count", "dft", "count"]


def test_battery_stays_within_its_memory_budget():
    """The traced-allocation peak of one million-bit run (2.7e6): the
    spectral test's one residue of n / 8 complex values and a chunk of
    columns.  The chunked kernels hold no 8-byte value per bit; whole-run
    ones peaked at 10.7e6 in the pattern count, LongestRuns' padded
    blocks and the cumulative-sums walk."""
    assert traced_peak(run_battery, random_bits(89, 1_000_000)) <= 4.5e6


def test_spectral_test_stays_within_its_memory_budget():
    """The traced-allocation peak of one million-bit run (2.7e6): one
    residue's n / 8 complex values (2 MB), its grid's twiddles and a chunk
    of folded columns; the eight half-length sub-spectra took 10.0e6."""
    assert traced_peak(dft_test, random_bits(89, 1_000_000)) <= 4e6


def test_spectral_test_raises_the_peak_rss_little():
    # pocketfft's C++ scratch is not traced: the whole-length rfft raised
    # the peak RSS by 31 MB, eight sub-transforms by 12.5, one length-n / 8
    # transform in place by 7; the grid's rows raise it by 4.7 MB.
    setup = (
        "import numpy as np\nfrom tickrng.suite import dft_test\n"
        "bits = np.random.Generator(np.random.PCG64(89)).integers(0, 2, size=1_000_000, dtype=np.uint8)\n"
    )
    assert rss_rise_mb(setup, "dft_test(bits)") <= 8


def test_battery_records_parameters():
    bits = random_bits(79, 200_000)
    report = run_battery(bits, run_len=100_000, serial_block_len=10)
    expected = dict(DEFAULT_PARAMETERS)
    expected["serial_block_len"] = 10
    assert report.parameters == expected


def test_battery_sorted_entries_order():
    bits = random_bits(83, 200_000)
    report = run_battery(bits, run_len=100_000)
    keys = [(e.test_id.index, e.run_index) for e in report.sorted_entries()]
    assert keys == sorted(keys)


def test_battery_takes_a_files_runs_from_an_iterator():
    """Runs and then the shorter rest, as ``formats.read_bit_runs`` yields
    them, give the report of the whole array."""
    bits = random_bits(83, 250_000)
    runs = iter([bits[:100_000], bits[100_000:200_000], bits[200_000:]])
    assert run_battery(runs, run_len=100_000).entries == run_battery(bits, run_len=100_000).entries
    with pytest.raises(ValueError, match="^a run of 100001 bits is longer than run_len 100000$"):
        run_battery(iter([bits[:100_001]]), run_len=100_000)
    with pytest.raises(InsufficientDataError, match="^battery needs at least one run of 100000 bits, got 99999$"):
        run_battery(iter([bits[:99_999]]), run_len=100_000)


def test_battery_validation():
    bits = np.ones(100, dtype=np.uint8)
    with pytest.raises(ValueError):
        run_battery(bits, alpha=0.0)
    with pytest.raises(ValueError):
        run_battery(bits, alpha=1.0)
    with pytest.raises(ValueError):
        run_battery(bits, run_len=0)
    with pytest.raises(ValueError):
        run_battery(bits, run_len=100, serial_window=4)
    with pytest.raises(InsufficientDataError):
        run_battery(bits, run_len=101)
