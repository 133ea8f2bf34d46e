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

from conftest import reference_cusum_excursion, reference_universal_pvalue, traced_peak
from tickrng.errors import InsufficientDataError
from tickrng.extract import BitStream, extract_mod2, flip_debias
from tickrng.formats import write_report
from tickrng.lfsr import lfsr_complexities, lfsr_complexity, lfsr_complexity_int
from tickrng.models import Distribution, SourceModel
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


def test_dft_matches_direct_transform():
    n = 1000
    bits = random_bits(19, n)
    signal = 2.0 * bits - 1.0
    grid = np.exp(-2j * np.pi * np.outer(np.arange(n // 2), np.arange(n)) / n)
    mags = np.abs(grid @ signal)
    below = int(np.count_nonzero(mags < math.sqrt(math.log(20.0) * n)))
    d = (below - 0.95 * n / 2) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    assert dft_test(bits) == pytest.approx(math.erfc(abs(d) / math.sqrt(2.0)), abs=1e-9)


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


def test_lfsr_complexity_hand_examples():
    assert lfsr_complexity([0, 0, 1]) == 3
    assert lfsr_complexity([0] * 16) == 0
    assert lfsr_complexity([0, 1] * 5) == 2
    assert lfsr_complexity([1]) == 1
    assert lfsr_complexity(BitStream([0, 1, 1])) == lfsr_complexity([0, 1, 1]) == 2


def test_lfsr_complexity_rejects_a_negative_sequence_integer():
    with pytest.raises(ValueError, match="sequence integer must be non-negative"):
        lfsr_complexity_int(-1, 3)


def test_lfsr_complexity_matches_textbook_synthesis():
    rng = np.random.default_rng(41)
    for length in (1, 2, 3, 7, 16, 33, 64):
        for _ in range(20):
            bits = rng.integers(0, 2, size=length).tolist()
            assert lfsr_complexity(bits) == naive_berlekamp_massey(bits)
    for _ in range(6):
        bits = rng.integers(0, 2, size=500).tolist()
        assert lfsr_complexity(bits) == naive_berlekamp_massey(bits)


def integer_oracle_complexities(blocks: np.ndarray) -> list[int]:
    out = []
    for block in blocks:
        packed = np.packbits(block, bitorder="little")
        out.append(lfsr_complexity_int(int.from_bytes(packed.tobytes(), "little"), block.size))
    return out


@pytest.mark.parametrize("kind", ADVERSARIAL)
@pytest.mark.parametrize(
    "block_len, nblocks",
    [(500, 200), (500, 2001), (499, 200), (17, 65), (1, 70), (2, 63), (64, 1)],
)
def test_lockstep_complexities_match_the_integer_oracle(kind, block_len, nblocks):
    blocks = adversarial_bits(kind, block_len * nblocks, seed=block_len).reshape(nblocks, block_len)
    assert lfsr_complexities(blocks).tolist() == integer_oracle_complexities(blocks)


@pytest.mark.parametrize("block_len", [1, 2, 499, 500])
def test_lockstep_complexities_of_impulse_blocks(block_len):
    """Block j's only 1 sits at position block_len - 1 - j, so its complexity
    jumps from 0 to block_len - j at that step while the blocks still
    waiting stay at 0; the step's row bound must reach the new length."""
    nblocks = 130
    blocks = np.zeros((nblocks, block_len), dtype=np.uint8)
    j = np.arange(min(nblocks, block_len))
    blocks[j, block_len - 1 - j] = 1
    assert lfsr_complexities(blocks).tolist() == integer_oracle_complexities(blocks)


def test_linear_complexity_matches_independent_binning():
    m = 500
    bits = random_bits(43, 200 * m)
    mu = m / 2 + (9 + (-1) ** (m + 1)) / 36 - (m / 3 + 2 / 9) / 2**m
    counts = [0] * 7
    for i in range(200):
        block = bits[i * m : (i + 1) * m]
        t = (-1) ** m * (lfsr_complexity(block) - mu) + 2 / 9
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
    for _ in range(30):
        bits = rng.integers(0, 2, size=100, dtype=np.uint8)
        assert abs(lfsr_complexity(bits) - lfsr_complexity(1 - bits)) <= 1


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
    assert not report.all_passed


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
        assert math.isnan(entry.p_value)
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
    # Each not-applicable entry holds its own NaN p-value.
    a, b = (run_battery(bits[:2000], run_len=2000) for _ in range(2))
    assert sum(not e.applicable for e in a.entries) == 6
    assert all(math.isnan(e.p_value) for e in a.entries if not e.applicable)
    assert a.entries == b.entries
    assert list(map(hash, a.entries)) == list(map(hash, b.entries))


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


def test_battery_stays_within_its_memory_budget():
    """The traced-allocation peak of one million-bit run: the spectral test's
    float arrays, not one int64 walk per cumulative-sums direction."""
    assert traced_peak(run_battery, random_bits(89, 1_000_000)) <= 21e6


def test_spectral_test_stays_within_its_memory_budget():
    """The traced-allocation peak of one million-bit run: the float64 signal
    and its spectrum, with no third array alive beside them."""
    assert traced_peak(dft_test, random_bits(89, 1_000_000)) <= 17.5e6


def test_battery_records_parameters():
    bits = random_bits(79, 200_000)
    report = run_battery(bits, run_len=100_000, serial_block_len=10)
    expected = dict(DEFAULT_PARAMETERS)
    expected["serial_block_len"] = 10
    assert report.parameters == expected


def test_battery_sorted_entries_order():
    bits = random_bits(83, 200_000)
    report = run_battery(bits, run_len=100_000)
    keys = [(e.test_index, e.run_index) for e in report.sorted_entries()]
    assert keys == sorted(keys)


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
