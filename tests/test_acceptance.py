"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each criterion appears as its own test so ``pytest -v`` prints one
pass/fail line per criterion.  Statistical criteria run on fixed seeds
that were drawn once and checked against the stated bound — the bounds
themselves (3 sigma, chi-square floors) are never widened to fit a seed.
"""

import math
import time

import numpy as np
import pytest

from conftest import balance_ratio, binomial_sigma, geometric_gof_pvalue
from tickrng.extract import (
    BitStream,
    EventStream,
    balance,
    extract_mod2,
    flip_debias,
    mod4_arrays,
)
from tickrng.formats import read_bits, write_bits
from tickrng.lfsr import lfsr_complexities
from tickrng.models import Distribution, SourceModel, parity_probabilities
from tickrng.qkd import ProtocolParams, eve_qnd_advantage, run_bbm92
from tickrng.sim import (
    ClockConfig,
    ClockMode,
    IntraGateProfile,
    generate_free_running,
    generate_gated,
)
from tickrng.suite import TestId, frequency_test, run_battery, runs_test

FREE = ClockConfig(mode=ClockMode.FREE_RUNNING)
GATED_2 = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)


def odd_fraction(stream) -> tuple[float, int]:
    parities = extract_mod2(stream)
    return parities.ones() / len(parities), len(parities)


def test_criterion_01_poisson_parity_split():
    """Free-running Poisson source at mu*eta = 0.5: the odd fraction of
    10^6 intervals sits within 3 sigma of the closed form, in under 10 s."""
    start = time.monotonic()
    source = SourceModel(Distribution.POISSON, 0.5)
    stream = generate_free_running(source, FREE, 1_000_000, seed=401)
    fraction, n = odd_fraction(stream)
    target = parity_probabilities(source).p_odd
    assert target == pytest.approx(0.62246, abs=5e-6)
    assert abs(fraction - target) < 3 * binomial_sigma(target, n)
    assert time.monotonic() - start < 10.0


def test_criterion_02_thermal_parity_split():
    """Free-running thermal source at mu*eta = 0.5: the even fraction of
    10^6 intervals sits within 3 sigma of 0.4, in under 10 s."""
    start = time.monotonic()
    source = SourceModel(Distribution.THERMAL, 0.5)
    stream = generate_free_running(source, FREE, 1_000_000, seed=402)
    fraction, n = odd_fraction(stream)
    even_fraction = 1.0 - fraction
    assert parity_probabilities(source).p_even == pytest.approx(0.4)
    assert abs(even_fraction - 0.4) < 3 * binomial_sigma(0.4, n)
    assert time.monotonic() - start < 10.0


def test_criterion_03_interval_histogram_is_geometric():
    """10^6 free-running intervals match the geometric window pmf over
    lengths up to 50 (chi-square p > 0.001)."""
    source = SourceModel(Distribution.POISSON, 0.5)
    stream = generate_free_running(source, FREE, 1_000_000, seed=412)
    gaps = np.diff(stream.slots, prepend=np.uint64(0))
    p_click = 1.0 - math.exp(-0.5)
    assert geometric_gof_pvalue(gaps, p_click, max_n=50) > 0.001


def test_criterion_04_weak_source_balance_and_debias():
    """At 0.0075 clicks/slot the raw bit balance is 0.9925 +/- 0.002 over
    10^6 bits, and flip debiasing lifts it to at least 0.999."""
    p_slot = 0.0075
    source = SourceModel(Distribution.POISSON, -math.log1p(-p_slot))
    stream = generate_free_running(source, FREE, 1_000_000, seed=16)
    raw = extract_mod2(stream)
    assert len(raw) == 1_000_000
    assert balance(raw) == pytest.approx(balance_ratio(p_slot), abs=0.002)
    assert balance(flip_debias(raw)) >= 0.999


def test_criterion_05_battery_on_debiased_gated_bits():
    """Two million debiased bits from a gated two-slot clock: the full
    battery (2 runs x 13 procedures) passes at least 25 of 26 p-values,
    in under five minutes."""
    start = time.monotonic()
    source = SourceModel(Distribution.POISSON, 0.5)
    stream = generate_gated(source, GATED_2, IntraGateProfile.uniform(), 2_000_000, seed=102)
    bits = flip_debias(extract_mod2(stream))
    report = run_battery(BitStream(bits.bits[:2_000_000]), alpha=0.01, run_len=1_000_000)
    assert len(report.entries) == 26
    assert all(e.applicable for e in report.entries)
    passed = sum(1 for e in report.entries if e.p_value >= 0.01)
    assert passed >= 25
    assert time.monotonic() - start < 300.0


def test_criterion_06_degenerate_input_is_flagged():
    """An all-zeros megabit must fail Frequency and CusumForward, and
    Runs must fail or report not-applicable."""
    zeros = np.zeros(1_000_000, dtype=np.uint8)
    report = run_battery(zeros)
    by_id = {e.test_id: e for e in report.entries}
    freq = by_id[TestId.FREQUENCY]
    assert freq.applicable and not freq.passed
    cusum = by_id[TestId.CUSUM_FORWARD]
    assert cusum.applicable and not cusum.passed
    runs = by_id[TestId.RUNS]
    assert (not runs.applicable) or (not runs.passed)


def test_criterion_07_gating_removes_the_parity_bias():
    """A two-slot gate with the uniform profile pulls the odd fraction to
    1/2 within 3 sigma — strictly tighter than the one-slot bias 0.1225."""
    source = SourceModel(Distribution.POISSON, 0.5)
    stream = generate_gated(source, GATED_2, IntraGateProfile.uniform(), 1_000_000, seed=422)
    fraction, n = odd_fraction(stream)
    single_slot_bias = parity_probabilities(source).p_odd - 0.5
    assert single_slot_bias == pytest.approx(0.1225, abs=5e-5)
    assert abs(fraction - 0.5) < 3 * binomial_sigma(0.5, n)
    assert abs(fraction - 0.5) < single_slot_bias


def test_criterion_08_timing_adversary_advantage():
    """Gate-resolution Eve: reads every bit at one slot per gate, gains
    nothing against the uniform two-slot profile, and defeats a fixed slot."""

    def advantage(r: int, profile) -> float:
        params = ProtocolParams(
            pair_source=SourceModel(Distribution.POISSON, 0.5),
            clock_alice=GATED_2,
            clock_bob=ClockConfig(mode=ClockMode.GATED, slots_per_gate=r),
            profile=profile,
            n_gates=1,
            seed=241,
        )
        return eve_qnd_advantage(params, 100_000)

    assert advantage(1, IntraGateProfile.uniform()) == 0.5
    assert abs(advantage(2, IntraGateProfile.uniform())) < 3 * 0.5 / math.sqrt(100_000)
    assert advantage(2, IntraGateProfile.fixed_slot(1)) == 0.5


def test_criterion_09_protocol_qber_and_sifting():
    """BBM92 at intrinsic error 0.05: QBER within binomial 3 sigma on at
    least 10^4 sifted bits, and the sift fraction within 3 sigma of 1/2."""
    params = ProtocolParams(
        pair_source=SourceModel(Distribution.POISSON, 0.5),
        clock_alice=GATED_2,
        clock_bob=GATED_2,
        profile=IntraGateProfile.uniform(),
        n_gates=500_000,
        seed=211,
        intrinsic_error=0.05,
    )
    result = run_bbm92(params)
    assert result.sifted_length >= 10_000
    assert abs(result.qber - 0.05) < 3 * binomial_sigma(0.05, result.sifted_length)
    assert abs(result.sift_fraction - 0.5) < 3 * binomial_sigma(0.5, result.coincidences)


def test_criterion_10_hand_worked_examples_digest(tmp_path):
    """Cross-module digest of the hand-computed examples; the exhaustive
    property suites live in the per-module test files."""
    # closed-form bias: odds of an odd interval at mu*eta = ln 3 are 3:1
    bias = parity_probabilities(SourceModel(Distribution.POISSON, math.log(3.0)))
    assert (bias.p_even, bias.p_odd) == (pytest.approx(0.25), pytest.approx(0.75))
    # interval parity bookkeeping
    for slots, counts in (([2, 4, 6], (3, 0)), ([1, 2, 4, 7], (1, 3))):
        parities = extract_mod2(EventStream(np.array(slots, dtype=np.uint64)))
        assert (parities.zeros(), parities.ones()) == counts
    # extraction on the worked interval list
    stream = EventStream(np.array([3, 5, 10], dtype=np.uint64))
    assert extract_mod2(stream) == BitStream([1, 0, 1])
    basis, key = mod4_arrays(EventStream(np.array([6], dtype=np.uint64)))
    assert (basis.tolist(), key.tolist()) == ([1], [0])
    basis, key = mod4_arrays(EventStream(np.array([1, 2, 9], dtype=np.uint64)))
    assert (basis.tolist(), key.tolist()) == ([0, 0, 1], [1, 1, 1])
    assert flip_debias(BitStream([0, 0, 0, 0])) == BitStream([0, 1, 0, 1])
    assert balance(BitStream([0, 0, 0, 1])) == pytest.approx(1 / 3)
    # battery hand values
    assert frequency_test([1, 1, 0, 1], min_n=1) == pytest.approx(0.31731, abs=1e-5)
    assert runs_test([0, 1, 0, 1], min_n=2) == pytest.approx(0.0455, abs=1e-4)
    assert lfsr_complexities([[0, 0, 1]]).tolist() == [3]
    # serialized bit format golden bytes
    path = tmp_path / "bits.bin"
    write_bits(BitStream([1, 0, 1]), path, fmt="packed")
    assert path.read_bytes() == b"\x03" + b"\x00" * 7 + b"\xa0"
    ascii_path = tmp_path / "bits.txt"
    ascii_path.write_text("10 1\n")
    assert read_bits(ascii_path) == BitStream([1, 0, 1])


def test_full_scale_battery_campaign(full_scale):
    """20 disjoint megabit runs (260 p-values) from the gated pipeline;
    run with ``--full-scale``."""
    if not full_scale:
        pytest.skip("requires --full-scale")
    source = SourceModel(Distribution.POISSON, 0.5)
    stream = generate_gated(source, GATED_2, IntraGateProfile.uniform(), 20_000_000, seed=515)
    bits = flip_debias(extract_mod2(stream))
    report = run_battery(bits, alpha=0.01, run_len=1_000_000)
    assert len(report.entries) == 260
    assert all(e.applicable for e in report.entries)
    passed = sum(1 for e in report.entries if e.passed)
    assert passed >= 250
