"""Bit extraction: hand-worked interval examples plus distributional checks."""

import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import binomial_sigma, geometric_gof_pvalue, reference_mod2, reference_mod4
from tickrng.errors import DataError, GuardError
from tickrng.extract import (
    BalanceResult,
    BitStream,
    ExtractorConfig,
    SymbolPair,
    balance,
    bit_array,
    bootstrap_buffer,
    extract_mod2,
    extract_mod4,
    flip_debias,
    intervals,
    mod4_arrays,
    symbol_from_interval,
)
from tickrng.lfsr import lfsr_complexities, lfsr_complexity
from tickrng.models import Distribution, SourceModel
from tickrng.sim import (
    ClockConfig,
    ClockMode,
    EventStream,
    IntraGateProfile,
    generate_free_running,
    generate_gated,
)
from tickrng.suite import frequency_test

FREE = ClockConfig(mode=ClockMode.FREE_RUNNING)


def stream_of(*slots) -> EventStream:
    return EventStream(np.array(slots, dtype=np.uint64), FREE)


def test_intervals_count_from_tick_zero_by_default():
    assert intervals(stream_of(3, 5, 10)).tolist() == [3, 2, 5]


def test_intervals_can_drop_the_opening_interval():
    assert intervals(stream_of(3, 5, 10), include_first=False).tolist() == [2, 5]
    assert intervals(stream_of(7), include_first=False).tolist() == []


@pytest.mark.parametrize("include_first", [True, False])
@pytest.mark.parametrize("slots", [(), (262,)], ids=["empty", "one-slot"])
def test_first_interval_rule_on_empty_and_one_slot_streams(slots, include_first):
    """Only a first interval counted from tick 0 can come out of these streams:
    slot 262 is 6 modulo 256 and 2 modulo 4."""
    stream = stream_of(*slots)
    cfg = ExtractorConfig(include_first=include_first)
    first = list(slots) if include_first else []
    gaps = intervals(stream, include_first)
    assert (gaps.dtype, gaps.tolist()) == (np.uint64, first)
    bits = extract_mod2(stream, cfg).bits
    assert (bits.dtype, bits.tolist()) == (np.uint8, [0] * len(first))
    basis, key = mod4_arrays(stream, cfg)
    assert (basis.dtype, basis.tolist()) == (np.uint8, [1] * len(first))
    assert (key.dtype, key.tolist()) == (np.uint8, [0] * len(first))


def test_mod2_hand_examples():
    assert extract_mod2(stream_of(3, 5, 10)) == BitStream.from_bits([1, 0, 1])
    assert extract_mod2(stream_of(2, 4, 6, 8)) == BitStream.from_bits([0, 0, 0, 0])


def test_mod4_symbol_hand_examples():
    assert symbol_from_interval(6) == SymbolPair(1, 0)
    assert symbol_from_interval(4) == SymbolPair(0, 0)
    assert extract_mod4(stream_of(1, 2, 9)) == [
        SymbolPair(0, 1),
        SymbolPair(0, 1),
        SymbolPair(1, 1),
    ]


# Slot streams whose intervals straddle the low byte: gaps of 255, 256 and
# 257, gaps of 2**32 and beyond, slots near 2**64 - 1, one event, none.
ADVERSARIAL_SLOTS = {
    "gaps-255-256-257": np.cumsum(np.tile(np.array([255, 256, 257], dtype=np.uint64), 40)),
    "gaps-2**32": np.cumsum(np.array([2**32, 2**32 + 1, 3, 2**32 - 1, 2**32 + 255, 256], dtype=np.uint64)),
    "near-2**64": np.array([2**64 - 2**33, 2**64 - 513, 2**64 - 257, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
    "one-event": np.array([1], dtype=np.uint64),
    "one-event-at-2**64-1": np.array([2**64 - 1], dtype=np.uint64),
    "no-events": np.empty(0, dtype=np.uint64),
}


def random_slots(seed: int) -> np.ndarray:
    """Increasing slots whose gaps mix small counts with counts up to 2**40."""
    draw = np.random.default_rng(seed)
    gaps = draw.geometric(0.3, size=5000).astype(np.uint64)
    wide = draw.random(5000) < 0.1
    gaps[wide] = draw.integers(1, 2**40, size=int(wide.sum()), dtype=np.uint64)
    return np.cumsum(gaps, dtype=np.uint64)


@pytest.mark.parametrize("include_first", [True, False])
@pytest.mark.parametrize("case", [*sorted(ADVERSARIAL_SLOTS), 0, 1, 2])
def test_low_byte_extraction_matches_the_uint64_reference(case, include_first):
    slots = random_slots(case) if isinstance(case, int) else ADVERSARIAL_SLOTS[case]
    stream = EventStream(slots, FREE)
    cfg = ExtractorConfig(include_first=include_first)
    mod2 = extract_mod2(stream, cfg).bits
    basis, key = mod4_arrays(stream, cfg)
    ref_basis, ref_key = reference_mod4(stream, include_first)
    assert mod2.dtype == basis.dtype == key.dtype == np.uint8
    assert np.array_equal(mod2, reference_mod2(stream, include_first))
    assert np.array_equal(basis, ref_basis) and np.array_equal(key, ref_key)
    assert extract_mod4(stream, cfg) == list(map(SymbolPair, ref_basis.tolist(), ref_key.tolist()))


def test_symbol_from_interval_rejects_bad_input():
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError):
            symbol_from_interval(bad)


def test_mod4_key_bit_equals_mod2_bit():
    source = SourceModel(Distribution.THERMAL, 0.7)
    stream = generate_free_running(source, FREE, 20_000, seed=61)
    key_bits = BitStream.from_bits(pair.key_bit for pair in extract_mod4(stream))
    assert key_bits == extract_mod2(stream)


def test_extraction_is_consistent_across_a_stream_split():
    """Extracting a suffix relative to the previous detection matches the full run."""
    source = SourceModel(Distribution.POISSON, 0.4)
    stream = generate_free_running(source, FREE, 1000, seed=67)
    full = extract_mod2(stream)
    head = EventStream(stream.slots[:400], FREE)
    tail = EventStream(stream.slots[399:], FREE)  # boundary event restarts the counter
    cfg = ExtractorConfig(include_first=False)
    stitched = np.concatenate([extract_mod2(head).bits, extract_mod2(tail, cfg).bits])
    assert BitStream(stitched) == full


def test_ones_fraction_tracks_the_odd_interval_probability():
    source = SourceModel(Distribution.POISSON, math.log(3.0))  # P(odd) = 0.75
    stream = generate_free_running(source, FREE, 1_000_000, seed=71)
    bits = extract_mod2(stream)
    fraction = bits.ones() / len(bits)
    assert abs(fraction - 0.75) < 3 * binomial_sigma(0.75, len(bits))


def test_flip_debias_hand_examples():
    assert flip_debias(BitStream.from_bits([0, 0, 0, 0])) == BitStream.from_bits([0, 1, 0, 1])
    assert flip_debias(BitStream.from_bits([1, 0, 1, 0])) == BitStream.from_bits([1, 1, 1, 1])


def test_flip_debias_is_an_involution():
    rng = np.random.default_rng(73)
    bits = BitStream(rng.integers(0, 2, size=10_001, dtype=np.uint8))
    assert flip_debias(flip_debias(bits)) == bits


def test_flip_debias_centres_a_biased_bernoulli_stream():
    rng = np.random.default_rng(79)
    n = 1_000_000
    raw = BitStream((rng.random(n) < 0.5019).astype(np.uint8))
    debiased = flip_debias(raw)
    fraction = debiased.ones() / n
    assert abs(fraction - 0.5) < 3 * binomial_sigma(0.5, n)


def test_balance_hand_examples():
    assert balance(BitStream.from_bits([0, 1, 0, 1])) == BalanceResult(1.0, False)
    result = balance(BitStream.from_bits([0, 0, 0, 1]))
    assert result.ratio == pytest.approx(1 / 3)
    assert not result.degenerate


def test_balance_degenerate_cases():
    assert balance(BitStream.from_bits([0, 0, 0])) == BalanceResult(0.0, True)
    assert balance(BitStream.from_bits([1])) == BalanceResult(0.0, True)
    assert balance(BitStream.from_bits([])) == BalanceResult(0.0, True)


def test_weak_source_balance_and_debias():
    """At 0.0075 clicks per slot the raw balance sits near 1 - p; debiasing finishes the job."""
    p = 0.0075
    source = SourceModel(Distribution.POISSON, -math.log1p(-p))
    stream = generate_free_running(source, FREE, 1_000_000, seed=16)
    raw = extract_mod2(stream)
    assert balance(raw).ratio == pytest.approx(1.0 - p, abs=0.002)
    assert balance(flip_debias(raw)).ratio >= 0.999


def test_gated_mod2_bits_are_fair():
    source = SourceModel(Distribution.POISSON, 0.35)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    stream = generate_gated(source, clock, IntraGateProfile.uniform(), 1_000_000, seed=83)
    bits = extract_mod2(stream)
    fraction = bits.ones() / len(bits)
    assert abs(fraction - 0.5) < 3 * binomial_sigma(0.5, len(bits))


def test_gated_mod4_symbols_are_uniform():
    source = SourceModel(Distribution.POISSON, 0.35)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=4)
    stream = generate_gated(source, clock, IntraGateProfile.uniform(), 1_000_000, seed=89)
    gaps = intervals(stream)
    values = (gaps % np.uint64(4)).astype(np.int64)
    counts = [int(np.count_nonzero(values == v)) for v in range(4)]
    assert chisquare(counts).pvalue > 0.001


def test_bootstrap_length_and_edge_cases():
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dark_prob=0.1)
    assert len(bootstrap_buffer(clock, 0, seed=1)) == 0
    assert len(bootstrap_buffer(clock, 5, seed=1)) == 5
    with pytest.raises(ValueError):
        bootstrap_buffer(clock, -1, seed=1)
    with pytest.raises(GuardError):
        bootstrap_buffer(ClockConfig(mode=ClockMode.FREE_RUNNING), 5, seed=1)


def test_bootstrap_matches_a_dark_only_stream():
    """The buffer equals mod-2 extraction of dark counts with the light blocked."""
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dark_prob=0.01, dead_slots=2)
    buffer = bootstrap_buffer(clock, 100_000, seed=97)
    blocked = SourceModel(Distribution.POISSON, 0.0, 0.0)
    dark_stream = generate_free_running(blocked, clock, 100_000, seed=97)
    assert buffer == extract_mod2(dark_stream)
    gaps = np.diff(dark_stream.slots) - 2  # dead time shifts every gap
    assert geometric_gof_pvalue(gaps, 0.01, max_n=50) > 0.001


@pytest.mark.parametrize("dark, dead, seed, expected", [
    (0.01, 0, 431, "eb22ae37d3fb7baad7a31df844ba29bee521079eb81d2e6e50b2b6267ee46f93"),
    (0.2, 3, 433, "d5e6065099787ce0542bd94d2daf1fd698151b92c2bd14f4b02e7c3c26bcf447"),
])
def test_bootstrap_bits_are_pinned(dark, dead, seed, expected):
    """SHA-256 of 5000 bootstrap bits, one byte per bit."""
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dark_prob=dark, dead_slots=dead)
    bits = bootstrap_buffer(clock, 5000, seed=seed).bits
    assert hashlib.sha256(bits.tobytes()).hexdigest() == expected


def test_bootstrap_is_deterministic():
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dark_prob=0.05)
    assert bootstrap_buffer(clock, 1000, seed=5) == bootstrap_buffer(clock, 1000, seed=5)
    assert bootstrap_buffer(clock, 1000, seed=5) != bootstrap_buffer(clock, 1000, seed=6)


def test_bitstream_validation_and_helpers():
    with pytest.raises(DataError):
        BitStream(np.array([[0, 1]], dtype=np.uint8))
    with pytest.raises(DataError):
        BitStream(np.array([0, 2], dtype=np.uint8))
    with pytest.raises(DataError):
        BitStream(np.array([-1, 0], dtype=np.int64))
    bits = BitStream.from_bits([1, 0, 1, 1])
    assert len(bits) == 4
    assert bits.ones() == 3
    assert bits.zeros() == 1
    assert bits == BitStream(np.array([1, 0, 1, 1], dtype=np.int64))
    assert bits != BitStream.from_bits([1, 0, 1, 0])
    assert (bits == object()) is False or (bits == object()) is NotImplemented


def test_bitstream_is_read_only():
    bits = BitStream.from_bits([1, 0, 1])
    with pytest.raises(ValueError):
        bits.bits[0] = 0


def test_bit_array_passes_uint8_and_bool_without_a_copy():
    raw = np.array([0, 1, 1], dtype=np.uint8)
    assert bit_array(raw) is raw
    flags = np.array([False, True])
    assert bit_array(flags).dtype == np.uint8
    assert np.shares_memory(bit_array(flags), flags)
    assert bit_array([0.0, 1.0, 1]).tolist() == [0, 1, 1]


@pytest.mark.parametrize("bad", [0.5, 1.5, 2, -1])
@pytest.mark.parametrize(
    "consumer",
    [
        BitStream,
        BitStream.from_bits,
        frequency_test,
        lfsr_complexity,
        lambda values: lfsr_complexities(np.array(values).reshape(2, -1)),
    ],
    ids=["BitStream", "from_bits", "frequency_test", "lfsr_complexity", "lfsr_complexities"],
)
def test_every_bit_consumer_rejects_a_non_bit(consumer, bad):
    values = [0, 1] * 100
    values[101] = bad
    with pytest.raises(DataError, match="bit values must be 0 or 1"):
        consumer(values)
