"""Bit extraction: hand-worked interval examples plus distributional checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from conftest import (
    binomial_sigma,
    reference_intervals,
    reference_mod2,
    reference_mod4,
)
from tickrng import extract
from tickrng.errors import DataError
from tickrng.extract import (
    BitStream,
    EventStream,
    ExtractorConfig,
    balance,
    bit_array,
    check_blocks,
    check_slots,
    extract_mod2,
    flip_debias,
    interval_bytes,
    mod4_arrays,
)
from tickrng.lfsr import lfsr_complexities
from tickrng.models import Distribution, SourceModel
from tickrng.sim import (
    ClockConfig,
    ClockMode,
    IntraGateProfile,
    generate_free_running,
    generate_gated,
)
from tickrng.suite import frequency_test

FREE = ClockConfig(mode=ClockMode.FREE_RUNNING)


def stream_of(*slots) -> EventStream:
    return EventStream(np.array(slots, dtype=np.uint64))


def test_intervals_count_from_tick_zero_by_default():
    assert reference_intervals(stream_of(3, 5, 10)).tolist() == [3, 2, 5]


def test_intervals_can_drop_the_opening_interval():
    assert reference_intervals(stream_of(3, 5, 10), include_first=False).tolist() == [2, 5]
    assert reference_intervals(stream_of(7), include_first=False).tolist() == []


@pytest.mark.parametrize("include_first", [True, False])
@pytest.mark.parametrize("slots", [(), (262,)], ids=["empty", "one-slot"])
def test_first_interval_rule_on_empty_and_one_slot_streams(slots, include_first):
    """Only a first interval counted from tick 0 can come out of these streams:
    slot 262 is 6 modulo 256 and 2 modulo 4."""
    stream = stream_of(*slots)
    cfg = ExtractorConfig(include_first=include_first)
    first = list(slots) if include_first else []
    gaps = reference_intervals(stream, include_first)
    assert (gaps.dtype, gaps.tolist()) == (np.uint64, first)
    bits = extract_mod2(stream, cfg).bits
    assert (bits.dtype, bits.tolist()) == (np.uint8, [0] * len(first))
    basis, key = mod4_arrays(stream, cfg)
    assert (basis.dtype, basis.tolist()) == (np.uint8, [1] * len(first))
    assert (key.dtype, key.tolist()) == (np.uint8, [0] * len(first))


def test_mod2_hand_examples():
    assert extract_mod2(stream_of(3, 5, 10)) == BitStream([1, 0, 1])
    assert extract_mod2(stream_of(2, 4, 6, 8)) == BitStream([0, 0, 0, 0])


def test_mod4_symbol_hand_examples():
    assert [a.tolist() for a in mod4_arrays(stream_of(6))] == [[1], [0]]
    assert [a.tolist() for a in mod4_arrays(stream_of(4))] == [[0], [0]]
    assert [a.tolist() for a in mod4_arrays(stream_of(1, 2, 9))] == [[0, 0, 1], [1, 1, 1]]


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
    stream = EventStream(slots)
    cfg = ExtractorConfig(include_first=include_first)
    mod2 = extract_mod2(stream, cfg).bits
    basis, key = mod4_arrays(stream, cfg)
    ref_basis, ref_key = reference_mod4(stream, include_first)
    assert mod2.dtype == basis.dtype == key.dtype == np.uint8
    assert np.array_equal(mod2, reference_mod2(stream, include_first))
    assert np.array_equal(basis, ref_basis) and np.array_equal(key, ref_key)


def test_mod4_key_bit_equals_mod2_bit():
    source = SourceModel(Distribution.THERMAL, 0.7)
    stream = generate_free_running(source, FREE, 20_000, seed=61)
    assert BitStream(mod4_arrays(stream)[1]) == extract_mod2(stream)


def test_extraction_is_consistent_across_a_stream_split():
    """Extracting a suffix relative to the previous detection matches the full run."""
    source = SourceModel(Distribution.POISSON, 0.4)
    stream = generate_free_running(source, FREE, 1000, seed=67)
    full = extract_mod2(stream)
    head = EventStream(stream.slots[:400])
    tail = EventStream(stream.slots[399:])  # boundary event restarts the counter
    cfg = ExtractorConfig(include_first=False)
    stitched = np.concatenate([extract_mod2(head).bits, extract_mod2(tail, cfg).bits])
    assert BitStream(stitched) == full


INTERVAL_BYTE_SLOTS = {
    "random": np.cumsum(np.random.default_rng(5).integers(1, 600, size=1000, dtype=np.uint64)),
    # Gaps of 2**32 and more, and gaps that are multiples of 256.
    "wide": np.cumsum(np.array([2**32 + 3, 256, 2**40, 1, 2**62 - 2**41, 512], dtype=np.uint64)),
    "periodic": np.arange(1, 2000, 256, dtype=np.uint64),
}


@pytest.mark.parametrize("case", sorted(INTERVAL_BYTE_SLOTS))
@pytest.mark.parametrize("block", [1, 7, 64, 10_000])
def test_interval_bytes_in_blocks_are_the_intervals_modulo_256(case, block):
    """Blocks, each passed the last slot before it, give the whole stream's
    64-bit intervals modulo 256; ``prev=None`` drops the first interval."""
    slots = INTERVAL_BYTE_SLOTS[case]
    stream = EventStream(slots)
    modulo_256 = [
        (reference_intervals(stream, first) % np.uint64(256)).astype(np.uint8) for first in (True, False)
    ]
    assert np.array_equal(interval_bytes(slots), modulo_256[0])
    assert np.array_equal(interval_bytes(slots, None), modulo_256[1])
    prev, parts = 0, []
    for start in range(0, slots.size, block):
        part = slots[start : start + block]
        parts.append(interval_bytes(part, prev))
        prev = int(part[-1])
    assert np.array_equal(np.concatenate(parts), modulo_256[0])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    slots=st.lists(st.integers(1, 2**64 - 1), max_size=100, unique=True).map(sorted),
    cuts=st.lists(st.integers(0, 100), max_size=6),
    include_first=st.booleans(),
)
def test_extraction_from_blocks_equals_extraction_from_the_stream(slots, cuts, include_first):
    """Any split into blocks, empty ones included, gives the whole stream's
    mod-2 bits and mod-4 arrays, with or without the first interval."""
    stream = EventStream(np.array(slots, dtype=np.uint64))
    blocks = np.split(stream.slots, sorted(min(c, len(slots)) for c in cuts))
    cfg = ExtractorConfig(include_first=include_first)
    assert extract_mod2(check_blocks(blocks), cfg) == extract_mod2(stream, cfg)
    for from_blocks, whole in zip(mod4_arrays(iter(blocks), cfg), mod4_arrays(stream, cfg)):
        assert from_blocks.dtype == np.uint8 and np.array_equal(from_blocks, whole)


def test_ones_fraction_tracks_the_odd_interval_probability():
    source = SourceModel(Distribution.POISSON, math.log(3.0))  # P(odd) = 0.75
    stream = generate_free_running(source, FREE, 1_000_000, seed=71)
    bits = extract_mod2(stream)
    fraction = bits.ones() / len(bits)
    assert abs(fraction - 0.75) < 3 * binomial_sigma(0.75, len(bits))


def test_flip_debias_hand_examples():
    assert flip_debias(BitStream([0, 0, 0, 0])) == BitStream([0, 1, 0, 1])
    assert flip_debias(BitStream([1, 0, 1, 0])) == BitStream([1, 1, 1, 1])


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
    assert balance(BitStream([0, 1, 0, 1])) == 1.0
    assert balance(BitStream([0, 0, 0, 1])) == pytest.approx(1 / 3)


def test_balance_degenerate_cases():
    assert balance(BitStream([0, 0, 0])) == 0.0
    assert balance(BitStream([1])) == 0.0
    assert balance(BitStream([])) == 0.0


@pytest.mark.parametrize("bits", [[0, 1, 0, 1], [0, 0, 0, 1], [1, 1, 0], [0, 0, 0], [1], []])
def test_balance_of_counts_is_the_balance_of_the_bits(bits):
    stream = BitStream(bits)
    assert balance((stream.ones(), len(stream))) == balance(stream)


def test_weak_source_balance_and_debias():
    """At 0.0075 clicks per slot the raw balance sits near 1 - p; debiasing finishes the job."""
    p = 0.0075
    source = SourceModel(Distribution.POISSON, -math.log1p(-p))
    stream = generate_free_running(source, FREE, 1_000_000, seed=16)
    raw = extract_mod2(stream)
    assert balance(raw) == pytest.approx(1.0 - p, abs=0.002)
    assert balance(flip_debias(raw)) >= 0.999


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
    gaps = reference_intervals(stream)
    values = (gaps % np.uint64(4)).astype(np.int64)
    counts = [int(np.count_nonzero(values == v)) for v in range(4)]
    assert chisquare(counts).pvalue > 0.001


def test_event_stream_validation():
    with pytest.raises(DataError):
        EventStream(np.array([0, 1], dtype=np.int64))
    with pytest.raises(DataError, match="entry 3"):
        EventStream(np.array([1, 5, 5, 9], dtype=np.int64))
    with pytest.raises(DataError, match="entry 2"):
        EventStream(np.array([4, 2], dtype=np.int64))
    with pytest.raises(DataError):
        EventStream(np.array([1, 3], dtype=np.int64), dead_slots=2)  # gap 2 <= dead time
    with pytest.raises(DataError):
        EventStream(np.array([[1, 2]], dtype=np.int64))
    with pytest.raises(DataError, match="integers"):
        EventStream(np.array([1.2, 1.7, 3.0]))  # would truncate to 1, 1, 3


def test_check_slots_messages_are_pinned():
    cases = [
        ([1, 1], "entry 2: duplicate slot index 1 (previous was 1)"),
        ([0, 1], "entry 1: slot index must be >= 1, got 0"),
        ([2, 5, 3], "entry 3: non-increasing slot index 3 (previous was 5)"),
    ]
    for slots, message in cases:
        with pytest.raises(DataError) as exc:
            check_slots(np.array(slots, dtype=np.int64))
        assert str(exc.value) == message


def test_checked_blocks_give_the_whole_streams_messages():
    """Each block is checked against the last slot before it, and a bad
    entry is named by its index in the stream."""
    cases = [
        ([[1, 2], [2, 3]], "entry 3: duplicate slot index 2 (previous was 2)"),
        ([[4], [], [0]], "entry 2: slot index must be >= 1, got 0"),
        ([[2, 5], [3]], "entry 3: non-increasing slot index 3 (previous was 5)"),
        ([[], [0, 1]], "entry 1: slot index must be >= 1, got 0"),
    ]
    for blocks, message in cases:
        with pytest.raises(DataError) as exc:
            list(check_blocks(np.array(b, dtype=np.int64) for b in blocks))
        assert str(exc.value) == message
    with pytest.raises(DataError) as exc:
        list(check_blocks([np.array([1, 4]), np.array([3])], lambda i: f"line {2 * i}"))
    assert str(exc.value) == "line 4: non-increasing slot index 3 (previous was 4)"
    with pytest.raises(DataError, match="^event gaps must exceed the dead time of 2 slots$"):
        list(check_blocks([np.array([1, 4]), np.array([6])], dead_slots=2))
    blocks = list(check_blocks([np.array([1, 4]), np.array([7])], dead_slots=2))
    assert [b.tolist() for b in blocks] == [[1, 4], [7]]
    assert all(b.dtype == np.uint64 and not b.flags.writeable for b in blocks)


def test_event_stream_is_read_only():
    stream = EventStream(np.array([1, 2, 3], dtype=np.uint64))
    with pytest.raises(ValueError):
        stream.slots[0] = 9


@pytest.mark.parametrize("block", [1, 7, 64])
def test_check_slots_names_a_bad_entry_in_a_later_block_by_its_stream_index(monkeypatch, block):
    monkeypatch.setattr(extract, "_CHECK_BLOCK", block)
    slots = np.arange(1, 201, dtype=np.uint64)
    slots[150] = slots[149]
    with pytest.raises(DataError) as exc:
        check_slots(slots)
    assert str(exc.value) == "entry 151: duplicate slot index 150 (previous was 150)"
    slots[150], slots[170] = 151, 5
    with pytest.raises(DataError) as exc:
        check_slots(slots, lambda i: f"line {i + 10}")
    assert str(exc.value) == "line 180: non-increasing slot index 5 (previous was 170)"


@pytest.mark.parametrize("block", [1, 7, 64])
def test_a_bad_slot_after_a_dead_time_violation_is_reported_first(monkeypatch, block):
    monkeypatch.setattr(extract, "_CHECK_BLOCK", block)
    slots = np.arange(1, 301, dtype=np.int64) * 3
    slots[3] = slots[2] + 1
    with pytest.raises(DataError) as exc:
        EventStream(slots, dead_slots=2)
    assert str(exc.value) == "event gaps must exceed the dead time of 2 slots"
    slots[100] = slots[99]
    with pytest.raises(DataError) as exc:
        EventStream(slots, dead_slots=2)
    assert str(exc.value) == "entry 101: duplicate slot index 300 (previous was 300)"


def test_a_callers_array_is_copied():
    """Mutating the caller's array, or the array under a read-only view of
    it, leaves the stream as it was built."""
    slots = np.array([1, 2, 3], dtype=np.uint64)
    view = slots[:]
    view.setflags(write=False)
    streams = [EventStream(slots), EventStream(view)]
    slots[:] = [7, 8, 9]
    for stream in streams:
        assert stream.slots.tolist() == [1, 2, 3]
        assert not stream.slots.flags.writeable


def test_read_only_slots_are_kept_when_no_writable_array_reaches_them():
    owned = np.array([1, 2, 3], dtype=np.uint64)
    owned.setflags(write=False)
    assert EventStream(owned).slots is owned
    from_bytes = np.frombuffer(np.array([1, 5], dtype=np.uint64).tobytes(), dtype=np.uint64)
    assert EventStream(from_bytes).slots is from_bytes
    from_bytearray = np.frombuffer(bytearray(from_bytes.tobytes()), dtype=np.uint64)
    from_bytearray.setflags(write=False)
    assert EventStream(from_bytearray).slots is not from_bytearray
    signed = np.array([1, 2], dtype=np.int64)
    signed.setflags(write=False)
    assert EventStream(signed).slots.dtype == np.uint64


def test_bitstream_validation_and_helpers():
    with pytest.raises(DataError):
        BitStream(np.array([[0, 1]], dtype=np.uint8))
    with pytest.raises(DataError):
        BitStream(np.array([0, 2], dtype=np.uint8))
    with pytest.raises(DataError):
        BitStream(np.array([-1, 0], dtype=np.int64))
    bits = BitStream([1, 0, 1, 1])
    assert len(bits) == 4
    assert bits.ones() == 3
    assert bits.zeros() == 1
    assert bits == BitStream(np.array([1, 0, 1, 1], dtype=np.int64))
    assert bits != BitStream([1, 0, 1, 0])
    assert (bits == object()) is False or (bits == object()) is NotImplemented


def test_bitstream_is_read_only():
    bits = BitStream([1, 0, 1])
    with pytest.raises(ValueError):
        bits.bits[0] = 0


def test_bitstream_and_extractor_config_cannot_be_reassigned():
    """A checked ``BitStream`` keeps its checked array, and the shared default
    ``ExtractorConfig()`` of the extractors cannot be changed in place."""
    bits = BitStream([1, 0, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        bits.bits = np.array([2, 2, 2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        ExtractorConfig().include_first = False


def test_a_bit_stream_copies_a_callers_array_and_keeps_a_frozen_one():
    """A writable array or a read-only view of one is copied; a read-only
    owner, as the library hands over, is kept."""
    raw = np.array([0, 1, 1], dtype=np.uint8)
    view = raw[:2]
    view.flags.writeable = False
    for given in (raw, view):
        stream = BitStream(given)
        assert not np.shares_memory(stream.bits, raw) and not stream.bits.flags.writeable
    frozen = np.array([1, 0], dtype=np.uint8)
    frozen.flags.writeable = False
    assert BitStream(frozen).bits is frozen


class _Spy(BitStream):
    """A :class:`BitStream` that records itself and the array it is handed."""

    made: list = []

    def __post_init__(self):
        _Spy.made.append((self, self.bits))
        super().__post_init__()


@pytest.fixture
def spy(monkeypatch):
    monkeypatch.setattr(extract, "BitStream", _Spy)
    monkeypatch.setattr(_Spy, "made", [])
    return _Spy.made


def test_debiased_and_extracted_streams_keep_their_own_arrays(spy):
    """``extract_mod2`` and ``flip_debias`` hand their fresh arrays to the
    stream uncopied, so a debiased extraction holds two 1-byte-per-bit
    arrays, not three; the bits are the same."""
    stream = EventStream(np.cumsum(np.random.default_rng(3).integers(1, 9, size=1000)).astype(np.uint64))
    raw = extract_mod2(stream)
    debiased = flip_debias(raw)
    assert [made for made, _ in spy] == [raw, debiased]
    assert all(made.bits is handed for made, handed in spy)
    assert raw.bits.tolist() == reference_mod2(stream).tolist()
    assert debiased.bits.tolist() == [b ^ (t % 2) for t, b in enumerate(raw.bits.tolist())]


def test_the_mod4_interleave_is_kept_by_its_stream(spy, tmp_path, capsys):
    from tickrng.cli import main
    from tickrng.formats import read_bits, write_events

    stream = EventStream(np.cumsum(np.random.default_rng(4).integers(1, 9, size=1000)).astype(np.uint64))
    write_events(stream, tmp_path / "events.txt")
    argv = ["extract", "--events", str(tmp_path / "events.txt"), "--modulus", "mod4", "--debias"]
    assert main([*argv, "--out", str(tmp_path / "bits.txt")]) == 0
    assert len(spy) == 2 and all(made.bits is handed for made, handed in spy)
    basis, key = reference_mod4(stream)
    interleaved = np.stack((basis, key), axis=1).ravel()
    assert read_bits(tmp_path / "bits.txt").bits.tolist() == [b ^ (t % 2) for t, b in enumerate(interleaved.tolist())]


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
        frequency_test,
        lambda values: lfsr_complexities(np.array(values).reshape(2, -1)),
    ],
    ids=["BitStream", "frequency_test", "lfsr_complexities"],
)
def test_every_bit_consumer_rejects_a_non_bit(consumer, bad):
    values = [0, 1] * 100
    values[101] = bad
    with pytest.raises(DataError, match="bit values must be 0 or 1"):
        consumer(values)
