"""File formats and run manifests: golden bytes, round trips, and malformed-input errors."""

import hashlib
import json
import os
import re

import numpy as np
import pytest
from conftest import fed_fifo, reference_format_slots, reference_parse_slots, reference_read_bits, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

import tickrng
from tickrng import formats
from tickrng.errors import DataError
from tickrng.extract import BitStream, EventStream
from tickrng.formats import (
    REPORT_HEADER,
    read_bit_runs,
    read_bits,
    read_event_blocks,
    read_events,
    write_bits,
    write_events,
    write_report,
)
from tickrng.manifest import RunManifest, manifest_path_for, read_manifest, write_manifest
from tickrng.models import Distribution, SourceModel
from tickrng.sim import ClockConfig, ClockMode, IntraGateProfile, generate_gated
from tickrng.suite import TestEntry, TestId, TestReport, run_battery


def stream_of(*slots) -> EventStream:
    return EventStream(np.array(slots, dtype=np.uint64))


# ------------------------------------------------------------------ events


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_events_round_trip(tmp_path, fmt):
    stream = stream_of(1, 2, 2**40)
    path = tmp_path / "events"
    write_events(stream, path, fmt=fmt)
    again = read_events(path, fmt=fmt)
    assert np.array_equal(again.slots, stream.slots)


def test_events_ascii_bytes_are_line_oriented(tmp_path):
    path = tmp_path / "events.txt"
    write_events(stream_of(3, 5, 10), path)
    assert path.read_text() == "3\n5\n10\n"


def gated_stream(slots_per_gate: int, mu_eta: float, n_events: int) -> EventStream:
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=slots_per_gate)
    source = SourceModel(Distribution.POISSON, mu_eta, 1.0)
    return generate_gated(source, clock, IntraGateProfile.uniform(), n_events, 301)


def boundary_slots() -> list[int]:
    """10**k - 1 and 10**k for k = 1..19, then 2**64 - 1: every digit count."""
    return [v for k in range(1, 20) for v in (10**k - 1, 10**k)] + [2**64 - 1]


ASCII_EVENT_PINS = {
    "gated_r2_mu_eta_0.5": (
        lambda: gated_stream(2, 0.5, 100_000),
        "fcf2013f129a45c3ce38da33744c0f09004b28bebb4e4ba6f05e66869d0d7851",
    ),
    "gated_r1_mu_eta_1e-9": (
        lambda: gated_stream(1, 1e-9, 20_000),
        "6a26aff345904876bb0aa77d50d7d2b76301fe6a1857e5cb2d1c4a3b5ae70bad",
    ),
    "boundaries": (
        lambda: EventStream(np.array(boundary_slots(), dtype=np.uint64)),
        "1418f3104d0b5c309698c98b383f0e7284e22e6536d38330e941c21df663ef11",
    ),
}


@pytest.mark.parametrize("name", ASCII_EVENT_PINS)
def test_events_ascii_bytes_are_pinned(tmp_path, name):
    build, digest = ASCII_EVENT_PINS[name]
    stream = build()
    path = tmp_path / "events.txt"
    write_events(stream, path, fmt="ascii")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert np.array_equal(read_events(path).slots, stream.slots)


# SHA-256 of the binary event bytes of the same streams.
BINARY_EVENT_PINS = {
    "gated_r2_mu_eta_0.5": "cf5d535f7500758ed2d62166cddba0bfadd6cb10271142cf2ae0d3b7347941c2",
    "gated_r1_mu_eta_1e-9": "7adea7056efc7c2207ba17c4a2dc7183747fe426eb316f5e684985a387bd3940",
    "boundaries": "d26ad56f5cf7d0600c4cb5de0dca4c5b0b51bb8bc4bfc85f3fcee10afc9863a6",
}


@pytest.mark.parametrize("name", ASCII_EVENT_PINS)
def test_events_binary_bytes_are_pinned(tmp_path, name):
    stream = ASCII_EVENT_PINS[name][0]()
    path = tmp_path / "events.bin"
    write_events(stream, path, fmt="binary")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BINARY_EVENT_PINS[name]
    assert np.array_equal(read_events(path, fmt="binary").slots, stream.slots)


def test_pinned_gated_stream_reaches_fourteen_digits():
    assert len(str(int(gated_stream(1, 1e-9, 20_000).slots[-1]))) == 14


def test_events_monotonicity_error_names_the_line(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("5\n3\n")
    with pytest.raises(DataError, match="line 2"):
        read_events(path)


def test_events_duplicate_error_names_the_line(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("5\n5\n")
    with pytest.raises(DataError, match="line 2.*duplicate"):
        read_events(path)


def test_events_empty_file_is_an_empty_stream(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("")
    assert len(read_events(path)) == 0
    binary = tmp_path / "events.bin"
    binary.write_bytes(b"")
    assert len(read_events(binary, fmt="binary")) == 0


def test_events_reject_garbage_lines(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("1\ntwo\n")
    with pytest.raises(DataError, match="line 2"):
        read_events(path)


def test_events_reject_zero_slot(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("0\n4\n")
    with pytest.raises(DataError, match="line 1"):
        read_events(path)


GRAMMAR_REJECTS = ["1_0", "+20", "-3", "\u0663\u0660", "30 40", "0", "18446744073709551616", "1\x0b", "12\r3", "0x1f"]


@pytest.mark.parametrize("bad", GRAMMAR_REJECTS)
def test_events_ascii_grammar_rejects_with_the_line(tmp_path, bad):
    path = tmp_path / "events.txt"
    path.write_bytes(b"1\n\n2\n" + bad.encode() + b"\n99999\n")
    with pytest.raises(DataError, match="^line 4: "):
        read_events(path)


def test_events_ascii_overflow_keeps_its_message(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("7\n18446744073709551616\n")
    with pytest.raises(DataError, match="line 2: slot index 18446744073709551616 overflows 64 bits"):
        read_events(path)
    path.write_text("7\n18446744073709551615\n")
    assert read_events(path).slots.tolist() == [7, 2**64 - 1]


def test_events_ascii_accepts_blanks_blank_lines_and_leading_zeros(tmp_path):
    path = tmp_path / "events.txt"
    path.write_bytes(b"\n  3\r\n\t\r\n \n005 \t\n" + b"0" * 5000 + b"9\r\n12")
    assert read_events(path).slots.tolist() == [3, 5, 9, 12]


def format_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(8)
    cases = {
        f"{k}_digits": rng.integers(10 ** (k - 1), 10**k, size=40, dtype=np.uint64) for k in range(2, 20)
    }
    cases["1_digit"] = np.arange(10, dtype=np.uint64)
    cases["20_digits"] = rng.integers(10**19, 2**64 - 1, size=40, dtype=np.uint64, endpoint=True)
    cases["every_width_mixed"] = rng.permutation(np.concatenate(list(cases.values())))
    cases["boundaries"] = np.array(boundary_slots(), dtype=np.uint64)
    cases["one"] = np.array([1], dtype=np.uint64)
    cases["empty"] = np.array([], dtype=np.uint64)
    cases["gated"] = gated_stream(2, 0.5, 5_000).slots
    return cases


FORMAT_CASES = format_cases()


def parse_outcome(parse, blob: bytes):
    """The slots and line names a parser gives ``blob``, or its error message."""
    try:
        slots, where = parse(blob)
    except DataError as exc:
        return str(exc)
    assert slots.dtype == np.uint64
    return slots.tolist(), [where(i) for i in range(slots.size)]


@pytest.mark.parametrize("name", FORMAT_CASES)
def test_format_slots_matches_the_reference(name):
    slots = FORMAT_CASES[name]
    text = formats._format_slots(slots)
    assert text.tobytes() == reference_format_slots(slots)
    assert parse_outcome(formats._parse_ascii_events, text.tobytes()) == parse_outcome(
        reference_parse_slots, reference_format_slots(slots)
    )


def max_lines_then_overflows(pairs: int) -> bytes:
    fitting = b"18446744073709551615\n0018446744073709551615\n"
    return fitting * pairs + b"100018446744073709551615\n18446744073709551616\n"


PARSE_CASES = {
    "leading_zeros": b"007\n000000000000000000000000000042\n",
    "5000_leading_zeros": b"0" * 5000 + b"9\n",
    "4400_zeros_then_21_digits": b"1\n" + b"0" * 4400 + b"123456789012345678901\n",
    "4400_zeros_then_a_fitting_tail": b"1\n" + b"0" * 4400 + b"018446744073709551615\n",
    "blanks": b"  3\t\n\t 4 \n \t\r5\r \n",
    "crlf": b"1\r\n2\r\n30\r\n",
    "cr_inside_a_line": b"1\r2\n",
    "no_final_newline": b"1\n2\n345",
    "empty": b"",
    "blank_lines_only": b"\n \n\t\r\n\n   ",
    "20_digits_max": b"18446744073709551615\n",
    "20_digits_below_max": b"18446744073709551614\n18446744073709551515\n09999999999999999999\n",
    "20_digits_over_late": b"18446744073709551625\n",
    "20_digits_over_early": b"99999999999999999999\n",
    "21_digits": b"5\n100000000000000000000\n",
    "21_digits_zero_led": b"018446744073709551615\n",
    "30_digits": b"1" + b"0" * 29 + b"\n",
    "30_digits_zero_led": b"0" * 10 + b"18446744073709551615\n",
    "30_digits_zero_led_over": b"0" * 10 + b"18446744073709551616\n",
    "0018446744073709551616": b"0018446744073709551616\n",
    "max_then_overflow": b"18446744073709551615\n18446744073709551616\n",
    "max_twice": b"18446744073709551615\n18446744073709551615\n",
    "duplicate_max_then_zero_led_overflow": (
        b"18446744073709551615\n18446744073709551615\n018446744073709551616\n"
    ),
    "first_of_two_overflows": b"7\n99999999999999999999\n0000000000000000000001\n1" + b"0" * 21 + b"\n",
    # Every saturated token is checked: a nonzero digit before a fitting tail
    # overflows, and so does the last line.
    "10^5_max_lines_then_overflows": max_lines_then_overflows(50_000),
    **{f"grammar_{i}": b"1\n\n2\n" + bad.encode() + b"\n99999\n" for i, bad in enumerate(GRAMMAR_REJECTS)},
    # A stray byte anywhere is named before a split line, and both before an
    # overflow, wherever they are in the file.
    "split_then_a_stray_byte": b"1 2\n3\nx\n",
    "overflow_then_a_split": b"99999999999999999999\n3\n4 5\n",
    "overflow_then_a_stray_byte": b"99999999999999999999\n3\nx\n",
}


@pytest.mark.parametrize("name", PARSE_CASES)
def test_parse_ascii_events_matches_the_reference(name):
    blob = PARSE_CASES[name]
    assert parse_outcome(formats._parse_ascii_events, blob) == parse_outcome(reference_parse_slots, blob)


def random_event_file(rng) -> bytes:
    """Lines of every width with random blanks, leading zeros, line ends and blank lines."""
    lines = []
    for _ in range(int(rng.integers(0, 60))):
        if rng.random() < 0.1:
            lines.append(b"".join(rng.choice([b" ", b"\t", b"\r"], size=rng.integers(0, 3))))
            continue
        value = int(rng.integers(0, 2**64, dtype=np.uint64, endpoint=False)) >> int(rng.integers(0, 64))
        if rng.random() < 0.01:
            value += 2**64
        pad = [b"".join(rng.choice([b" ", b"\t", b"\r"], size=rng.integers(0, 3))) for _ in range(2)]
        zeros = b"0" * int(rng.choice([0, 0, 1, 3, 25]))
        lines.append(pad[0] + zeros + str(value).encode() + pad[1])
    blob = b"\n".join(lines) + rng.choice([b"", b"\n"])
    if blob and rng.random() < 0.5:
        i = int(rng.integers(0, len(blob)))
        blob = blob[:i] + bytes([rng.choice(list(b"x \t\r\n0-\x0b\xff"))]) + blob[i + 1 :]
    return blob


@pytest.mark.parametrize("seed", range(40))
def test_parse_ascii_events_matches_the_reference_on_random_files(seed):
    blob = random_event_file(np.random.default_rng(seed))
    assert parse_outcome(formats._parse_ascii_events, blob) == parse_outcome(reference_parse_slots, blob)


@pytest.mark.parametrize("n_events", [100_000, 1_000_000])
def test_ascii_event_kernels_stay_within_their_memory_budget(tmp_path, n_events):
    # The writers hold one block of slots at a time, whatever the stream's
    # length.  The reader holds the file, its slots, which the stream keeps
    # without a copy, and the work of one block.
    stream = gated_stream(2, 0.5, n_events)
    assert traced_peak(write_events, stream, tmp_path / "events.bin", "binary") <= 4 * 2**20
    path = tmp_path / "events.txt"
    assert traced_peak(write_events, stream, path) <= 4 * 2**20
    size = path.stat().st_size
    assert traced_peak(read_events, path) <= size + 8 * n_events + 4 * formats._READ_BLOCK


def test_binary_event_reading_holds_only_the_file(tmp_path):
    """The stream keeps the file's bytes as its slots, without a copy."""
    stream = gated_stream(2, 0.5, 1_000_000)
    path = tmp_path / "events.bin"
    write_events(stream, path, "binary")
    assert traced_peak(read_events, path, "binary") <= path.stat().st_size + 2**20
    assert isinstance(read_events(path, "binary").slots.base, bytes)


def test_event_streams_keep_the_readers_array_and_only_their_slots(tmp_path, monkeypatch):
    """An ascii stream keeps the parser's array, trimmed in place to its
    slots however many blank lines the file has; a binary one keeps the
    file's bytes."""
    path = tmp_path / "events.txt"
    path.write_bytes(b"1\n" + b"\n" * 1000 + b"2\n")
    slots = read_events(path).slots
    assert slots.tolist() == [1, 2]
    assert slots.base is None and slots.nbytes == 16
    parsed = []
    parse = formats._parse_ascii_events
    monkeypatch.setattr(formats, "_parse_ascii_events", lambda blob: parsed.append(parse(blob)) or parsed[-1])
    for text in (b"1\n2\n", b"3\n5", b"1\n" + b"\n" * 1000 + b"2\n", b""):
        path.write_bytes(text)
        assert read_events(path).slots is parsed[-1][0]
    write_events(gated_stream(2, 0.5, 1000), path, "binary")
    assert isinstance(read_events(path, "binary").slots.base, bytes)


@pytest.fixture(params=[1, 7, 64])
def small_blocks(request, monkeypatch) -> int:
    """Read and write events in blocks of this many bytes or slots."""
    monkeypatch.setattr(formats, "_READ_BLOCK", request.param)
    monkeypatch.setattr(formats, "_WRITE_BLOCK", request.param)
    return request.param


# In blocks of one line, the 10^5-line case takes seconds; a 10^2-line
# one keeps every kind of line it has.
SMALL_BLOCK_PARSE_CASES = {
    **{name: blob for name, blob in PARSE_CASES.items() if len(blob) < 10**5},
    "10^2_max_lines_then_overflows": max_lines_then_overflows(50),
}


@pytest.mark.parametrize("name", SMALL_BLOCK_PARSE_CASES)
def test_parse_in_small_blocks_matches_the_reference(small_blocks, name):
    blob = SMALL_BLOCK_PARSE_CASES[name]
    assert parse_outcome(formats._parse_ascii_events, blob) == parse_outcome(reference_parse_slots, blob)


@pytest.mark.parametrize("seed", range(40))
def test_parse_in_small_blocks_matches_the_reference_on_random_files(small_blocks, seed):
    blob = random_event_file(np.random.default_rng(seed))
    assert parse_outcome(formats._parse_ascii_events, blob) == parse_outcome(reference_parse_slots, blob)


@pytest.mark.parametrize("name", FORMAT_CASES)
def test_events_written_in_small_blocks_match_the_reference(tmp_path, small_blocks, name):
    slots = np.unique(FORMAT_CASES[name])
    stream = EventStream(slots[slots > 0])
    write_events(stream, tmp_path / "events.txt")
    assert (tmp_path / "events.txt").read_bytes() == reference_format_slots(stream.slots)
    write_events(stream, tmp_path / "events.bin", fmt="binary")
    assert (tmp_path / "events.bin").read_bytes() == b"".join(v.to_bytes(8, "little") for v in stream.slots.tolist())


def read_outcome(read, blob: bytes, tmp_path):
    """The slots ``read`` gives the event file ``blob``, or its error message."""
    path = tmp_path / "events.txt"
    path.write_bytes(blob)
    try:
        return read(path).slots.tolist()
    except DataError as exc:
        return str(exc)


def reference_read(path) -> EventStream:
    slots, where = reference_parse_slots(path.read_bytes())
    return EventStream(slots, where)


def edge_case(block: int, line: bytes) -> bytes:
    """A first line of ``block`` bytes holding slot 5, which ends the first block, then ``line``."""
    return b"0" * (block - 1) + b"5\n" + line + b"\n"


ASCII_MESSAGE_CASES = [
    b"5\n3\n",
    b"5\n5\n",
    b"1\ntwo\n",
    b"0\n4\n",
    b"7\n18446744073709551616\n",
    b"1\n2\n\xff3\n",
    *(b"1\n\n2\n" + bad.encode() + b"\n99999\n" for bad in GRAMMAR_REJECTS),
]


@pytest.mark.parametrize("case", range(len(ASCII_MESSAGE_CASES)))
def test_ascii_messages_in_small_blocks_match_the_reference(tmp_path, small_blocks, case):
    blob = ASCII_MESSAGE_CASES[case]
    assert read_outcome(read_events, blob, tmp_path) == read_outcome(reference_read, blob, tmp_path)


@pytest.mark.parametrize(
    "line, message",
    [
        (b"3", "line 2: non-increasing slot index 3 (previous was 5)"),
        (b"5", "line 2: duplicate slot index 5 (previous was 5)"),
        (b"18446744073709551616", "line 2: slot index 18446744073709551616 overflows 64 bits"),
    ],
)
def test_errors_right_after_a_block_edge_name_their_line(tmp_path, small_blocks, line, message):
    blob = edge_case(small_blocks, line)
    assert blob.find(b"\n", small_blocks - 1) == small_blocks  # the first block ends at line 1
    assert read_outcome(read_events, blob, tmp_path) == message
    assert read_outcome(reference_read, blob, tmp_path) == message


def test_events_non_utf8_byte_names_the_line(tmp_path):
    path = tmp_path / "events.txt"
    path.write_bytes(b"1\n2\n\xff3\n")
    with pytest.raises(DataError, match="line 3"):
        read_events(path)


def test_events_binary_zero_first_entry_names_entry_one(tmp_path):
    path = tmp_path / "events.bin"
    path.write_bytes((0).to_bytes(8, "little") + (4).to_bytes(8, "little"))
    with pytest.raises(DataError, match="entry 1"):
        read_events(path, fmt="binary")


def test_events_binary_duplicate_names_the_entry(tmp_path):
    path = tmp_path / "events.bin"
    path.write_bytes(np.array([1, 5, 9, 9], dtype="<u8").tobytes())
    with pytest.raises(DataError, match="entry 4: duplicate"):
        read_events(path, fmt="binary")


def test_events_binary_length_must_be_word_aligned(tmp_path):
    path = tmp_path / "events.bin"
    path.write_bytes(b"\x01\x02\x03")
    with pytest.raises(DataError, match="multiple of 8"):
        read_events(path, fmt="binary")


def test_events_binary_order_error_names_the_entry(tmp_path):
    path = tmp_path / "events.bin"
    path.write_bytes((5).to_bytes(8, "little") + (3).to_bytes(8, "little"))
    with pytest.raises(DataError, match="entry 2"):
        read_events(path, fmt="binary")


def reference_slot_error(values: list[int]) -> str | None:
    """The message of a whole-file check of binary slots ``values``, from a loop over them."""
    for i, value in enumerate(values):
        if value < 1:
            return f"entry {i + 1}: slot index must be >= 1, got {value}"
        if i and value <= values[i - 1]:
            kind = "duplicate" if value == values[i - 1] else "non-increasing"
            return f"entry {i + 1}: {kind} slot index {value} (previous was {values[i - 1]})"
    return None


def block_read_outcome(path, fmt: str = "binary"):
    """The blocks ``read_event_blocks`` yields, as lists, or its error message."""
    try:
        return [block.tolist() for block in read_event_blocks(path, fmt)]
    except DataError as exc:
        return str(exc)


# Property tests: derandomized, so every run draws the same examples.
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)
SLOT_LISTS = st.lists(st.integers(1, 2**64 - 1), max_size=150, unique=True).map(sorted)


@pytest.fixture(scope="module")
def events_bin(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "events.bin"


@PROPERTY
@given(slots=SLOT_LISTS, block=st.integers(1, 64), cut=st.integers(0, 150))
def test_binary_events_read_back_in_blocks_of_any_size(events_bin, slots, block, cut):
    """Written whole or as two blocks, a binary file reads back as blocks
    of ``block`` slots but the last, read-only uint64, holding the slots."""
    stream = EventStream(np.array(slots, dtype=np.uint64))
    for written in (stream, [stream.slots[:cut], stream.slots[cut:]]):
        write_events(written, events_bin, fmt="binary")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_READ_BLOCK", 8 * block)
            blocks = list(read_event_blocks(events_bin, "binary"))
        assert [b.size for b in blocks] == [block] * (len(slots) // block) + [len(slots) % block] * (len(slots) % block > 0)
        assert all(b.dtype == np.uint64 and not b.flags.writeable for b in blocks)
        assert sum((b.tolist() for b in blocks), []) == slots
        assert read_events(events_bin, "binary").slots.tolist() == slots


@st.composite
def malformed_binary_files(draw):
    """(file bytes, block size): valid slots with one entry made zero, a
    duplicate or smaller than the one before it at a block boundary, or
    with 1 to 7 stray bytes at the end."""
    values = draw(st.lists(st.integers(1, 2**64 - 1), min_size=2, max_size=100, unique=True).map(sorted))
    block = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["zero", "duplicate", "boundary", "length"]))
    if kind == "length":
        return np.array(values, dtype="<u8").tobytes() + b"\x01" * draw(st.integers(1, 7)), block
    if kind == "boundary":
        block = draw(st.integers(1, len(values) - 1))
        i = block * draw(st.integers(1, (len(values) - 1) // block))
    else:
        i = draw(st.integers(0 if kind == "zero" else 1, len(values) - 1))
    if kind == "zero":
        values[i] = 0
    else:
        values[i] = values[i - 1] if kind == "duplicate" else draw(st.integers(1, values[i - 1]))
    return np.array(values, dtype="<u8").tobytes(), block


@PROPERTY
@given(case=malformed_binary_files())
def test_malformed_binary_files_give_the_whole_file_message_in_any_block(events_bin, case):
    blob, block = case
    events_bin.write_bytes(blob)
    if len(blob) % 8:
        expected = f"binary event file length {len(blob)} is not a multiple of 8"
    else:
        expected = reference_slot_error(np.frombuffer(blob, dtype="<u8").tolist())
    with pytest.raises(DataError) as whole:
        read_events(events_bin, "binary")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_READ_BLOCK", 8 * block)
        assert (str(whole.value), block_read_outcome(events_bin)) == (expected, expected)


def test_binary_event_blocks_are_read_as_they_are_used(tmp_path, monkeypatch):
    """The file's length is checked on the call, the slots block by block:
    the blocks before a bad entry come out first."""
    path = tmp_path / "events.bin"
    path.write_bytes(b"\x01" * 12)
    with pytest.raises(DataError, match="^binary event file length 12 is not a multiple of 8$"):
        read_event_blocks(path, "binary")
    monkeypatch.setattr(formats, "_READ_BLOCK", 16)
    path.write_bytes(np.array([1, 5, 9, 9], dtype="<u8").tobytes())
    blocks = read_event_blocks(path, "binary")
    assert next(blocks).tolist() == [1, 5]
    with pytest.raises(DataError, match="^entry 4: duplicate slot index 9 [(]previous was 9[)]$"):
        next(blocks)


def test_ascii_event_blocks_are_the_parsed_array(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("3\n5\n10\n")
    blocks = list(read_event_blocks(path))
    assert len(blocks) == 1 and blocks[0].tolist() == [3, 5, 10]
    path.write_text("3\n\n3\n")
    assert block_read_outcome(path, "ascii") == "line 3: duplicate slot index 3 (previous was 3)"


def test_ascii_event_blocks_are_whole_lines_read_as_they_are_used(tmp_path, monkeypatch):
    """A block holds the lines that a read completes; the blocks before a
    bad line come out first, and its error is the whole file's."""
    monkeypatch.setattr(formats, "_READ_BLOCK", 3)
    path = tmp_path / "events.txt"
    path.write_bytes(b"1\n2\n\n30\n40")  # read as 1\n2 | \n\n3 | 0\n4 | 0
    assert block_read_outcome(path, "ascii") == [[1], [2], [30], [40]]
    path.write_bytes(b"1\n2\n\n30\n4 5\n6\nx\n")  # a split line in the fourth block, then a stray byte
    blocks = read_event_blocks(path)
    assert [next(blocks).tolist() for _ in range(3)] == [[1], [2], [30]]
    with pytest.raises(DataError, match="^line 7: 'x' is not a decimal slot index$"):
        list(blocks)


@pytest.mark.parametrize("seed", range(40))
def test_ascii_events_read_in_small_blocks_give_the_whole_file_outcome(tmp_path, small_blocks, seed):
    """Slots, or the message of a whole-file read, at blocks of 1, 7 and 64 bytes."""
    blob = random_event_file(np.random.default_rng(seed))
    whole = read_outcome(read_events, blob, tmp_path)
    blocks = block_read_outcome(tmp_path / "events.txt", "ascii")
    assert (blocks if isinstance(blocks, str) else sum(blocks, [])) == whole


ASCII_BLOCK_CASES = {**{f"message_{i}": blob for i, blob in enumerate(ASCII_MESSAGE_CASES)}, **SMALL_BLOCK_PARSE_CASES}


@pytest.mark.parametrize("name", ASCII_BLOCK_CASES)
def test_ascii_event_cases_give_the_whole_file_outcome_in_small_blocks(tmp_path, small_blocks, name):
    blob = ASCII_BLOCK_CASES[name]
    whole = read_outcome(read_events, blob, tmp_path)
    blocks = block_read_outcome(tmp_path / "events.txt", "ascii")
    assert (blocks if isinstance(blocks, str) else sum(blocks, [])) == whole


def test_ascii_events_are_read_from_a_pipe(tmp_path, monkeypatch):
    """Parsed whole, as a pipe cannot be read again to name an error."""
    monkeypatch.setattr(formats, "_READ_BLOCK", 2)
    with fed_fifo(tmp_path / "good", b"1\n2\n3\n") as fifo:
        assert block_read_outcome(fifo, "ascii") == [[1, 2, 3]]
    with fed_fifo(tmp_path / "bad", b"1\n2\n2\n") as fifo:
        assert block_read_outcome(fifo, "ascii") == "line 3: duplicate slot index 2 (previous was 2)"


def test_binary_event_blocks_hold_one_block(tmp_path):
    stream = gated_stream(2, 0.5, 1_000_000)
    path = tmp_path / "events.bin"
    write_events(stream, path, "binary")
    assert traced_peak(lambda: sum(b.size for b in read_event_blocks(path, "binary"))) <= 4 * formats._READ_BLOCK
    assert next(read_event_blocks(path, "binary")).size == formats._READ_BLOCK // 8


def test_a_failed_event_write_leaves_no_file(tmp_path):
    """Blocks are written as they come, and a block that fails its check
    removes what was written."""
    def blocks():
        yield np.array([1, 2], dtype=np.uint64)
        raise DataError("bad block")

    path = tmp_path / "events.bin"
    for fmt in ("ascii", "binary"):
        with pytest.raises(DataError, match="bad block"):
            write_events(blocks(), path, fmt)
        assert not path.exists()


def test_a_failed_event_write_keeps_the_earlier_file(tmp_path):
    """A file is written beside its path and moved there when done."""
    def blocks():
        yield np.array([7], dtype=np.uint64)
        raise KeyboardInterrupt

    path = tmp_path / "events.bin"
    path.write_bytes(b"earlier")
    for fmt in ("ascii", "binary"):
        with pytest.raises(KeyboardInterrupt):
            write_events(blocks(), path, fmt)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"earlier"
    write_events(stream_of(1, 5), path, "binary")
    assert list(tmp_path.iterdir()) == [path]
    assert read_events(path, "binary").slots.tolist() == [1, 5]


def test_events_are_written_through_a_symlink_and_to_a_device(tmp_path):
    """Through a symlink to its file, to a device in place, and refused by
    its own name where it has no directory."""
    (tmp_path / "link.txt").symlink_to("events.txt")
    write_events(stream_of(3, 9), tmp_path / "link.txt")
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "events.txt").read_bytes() == b"3\n9\n"
    write_events(stream_of(3, 9), os.devnull, "binary")
    with pytest.raises(FileNotFoundError) as missing:
        write_events(stream_of(3, 9), tmp_path / "no" / "events.txt")
    assert missing.value.filename == str(tmp_path / "no" / "events.txt")


def test_binary_events_are_read_from_a_pipe(tmp_path, monkeypatch):
    """Read until it ends, in blocks as from a file; its length is checked there."""
    monkeypatch.setattr(formats, "_READ_BLOCK", 16)
    blob = np.array([1, 5, 9], dtype="<u8").tobytes()
    with fed_fifo(tmp_path / "whole", blob) as fifo:
        assert read_events(fifo, "binary").slots.tolist() == [1, 5, 9]
    with fed_fifo(tmp_path / "blocks", blob) as fifo:
        assert block_read_outcome(fifo) == [[1, 5], [9]]
    for name, bad in (("short", blob + b"\x01"), ("duplicate", blob + blob[-8:])):
        with fed_fifo(tmp_path / name, bad) as fifo:
            with pytest.raises(DataError) as whole:
                read_events(fifo, "binary")
        whole_file = tmp_path / f"{name}.bin"
        whole_file.write_bytes(bad)
        assert str(whole.value) == block_read_outcome(whole_file)
    with fed_fifo(tmp_path / "empty", b"") as fifo:
        assert list(read_event_blocks(fifo, "binary")) == []


def test_events_unknown_format_is_a_usage_error(tmp_path):
    """A bad ``fmt`` is a plain ValueError naming it, raised before any file
    is read or made."""
    for call in (
        lambda: read_events(tmp_path / "x", fmt="csv"),
        lambda: write_events(stream_of(1), tmp_path / "x", fmt="csv"),
    ):
        with pytest.raises(ValueError, match=r"^unknown event format 'csv'$") as raised:
            call()
        assert type(raised.value) is ValueError
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------------- bits


def test_packed_bits_golden_bytes(tmp_path):
    path = tmp_path / "bits.bin"
    write_bits(BitStream([1, 0, 1]), path, fmt="packed")
    assert path.read_bytes() == b"\x03" + b"\x00" * 7 + b"\xa0"


@pytest.mark.parametrize("fmt", ["ascii01", "packed"])
def test_bits_round_trip_large(tmp_path, fmt):
    rng = np.random.default_rng(3)
    bits = BitStream(rng.integers(0, 2, size=1_000_000, dtype=np.uint8))
    path = tmp_path / "bits"
    write_bits(bits, path, fmt=fmt)
    assert read_bits(path, fmt=fmt) == bits


@pytest.mark.parametrize("fmt", ["ascii01", "packed"])
def test_bits_round_trip_empty(tmp_path, fmt):
    path = tmp_path / "bits"
    write_bits(BitStream([]), path, fmt=fmt)
    assert len(read_bits(path, fmt=fmt)) == 0


def test_ascii_bits_skip_whitespace(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("10 1\n")
    assert read_bits(path) == BitStream([1, 0, 1])


def test_ascii_bits_reject_stray_characters(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("10\n1x0\n")
    with pytest.raises(DataError, match="line 2.*stray"):
        read_bits(path)


def test_ascii_bits_accept_ascii_whitespace_only(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_bytes(b"1\t0\r\n\x0b\x0c1 \n")
    assert read_bits(path) == BitStream([1, 0, 1])
    path.write_bytes("1\u00a00\n".encode())
    with pytest.raises(DataError, match="line 1.*stray"):
        read_bits(path)


def test_ascii_bits_non_utf8_byte_names_the_line(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_bytes(b"10\n01\n1\xfe0\n")
    with pytest.raises(DataError, match="line 3.*stray"):
        read_bits(path)


def test_ascii_bits_golden_bytes(tmp_path):
    path = tmp_path / "bits.txt"
    write_bits(BitStream([1, 0, 0, 1]), path)
    assert path.read_bytes() == b"1001\n"


def test_packed_bits_reject_short_header(tmp_path):
    path = tmp_path / "bits.bin"
    path.write_bytes(b"\x03\x00")
    with pytest.raises(DataError, match="header"):
        read_bits(path, fmt="packed")


def test_packed_bits_reject_truncated_payload(tmp_path):
    path = tmp_path / "bits.bin"
    path.write_bytes((16).to_bytes(8, "little") + b"\xff")
    with pytest.raises(DataError, match="truncated"):
        read_bits(path, fmt="packed")


def test_packed_bits_reject_trailing_bytes(tmp_path):
    path = tmp_path / "bits.bin"
    path.write_bytes((3).to_bytes(8, "little") + b"\xa0\x00")
    with pytest.raises(DataError, match="trailing"):
        read_bits(path, fmt="packed")


def test_packed_bits_reject_nonzero_padding(tmp_path):
    path = tmp_path / "bits.bin"
    path.write_bytes((3).to_bytes(8, "little") + b"\xa1")  # low bits must be 0
    with pytest.raises(DataError, match="padding"):
        read_bits(path, fmt="packed")


def bit_read_outcomes(path, fmt: str, run_len: int):
    """What ``read_bits`` and ``read_bit_runs`` give: the bits and the runs as
    lists, or the error message of each."""
    try:
        whole = read_bits(path, fmt).bits.tolist()
    except DataError as exc:
        whole = str(exc)
    try:  # each run is listed before the next reuses its buffer
        runs = [run.tolist() for run in read_bit_runs(path, fmt, run_len)]
    except DataError as exc:
        runs = str(exc)
    return whole, runs


@pytest.fixture(scope="module")
def bits_file(tmp_path_factory):
    return tmp_path_factory.mktemp("bit_blocks") / "bits"


@PROPERTY
@given(bits=st.lists(st.integers(0, 1), max_size=200), fmt=st.sampled_from(["ascii01", "packed"]),
       block=st.integers(1, 64), run_len=st.integers(1, 70))
def test_bit_files_read_back_in_blocks_of_any_size(bits_file, bits, fmt, block, run_len):
    """Write then read is the identity at any read block size, and the runs
    are the whole read's slices: full runs, then the shorter rest."""
    write_bits(BitStream(np.array(bits, dtype=np.uint8)), bits_file, fmt=fmt)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_READ_BLOCK", block)
        whole, runs = bit_read_outcomes(bits_file, fmt, run_len)
    assert whole == bits
    assert runs == [bits[i : i + run_len] for i in range(0, len(bits) + 1, run_len)]


# Bytes that are not a bit or a blank: ASCII, 2- to 4-byte UTF-8, and bytes
# that start no UTF-8 character.
STRAY = (b"x", b"2", b"\x00", "\u00a0".encode(), "\u20ac".encode(), "\U0001f600".encode(), b"\xfe", b"\x80")


@st.composite
def malformed_bit_files(draw):
    """(file bytes, format, block size): an ascii01 file with a stray
    character anywhere, often at or just before a block boundary, or a
    packed file with a short header, a short or long payload, or non-zero
    padding."""
    block = draw(st.integers(1, 64))
    if draw(st.booleans()):
        body = b"".join(draw(st.lists(st.sampled_from([b"0", b"1", b" ", b"\n", b"\r\n", b"\t"]), max_size=150)))
        edge = block * draw(st.integers(0, len(body) // block)) - draw(st.integers(0, 3))
        pos = draw(st.one_of(st.integers(0, len(body)), st.just(min(max(edge, 0), len(body)))))
        return body[:pos] + draw(st.sampled_from(STRAY)) + body[pos:], "ascii01", block
    bits = draw(st.lists(st.integers(0, 1), max_size=150))
    payload = np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
    kind = draw(st.sampled_from(["header", "truncated", "trailing", "padding"]))
    if kind == "header":
        return len(bits).to_bytes(8, "little")[: draw(st.integers(0, 7))], "packed", block
    if kind == "truncated":
        payload = payload[: draw(st.integers(0, len(payload)))] if payload else payload
        bit_len = len(bits) + (8 if len(payload) == -(-len(bits) // 8) else 0)
    elif kind == "trailing":
        bit_len, payload = len(bits), payload + bytes(draw(st.integers(1, 3 * block)))
    else:
        bit_len = len(bits) - draw(st.integers(1, 7)) if len(bits) % 8 == 0 and bits else len(bits)
        payload = payload[:-1] + bytes([payload[-1] | 1]) if payload else b"\x01"
        bit_len = min(bit_len, 8 * len(payload) - 1)
    return bit_len.to_bytes(8, "little") + payload, "packed", block


@PROPERTY
@given(case=malformed_bit_files(), run_len=st.integers(1, 40))
def test_malformed_bit_files_give_the_whole_file_message_in_any_block(bits_file, case, run_len):
    """Including an error past the last full run, in the remainder the
    battery ignores: the whole file is still read and checked."""
    blob, fmt, block = case
    bits_file.write_bytes(blob)
    with pytest.raises(DataError) as oracle:
        reference_read_bits(blob, fmt)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_READ_BLOCK", block)
        assert bit_read_outcomes(bits_file, fmt, run_len) == (str(oracle.value),) * 2


def test_bit_runs_are_one_read_only_buffer(tmp_path, monkeypatch):
    monkeypatch.setattr(formats, "_READ_BLOCK", 3)
    path = tmp_path / "bits.txt"
    path.write_text("0110\n1\n0011 1\n")
    runs = read_bit_runs(path, run_len=4)
    first = next(runs)
    assert first.tolist() == [0, 1, 1, 0] and not first.flags.writeable
    second = next(runs)
    assert second is first and second.tolist() == [1, 0, 0, 1]
    assert [run.tolist() for run in runs] == [[1, 1]]
    with pytest.raises(ValueError, match="^run_len must be a positive integer, got 0$"):
        read_bit_runs(path, run_len=0)


def test_packed_bit_runs_check_the_header_and_length_on_the_call(tmp_path, monkeypatch):
    monkeypatch.setattr(formats, "_READ_BLOCK", 8)  # a byte at a time
    path = tmp_path / "bits.bin"
    for blob, message in (
        (b"\x03\x00", "shorter than its 8-byte header"),
        ((16).to_bytes(8, "little") + b"\xff", "truncated: header says 16 bits, payload has 1 bytes"),
        ((3).to_bytes(8, "little") + b"\xa0\x00", "has 1 trailing bytes"),
    ):
        path.write_bytes(blob)
        with pytest.raises(DataError, match=f"^packed bit file {re.escape(message)}$"):
            read_bit_runs(path, "packed", 2)
    path.write_bytes((20).to_bytes(8, "little") + b"\xa0\x00\x01")  # the padding is checked when read
    runs = read_bit_runs(path, "packed", 2)
    assert next(runs).tolist() == [1, 0]
    with pytest.raises(DataError, match="^packed bit file has non-zero padding bits$"):
        list(runs)


@pytest.mark.parametrize("fmt", ["ascii01", "packed"])
def test_bits_are_read_from_a_pipe(tmp_path, monkeypatch, fmt):
    """As from a file, in blocks; a packed pipe's length is checked where it ends."""
    monkeypatch.setattr(formats, "_READ_BLOCK", 16)
    bits = np.random.default_rng(5).integers(0, 2, size=300, dtype=np.uint8)
    write_bits(BitStream(bits), tmp_path / "bits", fmt=fmt)
    blob = (tmp_path / "bits").read_bytes()
    bad = blob + b"\x00" if fmt == "packed" else blob + b"2"
    (tmp_path / "bad").write_bytes(bad)
    for name, data in (("good", blob), ("bad", bad)):
        expected = bit_read_outcomes(tmp_path / ("bits" if name == "good" else "bad"), fmt, 70)
        with fed_fifo(tmp_path / f"{name}-whole", data) as whole, fed_fifo(tmp_path / f"{name}-runs", data) as runs:
            try:
                from_pipe = read_bits(whole, fmt).bits.tolist()
            except DataError as exc:
                from_pipe = str(exc)
            try:
                runs_from_pipe = [run.tolist() for run in read_bit_runs(runs, fmt, 70)]
            except DataError as exc:
                runs_from_pipe = str(exc)
        assert (from_pipe, runs_from_pipe) == expected
    assert expected[0] == ("packed bit file has 1 trailing bytes" if fmt == "packed"
                           else "line 2: stray character '2' in bit stream")


def test_bits_unknown_format_is_a_usage_error(tmp_path):
    """A bad ``fmt`` is a plain ValueError naming it, raised before any file
    is read or made."""
    for call in (
        lambda: read_bits(tmp_path / "x", fmt="hex"),
        lambda: write_bits(BitStream([1]), tmp_path / "x", fmt="hex"),
    ):
        with pytest.raises(ValueError, match=r"^unknown bit format 'hex'$") as raised:
            call()
        assert type(raised.value) is ValueError
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ report


def test_report_csv_layout(tmp_path):
    entries = [
        TestEntry(TestId.RUNS, 0, 0.25, passed=True),
        TestEntry(TestId.FREQUENCY, 1, 0.5, passed=True),
        TestEntry(TestId.FREQUENCY, 0, 0.001, passed=False),
        TestEntry(TestId.UNIVERSAL, 0, None, passed=False),
    ]
    report = TestReport(entries=entries, alpha=0.01, run_len=100)
    path = tmp_path / "report.csv"
    write_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_HEADER)
    assert lines[1] == "Frequency,1,0,0.001,0"
    assert lines[2] == "Frequency,1,1,0.5,1"
    assert lines[3] == "Runs,5,0,0.25,1"
    assert lines[4] == "Universal,9,0,NA,NA"
    assert len(lines) == 5


def test_report_csv_bytes_with_not_applicable_rows_are_pinned(tmp_path):
    """A one-run report at 2^13 bits, where six procedures do not apply."""
    bits = np.random.Generator(np.random.PCG64(20261019)).integers(0, 2, size=1 << 13, dtype=np.uint8)
    path = tmp_path / "report.csv"
    write_report(run_battery(bits, run_len=1 << 13), path)
    assert path.read_bytes() == (
        b"test_id,test_index,run_index,p_value,pass\r\n"
        b"Frequency,1,0,0.565613,1\r\n"
        b"BlockFrequency,2,0,0.430895,1\r\n"
        b"CusumForward,3,0,0.716766,1\r\n"
        b"CusumReverse,4,0,0.90022,1\r\n"
        b"Runs,5,0,0.34386,1\r\n"
        b"LongestRuns,6,0,0.585812,1\r\n"
        b"Rank,7,0,NA,NA\r\n"
        b"DFFT,8,0,0.273519,1\r\n"
        b"Universal,9,0,NA,NA\r\n"
        b"ApproximateEntropy,10,0,NA,NA\r\n"
        b"Serial1,11,0,NA,NA\r\n"
        b"Serial2,12,0,NA,NA\r\n"
        b"LinearComplexity,13,0,NA,NA\r\n"
    )


def test_report_rows_follow_pass_rule(tmp_path):
    entries = [
        TestEntry(TestId.FREQUENCY, 0, 0.01, passed=0.01 >= 0.01),
        TestEntry(TestId.FREQUENCY, 1, 0.0099, passed=0.0099 >= 0.01),
    ]
    path = tmp_path / "report.csv"
    write_report(TestReport(entries=entries, alpha=0.01, run_len=10), path)
    lines = path.read_text().splitlines()
    assert lines[1].endswith(",1")  # p = alpha passes
    assert lines[2].endswith(",0")


# ---------------------------------------------------------------- manifest


def make_manifest() -> RunManifest:
    return RunManifest(
        subcommand="simulate",
        argv=["simulate", "--mu", "0.5", "--events", "10", "--out", "x", "--seed", "1"],
        parameters={"mu": 0.5, "events": 10, "seed": 1},
        outputs=["x"],
        generator={"algorithm": "PCG64", "seed": 1},
        conventions={"flip_debias_phase": "starts at t=0"},
    )


def test_manifest_round_trip(tmp_path):
    manifest = make_manifest()
    out = tmp_path / "x"
    target = write_manifest(manifest, out)
    assert target == manifest_path_for(out)
    assert target.name == "x.manifest.json"
    assert read_manifest(target) == manifest


def test_manifest_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.manifest.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="JSON"):
        read_manifest(path)


def test_manifest_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.manifest.json"
    path.write_text('{"subcommand": "simulate"}')
    with pytest.raises(DataError, match="missing"):
        read_manifest(path)


REQUIRED_MANIFEST_FIELDS = {
    "subcommand": "simulate",
    "argv": ["simulate"],
    "parameters": {},
    "outputs": ["x"],
}


@pytest.mark.parametrize("missing", [
    ("subcommand",), ("argv",), ("parameters",), ("outputs",), ("argv", "outputs"), ("subcommand", "parameters"),
], ids="-".join)
def test_manifest_names_its_first_missing_field(tmp_path, missing):
    """The first required field absent, in declaration order, is named."""
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps({k: v for k, v in REQUIRED_MANIFEST_FIELDS.items() if k not in missing}))
    with pytest.raises(DataError) as exc:
        read_manifest(path)
    assert str(exc.value) == f"manifest is missing required field: {missing[0]!r}"


def test_manifest_defaults_its_optional_fields_and_ignores_unknown_keys(tmp_path):
    path = tmp_path / "m.manifest.json"
    path.write_text(json.dumps({**REQUIRED_MANIFEST_FIELDS, "metrics": {"wall_s": 1.0}}))
    assert read_manifest(path) == RunManifest(
        subcommand="simulate", argv=["simulate"], parameters={}, outputs=["x"],
        generator=None, conventions={}, version=tickrng.__version__,
    )
