"""File formats: golden bytes, round trips, and malformed-input errors."""

import hashlib
import math

import numpy as np
import pytest
from conftest import reference_format_slots, reference_parse_slots, traced_peak

from tickrng import formats
from tickrng.errors import DataError
from tickrng.extract import BitStream
from tickrng.formats import (
    REPORT_HEADER,
    RunManifest,
    manifest_path_for,
    read_bits,
    read_events,
    read_manifest,
    write_bits,
    write_events,
    write_manifest,
    write_report,
)
from tickrng.models import Distribution, SourceModel
from tickrng.sim import ClockConfig, ClockMode, EventStream, IntraGateProfile, generate_gated
from tickrng.suite import TestEntry, TestId, TestReport

FREE = ClockConfig(mode=ClockMode.FREE_RUNNING)


def stream_of(*slots) -> EventStream:
    return EventStream(np.array(slots, dtype=np.uint64), FREE)


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
        lambda: EventStream(np.array(boundary_slots(), dtype=np.uint64), FREE),
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
    **{f"grammar_{i}": b"1\n\n2\n" + bad.encode() + b"\n99999\n" for i, bad in enumerate(GRAMMAR_REJECTS)},
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


def test_ascii_event_kernels_stay_within_their_memory_budget(tmp_path):
    # Per-line Python objects cost about 14x the file to write and 20x to read.
    stream = gated_stream(2, 0.5, 100_000)
    path = tmp_path / "events.txt"
    write_peak = traced_peak(write_events, stream, path)
    size = path.stat().st_size
    assert traced_peak(read_events, path) <= 16 * size
    assert write_peak <= 10 * size


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


def test_events_unknown_format_is_a_usage_error(tmp_path):
    with pytest.raises(ValueError):
        read_events(tmp_path / "x", fmt="csv")
    with pytest.raises(ValueError):
        write_events(stream_of(1), tmp_path / "x", fmt="csv")


# -------------------------------------------------------------------- bits


def test_packed_bits_golden_bytes(tmp_path):
    path = tmp_path / "bits.bin"
    write_bits(BitStream.from_bits([1, 0, 1]), path, fmt="packed")
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
    write_bits(BitStream.from_bits([]), path, fmt=fmt)
    assert len(read_bits(path, fmt=fmt)) == 0


def test_ascii_bits_skip_whitespace(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("10 1\n")
    assert read_bits(path) == BitStream.from_bits([1, 0, 1])


def test_ascii_bits_reject_stray_characters(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("10\n1x0\n")
    with pytest.raises(DataError, match="line 2.*stray"):
        read_bits(path)


def test_ascii_bits_accept_ascii_whitespace_only(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_bytes(b"1\t0\r\n\x0b\x0c1 \n")
    assert read_bits(path) == BitStream.from_bits([1, 0, 1])
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
    write_bits(BitStream.from_bits([1, 0, 0, 1]), path)
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


def test_bits_unknown_format_is_a_usage_error(tmp_path):
    with pytest.raises(ValueError):
        read_bits(tmp_path / "x", fmt="hex")
    with pytest.raises(ValueError):
        write_bits(BitStream.from_bits([1]), tmp_path / "x", fmt="hex")


# ------------------------------------------------------------------ report


def test_report_csv_layout(tmp_path):
    entries = [
        TestEntry(TestId.RUNS, 0, 0.25, passed=True),
        TestEntry(TestId.FREQUENCY, 1, 0.5, passed=True),
        TestEntry(TestId.FREQUENCY, 0, 0.001, passed=False),
        TestEntry(TestId.UNIVERSAL, 0, float("nan"), passed=False, applicable=False),
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
