"""File formats: golden bytes, round trips, and malformed-input errors."""

import math

import numpy as np
import pytest

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
from tickrng.sim import ClockConfig, ClockMode, EventStream
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


@pytest.mark.parametrize(
    "bad",
    ["1_0", "+20", "-3", "\u0663\u0660", "30 40", "0", "18446744073709551616", "1\x0b", "12\r3", "0x1f"],
)
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
