"""File formats: event streams, bit streams, test reports, run manifests.

Event streams are ascii, one decimal slot index per line, or a packed
binary stream of little-endian unsigned 64-bit integers.  An ascii event
line (lines end at ``\n``) is optional blanks (space, tab, CR), one run of
ASCII digits and optional blanks; blank lines are skipped and any other
byte is an error naming its line.  Slot indices lie in 1..2**64 - 1 and
strictly increase.  Bit streams are either ``ascii01`` -- the bytes ``0``
and ``1`` with ASCII whitespace (space, tab, LF, VT, FF, CR) ignored -- or
a packed format with an 8-byte little-endian bit-count header followed by
MSB-first bytes, zero-padded.  Reports are CSV.  Every file produced by
the CLI is accompanied by a JSON run manifest (``<file>.manifest.json``)
recording the exact command, parameters and random generator, so any
output can be reproduced bit-exactly with ``tickrng replay``.

Ascii event files are written and parsed by whole-array kernels, with no
Python object per line:

- The writer fills an (n, width + 1) byte matrix right to left by
  repeated division by 10, width being the digit count of the largest
  slot, with a newline in the last column.  Each row's leading-zero
  columns are dropped by a mask chosen by its digit count.
- The reader checks that every byte is a digit, a blank or a newline and
  that no blank run splits a line into two numbers, from the edges of
  padded byte masks; numpy's own text reader (``np.fromstring`` with
  ``sep=" "``) then converts the checked text.  It saturates a number
  above 2**64 - 1 to 2**64 - 1, so only tokens read as that value are
  compared with it as Python ints.

Both kernels are tested for equal bytes, values and error messages
against the per-line formulas they replaced (one ``str`` per slot;
``bytes.split`` and ``int`` per line), kept in the tests as oracles.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError
from .extract import BitStream
from .sim import ClockConfig, ClockMode, EventStream
from .suite import TestReport

__all__ = [
    "EVENT_FORMATS",
    "BIT_FORMATS",
    "read_events",
    "write_events",
    "read_bits",
    "write_bits",
    "write_report",
    "REPORT_HEADER",
    "RunManifest",
    "manifest_path_for",
    "write_manifest",
    "read_manifest",
]

EVENT_FORMATS = ("ascii", "binary")
BIT_FORMATS = ("ascii01", "packed")
REPORT_HEADER = ("test_id", "test_index", "run_index", "p_value", "pass")


def _line_of(blob: bytes, pos: int) -> int:
    """1-based number of the line holding byte ``pos``."""
    return blob.count(b"\n", 0, pos) + 1


def _not_a_slot(blob: bytes, pos: int) -> DataError:
    start = blob.rfind(b"\n", 0, pos) + 1
    end = blob.find(b"\n", pos)
    text = blob[start : end if end >= 0 else None].strip(b" \t\r").decode("utf-8", "replace")
    return DataError(f"line {_line_of(blob, pos)}: {text!r} is not a decimal slot index")


_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)
_U64_MAX = 2**64 - 1


def _parse_ascii_events(blob: bytes):
    """Slot indices of an ascii event file and a function naming the line of entry i."""
    buf = np.frombuffer(blob, dtype=np.uint8)
    digit = (buf - ord("0")) < 10
    # Every byte that is neither a digit nor a newline must be a blank.
    blank = digit | (buf == ord("\n"))
    np.logical_not(blank, out=blank)
    other = buf[blank]
    stray = (other != ord(" ")) & (other != ord("\t")) & (other != ord("\r"))
    if stray.any():
        raise _not_a_slot(blob, int(np.flatnonzero(blank)[stray.argmax()]))
    # padded holds a byte mask with False at each end: the blanks, then the
    # digits.  Run k of a mask covers bytes edges[2k] .. edges[2k + 1] - 1.
    padded = np.zeros(buf.size + 2, dtype=bool)
    padded[1:-1] = blank
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    padded[1:-1] = digit
    del digit, blank
    # A blank run with a digit on each side splits a line into two numbers.
    split = padded[edges[0::2]] & padded[edges[1::2] + 1]
    if split.any():
        raise _not_a_slot(blob, int(edges[0::2][split.argmax()]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    del padded
    starts, ends = edges[0::2], edges[1::2]

    def where(i: int) -> str:
        return f"line {_line_of(blob, int(starts[i]))}"

    # The slice drops the [0] that fromstring reads from blank-only text.
    slots = np.fromstring(blob, dtype=np.uint64, sep=" ")[: starts.size]
    # The reader saturates a number above 2**64 - 1 to 2**64 - 1, so only
    # tokens read as that value can overflow.
    for i in np.flatnonzero(slots == _U64_MAX):
        token = blob[starts[i] : ends[i]]
        digits = token.lstrip(b"0")
        if len(digits) > 20 or int(digits) > _U64_MAX:
            raise DataError(f"{where(i)}: slot index {token.decode()} overflows 64 bits")
    return slots, where


def _format_slots(slots: np.ndarray) -> np.ndarray:
    """The ascii event lines of ``slots`` (digits, then ``\\n``) as one uint8 array."""
    slots = np.asarray(slots, dtype=np.uint64)
    width = len(str(int(slots.max(initial=0))))
    # text[i] is slot i with leading zeros to `width` digits, then a newline.
    text = np.empty((slots.size, width + 1), dtype=np.uint8)
    text[:, width] = ord("\n")
    rest, quotient = slots.copy(), np.empty_like(slots)
    low, digit = np.empty((2, slots.size), dtype=np.uint8)
    for column in range(width - 1, -1, -1):
        np.floor_divide(rest, 10, out=quotient)
        # The digit rest - 10 * quotient is below 256: low bytes suffice.
        np.copyto(digit, rest, casting="unsafe")
        np.copyto(low, quotient, casting="unsafe")
        low *= 10
        digit -= low
        np.add(digit, ord("0"), out=text[:, column])
        rest, quotient = quotient, rest
    # Row d of `keep` marks the columns of a slot of d + 1 digits and its
    # newline; it is gathered per slot as one item of width + 1 bytes.
    keep = np.arange(width + 1) >= np.arange(width - 1, -1, -1)[:, None]
    keep = keep.view(f"V{width + 1}")[:, 0]
    exponent = np.searchsorted(_POWERS_OF_TEN[: width - 1], slots, side="right")
    return text[keep[exponent].view(bool).reshape(text.shape)]


def read_events(path, fmt: str = "ascii") -> EventStream:
    """Read a free-running event stream; an empty file yields an empty stream."""
    if fmt not in EVENT_FORMATS:
        raise ValueError(f"unknown event format {fmt!r}")
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING)
    blob = Path(path).read_bytes()
    if fmt == "ascii":
        slots, where = _parse_ascii_events(blob)
        return EventStream(slots, clock, where)
    if len(blob) % 8:
        raise DataError(f"binary event file length {len(blob)} is not a multiple of 8")
    return EventStream(np.frombuffer(blob, dtype="<u8"), clock)


def write_events(stream: EventStream, path, fmt: str = "ascii") -> None:
    if fmt not in EVENT_FORMATS:
        raise ValueError(f"unknown event format {fmt!r}")
    path = Path(path)
    if fmt == "ascii":
        path.write_bytes(_format_slots(stream.slots))
    else:
        path.write_bytes(stream.slots.astype("<u8").tobytes())


def read_bits(path, fmt: str = "ascii01") -> BitStream:
    if fmt not in BIT_FORMATS:
        raise ValueError(f"unknown bit format {fmt!r}")
    blob = Path(path).read_bytes()
    if fmt == "ascii01":
        buf = np.frombuffer(blob, dtype=np.uint8)
        bit = (buf == ord("0")) | (buf == ord("1"))
        # ASCII whitespace: space and \t \n \v \f \r, which are 9..13.
        stray = ~(bit | (buf == ord(" ")) | ((buf - 9) < 5))
        if stray.any():
            pos = int(stray.argmax())
            ch = blob[pos : pos + 4].decode("utf-8", "replace")[0]
            raise DataError(f"line {_line_of(blob, pos)}: stray character {ch!r} in bit stream")
        return BitStream(buf[bit] - ord("0"))
    if len(blob) < 8:
        raise DataError("packed bit file shorter than its 8-byte header")
    bit_len = int.from_bytes(blob[:8], "little")
    need = (bit_len + 7) // 8
    payload = blob[8:]
    if len(payload) < need:
        raise DataError(f"packed bit file truncated: header says {bit_len} bits, payload has {len(payload)} bytes")
    if len(payload) > need:
        raise DataError(f"packed bit file has {len(payload) - need} trailing bytes")
    unpacked = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if bit_len and unpacked[bit_len:].any():
        raise DataError("packed bit file has non-zero padding bits")
    return BitStream(unpacked[:bit_len])


def write_bits(bits: BitStream, path, fmt: str = "ascii01") -> None:
    if fmt not in BIT_FORMATS:
        raise ValueError(f"unknown bit format {fmt!r}")
    path = Path(path)
    if fmt == "ascii01":
        path.write_bytes((bits.bits + ord("0")).tobytes() + b"\n")
    else:
        header = len(bits).to_bytes(8, "little")
        payload = np.packbits(bits.bits).tobytes()
        path.write_bytes(header + payload)


def write_report(report: TestReport, path) -> None:
    """Write one CSV row per (procedure, run), sorted by (test_index, run_index).

    Not-applicable entries carry ``NA`` in the p_value and pass columns.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for entry in report.sorted_entries():
            if entry.applicable:
                writer.writerow(
                    [
                        entry.test_id.value,
                        entry.test_index,
                        entry.run_index,
                        f"{entry.p_value:.6g}",
                        int(entry.passed),
                    ]
                )
            else:
                writer.writerow([entry.test_id.value, entry.test_index, entry.run_index, "NA", "NA"])


@dataclass
class RunManifest:
    """Everything needed to reproduce one CLI output bit-exactly."""

    subcommand: str
    argv: list[str]
    parameters: dict
    outputs: list[str]
    generator: dict | None = None
    conventions: dict = field(default_factory=dict)
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def manifest_path_for(output_path) -> Path:
    return Path(str(output_path) + ".manifest.json")


def write_manifest(manifest: RunManifest, output_path) -> Path:
    target = manifest_path_for(output_path)
    target.write_text(manifest.to_json())
    return target


def read_manifest(path) -> RunManifest:
    try:
        raw = json.loads(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError("manifest must be a JSON object")
    for name in ("parameters", "conventions"):
        if not isinstance(raw.get(name, {}), dict):
            raise DataError(f"manifest {name} must be a JSON object")
    try:
        manifest = RunManifest(
            subcommand=raw["subcommand"],
            argv=raw["argv"],
            parameters=raw["parameters"],
            outputs=raw["outputs"],
            generator=raw.get("generator"),
            conventions=raw.get("conventions", {}),
            version=raw.get("version", __version__),
        )
    except KeyError as exc:
        raise DataError(f"manifest is missing required field: {exc}") from None
    if not (_is_str_list(manifest.argv) and manifest.argv[:1] == [manifest.subcommand]):
        raise DataError("manifest argv must be a list of strings that starts with its subcommand")
    if not _is_str_list(manifest.outputs):
        raise DataError("manifest outputs must be a list of strings")
    return manifest


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)
