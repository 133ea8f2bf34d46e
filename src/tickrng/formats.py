"""File formats: event streams, bit streams, test reports.

Event streams are ascii, one decimal slot index per line, or a packed
binary stream of little-endian unsigned 64-bit integers.  An ascii event
line (lines end at ``\n``) is optional blanks (space, tab, CR), one run of
ASCII digits and optional blanks; blank lines are skipped and any other
byte is an error naming its line.  Slot indices lie in 1..2**64 - 1 and
strictly increase.  Bit streams are either ``ascii01`` -- the bytes ``0``
and ``1`` with ASCII whitespace (space, tab, LF, VT, FF, CR) ignored -- or
a packed format with an 8-byte little-endian bit-count header followed by
MSB-first bytes, zero-padded.  The ``fmt`` of the four readers and
writers is one of the strings ``ascii`` and ``binary`` for events,
``ascii01`` and ``packed`` for bits; any other is a ``ValueError``.
Reports are CSV; :func:`write_report` takes the battery's report without
this module importing the battery, so event and bit I/O loads no
``suite``.  The event and bit types are the bits layer's (``extract``), so
no I/O loads the simulator.  Run manifests are :mod:`manifest`'s.

Event files are written and read one fixed-size block at a time, by
array kernels with no Python object per line, so the work memory does not
grow with the stream; :func:`read_events` is the one-block case of
:func:`read_event_blocks`.

- The writer takes a stream or its blocks and formats 2**16 slots at a
  time: an (n, width + 1) byte matrix filled right to left by repeated
  division by 10, width being the digit count of the block's largest
  slot, then a newline column.  Each row's leading-zero columns are
  dropped by a mask chosen by its own digit count, so the bytes do not
  depend on the block.  A file is written beside its path and moved
  there when done, so a failed write leaves the path as it was.
- The binary reader checks a file's length from its size and reads
  ``_READ_BLOCK`` bytes at a time, each block checked against the slot
  before it.  A pipe is read until it ends and its length checked there.
- The ascii reader keeps the file's bytes and fills one uint64 array,
  sized by the newline count, from blocks of whole lines of about
  256 KiB.  In each block it checks that every byte is a digit, a blank
  or a newline and that no blank run splits a line into two numbers, from
  the edges of padded byte masks; numpy's text reader (``np.fromstring``
  with ``sep=" "``) then converts the checked text.  It saturates a number
  above 2**64 - 1 to 2**64 - 1, so only tokens read as that value are
  checked for overflow: their last 20 bytes against the digits of
  2**64 - 1, and the bytes before those against ``0``.  The error is the
  one a single pass gives: the first stray byte, else the first split
  line, else the first overflow.  A slot's line is looked up only when a
  message names it, from the first entry and byte of its block.
  :func:`read_event_blocks` parses a regular file a block of whole lines
  at a time, so it holds one block's bytes, not the file's; on an error
  it parses the file again whole, for the whole-file message.

Both kernels are tested against per-line oracles in the tests (one
``str`` per slot; ``bytes.split`` and ``int`` per line).

Bit files are read in blocks too: ``_READ_BLOCK`` bytes of an ascii01
file or ``_READ_BLOCK // 8`` of a packed one at a time, each checked and
turned into 0/1 bytes.  :func:`read_bit_runs` copies them into one
reused buffer of a battery run; :func:`read_bits` joins them.  The whole
file is read and checked either way, with a whole-file pass's errors: an
ascii01 file's first stray byte, named by its line from the newlines of
the blocks before it; a packed file's short header, its length (on the
call for a regular file, where it ends for a pipe), then its padding.
"""

from __future__ import annotations

import csv
import os
from bisect import bisect_right
from pathlib import Path
from stat import S_ISREG
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import DataError, as_count
from .extract import BitStream, EventStream, check_blocks, check_slots

if TYPE_CHECKING:
    from .suite import TestReport

__all__ = [
    "read_events",
    "read_event_blocks",
    "write_events",
    "read_bits",
    "read_bit_runs",
    "write_bits",
    "write_report",
    "REPORT_HEADER",
]

REPORT_HEADER = ("test_id", "test_index", "run_index", "p_value", "pass")


def _line_of(blob: bytes, pos: int) -> int:
    """1-based number of the line holding byte ``pos``."""
    return blob.count(b"\n", 0, pos) + 1


def _not_a_slot(blob: bytes, pos: int) -> DataError:
    start = blob.rfind(b"\n", 0, pos) + 1
    end = blob.find(b"\n", pos)
    text = blob[start : end if end >= 0 else None].strip(b" \t\r").decode("utf-8", "replace")
    return DataError(f"line {_line_of(blob, pos)}: {text!r} is not a decimal slot index")


_WRITE_BLOCK = 2**16  # slots formatted and written at a time
# Bytes read at a time: of events, cut at a line end (ascii) or in whole
# slots (binary); of bits, an ascii01 file's, or an eighth of them packed.
_READ_BLOCK = 2**18

_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)
_U64_MAX = 2**64 - 1
_U64_MAX_DIGITS = np.frombuffer(str(_U64_MAX).encode(), dtype=np.uint8)


def _padded_digits(buf: np.ndarray) -> np.ndarray:
    """The digit mask of ``buf`` with False at each end."""
    padded = np.zeros(buf.size + 2, dtype=bool)
    np.less(buf - ord("0"), 10, out=padded[1:-1])
    return padded


def _check_block(blob: bytes, start: int, buf: np.ndarray):
    """The padded digit mask of the block ``buf`` at byte ``start`` and its first split line.

    Raises at the block's first byte that is not a digit, a blank or a
    newline; the split line is a :class:`DataError` or None.
    """
    padded = _padded_digits(buf)
    # Every byte that is neither a digit nor a newline must be a blank.
    blank = np.equal(buf, ord("\n"))
    blank |= padded[1:-1]
    np.logical_not(blank, out=blank)
    other = buf[blank]
    stray = (other != ord(" ")) & (other != ord("\t")) & (other != ord("\r"))
    if stray.any():
        raise _not_a_slot(blob, start + int(np.flatnonzero(blank)[stray.argmax()]))
    if not other.size:
        return padded, None
    # Run k of the blank mask covers bytes edges[2k] .. edges[2k + 1] - 1.
    edges = np.flatnonzero(np.diff(blank, prepend=False, append=False))
    del blank
    # A blank run with a digit on each side splits a line into two numbers.
    split = padded[edges[0::2]] & padded[edges[1::2] + 1]
    return padded, _not_a_slot(blob, start + int(edges[0::2][split.argmax()])) if split.any() else None


def _overflow(blob: bytes, start: int, buf: np.ndarray, padded: np.ndarray, slots: np.ndarray):
    """The first overflowing slot of the block ``buf`` at byte ``start``, as a :class:`DataError`, or None.

    The reader saturates a number above 2**64 - 1 to 2**64 - 1, so only
    tokens read as that value can overflow.  One fits when its last 20
    bytes are the digits of 2**64 - 1 and all bytes before them are "0".
    """
    sat = np.flatnonzero(slots == _U64_MAX)
    if not sat.size:
        return None
    # Token k covers bytes edges[2k] .. edges[2k + 1] - 1 of the block.
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    heads, ends = edges[0::2][sat], edges[1::2][sat]
    tails = ends - 20
    over = (np.lib.stride_tricks.sliding_window_view(buf, 20)[tails] != _U64_MAX_DIGITS).any(axis=1)
    # The largest byte before each tail; reduceat returns the first byte of
    # an empty range, so a token of exactly 20 bytes is masked out.
    lead = np.maximum.reduceat(buf, np.stack((heads, tails), axis=1).ravel())[0::2]
    over |= (lead > ord("0")) & (tails > heads)
    if not over.any():
        return None
    head, end = start + int(heads[over.argmax()]), start + int(ends[over.argmax()])
    return DataError(f"line {_line_of(blob, head)}: slot index {blob[head:end].decode()} overflows 64 bits")


def _parse_ascii_events(blob: bytes):
    """Slot indices of an ascii event file and a function naming the line of entry i.

    The file is checked and converted in blocks of whole lines, each of at
    least ``_READ_BLOCK`` bytes but the last.  The error is the one a pass
    over the whole file gives: the first stray byte, else the first split
    line, else the first overflowing slot.
    """
    slots = np.empty(blob.count(b"\n") + 1, dtype=np.uint64)
    # Block k starts at byte bounds[k] and at entry firsts[k].
    bounds, firsts = [0], []
    split = overflow = None
    n = 0
    while bounds[-1] < len(blob):
        start = bounds[-1]
        end = blob.find(b"\n", start + _READ_BLOCK - 1) + 1 or len(blob)
        bounds.append(end)
        firsts.append(n)
        buf = np.frombuffer(blob, dtype=np.uint8, count=end - start, offset=start)
        padded, block_split = _check_block(blob, start, buf)
        split = split or block_split
        # After a split line or an overflow, only a stray byte (or, after an
        # overflow, a split line) further on changes the error.
        if split or overflow:
            continue
        count = np.count_nonzero(padded[1:] > padded[:-1])
        # The slice drops the [0] that fromstring reads from blank-only text.
        block = slots[n : n + count]
        block[:] = np.fromstring(buf, dtype=np.uint64, sep=" ")[:count]
        overflow = _overflow(blob, start, buf, padded, block)
        n += count
    if split or overflow:
        raise split or overflow

    def where(i: int) -> str:
        k = bisect_right(firsts, i) - 1
        buf = np.frombuffer(blob, dtype=np.uint8, count=bounds[k + 1] - bounds[k], offset=bounds[k])
        padded = _padded_digits(buf)
        head = np.flatnonzero(padded[1:] > padded[:-1])[i - firsts[k]]
        return f"line {_line_of(blob, bounds[k] + int(head))}"

    # Trimmed in place to the slots filled (blank lines leave entries
    # unfilled) and frozen, so the stream keeps the array itself.
    slots.resize(n, refcheck=False)  # no view of it is used any more
    slots.setflags(write=False)
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


def _event_blocks(path, fmt: str, count: int | None) -> Iterator[np.ndarray]:
    """The checked slot blocks of an event file: a binary file's, ``count``
    slots each (all for None), or a regular ascii file's, one per block of
    whole lines (one for None).  A binary file's length is checked on the
    call, a pipe's where it ends; an ascii pipe is parsed whole on the call."""
    if fmt not in ("ascii", "binary"):
        raise ValueError(f"unknown event format {fmt!r}")
    info = Path(path).stat()
    if fmt == "ascii":
        if count and S_ISREG(info.st_mode):
            return _ascii_blocks(path)
        return iter((check_slots(*_parse_ascii_events(Path(path).read_bytes())),))
    if S_ISREG(info.st_mode) and info.st_size % 8:
        raise _bad_length(info.st_size)
    return check_blocks(_binary_blocks(path, count))


def _ascii_blocks(path) -> Iterator[np.ndarray]:
    """A regular ascii file's slots, parsed and checked a block of whole
    lines at a time.  On an error the file is parsed again whole, which
    names the error as a whole-file pass does."""
    try:
        yield from check_blocks(_parse_ascii_events(lines)[0] for lines in _line_blocks(path))
    except DataError:
        check_slots(*_parse_ascii_events(Path(path).read_bytes()))
        raise


def _line_blocks(path) -> Iterator[bytes]:
    """A file's bytes in blocks of whole lines, cut at the last line end of
    each ``_READ_BLOCK``-byte read."""
    with Path(path).open("rb") as fh:
        pieces = []
        while chunk := fh.read(_READ_BLOCK):
            end = chunk.rfind(b"\n") + 1
            if end:
                yield b"".join((*pieces, chunk[:end]))
                pieces = [chunk[end:]]
            else:
                pieces.append(chunk)
        if any(pieces):
            yield b"".join(pieces)


def _bad_length(size: int) -> DataError:
    return DataError(f"binary event file length {size} is not a multiple of 8")


def _binary_blocks(path, count: int | None) -> Iterator[np.ndarray]:
    """Read until the end, which is where a read comes short."""
    size = 0
    with Path(path).open("rb") as fh:
        while chunk := fh.read(8 * count if count else -1):
            size += len(chunk)
            if size % 8:
                raise _bad_length(size)
            yield np.frombuffer(chunk, dtype="<u8")


def read_events(path, fmt: str = "ascii") -> EventStream:
    """Read an event stream; an empty file yields an empty stream."""
    return EventStream(next(_event_blocks(path, fmt, None), np.empty(0, dtype=np.uint64)))


def read_event_blocks(path, fmt: str = "ascii") -> Iterator[np.ndarray]:
    """:func:`read_events`' slots and errors in checked read-only uint64
    blocks: of ``_READ_BLOCK`` bytes, in whole slots or whole lines."""
    return _event_blocks(path, fmt, -(-_READ_BLOCK // 8))


def write_events(stream: EventStream | Iterable, path, fmt: str = "ascii") -> None:
    """Write ``stream``, an :class:`EventStream` or the slot blocks of one.

    A file is written beside its path and moved there when done, so a
    write that fails leaves the path as it was; a device or a pipe, or a
    path with no directory, is written or refused in place.
    """
    if fmt not in ("ascii", "binary"):
        raise ValueError(f"unknown event format {fmt!r}")
    encode = _format_slots if fmt == "ascii" else (lambda block: block.astype("<u8", copy=False))
    path = Path(path)
    target = path.resolve()  # a symlink's file, not the link
    in_place = path.exists() and not path.is_file() or not target.parent.is_dir()  # the error names the path
    part = path if in_place else target.with_name(f".{target.name}.{os.urandom(4).hex()}.part")
    try:
        with part.open("wb") as fh:
            for block in (stream.slots,) if isinstance(stream, EventStream) else stream:
                for start in range(0, block.size, _WRITE_BLOCK):
                    fh.write(encode(block[start : start + _WRITE_BLOCK]))
        if not in_place:
            os.replace(part, target)
    except BaseException:
        if not in_place:
            part.unlink(missing_ok=True)
        raise


def _check_payload(bit_len: int, payload: int) -> None:
    """Refuse a packed payload of ``payload`` bytes for ``bit_len`` bits."""
    need = -(-bit_len // 8)
    if payload < need:
        raise DataError(f"packed bit file truncated: header says {bit_len} bits, payload has {payload} bytes")
    if payload > need:
        raise DataError(f"packed bit file has {payload - need} trailing bytes")


def _packed_header(fh, size: int | None = None) -> int:
    """The bit count in a packed file's header; given the file's ``size``,
    its payload's length is checked too."""
    head = fh.read(8)
    if len(head) < 8:
        raise DataError("packed bit file shorter than its 8-byte header")
    bit_len = int.from_bytes(head, "little")
    if size is not None:
        _check_payload(bit_len, size - 8)
    return bit_len


def _packed_blocks(path) -> Iterator[np.ndarray]:
    """A packed file's bits, from ``_READ_BLOCK // 8`` bytes at a time.  Its
    length is checked where it ends, then the padding of its last byte."""
    with Path(path).open("rb") as fh:
        bit_len = _packed_header(fh)
        need = -(-bit_len // 8)
        got, last = 0, b""
        while got < need:
            chunk = fh.read(min(max(1, _READ_BLOCK // 8), need - got))
            if not chunk:
                _check_payload(bit_len, got)  # truncated
            got += len(chunk)
            if got < need:
                yield np.unpackbits(np.frombuffer(chunk, dtype=np.uint8))
            else:
                last = chunk
        while rest := fh.read(_READ_BLOCK):
            got += len(rest)
        _check_payload(bit_len, got)  # trailing bytes
        bits = np.unpackbits(np.frombuffer(last, dtype=np.uint8))
        keep = bit_len - 8 * (need - len(last))
        if bits[keep:].any():
            raise DataError("packed bit file has non-zero padding bits")
        yield bits[:keep]


def _ascii01_blocks(path) -> Iterator[np.ndarray]:
    """An ascii01 file's bits, from ``_READ_BLOCK`` bytes at a time; a stray
    byte is named by its line, counted over the blocks before it."""
    with Path(path).open("rb") as fh:
        lines = 0  # newlines before the block
        while blob := fh.read(_READ_BLOCK):
            buf = np.frombuffer(blob, dtype=np.uint8)
            bit = (buf == ord("0")) | (buf == ord("1"))
            # ASCII whitespace: space and \t \n \v \f \r, which are 9..13.
            stray = ~(bit | (buf == ord(" ")) | ((buf - 9) < 5))
            if stray.any():
                pos = int(stray.argmax())
                text = blob[pos : pos + 4]
                text += fh.read(4 - len(text))  # the rest of a character the block cut
                ch = text.decode("utf-8", "replace")[0]
                raise DataError(f"line {lines + _line_of(blob, pos)}: stray character {ch!r} in bit stream")
            lines += blob.count(b"\n")
            yield buf[bit] - ord("0")


def _bit_blocks(path, fmt: str) -> Iterator[np.ndarray]:
    """The checked 0/1 uint8 blocks of a bit file.  A regular packed file's
    header and length are checked on the call, a pipe's where it ends."""
    if fmt not in ("ascii01", "packed"):
        raise ValueError(f"unknown bit format {fmt!r}")
    info = Path(path).stat()
    if fmt == "ascii01":
        return _ascii01_blocks(path)
    if S_ISREG(info.st_mode):
        with Path(path).open("rb") as fh:
            _packed_header(fh, info.st_size)
    return _packed_blocks(path)


def _runs(blocks: Iterable[np.ndarray], run_len: int) -> Iterator[np.ndarray]:
    """``blocks`` regrouped into runs of ``run_len`` bits, then the shorter rest,
    each a read-only view of one reused buffer."""
    buf = np.empty(run_len, dtype=np.uint8)
    run = buf.view()
    run.setflags(write=False)
    fill = 0
    for block in blocks:
        start = 0
        while start < block.size:
            take = min(run_len - fill, block.size - start)
            buf[fill : fill + take] = block[start : start + take]
            fill += take
            start += take
            if fill == run_len:
                yield run
                fill = 0
    yield run[:fill]


def read_bit_runs(path, fmt: str = "ascii01", run_len: int = 1_000_000) -> Iterator[np.ndarray]:
    """:func:`read_bits`' bits as runs of ``run_len`` bits and then the rest,
    shorter and possibly empty, read as they are used.

    Each run is a read-only view of one buffer that the next run reuses.
    The rest comes once the whole file has been read and checked, so the
    errors are :func:`read_bits`' own; a regular packed file's header and
    length are checked on the call.
    """
    run_len = as_count(run_len, "run_len", positive=True)
    return _runs(_bit_blocks(path, fmt), run_len)


def read_bits(path, fmt: str = "ascii01") -> BitStream:
    """A whole bit file, from the blocks :func:`read_bit_runs` regroups."""
    bits = np.concatenate([np.empty(0, dtype=np.uint8), *_bit_blocks(path, fmt)])
    bits.setflags(write=False)
    return BitStream(bits)


def write_bits(bits: BitStream, path, fmt: str = "ascii01") -> None:
    if fmt not in ("ascii01", "packed"):
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
            result = (f"{entry.p_value:.6g}", int(entry.passed)) if entry.applicable else ("NA", "NA")
            writer.writerow([entry.test_id.value, entry.test_id.index, entry.run_index, *result])
