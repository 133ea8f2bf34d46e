"""Randomness extraction from the clock counts between detections.

The number of clock slots between consecutive detections, taken modulo
2, is the raw random bit; taken modulo 4, its high and low bits are a
basis/key bit pair (:func:`mod4_arrays`).  The raw bits carry a known
bias towards odd counts; :func:`flip_debias` removes it by alternating
the bit assignment on every detection.

Both extractors read only the interval modulo 4, so they work on the
slots' low byte: ``slots.astype(uint8)`` keeps each slot modulo 256 and
``uint8`` subtraction wraps modulo 256, so the differences of the low
bytes are the intervals modulo 256, exactly, even where a 64-bit
interval is 2**32 or more.  An :class:`EventStream` holds only its slots,
checked by :func:`check_slots`, to which a simulator passes its dead time,
or comes as blocks checked by :func:`check_blocks`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DataError

__all__ = [
    "check_slots",
    "check_blocks",
    "EventStream",
    "bit_array",
    "BitStream",
    "ExtractorConfig",
    "interval_bytes",
    "extract_mod2",
    "mod4_arrays",
    "flip_debias",
    "balance",
]


# Slots compared at a time by check_slots, so its temporaries stay small.
_CHECK_BLOCK = 2**16


def check_slots(slots, where: Callable[[int], str] | None = None, dead_slots: int = 0,
                prev: int | None = None, first: int = 0) -> np.ndarray:
    """``slots`` as a read-only 1-d uint64 array of strictly increasing indices >= 1.

    Raises :class:`DataError` for a non-integer dtype, a slot below 1 or a
    slot not above its predecessor, naming entry ``i`` by ``where(i)``
    (``entry i+1`` by default), else for a gap of ``dead_slots`` or less.
    A block passes the slot before it as ``prev`` and its first index as ``first``.
    Copies unless ``slots`` is uint64 and read-only down to an owner or
    ``bytes``.
    """
    arr = np.asarray(slots)
    if arr.ndim != 1:
        raise DataError("event slots must be a 1-d array")
    if arr.dtype.kind not in "iu":
        raise DataError(f"event slots must be integers, got dtype {arr.dtype}")
    name = where or (lambda i: f"entry {i + 1}")

    def bad_entry(i: int) -> DataError:
        value = int(arr[i])
        if value < 1:
            return DataError(f"{name(first + i)}: slot index must be >= 1, got {value}")
        last = int(arr[i - 1]) if i else prev
        kind = "duplicate" if value == last else "non-increasing"
        return DataError(f"{name(first + i)}: {kind} slot index {value} (previous was {last})")

    if arr.size and int(arr[0]) <= (prev or 0):
        raise bad_entry(0)
    too_close = bool(arr.size) and prev is not None and int(arr[0]) - prev <= dead_slots
    for start in range(0, arr.size - 1, _CHECK_BLOCK):
        window = arr[start : start + _CHECK_BLOCK + 1]
        bad = window[1:] <= window[:-1]
        if bad.any():
            raise bad_entry(start + 1 + int(bad.argmax()))
        too_close = too_close or (dead_slots > 0 and int(np.diff(window).min()) <= dead_slots)
    if too_close:
        raise DataError(f"event gaps must exceed the dead time of {dead_slots} slots")
    if arr.dtype != np.uint64 or not _frozen(arr):
        arr = arr.astype(np.uint64)
        arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> bool:
    """Whether ``arr`` is read-only down to an owning array or ``bytes``:
    no writable array shares its data, so it can be kept without a copy."""
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    return base is None or isinstance(base, bytes)


def check_blocks(blocks: Iterable, where: Callable[[int], str] | None = None,
                 dead_slots: int = 0) -> Iterator[np.ndarray]:
    """Each of one stream's slot blocks as :func:`check_slots` returns it,
    given the slot before it: a whole-stream check's errors up to its end."""
    prev, first = None, 0
    for block in blocks:
        block = check_slots(block, where, dead_slots, prev, first)
        if block.size:
            prev, first = int(block[-1]), first + block.size
        yield block


@dataclass(frozen=True, eq=False)
class EventStream:
    """Detection slot indices (64-bit unsigned, strictly increasing, first >= 1).

    The slots are checked, and copied if need be, by :func:`check_slots`,
    which names a bad entry by ``where`` (a file reader's line namer) and
    refuses a gap of ``dead_slots`` or less (a simulator's dead time).
    """

    slots: np.ndarray
    where: InitVar[Callable[[int], str] | None] = None
    dead_slots: InitVar[int] = 0

    def __post_init__(self, where, dead_slots):
        object.__setattr__(self, "slots", check_slots(self.slots, where, dead_slots))

    def __len__(self) -> int:
        return int(self.slots.size)


def bit_array(values, ndim: int = 1) -> np.ndarray:
    """``values`` as an ``ndim``-d uint8 array of 0/1 bits, else :class:`DataError`.

    A uint8 or bool array is checked with one ``max()`` pass and returned
    without a copy; any other dtype must hold exactly the values 0 and 1.
    A :class:`BitStream`, checked when it was built, gives its ``bits``.
    """
    if isinstance(values, BitStream) and ndim == 1:
        return values.bits
    arr = np.asarray(values)
    if arr.ndim != ndim:
        raise DataError(f"bits must form a {ndim}-d array")
    if arr.dtype == np.bool_:
        return arr.view(np.uint8)
    if arr.dtype == np.uint8:
        ok = not arr.size or arr.max() <= 1
    else:
        ok = arr.dtype.kind in "iuf" and bool(np.all((arr == 0) | (arr == 1)))
    if not ok:
        raise DataError("bit values must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


@dataclass(frozen=True, eq=False)
class BitStream:
    """Immutable sequence of bits stored as a uint8 array of 0/1 values.

    The bits are checked by :func:`bit_array` and copied unless they are
    uint8 and read-only down to their owner, as the arrays the library
    makes and hands over are.
    """

    bits: np.ndarray

    def __post_init__(self):
        arr = bit_array(self.bits)
        if not _frozen(arr):
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def ones(self) -> int:
        return int(np.count_nonzero(self.bits))

    def zeros(self) -> int:
        return len(self) - self.ones()


@dataclass(frozen=True)
class ExtractorConfig:
    include_first: bool = True


def interval_bytes(slots: np.ndarray, prev: int | None = 0) -> np.ndarray:
    """The intervals ending at ``slots``, modulo 256, as uint8.

    The first is counted from slot ``prev`` (clock tick 0 by default), so
    blocks of one stream, each passed the last slot before it, give the
    whole stream's bytes; with ``prev=None`` the first slot only starts
    the counter.
    """
    low = slots.astype(np.uint8)
    if prev is None:
        return np.subtract(low[1:], low[:-1])
    out = np.empty_like(low)
    np.subtract(low[1:], low[:-1], out=out[1:])
    np.subtract(low[:1], int(prev) & 0xFF, out=out[:1])
    return out


def _stream_intervals(stream: EventStream | Iterable, cfg: ExtractorConfig) -> np.ndarray:
    """:func:`interval_bytes` of a stream or its checked blocks, each passed
    the slot before it."""
    prev = 0 if cfg.include_first else None
    parts = []
    for block in (stream.slots,) if isinstance(stream, EventStream) else stream:
        if block.size:
            parts.append(interval_bytes(block, prev))
            prev = int(block[-1])
    return parts[0] if len(parts) == 1 else np.concatenate([np.empty(0, np.uint8), *parts])


def extract_mod2(stream: EventStream | Iterable, cfg: ExtractorConfig = ExtractorConfig()) -> BitStream:
    """One bit per interval of a stream or its checked blocks: the interval length modulo 2."""
    gaps = _stream_intervals(stream, cfg)
    gaps &= 1
    gaps.setflags(write=False)
    return BitStream(gaps)


def mod4_arrays(
    stream: EventStream | Iterable, cfg: ExtractorConfig = ExtractorConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """(basis, key) uint8 bit arrays of the intervals modulo 4: their high and low bits.

    The key bits are therefore :func:`extract_mod2`'s bits.
    """
    key = _stream_intervals(stream, cfg)
    basis = key >> 1
    basis &= 1
    key &= 1
    return basis, key


def flip_debias(raw: BitStream) -> BitStream:
    """Alternate the bit assignment on every detection: XOR position parity.

    Output bit ``t`` is ``raw[t] XOR (t mod 2)`` counting from ``t = 0``,
    which swaps the roles of even and odd intervals on every other
    detection and cancels the parity bias to first order.  The transform
    is an involution.
    """
    bits = raw.bits.copy()
    bits[1::2] ^= 1
    bits.setflags(write=False)
    return BitStream(bits)


def balance(bits: BitStream | tuple[int, int]) -> float:
    """Ratio of the rarer to the more common bit value: 1.0 when perfectly
    balanced, 0.0 when one value never occurs.

    ``bits`` may also be given by its counts, ``(ones, length)``.
    """
    ones, length = (bits.ones(), len(bits)) if isinstance(bits, BitStream) else bits
    zeros = length - ones
    return min(ones, zeros) / max(ones, zeros) if ones and zeros else 0.0
