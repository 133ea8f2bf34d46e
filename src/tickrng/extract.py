"""Randomness extraction from the clock counts between detections.

The number of clock slots between consecutive detections, taken modulo
2, is the raw random bit (modulo 4 yields a basis/key bit pair).  The
raw bits carry a known bias towards odd counts; :func:`flip_debias`
removes it by alternating the bit assignment on every detection.  Before
any signal is admitted, a buffer of bits can be produced from dark
counts alone (:func:`bootstrap_buffer`) so the first basis choices never
depend on observable detections.

Both extractors read only the interval modulo 4, so they work on the
slots' low byte: ``slots.astype(uint8)`` keeps each slot modulo 256 and
``uint8`` subtraction wraps modulo 256, so the differences of the low
bytes are the intervals modulo 256, exactly, even where a 64-bit
interval is 2**32 or more.  :func:`intervals` keeps the full 64-bit
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DataError, GuardError, as_count
from .models import Distribution, SourceModel
from .sim import ClockConfig, ClockMode, EventStream, generate_free_running

__all__ = [
    "bit_array",
    "BitStream",
    "SymbolPair",
    "Modulus",
    "ExtractorConfig",
    "BalanceResult",
    "intervals",
    "extract_mod2",
    "extract_mod4",
    "mod4_arrays",
    "symbol_from_interval",
    "flip_debias",
    "balance",
    "bootstrap_buffer",
]


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
    """Immutable sequence of bits stored as a uint8 array of 0/1 values."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.array(bit_array(self.bits))
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def from_bits(cls, values) -> "BitStream":
        return cls(list(values))

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


class SymbolPair(NamedTuple):
    """Basis and key bit extracted from one interval modulo 4.

    The basis bit is the high bit of ``interval mod 4`` and the key bit
    the low bit, so the mod-2 key bit is unchanged by mod-4 extraction.
    """

    basis_bit: int
    key_bit: int


class Modulus(str, Enum):
    MOD2 = "mod2"
    MOD4 = "mod4"


@dataclass(frozen=True)
class ExtractorConfig:
    include_first: bool = True


class BalanceResult(NamedTuple):
    """min/max ratio of the two bit counts; degenerate when one count is 0."""

    ratio: float
    degenerate: bool


def _differences(values: np.ndarray, include_first: bool) -> np.ndarray:
    """Differences of consecutive ``values``, led by ``values[0] - 0`` with ``include_first``."""
    return np.diff(values, prepend=np.zeros(int(include_first), values.dtype))


def intervals(stream: EventStream, include_first: bool = True) -> np.ndarray:
    """Clock counts between consecutive detections.

    With ``include_first`` the first detection is differenced against
    clock tick 0, yielding one interval per detection; otherwise the
    first detection only starts the counter.
    """
    return _differences(stream.slots, include_first)


def extract_mod2(stream: EventStream, cfg: ExtractorConfig = ExtractorConfig()) -> BitStream:
    """One bit per interval: the interval length modulo 2."""
    gaps = _differences(stream.slots.astype(np.uint8), cfg.include_first)
    gaps &= 1
    return BitStream(gaps)


def mod4_arrays(
    stream: EventStream, cfg: ExtractorConfig = ExtractorConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """(basis, key) uint8 bit arrays of the intervals modulo 4: their high and low bits."""
    key = _differences(stream.slots.astype(np.uint8), cfg.include_first)
    basis = key >> 1
    basis &= 1
    key &= 1
    return basis, key


def extract_mod4(stream: EventStream, cfg: ExtractorConfig = ExtractorConfig()) -> list[SymbolPair]:
    """One (basis, key) pair per interval: the interval length modulo 4."""
    basis, key = mod4_arrays(stream, cfg)
    return [SymbolPair(int(b), int(k)) for b, k in zip(basis.tolist(), key.tolist())]


def symbol_from_interval(n: int) -> SymbolPair:
    """Basis/key pair for a single interval of ``n`` slots."""
    v = as_count(n, "interval", positive=True) % 4
    return SymbolPair(v >> 1, v & 1)


def flip_debias(raw: BitStream) -> BitStream:
    """Alternate the bit assignment on every detection: XOR position parity.

    Output bit ``t`` is ``raw[t] XOR (t mod 2)`` counting from ``t = 0``,
    which swaps the roles of even and odd intervals on every other
    detection and cancels the parity bias to first order.  The transform
    is an involution.
    """
    bits = raw.bits.copy()
    bits[1::2] ^= 1
    return BitStream(bits)


def balance(bits: BitStream) -> BalanceResult:
    """Ratio of the rarer to the more common bit value (1.0 = perfectly balanced)."""
    ones = bits.ones()
    zeros = len(bits) - ones
    if ones == 0 or zeros == 0:
        return BalanceResult(0.0, True)
    return BalanceResult(min(ones, zeros) / max(ones, zeros), False)


def bootstrap_buffer(clock: ClockConfig, k: int, seed) -> BitStream:
    """Produce ``k`` basis bits from dark counts alone (input light blocked).

    Simulates the blocked-input phase: dark counts arrive per clock slot
    with probability ``clock.dark_prob`` (dead time still applies); the
    ``k`` intervals between them, the first counted from tick 0, give
    ``k`` mod-2 bits that pre-fill the basis buffer before any signal is
    admitted.  Equivalent to ``extract_mod2`` on a free-running stream
    generated from a zero-photon source with the same dark probability,
    dead time and seed.
    """
    k = as_count(k, "bootstrap length")
    if k == 0:
        return BitStream(np.empty(0, dtype=np.uint8))
    if clock.dark_prob <= 0.0:
        raise GuardError("bootstrap requires a positive dark-count probability")
    blocked_input = SourceModel(Distribution.POISSON, 0.0, 0.0)
    quiet_clock = ClockConfig(
        mode=ClockMode.FREE_RUNNING,
        dark_prob=clock.dark_prob,
        dead_slots=clock.dead_slots,
    )
    stream = generate_free_running(blocked_input, quiet_clock, k, seed)
    return extract_mod2(stream)
