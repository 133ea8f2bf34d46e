"""Monte Carlo generation of detection-event streams in clock-tick units.

Detectors are modelled at the resolution of a digital clock.  In
free-running mode every clock slot is an independent detection
opportunity; in gated mode the opportunity is a gate of
``slots_per_gate`` consecutive slots and a click lands on one slot
inside the gate according to an :class:`IntraGateProfile`.  Dark counts
are merged with photon clicks (a dark count is indistinguishable from a
photon click), and a dead time of ``dead_slots`` slots after each
accepted click suppresses later candidates.  A generated stream is an
``extract.EventStream`` checked against the dead time; it keeps no clock.

Gaps are inverse-CDF geometric draws, distributionally identical to
per-slot Bernoulli trials; the tests check their histogram against the
``window_pmf`` oracle of ``tests/conftest.py``.  Streams are drawn in
``_BLOCK``-slot blocks, in one call's draw order: :func:`generate_blocks`
yields them as drawn and the ``generate_*`` functions collect them.  A
gated top-up batch draws all its gaps before its profile slots, so it
holds them, a byte each where they fit one.  :func:`intra_gate_slots`
yields such blocks of a gated stream's intra-gate slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .errors import GuardError, as_count
from .extract import EventStream, check_blocks
from .models import SourceModel, click_probability

__all__ = [
    "GENERATOR_ALGORITHM",
    "ClockMode",
    "ClockConfig",
    "IntraGateProfile",
    "generate_free_running",
    "generate_gated",
    "generate_blocks",
    "intra_gate_slots",
    "apply_dead_time",
    "rng",
]

# Name of the pseudo-random bit generator backing every simulation; recorded in
# run manifests so outputs can be reproduced bit-exactly.
GENERATOR_ALGORITHM = "PCG64"

_MAX_TOPUP_BATCHES = 10_000
_BLOCK = 2**16

# The most events a stream drawn block by block may take, as ``qkd`` takes
# at most as many gates a round: at 30-40 ns each, about 10 hours.
_MAX_WORK = 1 << 40


def rng(seed) -> np.random.Generator:
    """The simulation generator (``GENERATOR_ALGORITHM``) seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(seed))


class ClockMode(str, Enum):
    FREE_RUNNING = "free_running"
    GATED = "gated"


@dataclass(frozen=True)
class ClockConfig:
    """Detector clock: mode, gate width, dark counts and dead time.

    ``dark_prob`` is the dark-count probability per detection opportunity
    (per slot in free-running mode, per gate in gated mode);
    ``dead_slots`` is the number of slots the detector stays blind after
    an accepted click.
    """

    mode: ClockMode
    slots_per_gate: int = 1
    dark_prob: float = 0.0
    dead_slots: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mode", ClockMode(self.mode))
        object.__setattr__(self, "slots_per_gate", as_count(self.slots_per_gate, "slots_per_gate", positive=True))
        if self.mode is ClockMode.FREE_RUNNING and self.slots_per_gate != 1:
            raise ValueError("free-running mode implies slots_per_gate == 1")
        if not (0.0 <= self.dark_prob < 1.0):
            raise ValueError(f"dark_prob must lie in [0, 1), got {self.dark_prob!r}")
        object.__setattr__(self, "dead_slots", as_count(self.dead_slots, "dead_slots"))


@dataclass(frozen=True)
class IntraGateProfile:
    """Distribution of the click slot within a gate (slots are 1-indexed).

    Construct via :meth:`uniform`, :meth:`fixed_slot` or :meth:`weighted`.
    """

    kind: str
    slot: int | None = None
    weights: tuple[float, ...] | None = None

    @classmethod
    def uniform(cls) -> "IntraGateProfile":
        return cls(kind="uniform")

    @classmethod
    def fixed_slot(cls, slot: int) -> "IntraGateProfile":
        return cls(kind="fixed", slot=slot)

    @classmethod
    def weighted(cls, weights) -> "IntraGateProfile":
        return cls(kind="weighted", weights=weights)

    def __post_init__(self):
        if self.kind == "fixed":
            object.__setattr__(self, "slot", as_count(self.slot, "fixed slot", positive=True))
        elif self.kind == "weighted":
            w = () if self.weights is None else tuple(float(v) for v in self.weights)
            if not w:
                raise ValueError("weighted profile needs at least one weight")
            if not all(v >= 0.0 for v in w):  # also rejects NaN
                raise ValueError(f"weights must be non-negative numbers, got {w!r}")
            if abs(sum(w) - 1.0) > 1e-12:
                raise ValueError(f"weights must sum to 1, got {sum(w)!r}")
            object.__setattr__(self, "weights", w)
        elif self.kind != "uniform":
            raise ValueError(f"unknown intra-gate profile kind {self.kind!r}")
        if self.slot is not None and self.kind != "fixed":
            raise ValueError(f"a {self.kind} profile takes no slot, got {self.slot!r}")
        if self.weights is not None and self.kind != "weighted":
            raise ValueError(f"a {self.kind} profile takes no weights, got {self.weights!r}")

    def _check(self, slots_per_gate: int) -> None:
        if self.kind == "fixed" and self.slot > slots_per_gate:
            raise ValueError(f"fixed slot {self.slot} outside gate of {slots_per_gate} slots")
        if self.kind == "weighted" and len(self.weights) != slots_per_gate:
            raise ValueError(f"weighted profile has {len(self.weights)} weights "
                             f"for a gate of {slots_per_gate} slots")

    def sample(self, rng: np.random.Generator, size: int, slots_per_gate: int) -> np.ndarray:
        """Draw ``size`` intra-gate slot indices in ``1..slots_per_gate``."""
        self._check(slots_per_gate)
        if slots_per_gate == 1:
            return np.ones(size, dtype=np.int64)
        if self.kind == "uniform":
            return rng.integers(1, slots_per_gate + 1, size=size, dtype=np.int64)
        if self.kind == "fixed":
            return np.full(size, self.slot, dtype=np.int64)
        return rng.choice(np.arange(1, slots_per_gate + 1, dtype=np.int64), size=size, p=self.weights)

    def odd_slot_probability(self, slots_per_gate: int) -> float:
        """Probability that the intra-gate slot index is odd."""
        self._check(slots_per_gate)
        if self.kind == "uniform":
            return ((slots_per_gate + 1) // 2) / slots_per_gate
        if self.kind == "fixed":
            return float(self.slot % 2)
        return float(sum(self.weights[0::2]))


def _stream_click_probability(source: SourceModel, clock: ClockConfig, n_events: int) -> float:
    """Merged photon-or-dark click probability per detection opportunity.

    :class:`GuardError` if it is 0, or if ``n_events`` detections would
    reach past 2**62 slots, each taking ``slots_per_gate / p + dead_slots``.
    A count above 2**62 is refused first: the float product cannot take
    one past float range.
    """
    p = 1.0 - (1.0 - click_probability(source)) * (1.0 - clock.dark_prob)
    if p <= 0.0:
        unit = "gate" if clock.mode is ClockMode.GATED else "slot"
        raise GuardError(f"per-{unit} click probability is 0; the stream would never terminate")
    big = max(n_events, clock.slots_per_gate, clock.dead_slots) > 2**62
    if big or n_events * (clock.slots_per_gate / p + clock.dead_slots) > 2.0**62:
        raise GuardError("requested stream would overflow 64-bit slot indices")
    return p


def generate_free_running(source: SourceModel, clock: ClockConfig, n_events: int, seed) -> EventStream:
    """Simulate ``n_events`` detections of a free-running detector.

    Every slot clicks independently with the merged photon-or-dark
    probability; after each click the next ``dead_slots`` slots are blind,
    so gaps are ``dead_slots`` plus a geometric draw.
    """
    n_events, p_slot = _guards(source, clock, None, n_events, "generate_free_running", ClockMode.FREE_RUNNING)
    blocks = _free_running_blocks(rng(seed), clock.dead_slots, n_events, p_slot)
    return _collect(blocks, np.empty(n_events, dtype=np.uint64), clock.dead_slots)


def _guards(source: SourceModel, clock: ClockConfig, profile: IntraGateProfile | None,
            n_events, name: str, mode: ClockMode) -> tuple[int, float | None]:
    """``n_events`` as a count and the merged click probability per slot or
    gate, None for no events, after the guards: the clock's ``mode`` (a
    ``ValueError`` naming ``name``), the count, a gated clock's profile,
    and :func:`_stream_click_probability`'s for one event or more."""
    if clock.mode is not mode:
        raise ValueError(f"{name} requires a {mode.value.replace('_', '-')} clock")
    n_events = as_count(n_events, "n_events")
    if mode is ClockMode.GATED:
        profile._check(clock.slots_per_gate)
    return n_events, _stream_click_probability(source, clock, n_events) if n_events else None


def generate_gated(source: SourceModel, clock: ClockConfig, profile: IntraGateProfile,
                   n_events: int, seed) -> EventStream:
    """Simulate ``n_events`` detections of a gated detector.

    Each gate clicks with the merged photon-or-dark probability; the
    click's slot within the gate is drawn from ``profile``.  The absolute
    slot of a click in gate ``g`` at intra-gate slot ``i`` is
    ``(g - 1) * slots_per_gate + i``.  With a dead time, candidate clicks
    falling within ``dead_slots`` of the last accepted click are lost.
    """
    n_events, p_gate = _guards(source, clock, profile, n_events, "generate_gated", ClockMode.GATED)
    slots = np.empty(n_events, dtype=np.uint64)
    # A batch of m candidates keeps its gaps in the last m bytes of the
    # slots; the kept slots, filled from the front, never reach unread gaps.
    tail = slots.view(np.uint8)
    blocks = _gated_blocks(rng(seed), clock, profile, n_events, p_gate, lambda m: tail[tail.size - m :])
    return _collect(blocks, slots, clock.dead_slots)


def generate_blocks(source: SourceModel, clock: ClockConfig, profile: IntraGateProfile | None,
                    n_events: int, seed) -> Iterator[np.ndarray]:
    """The clock's ``generate_*`` stream as drawn, in read-only uint64
    blocks checked against the dead time; the guards run on the call.

    No array bounds a stream that is not collected, so a count past
    ``_MAX_WORK`` is refused after the guards, at any clock.
    """
    n_events, p = _guards(source, clock, profile, n_events, "generate_blocks", clock.mode)
    if n_events > _MAX_WORK:
        raise GuardError(f"at most {_MAX_WORK} events per stream, got {n_events}")
    if clock.mode is ClockMode.GATED:
        blocks = _gated_blocks(rng(seed), clock, profile, n_events, p, lambda m: np.empty(m, dtype=np.uint8))
    else:
        blocks = _free_running_blocks(rng(seed), clock.dead_slots, n_events, p)
    return check_blocks(blocks, dead_slots=clock.dead_slots)


def _collect(blocks: Iterator[np.ndarray], slots: np.ndarray, dead_slots: int) -> EventStream:
    have = 0
    for block in blocks:
        slots[have : have + block.size] = block
        have += block.size
    slots.setflags(write=False)
    return EventStream(slots, dead_slots=dead_slots)


def _frozen(slots: np.ndarray) -> np.ndarray:
    """Unshared int64 ``slots`` as a read-only uint64 view, which check_slots keeps."""
    slots.setflags(write=False)
    return slots.view(np.uint64)


def _free_running_blocks(gen, dead: int, n_events: int, p_slot: float | None) -> Iterator[np.ndarray]:
    last = -dead  # the slot before the first, less a dead time
    for start in range(0, n_events, _BLOCK):
        slots = gen.geometric(p_slot, size=min(_BLOCK, n_events - start))
        slots += dead
        np.cumsum(slots, out=slots)
        slots += last
        last = int(slots[-1])
        yield _frozen(slots)


def _gated_blocks(gen, clock: ClockConfig, profile: IntraGateProfile, n_events: int,
                  p_gate: float | None, room: Callable[[int], np.ndarray]) -> Iterator[np.ndarray]:
    """Each top-up batch of m candidates draws its gaps into the m bytes
    ``room(m)``, a block with a gap past 255 aside at its narrowest dtype;
    then per block the profile slots and the dead time, carrying the last
    gate and the last kept slot."""
    r, dead = clock.slots_per_gate, clock.dead_slots
    have, last_gate, last_slot = 0, -1, -(dead + 1)
    for _ in range(_MAX_TOPUP_BATCHES):
        gaps, wide = room(n_events - have), {}
        for start in range(0, gaps.size, _BLOCK):
            block = gen.geometric(p_gate, size=min(_BLOCK, gaps.size - start))
            if block.max() > 255:
                wide[start] = block.astype(np.min_scalar_type(block.max()))
            else:
                gaps[start : start + block.size] = block
        for start in range(0, gaps.size, _BLOCK):
            slots = np.cumsum(wide.pop(start, gaps[start : start + _BLOCK]), dtype=np.int64)
            slots += last_gate
            last_gate = int(slots[-1])
            slots *= r
            slots += profile.sample(gen, slots.size, r)
            if dead:
                slots = slots[apply_dead_time(slots, dead, last_slot)]
            if slots.size:
                last_slot = int(slots[-1])
                have += slots.size
                yield _frozen(slots)
        if have == n_events:
            return
    raise GuardError(
        "dead time rejected too many candidate clicks; "
        f"gave up after {_MAX_TOPUP_BATCHES} batches"
    )


def intra_gate_slots(source: SourceModel, clock: ClockConfig, profile: IntraGateProfile,
                     n_events: int, seed) -> Iterator[np.ndarray]:
    """The intra-gate slots of ``generate_gated``'s stream, ``_BLOCK`` at a time.

    Runs its guards on the call; nothing is drawn before the first block.
    The int64 blocks join up to ``(slots - 1) % slots_per_gate + 1``.
    Without dead time the gaps are walked and dropped, then the profile
    slots are yielded as drawn.  With dead time, which candidates survive
    depends on their absolute slots, so the whole stream is held.
    """
    n_events, p_gate = _guards(source, clock, profile, n_events, "intra_gate_slots", ClockMode.GATED)
    return _intra_gate_blocks(source, clock, profile, n_events, seed, p_gate)


def _intra_gate_blocks(source: SourceModel, clock: ClockConfig, profile: IntraGateProfile,
                       n_events: int, seed, p_gate: float | None) -> Iterator[np.ndarray]:
    r, starts = clock.slots_per_gate, range(0, n_events, _BLOCK)
    if clock.dead_slots:
        slots = generate_gated(source, clock, profile, n_events, seed).slots.view(np.int64)
        for start in starts:
            yield (slots[start : start + _BLOCK] - 1) % r + 1
        return
    gen = rng(seed)
    # The gaps are walked only to reach the profile's draws; a one-slot gate
    # or a fixed slot takes none, so there the walk is skipped.
    if r > 1 and profile.kind != "fixed":
        for start in starts:
            gen.geometric(p_gate, size=min(_BLOCK, n_events - start))
    for start in starts:
        yield profile.sample(gen, min(_BLOCK, n_events - start), r)


def apply_dead_time(slots: np.ndarray, dead: int, last: int) -> np.ndarray:
    """Keep-mask of candidate clicks that survive a dead time of ``dead`` slots.

    ``slots`` are strictly increasing candidate slots and ``last`` is the
    slot of the last accepted click before them, below ``slots[0]``
    (``-(dead + 1)`` when there is none).  The kept clicks form a chain:
    the first candidate more than ``dead`` after ``last``, then the first
    more than ``dead`` after that one, and so on.  Every candidate more
    than ``dead`` after its predecessor is on it; the rest of the chain is
    followed by pointer doubling over the *near* candidates, those whose
    successor lies within ``dead``.
    """
    slots = np.asarray(slots, dtype=np.int64)
    # keep[-1] stands for the end of the candidates, where a jump may land.
    keep = np.zeros(slots.size + 1, dtype=bool)
    np.greater(np.diff(slots), dead, out=keep[1:-1])
    keep[np.searchsorted(slots, last + dead, "right")] = True
    near = np.flatnonzero(~keep[1:-1])
    # Each near candidate's jump, the first candidate clear of it: those in
    # between all succeed a near one, so only those successors are searched.
    jump = np.searchsorted(slots[near + 1], slots[near] + dead, "right")
    jump += near + 1 - np.arange(near.size)
    # Each jump as the first near candidate at or after it; the walk ends
    # where that one is kept, as it always is past a jump that is not near.
    marked = np.append(keep[near], True)
    step = np.searchsorted(near, np.append(jump, slots.size))
    step[marked[step]] = near.size
    while (step < near.size).any():
        marked[step[marked]] = True
        step = step[step]
    keep[jump[marked[:-1]]] = True
    return keep[:-1]
