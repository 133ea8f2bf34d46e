"""Monte Carlo generation of detection-event streams in clock-tick units.

Detectors are modelled at the resolution of a digital clock.  In
free-running mode every clock slot is an independent detection
opportunity; in gated mode the opportunity is a gate of
``slots_per_gate`` consecutive slots and a click lands on one slot
inside the gate according to an :class:`IntraGateProfile`.  Dark counts
are merged with photon clicks (a dark count is indistinguishable from a
photon click), and a dead time of ``dead_slots`` slots after each
accepted click suppresses later candidates.

Gap sampling uses inverse-CDF geometric draws rather than per-slot
Bernoulli trials; the two are distributionally identical and the tests
check the generated gap histogram against :func:`tickrng.models.window_pmf`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DataError, GuardError, as_count
from .models import SourceModel, click_probability

__all__ = [
    "GENERATOR_ALGORITHM",
    "ClockMode",
    "ClockConfig",
    "IntraGateProfile",
    "EventStream",
    "check_slots",
    "generate_free_running",
    "generate_gated",
    "apply_dead_time",
    "empirical_parity",
    "rng",
]

# Name of the pseudo-random bit generator backing every simulation; recorded in
# run manifests so outputs can be reproduced bit-exactly.
GENERATOR_ALGORITHM = "PCG64"

_MAX_TOPUP_BATCHES = 10_000


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


def check_slots(slots, where: Callable[[int], str] | None = None) -> np.ndarray:
    """``slots`` as a new 1-d uint64 array of strictly increasing indices >= 1.

    Raises :class:`DataError` for a non-integer dtype, a slot below 1 or a
    slot not above its predecessor; the bad entry ``i`` is named by
    ``where(i)``, by default ``entry i+1``.
    """
    arr = np.asarray(slots)
    if arr.ndim != 1:
        raise DataError("event slots must be a 1-d array")
    if arr.dtype.kind not in "iu":
        raise DataError(f"event slots must be integers, got dtype {arr.dtype}")
    if arr.size:
        bad = np.flatnonzero(arr[1:] <= arr[:-1]) + 1
        if arr[0] < 1 or bad.size:
            name = where or (lambda i: f"entry {i + 1}")
            i = 0 if arr[0] < 1 else int(bad[0])
            value = int(arr[i])
            if value < 1:
                raise DataError(f"{name(i)}: slot index must be >= 1, got {value}")
            last = int(arr[i - 1])
            kind = "duplicate" if value == last else "non-increasing"
            raise DataError(f"{name(i)}: {kind} slot index {value} (previous was {last})")
    return arr.astype(np.uint64)


@dataclass(frozen=True, eq=False)
class EventStream:
    """Detection slot indices (64-bit unsigned, strictly increasing, first >= 1).

    The slots are checked by :func:`check_slots`, which names a bad entry
    by ``where`` (a file reader passes its line namer), and every gap must
    exceed the clock's dead time.
    """

    slots: np.ndarray
    clock: ClockConfig
    where: InitVar[Callable[[int], str] | None] = None

    def __post_init__(self, where):
        arr = check_slots(self.slots, where)
        dead = self.clock.dead_slots
        if dead and arr.size > 1 and int(np.diff(arr).min()) <= dead:
            raise DataError(f"event gaps must exceed the dead time of {dead} slots")
        arr.setflags(write=False)
        object.__setattr__(self, "slots", arr)

    def __len__(self) -> int:
        return int(self.slots.size)


def _stream_click_probability(source: SourceModel, clock: ClockConfig, n_events: int) -> float:
    """Merged photon-or-dark click probability per detection opportunity.

    :class:`GuardError` if it is 0, or if ``n_events`` detections would
    reach past 2**62 slots, each taking ``slots_per_gate / p + dead_slots``.
    """
    p = 1.0 - (1.0 - click_probability(source)) * (1.0 - clock.dark_prob)
    if p <= 0.0:
        unit = "gate" if clock.mode is ClockMode.GATED else "slot"
        raise GuardError(f"per-{unit} click probability is 0; the stream would never terminate")
    if n_events * (clock.slots_per_gate / p + clock.dead_slots) > 2.0**62:
        raise GuardError("requested stream would overflow 64-bit slot indices")
    return p


def generate_free_running(
    source: SourceModel,
    clock: ClockConfig,
    n_events: int,
    seed,
) -> EventStream:
    """Simulate ``n_events`` detections of a free-running detector.

    Every slot clicks independently with the merged photon-or-dark
    probability; after each click the next ``dead_slots`` slots are blind,
    so gaps are ``dead_slots`` plus a geometric draw.
    """
    if clock.mode is not ClockMode.FREE_RUNNING:
        raise ValueError("generate_free_running requires a free-running clock")
    n_events = as_count(n_events, "n_events")
    if n_events == 0:
        return EventStream(np.empty(0, dtype=np.uint64), clock)
    p_slot = _stream_click_probability(source, clock, n_events)
    gaps = rng(seed).geometric(p_slot, size=n_events).astype(np.int64)
    gaps[1:] += clock.dead_slots
    return EventStream(np.cumsum(gaps), clock)


def generate_gated(
    source: SourceModel,
    clock: ClockConfig,
    profile: IntraGateProfile,
    n_events: int,
    seed,
) -> EventStream:
    """Simulate ``n_events`` detections of a gated detector.

    Each gate clicks with the merged photon-or-dark probability; the
    click's slot within the gate is drawn from ``profile``.  The absolute
    slot of a click in gate ``g`` at intra-gate slot ``i`` is
    ``(g - 1) * slots_per_gate + i``.  With a dead time, candidate clicks
    falling within ``dead_slots`` of the last accepted click are lost.
    """
    if clock.mode is not ClockMode.GATED:
        raise ValueError("generate_gated requires a gated clock")
    n_events = as_count(n_events, "n_events")
    r = clock.slots_per_gate
    profile._check(r)
    if n_events == 0:
        return EventStream(np.empty(0, dtype=np.uint64), clock)
    p_gate = _stream_click_probability(source, clock, n_events)
    gen = rng(seed)
    # Each batch draws one candidate per free entry, builds the candidates in
    # place, and moves the ones the dead time keeps to the front.
    accepted = np.empty(n_events, dtype=np.int64)
    have = 0
    last_gate = 0
    last_slot = -(clock.dead_slots + 1)
    for _ in range(_MAX_TOPUP_BATCHES):
        candidates = accepted[have:]
        np.cumsum(gen.geometric(p_gate, size=candidates.size), out=candidates)
        candidates += last_gate - 1
        last_gate = int(candidates[-1]) + 1
        candidates *= r
        candidates += profile.sample(gen, candidates.size, r)
        kept = candidates[apply_dead_time(candidates, clock.dead_slots, last_slot)]
        candidates[: kept.size] = kept
        have += kept.size
        if have == n_events:
            return EventStream(accepted, clock)
        if kept.size:
            last_slot = int(kept[-1])
    raise GuardError(
        "dead time rejected too many candidate clicks; "
        f"gave up after {_MAX_TOPUP_BATCHES} batches"
    )


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


def empirical_parity(stream: EventStream) -> tuple[int, int]:
    """Count (even, odd) gaps between consecutive detections.

    The first detection is differenced against clock tick 0.
    """
    if len(stream) == 0:
        raise DataError("cannot compute parity of an empty event stream")
    gaps = np.diff(stream.slots, prepend=np.uint64(0))
    odd = int(np.count_nonzero(gaps & np.uint64(1)))
    return len(stream) - odd, odd
