"""QKD basis choice driven by detection-time randomness, with a timing adversary.

Both parties derive their measurement-basis bits from the clock counts
between their own detections (photon clicks and dark counts alike
advance the chooser).  Before any signal is admitted, a buffer of bits
can be produced from dark counts alone (:func:`bootstrap_buffer`) so the
first basis choices never depend on observable detections.  Detection
``T`` uses the chooser's ``T``-th output: the ``T``-th bootstrap bit
while the buffer lasts, afterwards the bit derived from the interval
ending at detection ``T - k_bootstrap``.

The channel is classical-correlation level: on matched bases Bob's bit
equals Alice's except with the intrinsic error probability; on
unmatched bases the outcomes are independent and the round is discarded
by sifting.

A round runs in one pass over blocks of ``_GATE_BLOCK`` gates.  Each
block takes its pair numbers and draws each party's photon clicks, dark
counts and detection slots, and the intrinsic errors of its sifted
coincidences; only counts and each party's carries outlive it, so a
round's memory does not grow with its gates.  Each party gives one value
per gate, its basis bit where it kept a detection and 2 where it did
not, and the round counts coincidences, matched bases, ones and
detections by comparing these arrays gate by gate.  A producer thread
draws the pair numbers in gate order into a one-place queue, so it draws
the next block's while the round works on the current block and never
runs more than two draws ahead; it alone uses the pair-number generator,
so the results do not depend on how the threads are scheduled.  A
generator called block by block, or copied and positioned by
``advance``, yields the values of one whole-length call, so the seed
contract is unchanged: every result equals that of whole-length draws.
Plain BB84's Alice sends in every gate.

``eve_qnd_advantage`` models an eavesdropper who measures photon numbers
without disturbing them (a quantum non-demolition probe) and therefore
learns which *gate* each detection fell into, but not the slot inside
the gate.  She guesses each basis bit as the parity of the gate interval
times ``slots_per_gate``, the first guess flipped when odd intra-gate slots
are the likelier ones (the maximum-likelihood guess only without dead time).
Her score depends on the intra-gate slots alone, which she scores block
by block as ``sim.intra_gate_slots`` yields them at any dead time.

Neither a round nor the adversary is bounded by an allocation, so a
round takes at most ``_MAX_WORK`` gates and the adversary at most
``_MAX_WORK`` events per gate width: a count that would run for days is
refused at once, after the reach guards, rather than run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GuardError, as_count
from .extract import BitStream, balance, check_slots, extract_mod2, interval_bytes
from .models import click_probability, Distribution, SourceModel
from .sim import (
    ClockConfig,
    ClockMode,
    IntraGateProfile,
    apply_dead_time,
    generate_free_running,
    intra_gate_slots,
    rng,
)

__all__ = ["ProtocolParams", "ProtocolResult", "bootstrap_buffer", "run_bbm92", "run_bb84", "eve_qnd_advantage"]


@dataclass(frozen=True)
class ProtocolParams:
    """Configuration of one protocol run.

    ``pair_source.eta`` is the detector efficiency common to both arms;
    each party additionally sees its channel transmittance, so party X
    detects a single photon with probability ``eta * transmittance_x``.
    """

    pair_source: SourceModel
    clock_alice: ClockConfig
    clock_bob: ClockConfig
    profile: IntraGateProfile
    n_gates: int
    seed: int
    channel_transmittance_alice: float = 1.0
    channel_transmittance_bob: float = 1.0
    intrinsic_error: float = 0.0
    k_bootstrap: int = 0

    def __post_init__(self):
        for name in ("channel_transmittance_alice", "channel_transmittance_bob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if not (0.0 <= self.intrinsic_error <= 0.5):
            raise ValueError(f"intrinsic_error must lie in [0, 0.5], got {self.intrinsic_error!r}")
        object.__setattr__(self, "n_gates", as_count(self.n_gates, "n_gates", positive=True))
        object.__setattr__(self, "k_bootstrap", as_count(self.k_bootstrap, "k_bootstrap"))


@dataclass(frozen=True)
class ProtocolResult:
    coincidences: int
    sifted_length: int
    qber: float
    basis_balance_alice: float
    basis_balance_bob: float
    sift_fraction: float
    pair_gates: int  # gates in which the source emitted at least one pair


def _sample_pair_numbers(rng: np.random.Generator, source: SourceModel, n_gates: int) -> np.ndarray:
    if source.distribution is Distribution.POISSON:
        return rng.poisson(source.mu, size=n_gates)
    return rng.geometric(1.0 / (source.mu + 1.0), size=n_gates) - 1


# A party's per-gate value where it kept no detection; its bases are 0 and 1.
_NONE = 2

# Gates per block of the per-gate draws: a block's float64 uniforms and
# click probabilities take 256 KiB each, however many gates a round has.
# Rounds took as long as in blocks of 2^17, which hold four times as much;
# blocks of 2^14 slowed the detectors by about a tenth.
_GATE_BLOCK = 1 << 15

# The most gates a round, and events a gate width of the adversary, may
# take: at 30-40 ns each on two shared cores, about 10 hours.
_MAX_WORK = 1 << 40

# Pair numbers are drawn in whole gate blocks, at least this many gates at
# a time.  Handing a draw between threads took about 0.1 ms on two shared
# cores, so a draw per one-gate block doubled a round's time.
_MIN_DRAW = 1 << 8


def _click_probabilities(survival: float, n_photons: np.ndarray) -> np.ndarray:
    """Per-gate click probability ``1 - (1 - survival) ** n_photons``.

    The power is taken once per photon number up to
    ``min(max n_photons, n_photons.size)`` (the block's gates bound the
    table) and looked up; gates past it take their own power.
    The inputs of every power are those of the per-gate formula, so the
    values are too.
    """
    top = int(n_photons.max())
    cap = min(top, n_photons.size)
    table = 1.0 - (1.0 - survival) ** np.arange(cap + 1, dtype=n_photons.dtype)
    p_click = table.take(n_photons, mode="clip")
    if top > cap:
        past = np.flatnonzero(n_photons > cap)
        p_click[past] = 1.0 - (1.0 - survival) ** n_photons[past]
    return p_click


class _Detector:
    """One detecting party, drawn gate block by gate block.

    Across blocks it carries its dead-time carry ``last``, the
    ``len(boot)`` chooser outputs that lead its detections, and three
    copies of its generator, each positioned once by ``advance``: the
    click uniforms at 0, the dark-count uniforms at ``n_gates`` and the
    profile draws after those.  ``Generator.random`` takes one 64-bit
    word per double and ``advance`` clears the 32-bit buffer of
    ``integers``, so each copy yields the values of one whole-length call.
    """

    def __init__(self, seed, n_gates: int, survival: float, clock: ClockConfig,
                 profile: IntraGateProfile, boot: np.ndarray, bit: int):
        self.survival, self.clock, self.profile, self.bit = survival, clock, profile, bit
        self.clicks, self.darks, self.places = (rng(seed) for _ in range(3))
        self.darks.bit_generator.advance(n_gates)
        self.places.bit_generator.advance(n_gates * (1 + (clock.dark_prob > 0.0)))
        self.pending = boot
        self.last = -(clock.dead_slots + 1)
        # Each block reuses these: fresh ones cost a BBM92 round at 4x10^6
        # gates about 7000 more page faults.
        self.uniforms = np.empty(min(n_gates, _GATE_BLOCK))
        self.flags = np.empty(self.uniforms.size, dtype=bool)
        self.gates = np.empty(self.uniforms.size, dtype=np.uint8)

    def block(self, n_photons: np.ndarray, start: int) -> np.ndarray:
        """One value per gate from ``start`` on, one per photon number: the
        basis bit of the party's detection in that gate, or ``_NONE`` where
        it kept none.  The array is overwritten by the next call.

        Dark counts join the clicks and the dead time drops detections;
        the slots pass ``check_slots``.  Detection ``T`` takes chooser
        output ``T``: the bits ``boot``, then bit ``bit`` of each interval
        ending at a detection, modulo 256.
        """
        clock, r, dead = self.clock, self.clock.slots_per_gate, self.clock.dead_slots
        u, detected = self.uniforms[: n_photons.size], self.flags[: n_photons.size]
        self.clicks.random(out=u)
        np.less(u, _click_probabilities(self.survival, n_photons), out=detected)
        if clock.dark_prob > 0.0:
            self.darks.random(out=u)
            detected |= u < clock.dark_prob
        where = np.flatnonzero(detected)
        slots = where + start  # owned, so check_slots keeps it
        slots *= r
        slots += self.profile.sample(self.places, slots.size, r)
        if dead:
            keep = apply_dead_time(slots, dead, self.last)
            where, slots = where[keep], slots[keep]
        if slots.size and slots[0] - self.last <= dead:
            raise DataError(f"detection slot {slots[0]} does not follow {self.last} by more than {dead} slots")
        slots.setflags(write=False)
        checked = check_slots(slots.view(np.uint64), dead_slots=dead)
        # The first interval counts from tick 0; the dead-time carry starts below it.
        chooser = interval_bytes(checked, max(self.last, 0))
        chooser >>= self.bit
        chooser &= 1
        if slots.size:
            self.last = int(slots[-1])
        if self.pending.size:
            chooser = np.concatenate((self.pending, chooser))
            self.pending = chooser[slots.size :].copy()
        gates = self.gates[: n_photons.size]
        gates.fill(_NONE)
        gates[where] = chooser[: slots.size]
        return gates


class _Sender:
    """Plain BB84's Alice: a fair basis bit in every gate.

    numpy's uint8 ``integers(0, 2)`` takes four values from each 32-bit
    draw and starts each call on a fresh one, so calls of a multiple of 4
    values, with the at most 3 values left over carried, yield the values
    of one whole-length call.
    """

    def __init__(self, seed):
        self.rng = rng(seed)
        self.carry = np.empty(0, np.uint8)

    def block(self, n_photons: np.ndarray, start: int) -> np.ndarray:
        n = n_photons.size
        drawn = self.rng.integers(0, 2, size=-((self.carry.size - n) // 4) * 4, dtype=np.uint8)
        sends = np.concatenate((self.carry, drawn))
        self.carry = sends[n:].copy()
        return sends[:n]


def _party(params: ProtocolParams, who: str) -> SourceModel:
    """Party ``who``'s source, at survival ``eta * transmittance``.

    :class:`GuardError` if the party never detects, or if its slots, up to
    ``n_gates * slots_per_gate``, would reach past 2**62.
    """
    source, clock = params.pair_source, getattr(params, f"clock_{who.lower()}")
    transmittance = getattr(params, f"channel_transmittance_{who.lower()}")
    party = SourceModel(source.distribution, source.mu, source.eta * transmittance)
    if click_probability(party) <= 0.0 and clock.dark_prob <= 0.0:
        raise GuardError(f"{who} has zero detection probability; no events would ever arrive")
    if params.n_gates * clock.slots_per_gate > 2**62:
        raise GuardError("requested stream would overflow 64-bit slot indices")
    return party


def _check_work(count: int, what: str) -> None:
    """:class:`GuardError` if ``count`` is past ``_MAX_WORK``; ``what`` names its unit."""
    if count > _MAX_WORK:
        raise GuardError(f"at most {_MAX_WORK} {what}, got {count}")


def _sift_block(alice, bob, n_photons: np.ndarray, start: int, error_rng, error: float) -> tuple[int, ...]:
    """The counts of the gate block from ``start`` on: Alice's ones and
    detections, Bob's, the coincidences, the matched bases among them and
    their intrinsic errors.  Nothing of the block outlives the call."""
    a, b = alice.block(n_photons, start), bob.block(n_photons, start)
    detected_a, detected_b = a < _NONE, b < _NONE
    coincident = detected_a & detected_b
    matched = int(np.count_nonzero(coincident & (a == b)))
    errors = int(np.count_nonzero(error_rng.random(matched) < error))
    return (int(np.count_nonzero(a == 1)), int(np.count_nonzero(detected_a)),
            int(np.count_nonzero(b == 1)), int(np.count_nonzero(detected_b)),
            int(np.count_nonzero(coincident)), matched, errors)


def _round(params: ProtocolParams, seed_src, seed_pair, alice, bob) -> ProtocolResult:
    """Draw a round gate block by gate block, sift it and draw its intrinsic errors.

    Each block takes its pair numbers from ``seed_src``'s generator, each
    party's per-gate bases from ``alice`` and ``bob``, and one error
    uniform per coincidence on matched bases, in gate order, from
    ``seed_pair``'s.  Only counts outlive a block.

    A producer thread draws the pair numbers in gate order, for whole
    blocks and at least ``_MIN_DRAW`` gates at a time, into a one-place
    queue, so it draws the next ones while this thread works on the
    current ones; numpy releases the interpreter lock while it draws.
    Only the producer uses ``seed_src``'s generator, so the result does
    not depend on scheduling.  An error on either thread is raised here,
    and the producer has stopped before the round returns or raises.
    """
    # Imported here so that only protocol rounds pay for it.
    from queue import Queue

    source_rng, error_rng = rng(seed_src), rng(seed_pair)
    n_gates, error = params.n_gates, params.intrinsic_error
    per_draw = -(-_MIN_DRAW // _GATE_BLOCK) * _GATE_BLOCK
    drawn, stop = Queue(maxsize=1), threading.Event()

    def produce() -> None:
        try:
            for first in range(0, n_gates, per_draw):
                if stop.is_set():
                    return
                drawn.put(_sample_pair_numbers(source_rng, params.pair_source, min(per_draw, n_gates - first)))
        except BaseException as exc:  # handed to the round, which raises it
            drawn.put(exc)

    producer = threading.Thread(target=produce)
    producer.start()
    pair_gates, totals = 0, [0] * 7
    try:
        for first in range(0, n_gates, per_draw):
            pairs = drawn.get()
            if isinstance(pairs, BaseException):
                raise pairs
            pair_gates += int(np.count_nonzero(pairs))
            for i in range(0, pairs.size, _GATE_BLOCK):
                counts = _sift_block(alice, bob, pairs[i : i + _GATE_BLOCK], first + i, error_rng, error)
                totals = [t + c for t, c in zip(totals, counts)]
    finally:
        # Only this thread takes from the queue, and after the drain the
        # producer puts at most once more, into the emptied queue.
        stop.set()
        while not drawn.empty():
            drawn.get_nowait()
        producer.join()
    ones_a, detections_a, ones_b, detections_b, n_coinc, n_sift, n_err = totals
    return ProtocolResult(
        coincidences=n_coinc,
        sifted_length=n_sift,
        qber=n_err / n_sift if n_sift else 0.0,
        basis_balance_alice=balance((ones_a, detections_a)),
        basis_balance_bob=balance((ones_b, detections_b)),
        sift_fraction=n_sift / n_coinc if n_coinc else 0.0,
        pair_gates=pair_gates,
    )


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


def run_bbm92(params: ProtocolParams) -> ProtocolResult:
    """Entangled-pair protocol: both parties choose bases from their detection times."""
    alice, bob = _party(params, "Alice"), _party(params, "Bob")
    _check_work(params.n_gates, "gates per round")
    seed_src, seed_a, seed_b, seed_pair, boot_a, boot_b = (
        np.random.SeedSequence(params.seed).spawn(6)
    )
    n, profile, k = params.n_gates, params.profile, params.k_bootstrap
    clock_a, clock_b = params.clock_alice, params.clock_bob
    detector_a = _Detector(seed_a, n, alice.eta, clock_a, profile, bootstrap_buffer(clock_a, k, boot_a).bits, 0)
    detector_b = _Detector(seed_b, n, bob.eta, clock_b, profile, bootstrap_buffer(clock_b, k, boot_b).bits, 0)
    return _round(params, seed_src, seed_pair, detector_a, detector_b)


def run_bb84(params: ProtocolParams, heralded_alice: bool = False) -> ProtocolResult:
    """Prepare-and-measure protocol; Bob's bases come from his detection times.

    With ``heralded_alice``, Alice's (basis, key) pairs are the mod-4
    symbols of her heralding detector's stream and only gates where she
    heralded count; otherwise she draws fair bits and every gate with a
    Bob detection counts.
    """
    seed_src, seed_a, seed_b, seed_pair, boot_b = np.random.SeedSequence(params.seed).spawn(5)
    n, profile, clock_b = params.n_gates, params.profile, params.clock_bob
    survival_b = _party(params, "Bob").eta
    if heralded_alice:
        # Alice's basis is the high bit of her mod-4 symbol; the low (key)
        # bit never surfaces here because errors are applied as a mask.
        empty = np.empty(0, np.uint8)
        alice = _Detector(seed_a, n, _party(params, "Alice").eta, params.clock_alice, profile, empty, 1)
    else:
        alice = _Sender(seed_a)
    _check_work(n, "gates per round")
    boot = bootstrap_buffer(clock_b, params.k_bootstrap, boot_b).bits
    return _round(params, seed_src, seed_pair, alice, _Detector(seed_b, n, survival_b, clock_b, profile, boot, 0))


def eve_qnd_advantage(params: ProtocolParams, n_events: int) -> float:
    """Empirical advantage of a gate-resolution timing adversary over guessing.

    Eve observes only which gate each of Bob's detections fell into and
    guesses each basis bit as the parity of the gate interval times
    ``slots_per_gate``, flipping the first guess when odd intra-gate slots
    are the likelier ones.  A detection in 0-based gate g at intra-gate slot
    i is at slot g * slots_per_gate + i, so a guess is right where i's parity
    equals the last detection's, or the likelier parity for the first.
    Returns the empirical probability of a correct guess minus 1/2.

    The i come from ``intra_gate_slots`` one block at a time, and more
    than ``_MAX_WORK`` events are refused after its guards, before any
    draw.  The guess is the maximum-likelihood one only without dead time;
    with it the advantage reported understates an adversary who guesses
    per gate gap (ROADMAP item 7: 0.029 against 0.072 at r = 3, dead 3).
    """
    clock = params.clock_bob
    if clock.mode is not ClockMode.GATED:
        raise ValueError("the timing adversary is defined for gated clocks")
    n_events = as_count(n_events, "n_events", positive=True)
    bob = _party(params, "Bob")
    (child,) = np.random.SeedSequence(params.seed).spawn(1)
    r = clock.slots_per_gate
    blocks = intra_gate_slots(bob, clock, params.profile, n_events, child)
    _check_work(n_events, "events per gate width")

    # The likelier parity of i stands before the first detection.
    parity = int(params.profile.odd_slot_probability(r) > 0.5)
    correct = 0
    for i in blocks:
        odd = i.astype(np.uint8)  # i modulo 256, which keeps i's parity
        odd &= 1
        correct += odd.size - int(np.count_nonzero(interval_bytes(odd, parity)))
        parity = int(odd[-1])
    return correct / n_events - 0.5
