"""QKD basis choice driven by detection-time randomness, with a timing adversary.

Both parties derive their measurement-basis bits from the clock counts
between their own detections (photon clicks and dark counts alike
advance the chooser), optionally seeded by a buffer of dark-count-only
bootstrap bits.  Detection ``T`` uses the chooser's ``T``-th output:
the ``T``-th bootstrap bit while the buffer lasts, afterwards the bit
derived from the interval ending at detection ``T - k_bootstrap``.

The channel is classical-correlation level: on matched bases Bob's bit
equals Alice's except with the intrinsic error probability; on
unmatched bases the outcomes are independent and the round is discarded
by sifting.

A round draws its per-gate randomness in blocks of ``_GATE_BLOCK``
gates: the pair numbers and each party's photon-click uniforms, then, in
a second pass over each party's generator, its dark-count uniforms.  A
generator called block by block yields the values of one whole-length
call, so the seed contract is unchanged: each generator's draws, and
therefore every result, equal those of whole-length draws.  Only one
boolean flag per gate and party outlives a block; the slots, bases and
coincidences are built from the detections alone.

``_sift`` gathers the bases at the coincidences for all three rounds:
each hands it every party's bases, one per detection in gate order, and
its per-gate detection flags; plain BB84's Alice sends in every gate.

``eve_qnd_advantage`` models an eavesdropper who measures photon numbers
without disturbing them (a quantum non-demolition probe) and therefore
learns which *gate* each detection fell into, but not the slot inside
the gate.  She guesses each basis bit as the parity of the gate interval
times ``slots_per_gate``, the first guess flipped when odd intra-gate slots
are the likelier ones (the maximum-likelihood guess only without dead time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError, as_count
from .extract import balance, BitStream, bootstrap_buffer, extract_mod2, mod4_arrays
from .models import click_probability, Distribution, SourceModel
from .sim import (
    ClockConfig,
    ClockMode,
    EventStream,
    IntraGateProfile,
    apply_dead_time,
    generate_gated,
    rng,
)

__all__ = ["ProtocolParams", "ProtocolResult", "run_bbm92", "run_bb84", "eve_qnd_advantage"]


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
    pair_gates: int = 0  # gates in which the source emitted at least one pair


def _sample_pair_numbers(rng: np.random.Generator, source: SourceModel, n_gates: int) -> np.ndarray:
    if source.distribution is Distribution.POISSON:
        return rng.poisson(source.mu, size=n_gates)
    return rng.geometric(1.0 / (source.mu + 1.0), size=n_gates) - 1


# Photon numbers up to this bound share one power each; a gate with more
# photons takes its own.
_CLICK_TABLE_CAP = 1 << 16

# Gates per block of the per-gate draws: a block's float64 uniforms and
# click probabilities take 1 MiB each, however many gates a round has.
# Larger blocks were slower in-process, not faster.
_GATE_BLOCK = 1 << 17


def _click_probabilities(survival: float, n_photons: np.ndarray) -> np.ndarray:
    """Per-gate click probability ``1 - (1 - survival) ** n_photons``.

    The power is taken once per photon number up to
    ``min(max n_photons, n_photons.size, _CLICK_TABLE_CAP)`` (the block's
    gates cap the table) and looked up; gates past it take their own power.
    The inputs of every power are those of the per-gate formula, so the
    values are too.
    """
    cap = min(int(n_photons.max()), n_photons.size, _CLICK_TABLE_CAP)
    table = 1.0 - (1.0 - survival) ** np.arange(cap + 1, dtype=n_photons.dtype)
    p_click = table.take(n_photons, mode="clip")
    past = np.flatnonzero(n_photons > cap)
    p_click[past] = 1.0 - (1.0 - survival) ** n_photons[past]
    return p_click


def _photon_clicks(
    source_rng: np.random.Generator,
    source: SourceModel,
    n_gates: int,
    parties: list[tuple[np.random.Generator, float]],
) -> tuple[int, list[np.ndarray]]:
    """The number of gates with at least one pair, and each party's
    per-gate photon-click flags.

    Block by block, ``source_rng`` draws the pair numbers and each party
    ``(rng, survival)`` one uniform per gate.  Every generator yields the
    values of one whole-length call.
    """
    flags = [np.empty(n_gates, dtype=bool) for _ in parties]
    uniforms = np.empty(min(n_gates, _GATE_BLOCK))
    pair_gates = 0
    for start in range(0, n_gates, _GATE_BLOCK):
        n_photons = _sample_pair_numbers(source_rng, source, min(_GATE_BLOCK, n_gates - start))
        pair_gates += int(np.count_nonzero(n_photons))
        u = uniforms[: n_photons.size]
        for (party_rng, survival), detected in zip(parties, flags):
            party_rng.random(out=u)
            np.less(u, _click_probabilities(survival, n_photons), out=detected[start : start + u.size])
    return pair_gates, flags


def _detections(
    rng: np.random.Generator,
    detected: np.ndarray,
    clock: ClockConfig,
    profile: IntraGateProfile,
) -> EventStream:
    """The party's event stream in its own slots, from its per-gate
    photon-click flags ``detected``.

    ``detected`` gains the dark counts, drawn block by block after the
    photon clicks, and loses the detections the dead time drops.
    """
    if clock.dark_prob > 0.0:
        uniforms = np.empty(min(detected.size, _GATE_BLOCK))
        for start in range(0, detected.size, _GATE_BLOCK):
            block = detected[start : start + _GATE_BLOCK]
            u = uniforms[: block.size]
            rng.random(out=u)
            block |= u < clock.dark_prob
    r = clock.slots_per_gate
    slots = np.flatnonzero(detected)
    slots *= r
    slots += profile.sample(rng, slots.size, r)
    if clock.dead_slots:
        keep = apply_dead_time(slots, clock.dead_slots, -(clock.dead_slots + 1))
        detected[np.flatnonzero(detected)[~keep]] = False
        slots = slots[keep]
    return EventStream(slots, clock)


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


def _timing_bases(
    rng: np.random.Generator,
    detected: np.ndarray,
    clock: ClockConfig,
    params: ProtocolParams,
    boot_seed,
) -> np.ndarray:
    """Chooser outputs consumed by each detection: bootstrap bits, then mod-2 bits."""
    # The event stream is freed here, before the copy that prepends the bootstrap bits.
    mod2 = extract_mod2(_detections(rng, detected, clock, params.profile)).bits
    boot = bootstrap_buffer(clock, params.k_bootstrap, boot_seed).bits
    return np.concatenate([boot, mod2])[: mod2.size]


def _sift(params: ProtocolParams, seed_pair, pair_gates: int, alice, bob) -> ProtocolResult:
    """Sift the coincidences on matched bases and draw the intrinsic errors.

    Each party is ``(bases, detected)``: the bases of its detections in
    gate order and its per-gate detection flags.
    """
    (basis_a, det_a), (basis_b, det_b) = alice, bob
    # basis_x[det_y[det_x]]: the bases of X's detections where Y detected too.
    basis_a_c = basis_a[det_b[det_a]]
    n_coinc = basis_a_c.size
    n_sift = int(np.count_nonzero(basis_a_c == basis_b[det_a[det_b]]))
    errors = rng(seed_pair).random(n_sift) < params.intrinsic_error
    qber = float(errors.mean()) if n_sift else 0.0
    return ProtocolResult(
        coincidences=n_coinc,
        sifted_length=n_sift,
        qber=qber,
        basis_balance_alice=balance(BitStream(basis_a)).ratio,
        basis_balance_bob=balance(BitStream(basis_b)).ratio,
        sift_fraction=n_sift / n_coinc if n_coinc else 0.0,
        pair_gates=pair_gates,
    )


def run_bbm92(params: ProtocolParams) -> ProtocolResult:
    """Entangled-pair protocol: both parties choose bases from their detection times."""
    alice, bob = _party(params, "Alice"), _party(params, "Bob")
    seed_src, seed_a, seed_b, seed_pair, boot_a, boot_b = (
        np.random.SeedSequence(params.seed).spawn(6)
    )
    rng_a, rng_b = rng(seed_a), rng(seed_b)
    pair_gates, (det_a, det_b) = _photon_clicks(
        rng(seed_src), params.pair_source, params.n_gates, [(rng_a, alice.eta), (rng_b, bob.eta)]
    )
    basis_a = _timing_bases(rng_a, det_a, params.clock_alice, params, boot_a)
    basis_b = _timing_bases(rng_b, det_b, params.clock_bob, params, boot_b)
    return _sift(params, seed_pair, pair_gates, (basis_a, det_a), (basis_b, det_b))


def run_bb84(params: ProtocolParams, heralded_alice: bool = False) -> ProtocolResult:
    """Prepare-and-measure protocol; Bob's bases come from his detection times.

    With ``heralded_alice``, Alice's (basis, key) pairs are the mod-4
    symbols of her heralding detector's stream and only gates where she
    heralded count; otherwise she draws fair bits and every gate with a
    Bob detection counts.
    """
    seed_src, seed_a, seed_b, seed_pair, boot_b = np.random.SeedSequence(params.seed).spawn(5)
    rng_a, rng_b = rng(seed_a), rng(seed_b)
    parties = [(rng_b, _party(params, "Bob").eta)]
    if heralded_alice:
        parties.append((rng_a, _party(params, "Alice").eta))
    pair_gates, flags = _photon_clicks(rng(seed_src), params.pair_source, params.n_gates, parties)
    det_b = flags[0]
    basis_b = _timing_bases(rng_b, det_b, params.clock_bob, params, boot_b)
    if heralded_alice:
        det_a = flags[1]
        # Alice's basis is the high bit of her mod-4 symbol; the low (key)
        # bit never surfaces here because errors are applied as a mask.
        basis_a, _ = mod4_arrays(_detections(rng_a, det_a, params.clock_alice, params.profile))
    else:
        # Alice sends in every gate.  One call: uint8 integers share each
        # 32-bit draw within a call, so block-wise calls would give other bits.
        basis_a = rng_a.integers(0, 2, size=params.n_gates, dtype=np.uint8)
        det_a = np.ones(params.n_gates, dtype=bool)
    return _sift(params, seed_pair, pair_gates, (basis_a, det_a), (basis_b, det_b))


def eve_qnd_advantage(params: ProtocolParams, n_events: int) -> float:
    """Empirical advantage of a gate-resolution timing adversary over guessing.

    Eve observes only which gate each of Bob's detections fell into and
    guesses each basis bit as the parity of the gate interval times
    ``slots_per_gate``, flipping the first guess when odd intra-gate slots
    are the likelier ones.  Returns the empirical probability of a correct
    guess minus 1/2.
    """
    clock = params.clock_bob
    if clock.mode is not ClockMode.GATED:
        raise ValueError("the timing adversary is defined for gated clocks")
    n_events = as_count(n_events, "n_events", positive=True)
    bob = _party(params, "Bob")
    (child,) = np.random.SeedSequence(params.seed).spawn(1)
    stream = generate_gated(bob, clock, params.profile, n_events, child)
    true_bits = extract_mod2(stream).bits

    r = clock.slots_per_gate
    # Each guess is the parity of (gate interval) * r, counting the first
    # interval from gate 0: the gate interval's parity for odd r, 0 for even
    # r.  The 0-based gates (slot - 1) // r are computed in place, and the
    # parities read off their low byte.
    gates = stream.slots - np.uint64(1)
    gates //= np.uint64(r)
    guesses = np.diff(gates.astype(np.uint8), prepend=np.uint8(0))
    guesses &= r & 1
    # First interval: the intra-gate slot itself contributes its parity
    # (bias q_odd); later intervals see the difference of two profile
    # draws, which is even with probability >= 1/2 for any profile.
    if params.profile.odd_slot_probability(r) > 0.5:
        guesses[0] ^= 1
    correct = float(np.count_nonzero(guesses == true_bits)) / true_bits.size
    return correct - 0.5
