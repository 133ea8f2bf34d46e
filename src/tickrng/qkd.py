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

``eve_qnd_advantage`` models an eavesdropper who measures photon numbers
without disturbing them (a quantum non-demolition probe) and therefore
learns which *gate* each detection fell into, but not the slot inside
the gate.  Her best guess of each basis bit is the maximum-likelihood
parity of the slot count given the gate count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError, as_count
from .extract import balance, BitStream, bootstrap_buffer, extract_mod2, intervals, mod4_arrays
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


def _spawn_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """Independent child seeds for the parties' asynchronous randomness."""
    return np.random.SeedSequence(seed).spawn(count)


def _sample_pair_numbers(rng: np.random.Generator, source: SourceModel, n_gates: int) -> np.ndarray:
    if source.distribution is Distribution.POISSON:
        return rng.poisson(source.mu, size=n_gates)
    return rng.geometric(1.0 / (source.mu + 1.0), size=n_gates) - 1


# Photon numbers up to this bound share one power each; a gate with more
# photons takes its own.
_CLICK_TABLE_CAP = 1 << 16


def _click_probabilities(survival: float, n_photons: np.ndarray) -> np.ndarray:
    """Per-gate click probability ``1 - (1 - survival) ** n_photons``.

    The power is taken once per photon number up to
    ``min(max n_photons, n_gates, _CLICK_TABLE_CAP)`` and looked up; gates
    past that table take their own power.  The inputs of every power are
    those of the per-gate formula, so the values are too.
    """
    cap = min(int(n_photons.max()), n_photons.size, _CLICK_TABLE_CAP)
    table = 1.0 - (1.0 - survival) ** np.arange(cap + 1, dtype=n_photons.dtype)
    p_click = table.take(n_photons, mode="clip")
    past = np.flatnonzero(n_photons > cap)
    p_click[past] = 1.0 - (1.0 - survival) ** n_photons[past]
    return p_click


def _detections(
    rng: np.random.Generator,
    n_photons: np.ndarray,
    survival: float,
    clock: ClockConfig,
    profile: IntraGateProfile,
) -> tuple[np.ndarray, np.ndarray, EventStream]:
    """Per-gate detection flags, the 0-based gates of the kept detections,
    and the party's event stream in its own slots."""
    n_gates = n_photons.size
    detected = rng.random(n_gates) < _click_probabilities(survival, n_photons)
    if clock.dark_prob > 0.0:
        detected |= rng.random(n_gates) < clock.dark_prob
    gates = np.flatnonzero(detected)
    r = clock.slots_per_gate
    slots = gates * r + profile.sample(rng, gates.size, r)
    if clock.dead_slots:
        keep = apply_dead_time(slots, clock.dead_slots, -(clock.dead_slots + 1))
        detected[gates[~keep]] = False
        gates, slots = gates[keep], slots[keep]
    return detected, gates, EventStream(slots, clock)


def _basis_bits(
    stream: EventStream, clock: ClockConfig, k_bootstrap: int, boot_seed
) -> np.ndarray:
    """Chooser outputs consumed by each detection: bootstrap bits, then mod-2 bits."""
    mod2 = extract_mod2(stream).bits
    if k_bootstrap == 0:
        return mod2
    boot = bootstrap_buffer(clock, k_bootstrap, boot_seed).bits
    return np.concatenate([boot, mod2])[: len(stream)]


def _party_guard(source: SourceModel, survival: float, clock: ClockConfig, who: str) -> None:
    eff = SourceModel(source.distribution, source.mu, survival)
    if click_probability(eff) <= 0.0 and clock.dark_prob <= 0.0:
        raise GuardError(f"{who} has zero detection probability; no events would ever arrive")


def _at_coincidences(bits: np.ndarray, gates: np.ndarray, other_detected: np.ndarray) -> np.ndarray:
    """The per-detection ``bits`` of the detections, in ``gates``, whose gate
    the other party also detected in (``other_detected``)."""
    return bits[other_detected[gates]]


def _sift(
    params: ProtocolParams,
    seed_pair,
    n_photons: np.ndarray,
    basis_a: np.ndarray,
    basis_b: np.ndarray,
    basis_a_c: np.ndarray,
    basis_b_c: np.ndarray,
) -> ProtocolResult:
    """Sift the coincidences on matched bases and draw the intrinsic errors.

    ``basis_a_c`` and ``basis_b_c`` are the parties' bases at the
    coincidences, in gate order.
    """
    n_coinc = basis_a_c.size
    n_sift = int(np.count_nonzero(basis_a_c == basis_b_c))
    errors = rng(seed_pair).random(n_sift) < params.intrinsic_error
    qber = float(errors.mean()) if n_sift else 0.0
    return ProtocolResult(
        coincidences=n_coinc,
        sifted_length=n_sift,
        qber=qber,
        basis_balance_alice=balance(BitStream(basis_a)).ratio,
        basis_balance_bob=balance(BitStream(basis_b)).ratio,
        sift_fraction=n_sift / n_coinc if n_coinc else 0.0,
        pair_gates=int(np.count_nonzero(n_photons)),
    )


def run_bbm92(params: ProtocolParams) -> ProtocolResult:
    """Entangled-pair protocol: both parties choose bases from their detection times."""
    source = params.pair_source
    surv_a = source.eta * params.channel_transmittance_alice
    surv_b = source.eta * params.channel_transmittance_bob
    _party_guard(source, surv_a, params.clock_alice, "Alice")
    _party_guard(source, surv_b, params.clock_bob, "Bob")
    seed_src, seed_a, seed_b, seed_pair, boot_a, boot_b = _spawn_seeds(params.seed, 6)
    n_pairs = _sample_pair_numbers(rng(seed_src), source, params.n_gates)
    det_a, gates_a, stream_a = _detections(rng(seed_a), n_pairs, surv_a, params.clock_alice, params.profile)
    det_b, gates_b, stream_b = _detections(rng(seed_b), n_pairs, surv_b, params.clock_bob, params.profile)
    basis_a = _basis_bits(stream_a, params.clock_alice, params.k_bootstrap, boot_a)
    basis_b = _basis_bits(stream_b, params.clock_bob, params.k_bootstrap, boot_b)
    return _sift(
        params, seed_pair, n_pairs, basis_a, basis_b,
        _at_coincidences(basis_a, gates_a, det_b), _at_coincidences(basis_b, gates_b, det_a),
    )


def run_bb84(params: ProtocolParams, heralded_alice: bool = False) -> ProtocolResult:
    """Prepare-and-measure protocol; Bob's bases come from his detection times.

    With ``heralded_alice``, Alice's (basis, key) pairs are the mod-4
    symbols of her heralding detector's stream and only gates where she
    heralded count; otherwise she draws fair bits and every gate with a
    Bob detection counts.
    """
    source = params.pair_source
    surv_b = source.eta * params.channel_transmittance_bob
    _party_guard(source, surv_b, params.clock_bob, "Bob")
    seed_src, seed_a, seed_b, seed_pair, boot_b = _spawn_seeds(params.seed, 5)
    n_photons = _sample_pair_numbers(rng(seed_src), source, params.n_gates)
    det_b, gates_b, stream_b = _detections(rng(seed_b), n_photons, surv_b, params.clock_bob, params.profile)
    basis_b = _basis_bits(stream_b, params.clock_bob, params.k_bootstrap, boot_b)

    if heralded_alice:
        surv_a = source.eta * params.channel_transmittance_alice
        _party_guard(source, surv_a, params.clock_alice, "Alice")
        det_a, gates_a, stream_a = _detections(rng(seed_a), n_photons, surv_a, params.clock_alice, params.profile)
        gaps = intervals(stream_a, include_first=True)
        # Alice's basis is the high bit of her mod-4 symbol; the low (key)
        # bit never surfaces here because errors are applied as a mask.
        basis_a, _ = mod4_arrays(gaps)
        basis_a_c = _at_coincidences(basis_a, gates_a, det_b)
        basis_b_c = _at_coincidences(basis_b, gates_b, det_a)
    else:
        basis_a = rng(seed_a).integers(0, 2, size=params.n_gates, dtype=np.uint8)
        basis_a_c = basis_a[gates_b]
        basis_b_c = basis_b
    return _sift(params, seed_pair, n_photons, basis_a, basis_b, basis_a_c, basis_b_c)


def eve_qnd_advantage(params: ProtocolParams, n_events: int) -> float:
    """Empirical advantage of a gate-resolution timing adversary over guessing.

    Eve observes only which gate each of Bob's detections fell into and
    guesses each basis bit by the maximum-likelihood parity of the slot
    interval given the gate interval.  Returns the empirical probability
    of a correct guess minus 1/2.
    """
    clock = params.clock_bob
    if clock.mode is not ClockMode.GATED:
        raise ValueError("the timing adversary is defined for gated clocks")
    n_events = as_count(n_events, "n_events", positive=True)
    source = params.pair_source
    eff = SourceModel(
        source.distribution, source.mu, source.eta * params.channel_transmittance_bob
    )
    (child,) = np.random.SeedSequence(params.seed).spawn(1)
    stream = generate_gated(eff, clock, params.profile, n_events, child)
    true_bits = extract_mod2(stream).bits

    r = clock.slots_per_gate
    gates = (stream.slots - np.uint64(1)) // np.uint64(r) + np.uint64(1)
    gate_gaps = np.diff(gates, prepend=np.uint64(0)).astype(np.int64)
    base_parity = ((gate_gaps * r) & 1).astype(np.uint8)
    # First interval: the intra-gate slot itself contributes its parity
    # (bias q_odd); later intervals see the difference of two profile
    # draws, which is even with probability >= 1/2 for any profile.
    q_odd = params.profile.odd_slot_probability(r)
    guesses = base_parity.copy()
    # (g_1 - 1) * r already counted in gate_gaps[0] * r needs the -1 shift:
    guesses[0] = ((int(gate_gaps[0]) - 1) * r) & 1
    if q_odd > 0.5:
        guesses[0] ^= 1
    correct = float(np.count_nonzero(guesses == true_bits)) / true_bits.size
    return correct - 0.5
