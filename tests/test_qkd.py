"""Protocol harness: the dark-count bootstrap, sifting statistics, QBER, and
the timing adversary."""

import dataclasses
import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest

from conftest import (
    geometric_gof_pvalue,
    intra_gate_profile,
    reference_at_coincidences,
    reference_click_probabilities,
    reference_dead_time,
    reference_detections,
    reference_eve_advantage,
    traced_peak,
)
from tickrng import qkd, sim
from tickrng.errors import DataError, GuardError
from tickrng.extract import check_slots, extract_mod2
from tickrng.models import Distribution, SourceModel
from tickrng.qkd import ProtocolParams, bootstrap_buffer, eve_qnd_advantage, run_bb84, run_bbm92
from tickrng.sim import (
    ClockConfig,
    ClockMode,
    IntraGateProfile,
    apply_dead_time,
    generate_free_running,
    rng,
)

GATED_2 = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
GATED_4 = ClockConfig(mode=ClockMode.GATED, slots_per_gate=4)


def make_params(**overrides) -> ProtocolParams:
    base = dict(
        pair_source=SourceModel(Distribution.POISSON, 0.5),
        clock_alice=GATED_2,
        clock_bob=GATED_2,
        profile=IntraGateProfile.uniform(),
        n_gates=500_000,
        seed=211,
    )
    base.update(overrides)
    return ProtocolParams(**base)


def check_result_invariants(result) -> None:
    assert 0 <= result.sifted_length <= result.coincidences
    assert 0.0 <= result.qber <= 1.0
    if result.coincidences:
        assert result.sift_fraction == result.sifted_length / result.coincidences
    else:
        assert result.sift_fraction == 0.0


def test_bbm92_lossless_noiseless_key_is_error_free():
    result = run_bbm92(make_params(n_gates=20_000, seed=223))
    assert result.qber == 0.0
    assert result.sifted_length > 0
    check_result_invariants(result)


def test_bbm92_qber_tracks_the_intrinsic_error():
    result = run_bbm92(make_params(intrinsic_error=0.05))
    assert result.sifted_length > 90_000
    sigma = math.sqrt(0.05 * 0.95 / result.sifted_length)
    assert result.qber == pytest.approx(0.05, abs=3 * sigma)
    check_result_invariants(result)


def test_bbm92_sift_fraction_shows_independent_fair_bases():
    """Match probability is (1 + rho)/2, so sifting at one half within 3
    sigma is precisely the zero-correlation check on the basis streams."""
    result = run_bbm92(make_params(intrinsic_error=0.05))
    sigma = math.sqrt(0.25 / result.coincidences)
    assert result.sift_fraction == pytest.approx(0.5, abs=3 * sigma)


def test_bbm92_basis_balances_are_healthy():
    result = run_bbm92(make_params(intrinsic_error=0.05))
    assert result.basis_balance_alice > 0.97
    assert result.basis_balance_bob > 0.97


def test_bbm92_conserves_coincidences_without_loss_or_dark_counts():
    params = make_params(pair_source=SourceModel(Distribution.POISSON, 4.0), n_gates=50_000, seed=223)
    result = run_bbm92(params)
    assert result.coincidences == result.pair_gates  # every emitting gate clicks twice
    assert result.qber == 0.0


def test_bbm92_loss_only_removes_coincidences():
    params = make_params(
        channel_transmittance_alice=0.6,
        channel_transmittance_bob=0.7,
        n_gates=50_000,
        seed=227,
    )
    result = run_bbm92(params)
    assert 0 < result.coincidences < result.pair_gates
    check_result_invariants(result)


def test_bbm92_bootstrap_prefills_the_basis_choosers():
    dark = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dark_prob=0.001)
    params = make_params(clock_alice=dark, clock_bob=dark, k_bootstrap=100, n_gates=50_000, seed=229)
    result = run_bbm92(params)
    assert result.sifted_length > 0
    check_result_invariants(result)


def test_bootstrap_without_dark_counts_is_guarded():
    with pytest.raises(GuardError):
        run_bbm92(make_params(k_bootstrap=100, n_gates=1000))


def test_bootstrap_length_and_edge_cases():
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dark_prob=0.1)
    assert len(bootstrap_buffer(clock, 0, seed=1)) == 0
    assert len(bootstrap_buffer(clock, 5, seed=1)) == 5
    with pytest.raises(ValueError):
        bootstrap_buffer(clock, -1, seed=1)
    # Its own message, not the simulator's zero-click-probability one.
    with pytest.raises(GuardError, match="^bootstrap requires a positive dark-count probability$"):
        bootstrap_buffer(ClockConfig(mode=ClockMode.FREE_RUNNING), 5, seed=1)


def test_bootstrap_matches_a_dark_only_stream():
    """The buffer equals mod-2 extraction of dark counts with the light blocked."""
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dark_prob=0.01, dead_slots=2)
    buffer = bootstrap_buffer(clock, 100_000, seed=97)
    blocked = SourceModel(Distribution.POISSON, 0.0, 0.0)
    dark_stream = generate_free_running(blocked, clock, 100_000, seed=97)
    assert buffer == extract_mod2(dark_stream)
    gaps = np.diff(dark_stream.slots) - 2  # dead time shifts every gap
    assert geometric_gof_pvalue(gaps, 0.01, max_n=50) > 0.001


@pytest.mark.parametrize("dark, dead, seed, expected", [
    (0.01, 0, 431, "eb22ae37d3fb7baad7a31df844ba29bee521079eb81d2e6e50b2b6267ee46f93"),
    (0.2, 3, 433, "d5e6065099787ce0542bd94d2daf1fd698151b92c2bd14f4b02e7c3c26bcf447"),
])
def test_bootstrap_bits_are_pinned(dark, dead, seed, expected):
    """SHA-256 of 5000 bootstrap bits, one byte per bit."""
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dark_prob=dark, dead_slots=dead)
    bits = bootstrap_buffer(clock, 5000, seed=seed).bits
    assert hashlib.sha256(bits.tobytes()).hexdigest() == expected


def test_bootstrap_is_deterministic():
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dark_prob=0.05)
    assert bootstrap_buffer(clock, 1000, seed=5) == bootstrap_buffer(clock, 1000, seed=5)
    assert bootstrap_buffer(clock, 1000, seed=5) != bootstrap_buffer(clock, 1000, seed=6)


def test_bbm92_is_deterministic():
    params = make_params(intrinsic_error=0.02, n_gates=20_000)
    assert run_bbm92(params) == run_bbm92(params)


def guarded_party(run, params: ProtocolParams) -> str | None:
    """The party a round's detection guard names, or None if the round runs."""
    try:
        run(params)
    except GuardError as exc:
        who, _, rest = str(exc).partition(" ")
        assert rest == "has zero detection probability; no events would ever arrive"
        return who
    return None


def test_zero_detection_probability_is_guarded():
    rounds = [run_bbm92, run_bb84, lambda p: run_bb84(p, heralded_alice=True)]
    # Alice's channel is unused by plain BB84, whose Alice draws fair bits.
    blind_alice = make_params(channel_transmittance_alice=0.0, n_gates=1000)
    assert [guarded_party(run, blind_alice) for run in rounds] == ["Alice", None, "Alice"]
    # With no photons at all, BBM92 checks Alice first and both BB84 rounds Bob.
    dead_source = make_params(pair_source=SourceModel(Distribution.POISSON, 0.0, 0.0), n_gates=1000)
    assert [guarded_party(run, dead_source) for run in rounds] == ["Alice", "Bob", "Bob"]


def test_rounds_past_64_bit_slots_are_guarded():
    """Every round, and Eve's stream of Bob's detections, checks a party's
    reach, n_gates * slots_per_gate, against 2**62 before drawing."""
    wide = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2**62)
    rounds = [run_bbm92, run_bb84, lambda p: run_bb84(p, heralded_alice=True),
              lambda p: eve_qnd_advantage(p, 10)]
    for params in (make_params(clock_bob=wide, n_gates=2), make_params(clock_bob=GATED_4, n_gates=2**61)):
        for run in rounds:
            with pytest.raises(GuardError) as exc:
                run(params)
            assert str(exc.value) == "requested stream would overflow 64-bit slot indices"
    # Plain BB84 never uses Alice's clock, so it does not check it.
    assert run_bb84(make_params(clock_alice=wide, n_gates=1000)).coincidences > 0


ROUNDS = {
    "bbm92": run_bbm92,
    "bb84": run_bb84,
    "bb84h": lambda p: run_bb84(p, heralded_alice=True),
}


def run_all_protocols(params: ProtocolParams) -> list:
    return [run(params) for run in ROUNDS.values()]


def test_protocol_dead_time_matches_the_reference_loop(monkeypatch):
    dead = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dark_prob=0.01, dead_slots=3)
    params = make_params(clock_alice=dead, clock_bob=dead, n_gates=50_000, intrinsic_error=0.05, seed=227)
    fast = run_all_protocols(params)

    filtered = []

    def reference(slots, dead_slots, last):
        keep = reference_dead_time(slots, dead_slots, last)
        assert np.array_equal(apply_dead_time(slots, dead_slots, last), keep)
        filtered.append((np.asarray(slots)[keep], keep.size))
        return keep

    monkeypatch.setattr(qkd, "apply_dead_time", reference)
    assert run_all_protocols(params) == fast
    # Alice and Bob in BBM92, Bob in BB84, Bob and Alice in heralded BB84,
    # each once per gate block.
    assert len(filtered) == 5 * -(-params.n_gates // qkd._GATE_BLOCK)
    for kept, candidates in filtered:
        assert 0 < kept.size < candidates
        assert int(np.diff(kept).min()) > 3
    for result in fast:
        check_result_invariants(result)


def flags_and_bases(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A party block's per-gate values split into its detection flags and
    the bases of its detections: 0 and 1 are bases, 2 marks no detection."""
    assert gates.dtype == np.uint8 and int(gates.max(initial=0)) <= 2
    detected = gates < 2
    return detected, gates[detected]


def round_parties(run, params: ProtocolParams) -> tuple:
    """A round's result and, per party in the order it first draws, its
    per-gate flags, its bases and its checked slots, each joined over the
    gate blocks.  Every block's slots pass ``check_slots`` without a copy."""
    parties, current = {}, []
    blocks = {cls: cls.block for cls in (qkd._Detector, qkd._Sender)}

    def spy_block(self, n_photons, start):
        current[:] = [parties.setdefault(self, ([], [], []))]
        gates = blocks[type(self)](self, n_photons, start)
        assert gates.size == n_photons.size
        for part, got in zip(current[0], flags_and_bases(gates)):
            part.append(got)
        return gates

    def spy_check(slots, **kwargs):
        current[0][2].append(check_slots(slots, **kwargs))
        assert current[0][2][-1] is slots  # read-only and owned, so not copied
        return slots

    with pytest.MonkeyPatch.context() as patch:
        for cls in blocks:
            patch.setattr(cls, "block", spy_block)
        patch.setattr(qkd, "check_slots", spy_check)
        result = run(params)
    return result, [
        [np.concatenate(parts) if parts else np.empty(0, np.uint64) for parts in party]
        for party in parties.values()
    ]


def run_with_reference_kernels(monkeypatch, params: ProtocolParams) -> tuple[list, list]:
    """Every protocol's result with the per-gate power patched in for the
    fast click kernel, which must agree call by call, and with each round's
    sifting checked against the cumulative-sum coincidence lookup over its
    parties' flags and bases; also the photon numbers each click kernel saw,
    one call per party and gate block."""
    fast_click = qkd._click_probabilities
    photon_numbers, lookups = [], []

    def click(survival, n_photons):
        expected = reference_click_probabilities(survival, n_photons)
        assert np.array_equal(fast_click(survival, n_photons), expected)
        photon_numbers.append(n_photons)
        return expected

    monkeypatch.setattr(qkd, "_click_probabilities", click)
    results = []
    for run in ROUNDS.values():
        result, parties = round_parties(run, params)
        # Each gate block draws Alice's detections before Bob's.
        (flags_a, basis_a, _), (flags_b, basis_b, _) = parties
        coincident = flags_a & flags_b
        basis_a_c, basis_b_c = (reference_at_coincidences(bits, flags, coincident)
                                for flags, bits in ((flags_a, basis_a), (flags_b, basis_b)))
        assert result.coincidences == basis_a_c.size
        assert result.sifted_length == np.count_nonzero(basis_a_c == basis_b_c)
        lookups.extend([basis_a_c, basis_b_c])
        results.append(result)
    # Alice and Bob in BBM92, Bob in BB84, Bob and Alice in heralded BB84,
    # per gate block; both lookups in every protocol.
    blocks = -(-params.n_gates // qkd._GATE_BLOCK)
    assert len(photon_numbers) == 5 * blocks and len(lookups) == 6
    return results, photon_numbers


def random_kernel_params(seed: int) -> ProtocolParams:
    draw = np.random.default_rng(seed)
    dist = [Distribution.POISSON, Distribution.THERMAL][int(draw.integers(2))]
    r = int(draw.integers(1, 5))
    clock = ClockConfig(
        mode=ClockMode.GATED,
        slots_per_gate=r,
        dark_prob=float(draw.choice([0.0, 0.01])),
        dead_slots=int(draw.choice([0, 3])),
    )
    return make_params(
        pair_source=SourceModel(
            dist,
            float(draw.uniform(0.05, 3.0)),
            float(draw.choice([1.0, 0.3])),
        ),
        clock_alice=clock,
        clock_bob=clock,
        n_gates=int(draw.integers(1, 30_000)),
        seed=int(draw.integers(1 << 32)),
        channel_transmittance_alice=float(draw.uniform(0.2, 1.0)),
        channel_transmittance_bob=float(draw.uniform(0.2, 1.0)),
        intrinsic_error=0.05,
        k_bootstrap=int(draw.choice([0, 64])) if clock.dark_prob else 0,
    )


@pytest.mark.parametrize("seed", range(8))
def test_protocol_kernels_match_the_reference_on_random_input(monkeypatch, seed):
    params = random_kernel_params(seed)
    fast = run_all_protocols(params)
    assert run_with_reference_kernels(monkeypatch, params)[0] == fast


DARK = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dark_prob=1e-3)

ADVERSARIAL_KERNEL_PARAMS = {
    # Survival 1 and dozens of photons per gate: every gate is a coincidence.
    "every-gate-coincident": dict(pair_source=SourceModel(Distribution.POISSON, 50.0, 1.0), n_gates=5000),
    # No photons at all and rare dark counts: a one-entry table, no coincidences.
    "no-coincidences": dict(
        pair_source=SourceModel(Distribution.POISSON, 0.0, 1.0), clock_alice=DARK, clock_bob=DARK, n_gates=2000
    ),
    # Far more bootstrap bits than detections.
    "bootstrap-past-detections": dict(clock_alice=DARK, clock_bob=DARK, n_gates=400, k_bootstrap=1000),
    # A table capped at n_gates = 300 entries, with about a third of the
    # photon numbers past it.
    "straddles-the-gate-cap": dict(pair_source=SourceModel(Distribution.THERMAL, 300.0, 0.004), n_gates=300),
    # Photon numbers on both sides of 2**16, the table bound of a
    # 2**16-gate block.
    "straddles-the-block-cap": dict(
        pair_source=SourceModel(Distribution.THERMAL, float(1 << 16), 2e-5), n_gates=100_000
    ),
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL_KERNEL_PARAMS))
def test_protocol_kernels_match_the_reference_on_adversarial_input(monkeypatch, case):
    """At the default gate block and at 2**16 gates, where
    ``straddles-the-block-cap`` takes two blocks and so crosses a block edge."""
    params = make_params(**ADVERSARIAL_KERNEL_PARAMS[case])
    fast = run_all_protocols(params)
    photon_numbers = []
    for block in (qkd._GATE_BLOCK, 1 << 16):
        monkeypatch.undo()  # so the fast kernel is the one checked again
        monkeypatch.setattr(qkd, "_GATE_BLOCK", block)
        reference, seen = run_with_reference_kernels(monkeypatch, params)
        assert reference == fast
        photon_numbers += seen
    bbm92, bb84, bb84h = fast
    if case == "every-gate-coincident":
        assert bbm92.coincidences == bb84.coincidences == bb84h.coincidences == params.n_gates
    if case == "no-coincidences":
        assert bbm92.coincidences == bb84h.coincidences == 0 < bb84.coincidences
    if case.startswith("straddles"):
        cap = min(params.n_gates, 1 << 16)
        for n_photons in photon_numbers:
            assert 0 < np.count_nonzero(n_photons > cap) < params.n_gates // 2


def survivals(params: ProtocolParams) -> list[float]:
    eta = params.pair_source.eta
    return [eta * params.channel_transmittance_alice, eta * params.channel_transmittance_bob]


def party_slots(detected: np.ndarray, clock, profile) -> tuple[np.ndarray, np.ndarray]:
    """The flags a detector keeps and the slots it passes through
    ``check_slots``, block by block, when it clicks in exactly the gates
    ``detected`` flags: survival 1, one photon in each flagged gate and
    none elsewhere."""
    detector = qkd._Detector(
        np.random.SeedSequence(0), detected.size, 1.0, clock, profile, np.empty(0, np.uint8), 0
    )
    n_photons = detected.astype(np.int64)
    flags, slots = [], []

    def spy(block_slots, **kwargs):
        slots.append(check_slots(block_slots, **kwargs))
        assert slots[-1] is block_slots  # read-only and owned, so not copied
        return slots[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qkd, "check_slots", spy)
        for start in range(0, detected.size, qkd._GATE_BLOCK):
            flags.append(flags_and_bases(detector.block(n_photons[start : start + qkd._GATE_BLOCK], start))[0])
    return np.concatenate(flags), np.concatenate(slots)


def block_detections(params: ProtocolParams) -> tuple[int, list]:
    """``pair_gates`` and each party's (flags, slots) from a BBM92 round's gate blocks."""
    result, parties = round_parties(run_bbm92, params)
    return result.pair_gates, [(flags, slots) for flags, _, slots in parties]


def whole_array_detections(params: ProtocolParams) -> tuple[int, list]:
    """The same from one whole-length draw per generator."""
    seed_src, *seeds = np.random.SeedSequence(params.seed).spawn(3)
    n_photons = qkd._sample_pair_numbers(rng(seed_src), params.pair_source, params.n_gates)
    parties = [
        reference_detections(rng(seed), n_photons, survival, clock, params.profile)
        for seed, survival, clock in zip(seeds, survivals(params), (params.clock_alice, params.clock_bob))
    ]
    return int(np.count_nonzero(n_photons)), parties


def assert_same_detections(got, expected) -> None:
    assert got[0] == expected[0]
    for (flags, slots), (ref_flags, ref_slots) in zip(got[1], expected[1], strict=True):
        assert np.array_equal(flags, ref_flags)
        assert np.array_equal(slots, ref_slots)


def short_random_params(seed: int) -> ProtocolParams:
    """``random_kernel_params`` with at most 3000 gates, so that one-gate blocks stay quick."""
    params = random_kernel_params(seed)
    return dataclasses.replace(params, n_gates=min(params.n_gates, 3000))


BLOCK_EDGE_PARAMS = {
    **{f"random-{seed}": short_random_params(seed) for seed in range(4)},
    # Dark counts, dead time and bootstrap bits together, 3001 gates.
    "dark-dead-bootstrap": make_params(
        pair_source=SourceModel(Distribution.THERMAL, 2.0, 0.3),
        clock_alice=ClockConfig(mode=ClockMode.GATED, slots_per_gate=3, dark_prob=0.05, dead_slots=3),
        clock_bob=ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dark_prob=0.02, dead_slots=1),
        n_gates=3001,
        intrinsic_error=0.05,
        k_bootstrap=64,
    ),
    # A single gate: one block of one gate at every block size.
    "one-gate": make_params(pair_source=SourceModel(Distribution.POISSON, 50.0, 1.0), clock_alice=DARK, n_gates=1),
}


@pytest.mark.parametrize("case", sorted(BLOCK_EDGE_PARAMS))
@pytest.mark.parametrize("block", [1, 7, 1000, None])
def test_block_wise_detections_match_one_whole_length_draw(monkeypatch, case, block):
    params = BLOCK_EDGE_PARAMS[case]
    default = run_all_protocols(params)
    if block is not None:
        monkeypatch.setattr(qkd, "_GATE_BLOCK", block)
    assert_same_detections(block_detections(params), whole_array_detections(params))
    assert run_all_protocols(params) == default


def test_block_wise_detections_match_one_whole_length_draw_past_the_default_block():
    params = make_params(
        pair_source=SourceModel(Distribution.THERMAL, 50.0, 0.02),
        clock_alice=ClockConfig(mode=ClockMode.GATED, slots_per_gate=4, dark_prob=1e-3, dead_slots=3),
        clock_bob=DARK,
        n_gates=2 * qkd._GATE_BLOCK + 3,
    )
    assert_same_detections(block_detections(params), whole_array_detections(params))


def test_dead_time_keeps_a_detection_at_slot_one():
    """No click precedes gate 0, so its detection at slot 1 is kept."""
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=4, dead_slots=2)
    detected = np.array([True, False, False, True])
    flags, slots = party_slots(detected, clock, IntraGateProfile.fixed_slot(1))
    assert slots.tolist() == [1, 13]
    assert flags.tolist() == [True, False, False, True]


@pytest.mark.parametrize("block", [1, 2, None])
def test_detection_blocks_check_the_dead_time_across_block_edges(monkeypatch, block):
    """With the dead-time filter switched off, detections in adjacent gates
    break the dead time; each block is checked, and so is each block's first
    slot against the last one before it: in two-gate blocks the second
    block holds slots 5 and 7, and 5 is named."""
    if block is not None:
        monkeypatch.setattr(qkd, "_GATE_BLOCK", block)
    monkeypatch.setattr(qkd, "apply_dead_time", lambda slots, dead, last: np.ones(len(slots), dtype=bool))
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dead_slots=2)
    detected = np.array([False, True, True, True])
    message = "gaps must exceed the dead time of 2" if block is None else "slot 5 does not follow 3 by more than 2"
    with pytest.raises(DataError, match=message):
        party_slots(detected, clock, IntraGateProfile.fixed_slot(1))


@pytest.mark.parametrize("n_gates", [1, 3001])
@pytest.mark.parametrize("block", [1, 7, 1000, None])
def test_plain_bb84_sends_match_one_whole_length_draw(monkeypatch, n_gates, block):
    """Alice's sends come in calls of a multiple of 4 values with at most 3
    carried over, so every block size gives one whole-length call's values."""
    if block is not None:
        monkeypatch.setattr(qkd, "_GATE_BLOCK", block)
    params = make_params(n_gates=n_gates, seed=269)
    _, ((flags, sends, _), _) = round_parties(run_bb84, params)
    seed_a = np.random.SeedSequence(params.seed).spawn(5)[1]
    assert np.array_equal(sends, rng(seed_a).integers(0, 2, size=n_gates, dtype=np.uint8))
    assert flags.all() and flags.size == n_gates


def test_bb84_qber_and_sifting():
    result = run_bb84(make_params(intrinsic_error=0.05, seed=233))
    sigma_q = math.sqrt(0.05 * 0.95 / result.sifted_length)
    assert result.qber == pytest.approx(0.05, abs=3 * sigma_q)
    sigma_s = math.sqrt(0.25 / result.coincidences)
    assert result.sift_fraction == pytest.approx(0.5, abs=3 * sigma_s)
    assert result.basis_balance_alice > 0.97  # ideal out-of-band fair bits
    check_result_invariants(result)


def test_bb84_heralded_lossless_key_is_error_free():
    params = make_params(clock_alice=GATED_4, clock_bob=GATED_4, n_gates=200_000, seed=239)
    result = run_bb84(params, heralded_alice=True)
    assert result.qber == 0.0
    assert result.coincidences == result.pair_gates
    check_result_invariants(result)


def test_bb84_heralded_basis_is_fair_on_four_slot_gates():
    """With R a multiple of 4 the mod-4 residues are uniform, so the high
    (basis) bit Alice heralds with is balanced."""
    params = make_params(clock_alice=GATED_4, clock_bob=GATED_4, n_gates=200_000, seed=239)
    result = run_bb84(params, heralded_alice=True)
    assert result.basis_balance_alice > 0.97
    sigma = math.sqrt(0.25 / result.coincidences)
    assert result.sift_fraction == pytest.approx(0.5, abs=3 * sigma)


def test_bb84_is_deterministic():
    params = make_params(n_gates=20_000)
    assert run_bb84(params, heralded_alice=True) == run_bb84(params, heralded_alice=True)
    assert run_bb84(params) == run_bb84(params)


def eve_advantage_for(r: int, profile=None, n_events: int = 100_000) -> float:
    params = ProtocolParams(
        pair_source=SourceModel(Distribution.POISSON, 0.5),
        clock_alice=GATED_2,
        clock_bob=ClockConfig(mode=ClockMode.GATED, slots_per_gate=r),
        profile=profile or IntraGateProfile.uniform(),
        n_gates=1,
        seed=241,
    )
    return eve_qnd_advantage(params, n_events)


def test_eve_reads_every_bit_at_gate_resolution():
    assert eve_advantage_for(1) == 0.5


def test_eve_gains_nothing_against_fair_intra_gate_slots():
    sigma = 0.5 / math.sqrt(100_000)
    assert abs(eve_advantage_for(2)) < 3 * sigma


def test_eve_defeats_a_deterministic_intra_gate_slot():
    assert eve_advantage_for(2, IntraGateProfile.fixed_slot(1)) == 0.5


def test_eve_advantage_vanishes_for_all_even_resolutions():
    sigma = 0.5 / math.sqrt(100_000)
    for r in (2, 4, 6):
        assert abs(eve_advantage_for(r)) < 3 * sigma


def test_eve_advantage_does_not_grow_with_resolution():
    assert eve_advantage_for(1) >= eve_advantage_for(2)


def test_eve_requires_a_gated_clock():
    params = make_params(clock_bob=ClockConfig(mode=ClockMode.FREE_RUNNING), n_gates=1)
    with pytest.raises(ValueError):
        eve_qnd_advantage(params, 100)


def test_eve_refuses_a_free_running_clock_before_checking_bob():
    """Bob never detects here, yet the clock is refused first, by name."""
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING)
    params = make_params(pair_source=SourceModel(Distribution.POISSON, 0.5, 0.0), clock_bob=clock, n_gates=1)
    with pytest.raises(ValueError, match="the timing adversary is defined for gated clocks"):
        eve_qnd_advantage(params, 100)


def test_eve_requires_at_least_one_event():
    with pytest.raises(ValueError):
        eve_qnd_advantage(make_params(n_gates=1), 0)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(channel_transmittance_alice=1.2)
    with pytest.raises(ValueError):
        make_params(channel_transmittance_bob=-0.1)
    with pytest.raises(ValueError):
        make_params(intrinsic_error=0.6)
    with pytest.raises(ValueError):
        make_params(n_gates=0)
    with pytest.raises(ValueError):
        make_params(k_bootstrap=-1)


# (protocol, k_bootstrap, dead_slots, every ProtocolResult field in order),
# taken before the sift/QBER code of run_bbm92 and run_bb84 was merged.
PINNED_RESULTS = [
    ("bbm92", 0, 0, (38274, 19178, 0.05375951611221191, 0.9993083459587643, 0.9879757890888411, 0.5010712232847364, 78806)),
    ("bb84", 0, 0, (48938, 24491, 0.05254991629578212, 0.9987607683236394, 0.9879757890888411, 0.50044954840819, 78806)),
    ("bb84h", 0, 0, (38274, 19168, 0.053735392320534224, 0.9986500724351376, 0.9879757890888411, 0.5008099493128495, 78806)),
    ("bbm92", 0, 3, (31733, 15990, 0.054409005628517824, 0.9237107543685182, 0.9450621321124918, 0.5038918476034412, 78806)),
    ("bb84", 0, 3, (44610, 22370, 0.05243629861421547, 0.9987607683236394, 0.9450621321124918, 0.5014570724052902, 78806)),
    ("bb84h", 0, 3, (31733, 15959, 0.05445203333542202, 0.8499897533984562, 0.9450621321124918, 0.5029149465855733, 78806)),
    ("bbm92", 64, 0, (38274, 18921, 0.05401405845357011, 0.998979155003787, 0.9874913698574503, 0.4943564822072425, 78806)),
    ("bb84", 64, 0, (48938, 24673, 0.05256758399870304, 0.9987607683236394, 0.9871685548381858, 0.5041685397850342, 78806)),
    ("bb84h", 64, 0, (38274, 19266, 0.053617772241254025, 0.9986500724351376, 0.9871685548381858, 0.5033704342373413, 78806)),
    ("bbm92", 64, 3, (31733, 15809, 0.05458915807451452, 0.9233009019245793, 0.9448925317173127, 0.49818800617653547, 78806)),
    ("bb84", 64, 3, (44610, 22158, 0.05230616481631916, 0.9987607683236394, 0.9445534196416896, 0.49670477471418967, 78806)),
    ("bb84h", 64, 3, (31733, 15961, 0.05444521019986216, 0.8499897533984562, 0.9445534196416896, 0.5029779724576939, 78806)),
]


@pytest.mark.parametrize("protocol, k_bootstrap, dead_slots, expected", PINNED_RESULTS)
def test_protocol_results_are_pinned(protocol, k_bootstrap, dead_slots, expected):
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=4, dark_prob=1e-3, dead_slots=dead_slots)
    params = make_params(
        pair_source=SourceModel(Distribution.POISSON, 0.5, 0.8),
        clock_alice=clock,
        clock_bob=clock,
        n_gates=200_000,
        seed=227,
        channel_transmittance_alice=0.9,
        channel_transmittance_bob=0.7,
        intrinsic_error=0.05,
        k_bootstrap=k_bootstrap,
    )
    assert dataclasses.astuple(ROUNDS[protocol](params)) == expected


def pinned_edge_params(case: str) -> ProtocolParams:
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=4, dark_prob=1e-3)
    base = dict(
        pair_source=SourceModel(Distribution.POISSON, 0.5, 0.8),
        clock_alice=clock,
        clock_bob=clock,
        n_gates=200_000,
        seed=227,
        channel_transmittance_alice=0.9,
        channel_transmittance_bob=0.7,
        intrinsic_error=0.05,
    )
    dead = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dark_prob=1e-3, dead_slots=5)
    base.update({
        # 0.0 ** n: the slow path of the per-gate power.
        "survival-1": dict(
            pair_source=SourceModel(Distribution.POISSON, 0.5, 1.0),
            channel_transmittance_alice=1.0,
            channel_transmittance_bob=1.0,
        ),
        "thermal": dict(pair_source=SourceModel(Distribution.THERMAL, 0.5, 0.8)),
        # Photon numbers near 10^12, far past any per-photon-number table.
        "mu-1e12": dict(pair_source=SourceModel(Distribution.THERMAL, 1e12, 1e-12), n_gates=1000),
        "alice-dark-only": dict(channel_transmittance_alice=0.0),
        # Most detections of a cluster fall within the dead time and drop.
        "dead-5-r-2": dict(clock_alice=dead, clock_bob=dead),
    }[case])
    return make_params(**base)


# (case, protocol, every ProtocolResult field in order) for the corners the
# pins above miss, taken while each gate still evaluated its own power and
# the coincidences were found through a cumulative sum over all gates.
PINNED_EDGE_RESULTS = [
    ("survival-1", "bbm92", (78807, 39327, 0.051084496656241256, 0.9973425794695282, 0.9902163497907106, 0.49902927404925956, 78806)),
    ("survival-1", "bb84", (78928, 39487, 0.05100412794084129, 0.9987607683236394, 0.9902163497907106, 0.5002914048246503, 78806)),
    ("survival-1", "bb84h", (78807, 39554, 0.05091773271982606, 0.9969382591093118, 0.9902163497907106, 0.5019097288311952, 78806)),
    ("thermal", "bbm92", (35789, 17770, 0.05396736072031514, 0.9984622308904059, 0.9815015829941203, 0.49652127748749614, 66716)),
    ("thermal", "bb84", (43811, 22088, 0.05233611010503441, 0.9987607683236394, 0.9815015829941203, 0.5041656205062656, 66716)),
    ("thermal", "bb84h", (35789, 17723, 0.053997630198047736, 0.9989120648259304, 0.9815015829941203, 0.4952080248120931, 66716)),
    ("mu-1e12", "bbm92", (258, 141, 0.0851063829787234, 0.8588235294117647, 0.9707317073170731, 0.5465116279069767, 1000)),
    ("mu-1e12", "bb84", (404, 208, 0.07692307692307693, 0.9801980198019802, 0.9707317073170731, 0.5148514851485149, 1000)),
    ("mu-1e12", "bb84h", (258, 147, 0.08163265306122448, 0.9586776859504132, 0.9707317073170731, 0.5697674418604651, 1000)),
    ("alice-dark-only", "bbm92", (59, 29, 0.1724137931034483, 0.912621359223301, 0.9879757890888411, 0.4915254237288136, 78806)),
    ("alice-dark-only", "bb84", (48938, 24491, 0.05254991629578212, 0.9987607683236394, 0.9879757890888411, 0.50044954840819, 78806)),
    ("alice-dark-only", "bb84h", (59, 36, 0.16666666666666666, 0.9504950495049505, 0.9879757890888411, 0.6101694915254238, 78806)),
    ("dead-5-r-2", "bbm92", (17973, 9008, 0.0558392539964476, 0.8495138138601636, 0.8913736098587316, 0.5011962388026484, 78806)),
    ("dead-5-r-2", "bb84", (31463, 15725, 0.05462639109697933, 0.9987607683236394, 0.8913736098587316, 0.49979340813018464, 78806)),
    ("dead-5-r-2", "bb84h", (17973, 8777, 0.0557137974250883, 0.71889643301138, 0.8913736098587316, 0.4883436265509375, 78806)),
]


@pytest.mark.parametrize("case, protocol, expected", PINNED_EDGE_RESULTS)
def test_protocol_edge_results_are_pinned(case, protocol, expected):
    assert dataclasses.astuple(ROUNDS[protocol](pinned_edge_params(case))) == expected


def pinned_block_params(case: str) -> ProtocolParams:
    """A round of 1,000,003 gates: several gate blocks, the last one partial."""
    if case == "thermal-mu-50":
        clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=4, dark_prob=1e-3, dead_slots=3)
        source, k_bootstrap = SourceModel(Distribution.THERMAL, 50.0, 0.02), 64
    else:
        clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dark_prob=1e-3)
        source, k_bootstrap = SourceModel(Distribution.POISSON, 0.5, 0.8), 0
    return make_params(
        pair_source=source,
        clock_alice=clock,
        clock_bob=clock,
        n_gates=1_000_003,
        seed=251,
        channel_transmittance_alice=0.9,
        channel_transmittance_bob=0.7,
        intrinsic_error=0.05,
        k_bootstrap=k_bootstrap,
    )


# (case, protocol, every ProtocolResult field in order), taken while every
# party drew its click and dark-count uniforms over all gates in one call.
PINNED_BLOCK_RESULTS = [
    ("poisson-dark", "bbm92", (191957, 95794, 0.05074430548886152, 0.9976305657024386, 0.9967417158124532, 0.4990388472418302, 394014)),
    ("poisson-dark", "bb84", (245128, 122681, 0.05021967541836144, 0.9989105969928479, 0.9967417158124532, 0.5004773016546458, 394014)),
    ("poisson-dark", "bb84h", (191957, 96007, 0.05071505202745633, 0.8378172173881451, 0.9967417158124532, 0.500148470751262, 394014)),
    ("thermal-mu-50", "bbm92", (197603, 99117, 0.050505967694744594, 0.8818931271624451, 0.8947082957425785, 0.5015966356786081, 980463)),
    ("thermal-mu-50", "bb84", (352825, 176120, 0.049994322053145586, 0.9989105969928479, 0.8946777718707544, 0.4991709771132998, 980463)),
    ("thermal-mu-50", "bb84h", (197603, 99854, 0.0505638231818455, 0.7767944363287657, 0.8946777718707544, 0.5053263361386213, 980463)),
]


@pytest.mark.parametrize("case, protocol, expected", PINNED_BLOCK_RESULTS)
def test_protocol_results_past_one_gate_block_are_pinned(case, protocol, expected):
    assert dataclasses.astuple(ROUNDS[protocol](pinned_block_params(case))) == expected


# Taken while the gate indices were differenced as uint64 and multiplied as int64.
PINNED_EVE_ADVANTAGES = [(1, 0.5), (2, -0.002674999999999983), (3, 0.05542499999999995), (4, 0.0008799999999999919)]


@pytest.mark.parametrize("r, expected", PINNED_EVE_ADVANTAGES)
def test_eve_advantages_are_pinned(r, expected):
    assert eve_advantage_for(r, n_events=200_000) == expected


@pytest.mark.parametrize("block", [7, 64])
def test_eve_advantages_stay_pinned_in_small_blocks(monkeypatch, block):
    monkeypatch.setattr(sim, "_BLOCK", block)
    got = [(r, eve_advantage_for(r, n_events=200_000)) for r, _ in PINNED_EVE_ADVANTAGES]
    assert got == PINNED_EVE_ADVANTAGES


def test_eve_in_one_event_blocks_matches_the_default_block(monkeypatch):
    """At 2x10^5 events one-event blocks take seconds, so 10^4 events are
    compared with the default block; r = 3 flips the first guess."""
    expected = [eve_advantage_for(r, n_events=10_000) for r, _ in PINNED_EVE_ADVANTAGES]
    monkeypatch.setattr(sim, "_BLOCK", 1)
    assert [eve_advantage_for(r, n_events=10_000) for r, _ in PINNED_EVE_ADVANTAGES] == expected


@pytest.mark.parametrize("dark_prob, dead_slots", [(0.0, 0), (0.0, 3), (0.05, 0), (0.05, 3)])
@pytest.mark.parametrize("profile", ["uniform", "fixed:1", "fixed:r", "weighted"])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 257])
def test_eve_matches_the_full_interval_oracle(monkeypatch, r, profile, dark_prob, dead_slots):
    """Exact at ``sim`` blocks of 1, 7 and the default, with and without
    dead time; r = 257 wraps the intra-gate slot past one byte."""
    params = ProtocolParams(
        pair_source=SourceModel(Distribution.POISSON, 0.5, 0.2),
        clock_alice=GATED_2,
        clock_bob=ClockConfig(mode=ClockMode.GATED, slots_per_gate=r, dark_prob=dark_prob, dead_slots=dead_slots),
        profile=intra_gate_profile(profile, r),
        n_gates=1,
        seed=263,
    )
    expected = reference_eve_advantage(params, 2000)
    for block in (None, 7, 1):
        if block is not None:
            monkeypatch.setattr(sim, "_BLOCK", block)
        assert eve_qnd_advantage(params, 2000) == expected


def test_work_past_the_limit_is_refused(monkeypatch):
    """Each round past ``_MAX_WORK`` gates, and the adversary past
    ``_MAX_WORK`` events with and without dead time, is refused by name; at
    the limit they run.  (The reach guards come first: see
    ``test_rounds_past_64_bit_slots_are_guarded`` at 2**61 gates and the
    CLI's ``eve --events`` past float range.)"""
    monkeypatch.setattr(qkd, "_MAX_WORK", 1000)
    rounds = [run_bbm92, run_bb84, lambda p: run_bb84(p, heralded_alice=True)]
    for run in rounds:
        check_result_invariants(run(make_params(n_gates=1000)))
        with pytest.raises(GuardError, match=r"^at most 1000 gates per round, got 1001$"):
            run(make_params(n_gates=1001))
    dead = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dead_slots=1)
    for params in (make_params(n_gates=1), make_params(clock_bob=dead, n_gates=1)):
        assert eve_qnd_advantage(params, 1000) == reference_eve_advantage(params, 1000)
        with pytest.raises(GuardError, match=r"^at most 1000 events per gate width, got 1001$"):
            eve_qnd_advantage(params, 1001)


class DrawFailed(Exception):
    pass


@pytest.mark.parametrize("protocol", sorted(ROUNDS))
@pytest.mark.parametrize("thread", ["helper", "main"])
def test_a_failing_block_raises_and_leaves_no_thread(monkeypatch, protocol, thread):
    """An error in the second pair-number draw, made on the helper thread,
    or in the second detection block, made on the round's own thread while
    the helper draws, reaches the caller as raised, and the helper thread
    has ended by then."""
    failure = DrawFailed(f"{thread} block 2")
    calls = []

    def fail_on_the_second_call(real):
        def call(*args, **kwargs):
            calls.append(threading.current_thread() is threading.main_thread())
            if len(calls) == 2:
                raise failure
            return real(*args, **kwargs)
        return call

    if thread == "helper":
        monkeypatch.setattr(qkd, "_sample_pair_numbers", fail_on_the_second_call(qkd._sample_pair_numbers))
    else:
        monkeypatch.setattr(qkd, "_click_probabilities", fail_on_the_second_call(qkd._click_probabilities))
    threads = threading.active_count()
    with pytest.raises(DrawFailed) as raised:
        ROUNDS[protocol](sweep_params(3 * qkd._GATE_BLOCK))
    assert raised.value is failure
    assert calls == [thread == "main"] * 2
    assert threading.active_count() == threads


@pytest.mark.parametrize("protocol", sorted(ROUNDS))
def test_one_gate_blocks_with_constant_thread_switches_keep_the_pinned_result(monkeypatch, protocol):
    """The helper draws while 256 one-gate blocks are worked on at a time,
    with the interpreter switching threads every microsecond."""
    monkeypatch.setattr(qkd, "_GATE_BLOCK", 1)
    params = pinned_edge_params("mu-1e12")
    assert params.n_gates > 2 * qkd._MIN_DRAW
    expected = next(result for case, p, result in PINNED_EDGE_RESULTS if (case, p) == ("mu-1e12", protocol))
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = ROUNDS[protocol](params)
    finally:
        sys.setswitchinterval(interval)
    assert dataclasses.astuple(result) == expected
    assert threading.active_count() == threads


@pytest.mark.parametrize("left", [0, 3])
@pytest.mark.parametrize("block", [1, 7, 1000, None])
def test_only_the_helper_draws_pair_numbers_in_whole_blocks(monkeypatch, block, left):
    """Each draw covers the fewest whole gate blocks that hold at least
    ``_MIN_DRAW`` = 256 gates, the last one the ``left`` gates after them,
    and each is made on the helper thread."""
    if block is not None:
        monkeypatch.setattr(qkd, "_GATE_BLOCK", block)
    sample, draws = qkd._sample_pair_numbers, []

    def spy(source_rng, source, n_gates):
        draws.append((n_gates, threading.current_thread() is threading.main_thread()))
        return sample(source_rng, source, n_gates)

    monkeypatch.setattr(qkd, "_sample_pair_numbers", spy)
    per_draw = {1: 256, 7: 259, 1000: 1000, None: qkd._GATE_BLOCK}[block]
    run_bb84(make_params(n_gates=2 * per_draw + left))
    assert [size for size, _ in draws] == [per_draw, per_draw, left][: 3 if left else 2]
    assert not any(on_main for _, on_main in draws)


def test_a_pinned_round_sifts_past_one_gate_block():
    """So the pins cover the intrinsic-error uniforms drawn in more than one block."""
    assert max(result[1] for *_, result in PINNED_BLOCK_RESULTS) > qkd._GATE_BLOCK


def sweep_params(n_gates: int, slots_per_gate: int = 2) -> ProtocolParams:
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=slots_per_gate, dark_prob=1e-3)
    return make_params(
        pair_source=SourceModel(Distribution.POISSON, 0.5, 1.0),
        clock_alice=clock,
        clock_bob=clock,
        n_gates=n_gates,
        seed=301,
        intrinsic_error=0.05,
    )


def hold_the_first_block_for_a_full_queue(patch, sift=None) -> list:
    """Patch ``qkd`` so that a round's first block is worked on, by ``sift``
    or else the real ``_sift_block``, only once the producer has made three
    draws: that block's, one in the queue, and one drawn and waiting for the
    queue.  The returned list gets one True per draw waited for in time."""
    sample, sift = qkd._sample_pair_numbers, sift or qkd._sift_block
    drawn, waited = threading.Semaphore(0), []

    def counted_sample(*args):
        pairs = sample(*args)
        drawn.release()
        return pairs

    def sift_once_the_queue_is_full(*args):
        if not waited:
            waited.extend(drawn.acquire(timeout=10) for _ in range(3))
        return sift(*args)

    patch.setattr(qkd, "_sample_pair_numbers", counted_sample)
    patch.setattr(qkd, "_sift_block", sift_once_the_queue_is_full)
    return waited


def traced_peak_with_a_full_queue(monkeypatch, run, params: ProtocolParams) -> int:
    """The traced peak of ``run(params)``, whose first block is worked on
    with the producer's queue full."""
    with monkeypatch.context() as patch:
        waited = hold_the_first_block_for_a_full_queue(patch)
        peak = traced_peak(run, params)
    assert waited == [True] * 3
    return peak


@pytest.mark.parametrize("protocol", sorted(ROUNDS))
def test_protocol_rounds_run_in_flat_memory(monkeypatch, protocol):
    """The traced-allocation peak of a 4x10^6-gate round is that of a round
    of three gate blocks and three gates, within 256 KiB, where the first
    block is worked on with the producer's queue full: no per-gate flag or
    per-detection basis outlives a block, and the producer holds at most
    two draws beyond the block being worked on.  An untraced round first
    imports the producer's modules, so neither peak holds that import."""
    run = ROUNDS[protocol]
    run(sweep_params(1000))
    short = traced_peak_with_a_full_queue(monkeypatch, run, sweep_params(3 * qkd._GATE_BLOCK + 3))
    assert traced_peak(run, sweep_params(4_000_000)) <= short + 256 * 1024


def test_the_producer_runs_at_most_two_draws_ahead(monkeypatch):
    """A draw starts only once the round has worked through every block of
    the draw three before it, on the producer thread: one draw is worked on,
    one waits in the queue and one is being drawn.  With each block slowed
    down, the producer does run that far ahead."""
    monkeypatch.setattr(qkd, "_GATE_BLOCK", 1000)
    sample, sift = qkd._sample_pair_numbers, qkd._sift_block
    worked, leads = [], []

    def spy(source_rng, source, n_gates):
        leads.append((len(leads) - len(worked), threading.current_thread() is threading.main_thread()))
        return sample(source_rng, source, n_gates)

    def slow_sift(*args):
        time.sleep(0.05)
        counts = sift(*args)
        worked.append(args[3])
        return counts

    monkeypatch.setattr(qkd, "_sample_pair_numbers", spy)
    monkeypatch.setattr(qkd, "_sift_block", slow_sift)
    run_bbm92(make_params(n_gates=8000))
    assert worked == list(range(0, 8000, 1000))
    assert [on_main for _, on_main in leads] == [False] * 8
    assert max(lead for lead, _ in leads) == 2


def test_a_round_that_fails_early_stops_its_producer(monkeypatch):
    """A round whose first block fails with the producer's queue full and a
    thousand draws to go raises after those three draws: the producer
    stops instead of drawing the rest, and does not wait on a full queue.
    The round runs on a thread of its own, so a producer that never stops
    fails the test rather than hangs it."""
    monkeypatch.setattr(qkd, "_GATE_BLOCK", 1000)
    sample, draws, raised = qkd._sample_pair_numbers, [], []

    def counted(*args):
        draws.append(args[2])
        return sample(*args)

    def fail(*args):
        raise DrawFailed("block 1")

    def round_that_fails():
        try:
            run_bbm92(make_params(n_gates=1_000_000))
        except DrawFailed as exc:
            raised.append(exc)

    monkeypatch.setattr(qkd, "_sample_pair_numbers", counted)
    waited = hold_the_first_block_for_a_full_queue(monkeypatch, fail)
    worker = threading.Thread(target=round_that_fails, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert waited == [True] * 3
    assert len(raised) == 1
    assert draws == [1000] * 3


def test_eve_stays_within_its_memory_budget():
    """Without dead time the traced-allocation peak of 10^6 events is that of
    two ``sim`` blocks and three events, within 256 KiB: the adversary holds
    one block of Bob's intra-gate slots at a time, not his stream."""
    params = sweep_params(1, slots_per_gate=4)
    assert params.clock_bob.dead_slots == 0
    short = traced_peak(eve_qnd_advantage, params, 2 * sim._BLOCK + 3)
    assert traced_peak(eve_qnd_advantage, params, 1_000_000) <= short + 256 * 1024
