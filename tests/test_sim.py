"""Event-stream simulation: distributional checks against the closed forms."""

import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import binomial_sigma, geometric_gof_pvalue, intra_gate_profile, reference_dead_time, traced_peak
from tickrng.errors import GuardError
from tickrng.extract import EventStream, extract_mod2
from tickrng.models import Distribution, SourceModel, click_probability, parity_probabilities
from tickrng import sim
from tickrng.sim import (
    GENERATOR_ALGORITHM,
    ClockConfig,
    ClockMode,
    IntraGateProfile,
    apply_dead_time,
    generate_blocks,
    generate_free_running,
    generate_gated,
    intra_gate_slots,
)

FREE = ClockConfig(mode=ClockMode.FREE_RUNNING)


def source_for_slot_probability(p: float) -> SourceModel:
    """Poisson source whose click probability per slot is exactly p."""
    return SourceModel(Distribution.POISSON, -math.log1p(-p))


def test_generator_identity_is_recorded():
    assert GENERATOR_ALGORITHM == "PCG64"


def test_free_running_is_deterministic():
    source = SourceModel(Distribution.POISSON, 0.5)
    a = generate_free_running(source, FREE, 1000, seed=7)
    b = generate_free_running(source, FREE, 1000, seed=7)
    c = generate_free_running(source, FREE, 1000, seed=8)
    assert np.array_equal(a.slots, b.slots)
    assert not np.array_equal(a.slots, c.slots)


def test_certain_click_fills_every_slot():
    source = SourceModel(Distribution.POISSON, 1e9)  # click probability 1
    stream = generate_free_running(source, FREE, 3, seed=0)
    assert stream.slots.tolist() == [1, 2, 3]


def test_mean_gap_matches_inverse_click_probability():
    stream = generate_free_running(source_for_slot_probability(0.0075), FREE, 1_000_000, seed=11)
    gaps = np.diff(stream.slots, prepend=np.uint64(0))
    mean_gap = float(gaps.mean())
    assert mean_gap == pytest.approx(1.0 / 0.0075, rel=0.005)


def test_dead_time_floors_the_gap():
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=3)
    stream = generate_free_running(source_for_slot_probability(0.5), clock, 100_000, seed=3)
    gaps = np.diff(stream.slots)
    assert int(gaps.min()) == 4


def test_dead_time_preserves_geometric_shape_of_shifted_gaps():
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=5)
    p = 0.2
    stream = generate_free_running(source_for_slot_probability(p), clock, 200_000, seed=21)
    gaps = np.diff(stream.slots)
    assert geometric_gof_pvalue(gaps - 5, p, max_n=40) > 0.001


def test_gap_histogram_matches_window_pmf():
    p = 0.3
    stream = generate_free_running(source_for_slot_probability(p), FREE, 1_000_000, seed=17)
    gaps = np.diff(stream.slots, prepend=np.uint64(0))
    assert geometric_gof_pvalue(gaps, p, max_n=50) > 0.001


@pytest.mark.parametrize("distribution", [Distribution.POISSON, Distribution.THERMAL])
@pytest.mark.parametrize("mu_eta", [0.1, 0.5, 1.0])
def test_free_running_parity_matches_analytic_bias(distribution, mu_eta):
    source = SourceModel(distribution, mu_eta)
    stream = generate_free_running(source, FREE, 1_000_000, seed=int(mu_eta * 1000) + 29)
    parities = extract_mod2(stream)
    even, odd = parities.zeros(), parities.ones()
    bias = parity_probabilities(source)
    expected = [(even + odd) * bias.p_even, (even + odd) * bias.p_odd]
    assert chisquare([even, odd], expected).pvalue > 0.001


def test_gap_parity_hand_values():
    """The gaps' (even, odd) counts, the first gap counted from tick 0."""
    for slots, counts in (([2, 4, 6], (3, 0)), ([1, 2, 4, 7], (1, 3))):
        parities = extract_mod2(EventStream(np.array(slots, dtype=np.uint64)))
        assert (parities.zeros(), parities.ones()) == counts


def test_zero_click_probability_raises_guard():
    source = SourceModel(Distribution.POISSON, 0.0)
    with pytest.raises(GuardError):
        generate_free_running(source, FREE, 10, seed=0)
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    with pytest.raises(GuardError, match="per-gate click probability is 0"):
        generate_gated(source, gated, IntraGateProfile.uniform(), 10, seed=0)


def test_streams_past_64_bit_slots_raise_guard():
    # 10^7 events at a click probability of about 1e-12 span some 1e19 slots.
    source = SourceModel(Distribution.POISSON, 1e-12)
    with pytest.raises(GuardError, match="overflow 64-bit slot indices"):
        generate_free_running(source, FREE, 10**7, seed=0)
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    with pytest.raises(GuardError, match="overflow 64-bit slot indices"):
        generate_gated(source, gated, IntraGateProfile.uniform(), 10**7, seed=0)


def test_gated_reach_counts_the_dead_time():
    """Each gated detection takes slots_per_gate / p plus the dead time, so a
    dead time near 2**62 trips the reach guard before any draw; 2**63 no
    longer overflows the filter's int64 arithmetic."""
    source = SourceModel(Distribution.POISSON, 0.5)
    for dead, n_events in ((2**63, 10), (2**62, 10**6), (2**59, 10)):
        gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dead_slots=dead)
        with pytest.raises(GuardError, match=r"^requested stream would overflow 64-bit slot indices$"):
            generate_gated(source, gated, IntraGateProfile.uniform(), n_events, seed=1)


def test_guard_messages_are_pinned():
    """The exact text of each generator's never-clicks and reach guards."""
    dark = SourceModel(Distribution.POISSON, 0.0)
    dim = SourceModel(Distribution.POISSON, 1e-12)
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    uniform = IntraGateProfile.uniform()
    cases = [
        (lambda: generate_free_running(dark, FREE, 10, seed=0),
         "per-slot click probability is 0; the stream would never terminate"),
        (lambda: generate_gated(dark, gated, uniform, 10, seed=0),
         "per-gate click probability is 0; the stream would never terminate"),
        (lambda: generate_free_running(dim, FREE, 10**7, seed=0),
         "requested stream would overflow 64-bit slot indices"),
        (lambda: generate_gated(dim, gated, uniform, 10**7, seed=0),
         "requested stream would overflow 64-bit slot indices"),
    ]
    for call, message in cases:
        with pytest.raises(GuardError) as exc:
            call()
        assert str(exc.value) == message


def test_reach_guard_passes_exactly_at_two_to_the_62():
    """A certain click (Poisson mu*eta = 50 rounds p to 1.0) takes one slot
    per event at r = 1 and two at r = 2, so these counts reach exactly
    2**62 slots, which is allowed; no slot is allocated."""
    source = SourceModel(Distribution.POISSON, 50.0)
    r1 = ClockConfig(mode=ClockMode.GATED, slots_per_gate=1)
    r2 = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    assert sim._stream_click_probability(source, r1, 2**62) == 1.0
    assert sim._stream_click_probability(source, r2, 2**61) == 1.0
    with pytest.raises(GuardError, match="^requested stream would overflow 64-bit slot indices$"):
        sim._stream_click_probability(source, r1, 2**62 + 1)


def test_gated_top_up_gives_up_when_the_dead_time_drops_every_candidate():
    # Nearly every gate clicks, and each top-up batch of one candidate lands
    # within the 10^5-slot dead time of the first click.
    source = SourceModel(Distribution.POISSON, 50.0)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=1, dead_slots=100_000)
    with pytest.raises(GuardError, match="gave up after 10000 batches"):
        generate_gated(source, clock, IntraGateProfile.uniform(), 2, seed=0)


def test_zero_events_yields_empty_stream():
    source = SourceModel(Distribution.POISSON, 0.5)
    assert len(generate_free_running(source, FREE, 0, seed=0)) == 0
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    assert len(generate_gated(source, gated, IntraGateProfile.uniform(), 0, seed=0)) == 0


def test_zero_events_still_check_the_profile_against_the_gate():
    source = SourceModel(Distribution.POISSON, 0.5)
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    with pytest.raises(ValueError, match="^fixed slot 3 outside gate of 2 slots$"):
        generate_gated(source, gated, IntraGateProfile.fixed_slot(3), 0, seed=0)


def test_gated_r1_matches_free_running_distribution():
    """A one-slot gate is the degenerate case: gaps must stay geometric at p_gate."""
    source = SourceModel(Distribution.POISSON, 0.5)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=1)
    stream = generate_gated(source, clock, IntraGateProfile.uniform(), 200_000, seed=31)
    gaps = np.diff(stream.slots, prepend=np.uint64(0))
    assert geometric_gof_pvalue(gaps, click_probability(source), max_n=30) > 0.001


def test_gated_even_r_uniform_profile_has_fair_gap_parity():
    source = source_for_slot_probability(0.3)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    stream = generate_gated(source, clock, IntraGateProfile.uniform(), 1_000_000, seed=37)
    parities = extract_mod2(stream)
    fraction_odd = parities.ones() / len(parities)
    assert abs(fraction_odd - 0.5) < 3 * binomial_sigma(0.5, len(parities))


def test_gated_fixed_slot_r2_makes_all_gaps_even():
    source = source_for_slot_probability(0.3)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    stream = generate_gated(source, clock, IntraGateProfile.fixed_slot(1), 100_000, seed=41)
    gaps = np.diff(stream.slots)
    assert not np.any(gaps & np.uint64(1))


def test_gated_is_deterministic():
    source = SourceModel(Distribution.THERMAL, 0.8)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=4)
    profile = IntraGateProfile.weighted([0.1, 0.2, 0.3, 0.4])
    a = generate_gated(source, clock, profile, 5000, seed=43)
    b = generate_gated(source, clock, profile, 5000, seed=43)
    assert np.array_equal(a.slots, b.slots)


def test_gated_dead_time_respects_blind_window():
    source = SourceModel(Distribution.POISSON, 2.0)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dead_slots=3)
    stream = generate_gated(source, clock, IntraGateProfile.uniform(), 50_000, seed=47)
    assert int(np.diff(stream.slots).min()) > 3


def test_gated_dead_time_stream_is_pinned():
    """Digest of the slots the per-candidate filter produced before it was vectorised."""
    source = SourceModel(Distribution.POISSON, 0.5)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=8, dead_slots=3)
    stream = generate_gated(source, clock, IntraGateProfile.uniform(), 100_000, seed=301)
    digest = hashlib.sha256(stream.slots.astype("<u8").tobytes()).hexdigest()
    assert digest == "7f275a22cbea63c694f02ce8e52f7b6751cf6c7fd94fa5e8bee68efae4f59cd6"


# (source, slots_per_gate, dead_slots, dark_prob, profile, seed, SHA-256 of the
# slots) for gated streams whose dead time drops candidates that follow a
# dropped one, taken from the per-candidate filter.  Each run of 2x10^5 events
# takes 13 to 21 top-up batches, so the last kept click is carried across
# many batch boundaries.
PINNED_GATED_TANGLED_DEAD_TIME = [
    (SourceModel(Distribution.POISSON, 0.5), 2, 3, 0.0, IntraGateProfile.uniform(), 331,
     "2030b7053d58f33551fd519a03a0467c8da5c3b7a8ea929c41c6dace5a4c82c2"),
    (SourceModel(Distribution.POISSON, 0.5), 1, 3, 0.0, IntraGateProfile.uniform(), 337,
     "22fc547a8e227a46db9e846921c5475cf347bdace1b40fbaea36b546e922c947"),
    (SourceModel(Distribution.THERMAL, 0.8), 4, 9, 0.0, IntraGateProfile.uniform(), 347,
     "2cdc8552ec594204dbece02780b8bff6c2de6d36ced9653dbb20357bec7e213c"),
    (SourceModel(Distribution.POISSON, 0.3), 2, 5, 0.02, IntraGateProfile.weighted([0.3, 0.7]), 349,
     "2c7dfe7c045f27c8b1b1e82c7ffcccf2ba2c7741eddbb42fd60df0924baebbec"),
]


@pytest.mark.parametrize("source, r, dead, dark, profile, seed, expected", PINNED_GATED_TANGLED_DEAD_TIME)
def test_gated_tangled_dead_time_stream_is_pinned(source, r, dead, dark, profile, seed, expected):
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=r, dead_slots=dead, dark_prob=dark)
    stream = generate_gated(source, clock, profile, 200_000, seed=seed)
    digest = hashlib.sha256(stream.slots.astype("<u8").tobytes()).hexdigest()
    assert digest == expected


# (source, slots_per_gate, dark_prob, profile, seed, SHA-256 of the slots) for
# gated streams without dead time, taken when those had their own code path.
PINNED_GATED_NO_DEAD_TIME = [
    (SourceModel(Distribution.POISSON, 0.5), 2, 0.0, IntraGateProfile.uniform(), 307,
     "8be467e61ed3543126a3e7fe7b4e98ca7a822bcf6eb5015e8fb2059a6054961a"),
    (SourceModel(Distribution.THERMAL, 0.8), 3, 0.0, IntraGateProfile.fixed_slot(2), 311,
     "b13b5c0855f9ea10669159506dde1b798e262a79f4f9ecab2afbe5c4024be5cc"),
    (SourceModel(Distribution.POISSON, 1.2), 4, 0.0, IntraGateProfile.weighted([0.1, 0.2, 0.3, 0.4]), 313,
     "a3ef3424a01c3676c13189506d82481a8d95bda50cc85acac3512a8caf4ade2a"),
    (SourceModel(Distribution.POISSON, 0.05), 2, 0.01, IntraGateProfile.uniform(), 317,
     "df4a0ddcf5d1e1a048551ae26be6f2327bba9fa72e3a05bb937f6c33802ac273"),
]


@pytest.mark.parametrize("source, r, dark, profile, seed, expected", PINNED_GATED_NO_DEAD_TIME)
def test_gated_stream_without_dead_time_is_pinned(source, r, dark, profile, seed, expected):
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=r, dark_prob=dark)
    stream = generate_gated(source, clock, profile, 20_000, seed=seed)
    digest = hashlib.sha256(stream.slots.astype("<u8").tobytes()).hexdigest()
    assert digest == expected


# (source, dead_slots, dark_prob, seed, SHA-256 of the slots) for free-running
# streams of 50,000 events, with and without a dead time.
PINNED_FREE_RUNNING = [
    (SourceModel(Distribution.POISSON, 0.5), 0, 0.0, 401,
     "6f4d920309d9d24480f6a8cdaeecd56a561f4bb1e5f9c93af11d4ae07d9ae877"),
    (SourceModel(Distribution.POISSON, 0.5), 3, 0.0, 409,
     "cb62256aad4ac2e873e43789b8011e03f4128bd24afbc8b6a74735999698b577"),
    (SourceModel(Distribution.THERMAL, 0.8, 0.5), 0, 0.0, 419,
     "c4954e9dcf4ff5e0bc6eed119c31a18c4ed7249e75939166e0808cc61c871dfa"),
    (SourceModel(Distribution.THERMAL, 0.8, 0.5), 3, 0.01, 421,
     "6824c9713afe286309e5670eceb454f314dae3028d2ec43832539cc7e2c2f3a2"),
]


@pytest.mark.parametrize("source, dead, dark, seed, expected", PINNED_FREE_RUNNING)
def test_free_running_stream_is_pinned(source, dead, dark, seed, expected):
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=dead, dark_prob=dark)
    stream = generate_free_running(source, clock, 50_000, seed=seed)
    digest = hashlib.sha256(stream.slots.astype("<u8").tobytes()).hexdigest()
    assert digest == expected


def slots_digest(stream: EventStream) -> str:
    return hashlib.sha256(stream.slots.astype("<u8").tobytes()).hexdigest()


def gated_pin_cases():
    """Every gated stream pin as (clock, profile, source, n_events, seed, digest)."""
    yield (ClockConfig(mode=ClockMode.GATED, slots_per_gate=8, dead_slots=3), IntraGateProfile.uniform(),
           SourceModel(Distribution.POISSON, 0.5), 100_000, 301,
           "7f275a22cbea63c694f02ce8e52f7b6751cf6c7fd94fa5e8bee68efae4f59cd6")
    for source, r, dead, dark, profile, seed, expected in PINNED_GATED_TANGLED_DEAD_TIME:
        clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=r, dead_slots=dead, dark_prob=dark)
        yield clock, profile, source, 200_000, seed, expected
    for source, r, dark, profile, seed, expected in PINNED_GATED_NO_DEAD_TIME:
        clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=r, dark_prob=dark)
        yield clock, profile, source, 20_000, seed, expected


GATED_PIN_CASES = list(gated_pin_cases())


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("case", range(len(GATED_PIN_CASES)), ids=lambda i: f"pin{i}")
def test_gated_stream_pins_hold_in_small_blocks(monkeypatch, block, case):
    """Drawing, filtering and checking the slots in blocks of 7 or 64 gives
    the pinned streams.  At 7 the 200,000-event streams take seconds each,
    so those four are compared with the default blocks on 10,000 events."""
    clock, profile, source, n_events, seed, expected = GATED_PIN_CASES[case]
    if block == 7 and n_events == 200_000:
        n_events = 10_000
        expected = slots_digest(generate_gated(source, clock, profile, n_events, seed))
    monkeypatch.setattr(sim, "_BLOCK", block)
    assert slots_digest(generate_gated(source, clock, profile, n_events, seed)) == expected


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("source, dead, dark, seed, expected", PINNED_FREE_RUNNING)
def test_free_running_stream_pins_hold_in_small_blocks(monkeypatch, block, source, dead, dark, seed, expected):
    monkeypatch.setattr(sim, "_BLOCK", block)
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=dead, dark_prob=dark)
    assert slots_digest(generate_free_running(source, clock, 50_000, seed=seed)) == expected


@pytest.mark.parametrize("case", range(len(GATED_PIN_CASES)), ids=lambda i: f"pin{i}")
def test_gated_streams_in_blocks_of_one_equal_the_default_blocks(monkeypatch, case):
    clock, profile, source, _, seed, _ = GATED_PIN_CASES[case]
    expected = generate_gated(source, clock, profile, 1_000, seed).slots
    monkeypatch.setattr(sim, "_BLOCK", 1)
    assert np.array_equal(generate_gated(source, clock, profile, 1_000, seed).slots, expected)


@pytest.mark.parametrize("source, dead, dark, seed, expected", PINNED_FREE_RUNNING)
def test_free_running_streams_in_blocks_of_one_equal_the_default_blocks(monkeypatch, source, dead, dark, seed, expected):
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=dead, dark_prob=dark)
    expected = generate_free_running(source, clock, 5_000, seed=seed).slots
    monkeypatch.setattr(sim, "_BLOCK", 1)
    assert np.array_equal(generate_free_running(source, clock, 5_000, seed=seed).slots, expected)


def test_gated_simulation_stays_within_its_memory_budget():
    """The stream's 8 bytes per event, and one block's draws and filter."""
    source = SourceModel(Distribution.POISSON, 0.5)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=8, dead_slots=3)
    n_events = 2_000_000
    peak = traced_peak(generate_gated, source, clock, IntraGateProfile.uniform(), n_events, 301)
    assert peak <= 8 * n_events + 4 * 2**20


def test_free_running_simulation_stays_within_its_memory_budget():
    """The stream's 8 bytes per event, one block's draws and the check's windows."""
    source = SourceModel(Distribution.POISSON, 0.5)
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=3)
    n_events = 2_000_000
    assert traced_peak(generate_free_running, source, clock, n_events, 301) <= 8 * n_events + 3 * 2**20


def test_gated_simulation_blocks_hold_a_byte_per_gap():
    """Streamed without being collected, the stream costs its gaps, a byte
    each, and one block's draws and filter."""
    source = SourceModel(Distribution.POISSON, 0.5)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=8, dead_slots=3)
    n_events = 2_000_000
    blocks = generate_blocks(source, clock, IntraGateProfile.uniform(), n_events, 301)
    assert traced_peak(lambda: sum(b.size for b in blocks)) <= n_events + 4 * 2**20


def test_free_running_simulation_blocks_hold_one_block():
    source = SourceModel(Distribution.POISSON, 0.5)
    clock = ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=3)
    blocks = generate_blocks(source, clock, None, 2_000_000, 301)
    assert traced_peak(lambda: sum(b.size for b in blocks)) <= 2 * 2**20


def generated_streams():
    """(clock, profile, source, n_events, seed) of every gated and free-running pin, at 20,000 events."""
    for clock, profile, source, n_events, seed, _ in GATED_PIN_CASES:
        yield clock, profile, source, min(n_events, 20_000), seed
    for source, dead, dark, seed, _ in PINNED_FREE_RUNNING:
        yield ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=dead, dark_prob=dark), None, source, 20_000, seed


GENERATED_STREAMS = list(generated_streams())


@pytest.mark.parametrize("block", [None, 7, 64])
@pytest.mark.parametrize("case", range(len(GENERATED_STREAMS)), ids=lambda i: f"stream{i}")
def test_simulation_blocks_join_up_to_the_generated_streams(monkeypatch, block, case):
    """Read-only uint64 blocks of ``_BLOCK`` draws less the dead time's
    losses, which together are the ``generate_*`` stream."""
    clock, profile, source, n_events, seed = GENERATED_STREAMS[case]
    if block is not None:
        monkeypatch.setattr(sim, "_BLOCK", block)
    if clock.mode is ClockMode.GATED:
        expected = generate_gated(source, clock, profile, n_events, seed).slots
    else:
        expected = generate_free_running(source, clock, n_events, seed).slots
    blocks = list(generate_blocks(source, clock, profile, n_events, seed))
    assert all(b.dtype == np.uint64 and not b.flags.writeable and 0 < b.size <= sim._BLOCK for b in blocks)
    assert np.array_equal(np.concatenate(blocks), expected)


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("r", [1, 3])
def test_gated_gaps_past_a_byte_give_the_whole_length_draw(monkeypatch, block, r):
    """At a click probability of 1e-4 the gap blocks are held at 16 and 32
    bits; the stream is still one whole-length gap draw, then one profile
    draw."""
    if block is not None:
        monkeypatch.setattr(sim, "_BLOCK", block)
    source = source_for_slot_probability(1e-4)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=r)
    gen = sim.rng(433)
    gaps = gen.geometric(1e-4, size=3000)
    assert gaps.max() >= 2**16
    gates = np.cumsum(gaps) - 1
    expected = gates * r + IntraGateProfile.uniform().sample(gen, 3000, r)
    stream = generate_gated(source, clock, IntraGateProfile.uniform(), 3000, 433)
    assert np.array_equal(stream.slots, expected.astype(np.uint64))


def test_simulation_blocks_run_the_guards_on_the_call():
    """Before the first block is asked for, for both clock modes, as is the
    work limit; a dead time that drops every candidate stops the blocks."""
    dark = SourceModel(Distribution.POISSON, 0.0)
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    for clock in (FREE, gated):
        with pytest.raises(GuardError, match="click probability is 0"):
            generate_blocks(dark, clock, IntraGateProfile.uniform(), 10, seed=0)
        with pytest.raises(ValueError, match="^n_events must be a non-negative integer, got -1$"):
            generate_blocks(dark, clock, IntraGateProfile.uniform(), -1, seed=0)
        assert list(generate_blocks(dark, clock, IntraGateProfile.uniform(), 0, seed=0)) == []
    with pytest.raises(ValueError, match="^fixed slot 3 outside gate of 2 slots$"):
        generate_blocks(dark, gated, IntraGateProfile.fixed_slot(3), 0, seed=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_MAX_WORK", 1000)
        for clock in (FREE, gated):
            with pytest.raises(GuardError, match="^at most 1000 events per stream, got 1001$"):
                generate_blocks(SourceModel(Distribution.POISSON, 0.5), clock, IntraGateProfile.uniform(), 1001, 0)
            assert sum(b.size for b in generate_blocks(SourceModel(Distribution.POISSON, 0.5), clock,
                                                       IntraGateProfile.uniform(), 1000, 0)) == 1000
    blind = ClockConfig(mode=ClockMode.GATED, slots_per_gate=1, dead_slots=100_000)
    blocks = generate_blocks(SourceModel(Distribution.POISSON, 50.0), blind, IntraGateProfile.uniform(), 2, 0)
    assert next(blocks).tolist() == [1]
    with pytest.raises(GuardError, match="gave up after 10000 batches"):
        next(blocks)


# The numpy Generator calls that every simulated stream and protocol round
# rests on, at the dtypes and block sizes the simulators and rounds use:
# a short SHA-256 of each call's values from one seed.  numpy does not
# promise these across versions; a change fails here before it fails a pin.
GENERATOR_DRAWS = {
    "geometric, p >= 1/3 (search)": (lambda g: g.geometric(1 - math.exp(-0.5), size=2**16), "7328812436f6a11e"),
    "geometric, p < 1/3 (inversion)": (lambda g: g.geometric(0.05, size=2**16), "3021477448a847fa"),
    "integers int64, r = 2": (lambda g: g.integers(1, 3, size=2**16, dtype=np.int64), "199bff65ca6ff734"),
    "integers int64, r = 8": (lambda g: g.integers(1, 9, size=2**16, dtype=np.int64), "2ae5dc277b3173cc"),
    "integers int64, r = 257": (lambda g: g.integers(1, 258, size=2**16, dtype=np.int64), "aff68c94c9d1f4c9"),
    "choice with p": (lambda g: g.choice(np.arange(1, 5, dtype=np.int64), size=2**16, p=[0.4, 0.1, 0.3, 0.2]),
                      "e4aabf8b083ae160"),
    "poisson": (lambda g: g.poisson(0.5, size=2**15), "761c8ed896e59b59"),
    "random": (lambda g: g.random(2**15), "61db97580bf101f3"),
    "integers uint8, 0 or 1": (lambda g: g.integers(0, 2, size=2**15, dtype=np.uint8), "56e1999e9ff62492"),
    "random after advance": (lambda g: g.bit_generator.advance(2**15) and g.random(2**15), "1088899a8b0db742"),
}


def test_numpy_generator_draws_are_pinned():
    def digest(values: np.ndarray) -> str:
        return hashlib.sha256(values.astype(values.dtype.newbyteorder("<")).tobytes()).hexdigest()[:16]

    drawn = {name: digest(draw(sim.rng(20261021))) for name, (draw, _) in GENERATOR_DRAWS.items()}
    assert drawn == {name: pinned for name, (_, pinned) in GENERATOR_DRAWS.items()}
    # The simulators split one call's geometric draws into blocks.
    for p in (0.4, 0.05):
        gen = sim.rng(20261021)
        halves = np.concatenate([gen.geometric(p, size=2**15), gen.geometric(p, size=2**15)])
        assert np.array_equal(halves, sim.rng(20261021).geometric(p, size=2**16))


@pytest.mark.parametrize("dead_slots", [0, 3])
@pytest.mark.parametrize("dark_prob", [0.0, 0.05])
@pytest.mark.parametrize("profile", ["uniform", "fixed:1", "fixed:r", "weighted"])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 257])
def test_intra_gate_slot_blocks_join_up_to_the_gated_streams(monkeypatch, r, profile, dark_prob, dead_slots):
    """At 1, ``_BLOCK`` - 1, ``_BLOCK`` + 1 and 2 ``_BLOCK`` + 3 events, for
    the default block and blocks of 1, 7 and 64, with and without dead
    time: int64 blocks, full but the last, which together are the gated
    stream's intra-gate slots."""
    source = SourceModel(Distribution.POISSON, 0.5)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=r, dark_prob=dark_prob, dead_slots=dead_slots)
    shape = intra_gate_profile(profile, r)
    for block in (None, 1, 7, 64):
        if block is not None:
            monkeypatch.setattr(sim, "_BLOCK", block)
        for n_events in (1, sim._BLOCK - 1, sim._BLOCK + 1, 2 * sim._BLOCK + 3):
            blocks = list(intra_gate_slots(source, clock, shape, n_events, 409))
            assert [b.size for b in blocks[:-1]] == [sim._BLOCK] * (len(blocks) - 1)
            assert all(b.dtype == np.int64 for b in blocks)
            slots = generate_gated(source, clock, shape, n_events, 409).slots
            expected = (slots - np.uint64(1)) % np.uint64(r) + np.uint64(1)
            assert np.array_equal(np.concatenate([np.empty(0, np.int64), *blocks]), expected)


@pytest.mark.parametrize("r, profile, walks", [(1, "uniform", False), (1, "weighted", False),
                                               (4, "fixed:1", False), (4, "uniform", True), (4, "weighted", True)])
def test_intra_gate_slots_walk_the_gaps_only_to_reach_profile_draws(monkeypatch, r, profile, walks):
    """The gaps are walked, one ``geometric`` call per block, only where the
    profile then draws: not at one slot per gate, nor at a fixed slot."""
    seeded, calls = sim.rng, []

    class Spy:
        def __init__(self, gen):
            self.gen = gen

        def geometric(self, *args, **kwargs):
            calls.append(kwargs["size"])
            return self.gen.geometric(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.gen, name)

    monkeypatch.setattr(sim, "rng", lambda seed: Spy(seeded(seed)))
    source, clock = SourceModel(Distribution.POISSON, 0.5), ClockConfig(mode=ClockMode.GATED, slots_per_gate=r)
    blocks = list(intra_gate_slots(source, clock, intra_gate_profile(profile, r), 2 * sim._BLOCK + 3, 409))
    assert len(blocks) == 3
    assert calls == ([sim._BLOCK, sim._BLOCK, 3] if walks else [])


@pytest.mark.parametrize("dead_slots", [0, 3])
def test_intra_gate_slots_run_the_gated_guards_on_the_call(dead_slots):
    """The gated generator's guards in its order and with its messages, the
    clock's mode naming the function, raised before the first block is
    asked for, with and without dead time."""
    dark = SourceModel(Distribution.POISSON, 0.0)
    dim = SourceModel(Distribution.POISSON, 1e-12)
    lit = SourceModel(Distribution.POISSON, 0.5)
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dead_slots=dead_slots)
    uniform, outside = IntraGateProfile.uniform(), IntraGateProfile.fixed_slot(3)
    cases = [
        (dark, FREE, outside, -1, ValueError, "{} requires a gated clock"),
        (dark, gated, outside, -1, ValueError, "n_events must be a non-negative integer, got -1"),
        (dark, gated, outside, 0, ValueError, "fixed slot 3 outside gate of 2 slots"),
        (dark, gated, uniform, 10, GuardError, "per-gate click probability is 0; the stream would never terminate"),
        (dim, gated, uniform, 10**7, GuardError, "requested stream would overflow 64-bit slot indices"),
    ]
    for source, clock, profile, n_events, kind, message in cases:
        for generate in (generate_gated, intra_gate_slots):
            with pytest.raises(kind) as exc:
                generate(source, clock, profile, n_events, seed=0)
            assert str(exc.value) == message.format(generate.__name__)
    assert list(intra_gate_slots(lit, gated, uniform, 0, seed=0)) == []


def test_intra_gate_slots_draw_a_dead_time_stream_when_the_first_block_is_asked_for(monkeypatch):
    """With dead time the call draws nothing; the first block draws the
    whole stream with ``generate_gated``, once."""
    real, calls = sim.generate_gated, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sim, "generate_gated", spy)
    source, profile = SourceModel(Distribution.POISSON, 0.5), IntraGateProfile.uniform()
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dead_slots=1)
    blocks = intra_gate_slots(source, clock, profile, sim._BLOCK + 3, 409)
    assert calls == []
    assert next(blocks).size == sim._BLOCK
    assert calls == [(source, clock, profile, sim._BLOCK + 3, 409)]
    assert next(blocks).size == 3
    assert len(calls) == 1


def assert_dead_time_matches_reference(slots, dead: int, last: int | None = None) -> None:
    if last is None:
        last = -(dead + 1)
    slots = np.asarray(slots, dtype=np.int64)
    keep = apply_dead_time(slots, dead, last)
    assert keep.dtype == bool
    assert np.array_equal(keep, reference_dead_time(slots, dead, last))


@pytest.mark.parametrize("dead", [1, 3, 7, 40])
def test_dead_time_matches_reference_on_random_slots(dead):
    rng = np.random.default_rng(dead)
    for _ in range(20):
        slots = np.cumsum(rng.integers(1, 2 * dead + 3, size=int(rng.integers(1, 3000))))
        last = int(slots[0]) - int(rng.integers(1, 2 * dead + 2))
        assert_dead_time_matches_reference(slots, dead)
        assert_dead_time_matches_reference(slots, dead, last)


@pytest.mark.parametrize("dead", [1, 2, 5, 17])
def test_dead_time_matches_reference_on_one_long_cluster(dead):
    assert_dead_time_matches_reference(np.arange(1, 5000), dead)
    rng = np.random.default_rng(dead)
    assert_dead_time_matches_reference(np.cumsum(rng.integers(1, dead + 1, size=5000)), dead)


@pytest.mark.parametrize("dead", [1, 3, 8])
def test_dead_time_matches_reference_on_periodic_gaps(dead):
    for gap in (dead, dead + 1):
        slots = gap * np.arange(1, 1000)
        assert_dead_time_matches_reference(slots, dead)
        assert_dead_time_matches_reference(slots, dead, last=0)
    # At gap == dead every other candidate survives; at dead + 1 all do.
    assert np.array_equal(apply_dead_time(dead * np.arange(1, 7), dead, -(dead + 1)), [1, 0, 1, 0, 1, 0])
    assert apply_dead_time((dead + 1) * np.arange(1, 7), dead, -(dead + 1)).all()


def test_dead_time_on_empty_and_single_inputs():
    assert apply_dead_time(np.empty(0, dtype=np.int64), 3, -4).size == 0
    assert_dead_time_matches_reference([7], 3)
    assert_dead_time_matches_reference([7], 3, last=4)
    assert_dead_time_matches_reference([7], 3, last=3)


def test_dead_time_carried_last_drops_the_first_candidates():
    # last = 8 blinds 9..11: 10 falls inside, 12 is clear of 8 and then blinds 15.
    assert np.array_equal(apply_dead_time([10, 12, 15, 16, 20], 3, 8), [0, 1, 0, 1, 1])
    assert_dead_time_matches_reference([10, 12, 15, 16, 20], 3, last=8)
    assert_dead_time_matches_reference([9, 10, 11, 12, 13, 14, 30], 3, last=8)


def test_dead_time_matches_reference_on_adversarial_slots():
    rng = np.random.default_rng(17)
    random_slots = np.cumsum(rng.integers(1, 6, size=2000))
    # Dead time 0 keeps every strictly increasing candidate.
    assert apply_dead_time(random_slots, 0, -1).all()
    assert_dead_time_matches_reference(random_slots, 0)
    assert_dead_time_matches_reference(random_slots, 0, last=int(random_slots[0]) - 1)
    # A dead time far longer than the stream keeps one candidate in 10^4.
    consecutive = np.arange(1, 100_001)
    assert np.count_nonzero(apply_dead_time(consecutive, 10_000, -10_001)) == 10
    assert_dead_time_matches_reference(consecutive, 10_000)
    assert_dead_time_matches_reference(consecutive, 10_000, last=0)
    # One candidate with the last click inside its dead time, and just outside it.
    assert not apply_dead_time([10], 5, 7)[0]
    assert_dead_time_matches_reference([10], 5, last=7)
    assert_dead_time_matches_reference([10], 5, last=4)


@pytest.mark.parametrize("dead", [2, 5])
def test_dead_time_carried_across_every_split_equals_one_pass(dead):
    """Filtering ``slots[:k]`` then ``slots[k:]`` from the last kept slot, as
    ``generate_gated`` does between top-up batches, equals one pass."""
    rng = np.random.default_rng(dead)
    slots = np.cumsum(rng.integers(1, dead + 2, size=400))
    last = int(slots[0]) - int(rng.integers(1, dead + 2))
    whole = reference_dead_time(slots, dead, last)
    assert np.array_equal(apply_dead_time(slots, dead, last), whole)
    for k in range(slots.size + 1):
        head = apply_dead_time(slots[:k], dead, last)
        carried = int(slots[:k][head][-1]) if head.any() else last
        assert np.array_equal(np.concatenate([head, apply_dead_time(slots[k:], dead, carried)]), whole)


def test_gated_intra_slots_follow_weighted_profile():
    source = SourceModel(Distribution.POISSON, 1.0)
    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=3)
    weights = [0.5, 0.25, 0.25]
    profile = IntraGateProfile.weighted(weights)
    stream = generate_gated(source, clock, profile, 300_000, seed=53)
    intra = ((stream.slots - np.uint64(1)) % np.uint64(3)).astype(np.int64) + 1
    counts = [int(np.count_nonzero(intra == s)) for s in (1, 2, 3)]
    expected = [len(stream) * w for w in weights]
    assert chisquare(counts, expected).pvalue > 0.001


def test_dark_counts_raise_the_click_rate():
    source = source_for_slot_probability(0.1)
    dark = ClockConfig(mode=ClockMode.FREE_RUNNING, dark_prob=0.1)
    stream = generate_free_running(source, dark, 200_000, seed=59)
    gaps = np.diff(stream.slots, prepend=np.uint64(0))
    merged = 1.0 - (1.0 - 0.1) * (1.0 - 0.1)
    assert float(gaps.mean()) == pytest.approx(1.0 / merged, rel=0.01)
    assert geometric_gof_pvalue(gaps, merged, max_n=40) > 0.001


def test_clock_config_validation():
    with pytest.raises(ValueError):
        ClockConfig(mode=ClockMode.FREE_RUNNING, slots_per_gate=2)
    with pytest.raises(ValueError):
        ClockConfig(mode=ClockMode.GATED, slots_per_gate=0)
    with pytest.raises(ValueError):
        ClockConfig(mode=ClockMode.GATED, dark_prob=1.0)
    with pytest.raises(ValueError):
        ClockConfig(mode=ClockMode.GATED, dark_prob=-0.1)
    with pytest.raises(ValueError):
        ClockConfig(mode=ClockMode.GATED, dead_slots=-1)
    with pytest.raises(ValueError):
        ClockConfig(mode="sometimes")


def test_mode_mismatch_is_rejected():
    source = SourceModel(Distribution.POISSON, 0.5)
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
    with pytest.raises(ValueError):
        generate_free_running(source, gated, 10, seed=0)
    with pytest.raises(ValueError):
        generate_gated(source, FREE, IntraGateProfile.uniform(), 10, seed=0)


def test_profile_validation():
    with pytest.raises(ValueError):
        IntraGateProfile.fixed_slot(0)
    with pytest.raises(ValueError):
        IntraGateProfile.weighted([0.5, 0.6])
    with pytest.raises(ValueError):
        IntraGateProfile.weighted([-0.5, 1.5])
    with pytest.raises(ValueError):
        IntraGateProfile.weighted([])
    with pytest.raises(ValueError, match=r"^weights must be non-negative numbers, got \(nan, 1\.0\)$"):
        IntraGateProfile.weighted([float("nan"), 1.0])
    profile = IntraGateProfile.fixed_slot(5)
    with pytest.raises(ValueError):
        profile.sample(np.random.default_rng(0), 10, slots_per_gate=4)
    short = IntraGateProfile.weighted([0.5, 0.5])
    with pytest.raises(ValueError):
        short.sample(np.random.default_rng(0), 10, slots_per_gate=3)
    # The constructor checks what the classmethods check.
    with pytest.raises(ValueError, match=r"^unknown intra-gate profile kind 'sometimes'$"):
        IntraGateProfile("sometimes")
    with pytest.raises(ValueError, match=r"^fixed slot must be a positive integer, got None$"):
        IntraGateProfile("fixed")
    with pytest.raises(ValueError, match=r"^fixed slot must be a positive integer, got 0$"):
        IntraGateProfile("fixed", slot=0)
    with pytest.raises(ValueError, match=r"^weighted profile needs at least one weight$"):
        IntraGateProfile("weighted")
    with pytest.raises(ValueError, match=r"^weights must be non-negative numbers, got \(2\.0, -1\.0\)$"):
        IntraGateProfile("weighted", weights=(2.0, -1.0))
    with pytest.raises(ValueError, match=r"^weights must sum to 1, got 1\.1$"):
        IntraGateProfile("weighted", weights=(0.5, 0.6))
    # A field the kind does not use is an error, not ignored.
    with pytest.raises(ValueError, match=r"^a uniform profile takes no slot, got 3$"):
        IntraGateProfile("uniform", slot=3, weights=(0.5,))
    with pytest.raises(ValueError, match=r"^a fixed profile takes no weights, got \(0\.5, 0\.5\)$"):
        IntraGateProfile("fixed", slot=1, weights=(0.5, 0.5))
    with pytest.raises(ValueError, match=r"^a weighted profile takes no slot, got 1$"):
        IntraGateProfile("weighted", slot=1, weights=(0.5, 0.5))
    assert IntraGateProfile("uniform") == IntraGateProfile.uniform()
    assert IntraGateProfile("weighted", weights=np.array([0.25, 0.75])) == IntraGateProfile.weighted([0.25, 0.75])
    assert IntraGateProfile.weighted([0.25, 0.75]).weights == (0.25, 0.75)
    assert IntraGateProfile("fixed", slot=2.0) == IntraGateProfile.fixed_slot(2)


def test_profile_odd_slot_probability():
    assert IntraGateProfile.uniform().odd_slot_probability(2) == 0.5
    assert IntraGateProfile.uniform().odd_slot_probability(3) == pytest.approx(2 / 3)
    assert IntraGateProfile.fixed_slot(1).odd_slot_probability(2) == 1.0
    assert IntraGateProfile.fixed_slot(2).odd_slot_probability(2) == 0.0
    assert IntraGateProfile.weighted([0.2, 0.8]).odd_slot_probability(2) == pytest.approx(0.2)


@pytest.mark.parametrize("dead", [0, 3])
def test_generated_streams_are_checked_against_their_clocks_dead_time(monkeypatch, dead):
    """Both generators have their stream's gaps checked against the clock's dead time."""
    checked = []

    def spy(slots, dead_slots=0):
        checked.append(dead_slots)
        return EventStream(slots, dead_slots=dead_slots)

    monkeypatch.setattr(sim, "EventStream", spy)
    source = SourceModel(Distribution.POISSON, 0.5)
    generate_free_running(source, ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=dead), 100, seed=1)
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dead_slots=dead)
    generate_gated(source, gated, IntraGateProfile.uniform(), 100, seed=1)
    assert checked == [dead, dead]


def test_generated_slots_are_not_copied(monkeypatch):
    """Each stream keeps the array handed to its check; the traced budgets
    of both generators catch a copy made before it."""
    handed = []

    def spy(slots, dead_slots=0):
        handed.append(slots)
        return EventStream(slots, dead_slots=dead_slots)

    monkeypatch.setattr(sim, "EventStream", spy)
    source = SourceModel(Distribution.POISSON, 0.5)
    gated = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2, dead_slots=1)
    streams = (generate_gated(source, gated, IntraGateProfile.uniform(), 1000, seed=1),
               generate_free_running(source, FREE, 1000, seed=1))
    for stream, slots in zip(streams, handed, strict=True):
        assert stream.slots is slots
        assert stream.slots.dtype == np.uint64
        assert not stream.slots.flags.writeable
