"""Event-stream simulation: distributional checks against the closed forms."""

import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import binomial_sigma, geometric_gof_pvalue, reference_dead_time
from tickrng.errors import DataError, GuardError
from tickrng.models import Distribution, SourceModel, click_probability, parity_probabilities
from tickrng.sim import (
    GENERATOR_ALGORITHM,
    ClockConfig,
    ClockMode,
    EventStream,
    IntraGateProfile,
    apply_dead_time,
    empirical_parity,
    generate_free_running,
    generate_gated,
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
    even, odd = empirical_parity(stream)
    bias = parity_probabilities(source)
    expected = [(even + odd) * bias.p_even, (even + odd) * bias.p_odd]
    assert chisquare([even, odd], expected).pvalue > 0.001


def test_empirical_parity_hand_values():
    assert empirical_parity(EventStream(np.array([2, 4, 6], dtype=np.uint64), FREE)) == (3, 0)
    assert empirical_parity(EventStream(np.array([1, 2, 4, 7], dtype=np.uint64), FREE)) == (1, 3)


def test_empirical_parity_rejects_empty_stream():
    with pytest.raises(DataError):
        empirical_parity(EventStream(np.empty(0, dtype=np.uint64), FREE))


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
    even, odd = empirical_parity(stream)
    fraction_odd = odd / (even + odd)
    assert abs(fraction_odd - 0.5) < 3 * binomial_sigma(0.5, even + odd)


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


def test_event_stream_validation():
    with pytest.raises(DataError):
        EventStream(np.array([0, 1], dtype=np.int64), FREE)
    with pytest.raises(DataError, match="entry 3"):
        EventStream(np.array([1, 5, 5, 9], dtype=np.int64), FREE)
    with pytest.raises(DataError, match="entry 2"):
        EventStream(np.array([4, 2], dtype=np.int64), FREE)
    dead = ClockConfig(mode=ClockMode.FREE_RUNNING, dead_slots=2)
    with pytest.raises(DataError):
        EventStream(np.array([1, 3], dtype=np.int64), dead)  # gap 2 <= dead time
    with pytest.raises(DataError):
        EventStream(np.array([[1, 2]], dtype=np.int64), FREE)
    with pytest.raises(DataError, match="integers"):
        EventStream(np.array([1.2, 1.7, 3.0]), FREE)  # would truncate to 1, 1, 3


def test_event_stream_is_read_only():
    stream = EventStream(np.array([1, 2, 3], dtype=np.uint64), FREE)
    with pytest.raises(ValueError):
        stream.slots[0] = 9
