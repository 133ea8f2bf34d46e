"""Protocol harness: sifting statistics, QBER, and the timing adversary."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import reference_dead_time
from tickrng import qkd
from tickrng.errors import GuardError
from tickrng.models import Distribution, SourceModel
from tickrng.qkd import ProtocolParams, eve_qnd_advantage, run_bb84, run_bbm92
from tickrng.sim import ClockConfig, ClockMode, IntraGateProfile, apply_dead_time

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


def test_bbm92_is_deterministic():
    params = make_params(intrinsic_error=0.02, n_gates=20_000)
    assert run_bbm92(params) == run_bbm92(params)


def test_zero_detection_probability_is_guarded():
    dead_source = SourceModel(Distribution.POISSON, 0.0, 0.0)
    with pytest.raises(GuardError):
        run_bbm92(make_params(pair_source=dead_source, n_gates=1000))
    with pytest.raises(GuardError):
        run_bb84(make_params(pair_source=dead_source, n_gates=1000))


def run_all_protocols(params: ProtocolParams) -> list:
    return [run_bbm92(params), run_bb84(params), run_bb84(params, heralded_alice=True)]


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
    # Alice and Bob in BBM92, Bob in BB84, Bob and Alice in heralded BB84.
    assert len(filtered) == 5
    for kept, candidates in filtered:
        assert 0 < kept.size < candidates
        assert int(np.diff(kept).min()) > 3
    for result in fast:
        check_result_invariants(result)


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
    run = {
        "bbm92": run_bbm92,
        "bb84": run_bb84,
        "bb84h": lambda p: run_bb84(p, heralded_alice=True),
    }[protocol]
    assert dataclasses.astuple(run(params)) == expected
