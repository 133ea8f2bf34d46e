"""Every integer count the public API takes is checked the same way."""

import re

import numpy as np
import pytest

from conftest import photon_pmf, window_pmf
from tickrng.models import Distribution, SourceModel
from tickrng.qkd import ProtocolParams, bootstrap_buffer, eve_qnd_advantage
from tickrng.sim import ClockConfig, ClockMode, IntraGateProfile, generate_free_running, generate_gated
from tickrng.suite import (
    approximate_entropy_test,
    block_frequency_test,
    linear_complexity_test,
    rank_test,
    run_battery,
    serial_test,
)

SOURCE = SourceModel(Distribution.POISSON, 0.5)
FREE = ClockConfig(mode=ClockMode.FREE_RUNNING)
GATED = ClockConfig(mode=ClockMode.GATED, slots_per_gate=2)
DARK = ClockConfig(mode=ClockMode.FREE_RUNNING, dark_prob=0.1)
BITS = np.zeros(300, dtype=np.uint8)

# Test id: (name in the message, "positive" or "non-negative", call taking the
# count).  Each row keeps its own id, so adding or removing a row renames no
# other case.
COUNTS = {
    "slots_per_gate-0": (
        "slots_per_gate", "positive",
        lambda v: ClockConfig(mode=ClockMode.GATED, slots_per_gate=v),
    ),
    "dead_slots-1": ("dead_slots", "non-negative", lambda v: ClockConfig(mode=ClockMode.GATED, dead_slots=v)),
    "fixed slot-2": ("fixed slot", "positive", IntraGateProfile.fixed_slot),
    "n_events-3": ("n_events", "non-negative", lambda v: generate_free_running(SOURCE, FREE, v, seed=0)),
    "n_events-4": (
        "n_events", "non-negative",
        lambda v: generate_gated(SOURCE, GATED, IntraGateProfile.uniform(), v, seed=0),
    ),
    "serial_block_len-5": ("serial_block_len", "positive", lambda v: run_battery(BITS, serial_block_len=v)),
    "bootstrap length-6": ("bootstrap length", "non-negative", lambda v: bootstrap_buffer(DARK, v, seed=0)),
    "linear_complexity_block_len-7": (
        "linear_complexity_block_len", "positive",
        lambda v: run_battery(BITS, linear_complexity_block_len=v),
    ),
    "photon number-8": ("photon number", "non-negative", lambda v: photon_pmf(SOURCE, v)),
    "window index-9": ("window index", "positive", lambda v: window_pmf(0.5, v)),
    "n_gates-10": (
        "n_gates", "positive",
        lambda v: ProtocolParams(SOURCE, GATED, GATED, IntraGateProfile.uniform(), v, 0),
    ),
    "k_bootstrap-11": (
        "k_bootstrap", "non-negative",
        lambda v: ProtocolParams(SOURCE, GATED, GATED, IntraGateProfile.uniform(), 10, 0, k_bootstrap=v),
    ),
    "run_len-12": ("run_len", "positive", lambda v: run_battery(BITS, run_len=v)),
    "n_events-13": (
        "n_events", "positive",
        lambda v: eve_qnd_advantage(ProtocolParams(SOURCE, GATED, GATED, IntraGateProfile.uniform(), 10, 0), v),
    ),
    "block_frequency_block_len-14": (
        "block_frequency_block_len", "positive",
        lambda v: run_battery(BITS, block_frequency_block_len=v),
    ),
    "approximate_entropy_block_len-15": (
        "approximate_entropy_block_len", "positive",
        lambda v: run_battery(BITS, approximate_entropy_block_len=v),
    ),
    "block_len-16": ("block_len", "positive", lambda v: block_frequency_test(BITS, block_len=v)),
    "block_len-17": ("block_len", "positive", lambda v: linear_complexity_test(BITS, block_len=v)),
    "block_len-18": ("block_len", "positive", lambda v: approximate_entropy_test(BITS, block_len=v)),
    "block_len-19": ("block_len", "positive", lambda v: serial_test(BITS, block_len=v)),
    "matrix_dim-20": ("matrix_dim", "positive", lambda v: rank_test(BITS, matrix_dim=v)),
    "rank_matrix_dim-21": ("rank_matrix_dim", "positive", lambda v: run_battery(BITS, rank_matrix_dim=v)),
}


@pytest.mark.parametrize("bad", [2.5, float("inf"), float("nan"), None, "3"])
@pytest.mark.parametrize("name, kind, call", COUNTS.values(), ids=COUNTS)
def test_a_count_that_is_not_a_whole_number_raises_value_error(name, kind, call, bad):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a {kind} integer, got {bad!r}") + "$"):
        call(bad)


@pytest.mark.parametrize("name, kind, call", COUNTS.values(), ids=COUNTS)
def test_the_lower_bound_of_a_count_is_enforced(name, kind, call):
    with pytest.raises(ValueError, match=f"^{name} must be a {kind} integer"):
        call(0 if kind == "positive" else -1)
