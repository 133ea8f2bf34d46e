"""Random bits from single-photon detection times.

The package covers the full pipeline: closed-form detection statistics
(:mod:`tickrng.models`), Monte Carlo generation of detection-event
streams in clock-tick units (:mod:`tickrng.sim`), extraction of bits
from the clock counts between detections (:mod:`tickrng.extract`),
a statistical randomness battery (:mod:`tickrng.suite`), a QKD basis
choice harness with a timing adversary (:mod:`tickrng.qkd`), and file
formats plus a command line front end (:mod:`tickrng.formats`,
:mod:`tickrng.cli`).
"""

__version__ = "0.1.0"

from .errors import DataError, GuardError, InsufficientDataError
from .models import (
    AnalyticBias,
    Distribution,
    SourceModel,
    balance_ratio,
    click_probability,
    parity_probabilities,
    photon_pmf,
    window_pmf,
)
from .sim import (
    ClockConfig,
    ClockMode,
    EventStream,
    IntraGateProfile,
    generate_free_running,
    generate_gated,
)
from .extract import (
    BitStream,
    ExtractorConfig,
    balance,
    bootstrap_buffer,
    extract_mod2,
    flip_debias,
)
from .suite import TestEntry, TestId, TestReport, run_battery
from .qkd import ProtocolParams, ProtocolResult, eve_qnd_advantage, run_bb84, run_bbm92

__all__ = [
    "__version__",
    "DataError",
    "GuardError",
    "InsufficientDataError",
    "AnalyticBias",
    "Distribution",
    "SourceModel",
    "balance_ratio",
    "click_probability",
    "parity_probabilities",
    "photon_pmf",
    "window_pmf",
    "ClockConfig",
    "ClockMode",
    "EventStream",
    "IntraGateProfile",
    "generate_free_running",
    "generate_gated",
    "BitStream",
    "ExtractorConfig",
    "balance",
    "bootstrap_buffer",
    "extract_mod2",
    "flip_debias",
    "TestEntry",
    "TestId",
    "TestReport",
    "run_battery",
    "ProtocolParams",
    "ProtocolResult",
    "eve_qnd_advantage",
    "run_bb84",
    "run_bbm92",
]
