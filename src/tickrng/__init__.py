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

__all__ = ["__version__"]
