"""Closed-form statistics for single-photon detection windows.

A source is characterised by its photon-number distribution (Poissonian
or thermal), the mean photon number ``mu`` per detection window, and the
detector efficiency ``eta``.  Loss in front of a non-resolving detector
keeps a Poissonian source Poissonian and a thermal source thermal, with
mean ``mu * eta`` — so every detection probability depends on the source
only through that product.

Detection windows click independently of each other, hence the index of
the first clicking window is geometrically distributed and its parity is
biased towards "odd": the parity split is the pair of alternating tail
sums of the geometric distribution, which collapse to the closed forms
implemented in :func:`parity_probabilities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = ["Distribution", "SourceModel", "AnalyticBias", "click_probability", "parity_probabilities"]


class Distribution(str, Enum):
    """Photon-number statistics family of a light source."""

    POISSON = "poisson"
    THERMAL = "thermal"


@dataclass(frozen=True)
class SourceModel:
    """Photon source feeding a threshold (non photon-number-resolving) detector."""

    distribution: Distribution
    mu: float
    eta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "distribution", Distribution(self.distribution))
        mu = float(self.mu)
        if not (math.isfinite(mu) and mu >= 0.0):
            raise ValueError(f"mean photon number must be finite and >= 0, got {self.mu!r}")
        eta = float(self.eta)
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"detection efficiency must lie in [0, 1], got {self.eta!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "eta", eta)

    @property
    def effective_mean(self) -> float:
        """Mean detected photon number per window, ``mu * eta``."""
        return self.mu * self.eta


@dataclass(frozen=True)
class AnalyticBias:
    """Parity split of the index of the first clicking detection window."""

    p_even: float
    p_odd: float

    def __post_init__(self):
        if not (0.0 <= self.p_even <= 1.0 and 0.0 <= self.p_odd <= 1.0):
            raise ValueError("parity probabilities must lie in [0, 1]")
        if abs(self.p_even + self.p_odd - 1.0) > 1e-9:
            raise ValueError("parity probabilities must sum to 1")


def click_probability(source: SourceModel) -> float:
    """Probability that at least one photon is detected in one window.

    Poissonian: ``1 - exp(-mu*eta)``.  Thermal: ``mu*eta / (mu*eta + 1)``
    (a thermal state after Bernoulli loss ``eta`` is thermal with mean
    ``mu*eta``, so this is its probability of one or more photons).
    """
    me = source.effective_mean
    if source.distribution is Distribution.POISSON:
        return -math.expm1(-me)
    return me / (me + 1.0)


def parity_probabilities(source: SourceModel) -> AnalyticBias:
    """Closed-form probability that the first clicking window index is even/odd.

    With ``q`` the probability that a window stays dark -- ``exp(-mu*eta)``
    (Poissonian) or ``1/(mu*eta + 1)`` (thermal) -- the index is geometric
    with ratio ``q``, and the alternating tail sums of its pmf
    ``(1-q) q^(n-1)`` are ``P_EVEN = q/(1+q)`` and ``P_ODD = 1/(1+q)``:
    (0.5, 0.5) at ``mu*eta = 0``, and no overflow however bright the source.
    """
    me = source.effective_mean
    q = math.exp(-me) if source.distribution is Distribution.POISSON else 1.0 / (me + 1.0)
    return AnalyticBias(p_even=q / (1.0 + q), p_odd=1.0 / (1.0 + q))
