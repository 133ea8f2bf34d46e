"""Closed-form photon statistics against series oracles and hand values."""

import math

import pytest

from conftest import balance_ratio, photon_pmf, window_pmf
from tickrng.models import AnalyticBias, Distribution, SourceModel, click_probability, parity_probabilities

MU_ETA_GRID = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0]


def poisson(mu, eta=1.0):
    return SourceModel(Distribution.POISSON, mu, eta)


def thermal(mu, eta=1.0):
    return SourceModel(Distribution.THERMAL, mu, eta)


def geometric_parity_sums(p: float) -> tuple[float, float]:
    """Alternating tail sums of the window pmf, truncated below 1e-12 tail mass."""
    even = odd = 0.0
    n = 1
    while (1.0 - p) ** (n - 1) > 1e-12 * p if p > 0 else False:
        term = window_pmf(p, n)
        if n % 2:
            odd += term
        else:
            even += term
        n += 1
    return even, odd


def test_photon_pmf_zero_mean_source_emits_nothing():
    assert photon_pmf(poisson(0.0), 0) == 1.0
    assert photon_pmf(poisson(0.0), 3) == 0.0
    assert photon_pmf(thermal(0.0), 0) == 1.0


def test_photon_pmf_hand_values():
    assert photon_pmf(poisson(1.0), 1) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert photon_pmf(thermal(1.0), 2) == pytest.approx(0.125, rel=1e-12)


def test_photon_pmf_uses_mu_not_eta():
    """The emission pmf is a property of the source alone; loss enters later."""
    assert photon_pmf(poisson(0.4, eta=0.25), 1) == photon_pmf(poisson(0.4, eta=1.0), 1)


@pytest.mark.parametrize("make", [poisson, thermal])
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 4.0])
def test_photon_pmf_normalises(make, mu):
    source = make(mu)
    total = 0.0
    n = 0
    while total < 1.0 - 1e-12 and n < 10_000:
        total += photon_pmf(source, n)
        n += 1
    assert total == pytest.approx(1.0, abs=1e-12)


def test_photon_pmf_rejects_bad_photon_number():
    with pytest.raises(ValueError):
        photon_pmf(poisson(1.0), -1)
    with pytest.raises(ValueError):
        photon_pmf(poisson(1.0), 1.5)


def test_click_probability_hand_values():
    assert click_probability(poisson(0.0)) == 0.0
    assert click_probability(poisson(math.log(2.0))) == pytest.approx(0.5, rel=1e-12)
    assert click_probability(thermal(1.0)) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("make", [poisson, thermal])
def test_click_probability_consistent_with_photon_pmf_after_loss(make):
    """1 - P(no detected photons) where each photon survives with probability eta."""
    mu, eta = 0.7, 0.6
    source = make(mu, eta)
    miss = sum(photon_pmf(make(mu), n) * (1.0 - eta) ** n for n in range(500))
    assert click_probability(source) == pytest.approx(1.0 - miss, abs=1e-12)


def test_window_pmf_hand_values():
    assert window_pmf(1.0, 1) == 1.0
    assert window_pmf(0.5, 3) == pytest.approx(0.125, rel=1e-12)


def test_window_pmf_normalises():
    total = sum(window_pmf(0.3, n) for n in range(1, 200))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_window_pmf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        window_pmf(0.3, 0)
    with pytest.raises(ValueError):
        window_pmf(-0.1, 1)
    with pytest.raises(ValueError):
        window_pmf(1.1, 1)


def test_parity_probabilities_hand_values():
    unbiased = parity_probabilities(poisson(0.0))
    assert (unbiased.p_even, unbiased.p_odd) == (0.5, 0.5)
    quarter = parity_probabilities(poisson(math.log(3.0)))
    assert quarter.p_even == pytest.approx(0.25, rel=1e-12)
    assert quarter.p_odd == pytest.approx(0.75, rel=1e-12)
    quarter_thermal = parity_probabilities(thermal(2.0))
    assert quarter_thermal.p_even == pytest.approx(0.25, rel=1e-12)
    assert quarter_thermal.p_odd == pytest.approx(0.75, rel=1e-12)


@pytest.mark.parametrize("make", [poisson, thermal])
@pytest.mark.parametrize("mu_eta", MU_ETA_GRID)
def test_parity_probabilities_match_series_oracle(make, mu_eta):
    """The closed forms must equal the alternating geometric tail sums."""
    source = make(mu_eta)
    even, odd = geometric_parity_sums(click_probability(source))
    bias = parity_probabilities(source)
    assert bias.p_even == pytest.approx(even, abs=1e-10)
    assert bias.p_odd == pytest.approx(odd, abs=1e-10)


# mu*eta = 0 and 2001 values from 1e-8 to 1e3, evenly spaced in log.
WIDE_MU_ETA_GRID = [0.0] + [10.0 ** (k / 200.0) for k in range(-1600, 601)]


def test_parity_probabilities_match_the_per_distribution_closed_forms():
    """The forms written out per distribution before one law served both:
    Poissonian bit for bit, thermal within 1e-12."""
    for mu_eta in WIDE_MU_ETA_GRID:
        tail = math.exp(-mu_eta)
        bias = parity_probabilities(poisson(mu_eta))
        assert (bias.p_even, bias.p_odd) == (tail / (1.0 + tail), 1.0 / (1.0 + tail))
        bias = parity_probabilities(thermal(mu_eta))
        assert bias.p_even == pytest.approx(1.0 / (mu_eta + 2.0), rel=0, abs=1e-12)
        assert bias.p_odd == pytest.approx((mu_eta + 1.0) / (mu_eta + 2.0), rel=0, abs=1e-12)


@pytest.mark.parametrize("make", [poisson, thermal])
def test_parity_probabilities_sum_to_one_and_odd_dominates(make):
    for mu_eta in MU_ETA_GRID:
        bias = parity_probabilities(make(mu_eta))
        assert bias.p_even + bias.p_odd == pytest.approx(1.0, abs=1e-12)
        assert bias.p_odd > bias.p_even


@pytest.mark.parametrize("make", [poisson, thermal])
def test_p_even_strictly_decreasing_in_effective_mean(make):
    values = [parity_probabilities(make(me)).p_even for me in [0.0] + MU_ETA_GRID]
    assert values[0] == 0.5
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("mu_eta", MU_ETA_GRID)
def test_poisson_at_least_as_biased_as_thermal(mu_eta):
    assert (
        parity_probabilities(poisson(mu_eta)).p_even
        <= parity_probabilities(thermal(mu_eta)).p_even
    )


@pytest.mark.parametrize("make", [poisson, thermal])
@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_only_the_product_mu_eta_matters(make, c):
    base = make(0.4, 0.4)
    scaled = make(0.4 * c, 0.4 / c)
    assert scaled.eta <= 1.0
    assert click_probability(scaled) == pytest.approx(click_probability(base), rel=1e-12)
    assert parity_probabilities(scaled).p_even == pytest.approx(
        parity_probabilities(base).p_even, rel=1e-12
    )


def test_balance_ratio_hand_values():
    assert balance_ratio(0.0) == 1.0
    assert balance_ratio(0.0075) == pytest.approx(0.9925, rel=1e-12)
    assert balance_ratio(0.5) == 0.5
    assert balance_ratio(1.0) == 0.0


def test_balance_ratio_rejects_out_of_range():
    with pytest.raises(ValueError):
        balance_ratio(-0.01)
    with pytest.raises(ValueError):
        balance_ratio(1.01)


def test_balance_ratio_is_parity_ratio():
    for mu_eta in MU_ETA_GRID:
        source = poisson(mu_eta)
        bias = parity_probabilities(source)
        assert balance_ratio(click_probability(source)) == pytest.approx(
            bias.p_even / bias.p_odd, rel=1e-12
        )


def test_source_model_validation():
    with pytest.raises(ValueError):
        SourceModel(Distribution.POISSON, -0.1)
    with pytest.raises(ValueError):
        SourceModel(Distribution.POISSON, math.inf)
    with pytest.raises(ValueError):
        SourceModel(Distribution.POISSON, 1.0, eta=-0.2)
    with pytest.raises(ValueError):
        SourceModel(Distribution.POISSON, 1.0, eta=1.2)
    with pytest.raises(ValueError):
        SourceModel("chaotic", 1.0)


def test_source_model_accepts_string_distribution():
    source = SourceModel("thermal", 0.5, 0.5)
    assert source.distribution is Distribution.THERMAL
    assert source.effective_mean == pytest.approx(0.25)


def test_analytic_bias_validation():
    with pytest.raises(ValueError):
        AnalyticBias(p_even=0.3, p_odd=0.3)
    with pytest.raises(ValueError):
        AnalyticBias(p_even=-0.1, p_odd=1.1)
