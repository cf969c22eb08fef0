"""Key-rate formulas, optimal intensities, and the distance curves.

Entropy values are checked against scipy's entropy as an outside
reference; optimal intensities against frozen numbers from a standalone
bisection script.
"""

import dataclasses
import math

import pytest
from scipy.stats import entropy as scipy_entropy

from decoyqkd.bounds import ProtocolIntensities
from decoyqkd.model import E0, GYS, KTH, ValidationError, transmittance
from decoyqkd.rate import (
    KeyRateInputs,
    NoPositiveRateError,
    WangRateInputs,
    asymptotic_rate,
    binary_entropy,
    estimate_at,
    estimator_rate,
    key_rate_strong,
    key_rate_wang,
    max_secure_distance,
    one_decoy_rate,
    optimal_mu,
    optimal_mu_exact,
    optimal_mu_wang,
    two_decoy_rate,
    vacuum_weak_rate,
    wang_asymptotic_rate,
)

ETA_40KM = transmittance(GYS, 40.0).eta


def test_binary_entropy_against_scipy():
    for x in (0.033, 0.11, 0.25, 0.5, 0.91):
        assert binary_entropy(x) == pytest.approx(
            scipy_entropy([x, 1.0 - x], base=2), rel=1e-12
        )


def test_binary_entropy_frozen_values():
    assert binary_entropy(0.033) == pytest.approx(0.20922047786915265, rel=1e-12)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    with pytest.raises(ValidationError):
        binary_entropy(-0.01)
    with pytest.raises(ValidationError):
        binary_entropy(1.01)


def test_key_rate_strong_formula():
    inputs = KeyRateInputs(q=0.5, q_mu=0.003, e_mu=0.033,
                           q1_lower=0.002, e1_upper=0.04, f_ec=1.22)
    expected = 0.5 * (
        -0.003 * 1.22 * binary_entropy(0.033)
        + 0.002 * (1.0 - binary_entropy(0.04))
    )
    assert key_rate_strong(inputs) == pytest.approx(expected, rel=1e-15)


def test_key_rate_inputs_validation():
    good = dict(q=0.5, q_mu=0.003, e_mu=0.033, q1_lower=0.002,
                e1_upper=0.04, f_ec=1.22)
    KeyRateInputs(**good)
    for field, bad in [("q", 0.0), ("q_mu", -0.1), ("e_mu", 1.5),
                       ("q1_lower", -1e-9), ("e1_upper", 1.1), ("f_ec", 0.5)]:
        with pytest.raises(ValidationError):
            KeyRateInputs(**{**good, field: bad})


def test_key_rate_wang_formula():
    inputs = WangRateInputs(q=0.5, q_mu=0.003, e_mu=0.033, delta=0.3, f_ec=1.22)
    e_scaled = 0.033 / 0.7
    expected = 0.5 * 0.003 * (
        -1.22 * binary_entropy(0.033)
        + 0.7 * (1.0 - binary_entropy(e_scaled))
    )
    assert key_rate_wang(inputs) == pytest.approx(expected, rel=1e-15)


def test_key_rate_wang_degenerate_cases():
    assert key_rate_wang(
        WangRateInputs(q=0.5, q_mu=0.003, e_mu=0.033, delta=1.0, f_ec=1.22)
    ) == -math.inf
    # rescaled error rate above 1 has no entropy; bound collapses
    assert key_rate_wang(
        WangRateInputs(q=0.5, q_mu=0.003, e_mu=0.4, delta=0.7, f_ec=1.22)
    ) == -math.inf


def test_optimal_mu_frozen_values():
    assert optimal_mu(GYS, f_ec=1.0) == pytest.approx(0.5441152779396958, abs=1e-7)
    assert optimal_mu(GYS) == pytest.approx(0.47892274912790883, abs=1e-7)
    assert optimal_mu(KTH) == pytest.approx(0.7687053753510814, abs=1e-7)


def test_optimal_intensities_are_pinned_bit_for_bit():
    # reprs recorded before optimal_mu moved from its own bisection to
    # find_zero_crossing: the intensity every finite-size figure runs at
    assert repr(optimal_mu(GYS, f_ec=1.0)) == "0.5441152779287681"
    assert repr(optimal_mu(GYS)) == "0.478922748993619"
    assert repr(optimal_mu(KTH, f_ec=1.0)) == "0.8036684940669774"
    assert repr(optimal_mu(KTH)) == "0.768705375258206"
    # the last two recorded when the line search took Brent steps once it saw two
    # unequal values: 0.4793025370829066 and 0.2655542782210621 by golden section
    assert repr(optimal_mu_exact(GYS, transmittance(GYS, 50.0).eta)) == "0.47930252999665174"
    assert repr(optimal_mu_wang(GYS)) == "0.2696828674551815"


def wang_reach(mu):
    return max_secure_distance(lambda l: wang_asymptotic_rate(GYS, transmittance(GYS, l).eta, mu))


def test_optimal_mu_wang_is_on_the_top_plateau_of_a_grid():
    # the reach is piecewise constant in mu, so any line search returns one point
    # of its top plateau: the reach there is the best of a 0.001-step grid
    best = max(wang_reach(0.25 + 0.001 * i) for i in range(51))
    assert wang_reach(optimal_mu_wang(GYS)) == best == 128.72265625


def test_optimal_mu_stationarity():
    # the returned intensity solves (1-mu) e^(-mu) = f H2(e)/(1-H2(e))
    mu = optimal_mu(GYS)
    h = binary_entropy(GYS.e_detector)
    assert (1.0 - mu) * math.exp(-mu) == pytest.approx(
        GYS.f_ec * h / (1.0 - h), abs=1e-8
    )


def test_optimal_mu_perfect_detector():
    from decoyqkd.model import ExperimentParams

    ideal = ExperimentParams(alpha=0.2, e_detector=0.0, y0=1e-6, eta_bob=0.1, f_ec=1.0)
    assert optimal_mu(ideal) == 1.0


def test_optimal_mu_error_cases():
    from decoyqkd.model import ExperimentParams

    noisy = ExperimentParams(alpha=0.2, e_detector=0.12, y0=1e-6, eta_bob=0.1)
    with pytest.raises(NoPositiveRateError):
        optimal_mu(noisy, f_ec=2.0)
    hopeless = ExperimentParams(alpha=0.2, e_detector=0.45, y0=1e-6, eta_bob=0.1)
    with pytest.raises(NoPositiveRateError):
        optimal_mu(hopeless)
    with pytest.raises(ValidationError):
        optimal_mu(GYS, f_ec=0.9)


def test_optimal_mu_exact_agrees_with_stationarity():
    # at 40 km the background is negligible next to the channel loss, so
    # the exact per-channel optimum sits close to the closed-form one
    mu_exact = optimal_mu_exact(GYS, ETA_40KM)
    assert mu_exact == pytest.approx(optimal_mu(GYS), abs=0.01)


def test_an_intensity_search_that_finds_no_key_raises():
    # the best value is not > 0: a bracket edge, or on a flat objective the
    # bracket midpoint, would otherwise be returned as the optimum
    with pytest.raises(NoPositiveRateError, match=r"no mu in \[0.01, 1.5\] .* at eta="):
        optimal_mu_exact(GYS, transmittance(GYS, 200.0).eta)
    with pytest.raises(NoPositiveRateError, match=r"no mu in \[0.01, 0.99\] .* at 150 km"):
        optimal_mu_wang(GYS, length_km=150.0)
    noisy = dataclasses.replace(GYS, e_detector=0.1)
    with pytest.raises(NoPositiveRateError, match=r"no mu in \[0.01, 0.99\] .* at any distance"):
        optimal_mu_wang(noisy)


def test_asymptotic_rate_on_a_dark_link_without_background_is_rejected():
    # y0 = 0 and eta = 0: no single photon is ever detected
    with pytest.raises(ValidationError, match=r"asymptotic bounds undefined: y0 \+ eta is zero"):
        asymptotic_rate(dataclasses.replace(GYS, y0=0.0), 0.0, 0.5)


def test_vacuum_weak_rate_frozen_value():
    rate = vacuum_weak_rate(GYS, ETA_40KM, mu=0.48, nu=0.12)
    assert rate == pytest.approx(0.00031167219820222246, rel=1e-12)


def test_rate_orderings_at_40km():
    # more side information never helps the adversary less: asymptotic
    # >= vacuum+weak >= one-decoy, and the weak bound trails the strong
    asym = asymptotic_rate(GYS, ETA_40KM, 0.48)
    vw = vacuum_weak_rate(GYS, ETA_40KM, 0.48, 0.05)
    trial = one_decoy_rate(GYS, ETA_40KM, 0.48, 0.05, variant="trial")
    simple = one_decoy_rate(GYS, ETA_40KM, 0.48, 0.05, variant="simple")
    wang = wang_asymptotic_rate(GYS, ETA_40KM, 0.30)
    assert asym >= vw >= trial > 0.0
    assert vw >= simple
    assert asym > wang > 0.0


def test_two_decoy_rate_with_vacuum_slot_matches_vacuum_weak():
    # at nu2=0 the generic background bound recovers the measured vacuum
    # gain exactly, so the two estimators coincide
    vw = vacuum_weak_rate(GYS, ETA_40KM, 0.48, 0.12)
    generic = two_decoy_rate(GYS, ETA_40KM, ProtocolIntensities(0.48, 0.12, 0.0))
    assert generic == pytest.approx(vw, rel=1e-12)


def test_one_decoy_rate_rejects_unknown_variant():
    with pytest.raises(ValidationError):
        one_decoy_rate(GYS, ETA_40KM, 0.48, 0.05, variant="bogus")


def test_max_secure_distance_shapes():
    assert max_secure_distance(lambda l: -1.0) is None
    assert max_secure_distance(lambda l: 1.0) == 500.0
    crossing = max_secure_distance(lambda l: 90.0 - l)
    assert crossing == pytest.approx(90.0, abs=0.01)


@pytest.mark.parametrize("length", [0.0, 40.0, 120.0])
def test_vacuum_weak_on_a_link_with_no_background_is_the_one_decoy_trial(length):
    # the vacuum decoy records nothing, so vacuum+weak is its algebra at Y0 = 0
    params = dataclasses.replace(GYS, y0=0.0)
    eta = transmittance(params, length).eta
    assert vacuum_weak_rate(params, eta, 0.5, 0.1) == one_decoy_rate(params, eta, 0.5, 0.1, "trial")
    obs, est = estimate_at("vacuum-weak", params, eta, 0.5, 0.1)
    trial = estimate_at("one-decoy-trial", params, eta, 0.5, 0.1)[1]
    assert (obs.q_nu2, obs.e_nu2) == (0.0, E0)
    assert repr(est) == repr(dataclasses.replace(trial, estimator="vacuum-weak"))


def test_the_one_decoy_trial_caps_its_yield_bound_at_1():
    # Y0 := 0 lands the background on Y1, scaled by mu / (nu (mu - nu)):
    # Y1_L was 187.00650617896832 here, and the rate -9.81541152617178e-07
    eta = transmittance(GYS, 40.0).eta
    assert estimate_at("one-decoy-trial", GYS, eta, 1e-7, 1e-8)[1].y1_lower == 1.0
    assert estimator_rate("one-decoy-trial", GYS, eta, 1e-7, 1e-8) == -1.0373966777224957e-06
    assert asymptotic_rate(GYS, eta, 1e-7) == -1.0371396234169253e-06
