"""Decoy-state estimator tests.

Three layers: frozen reference numbers for the standard operating
points, structural identities the algebra must satisfy exactly, and
soundness against channels whose photon-number statistics are written
out explicitly in the test (so the true Y1 and e1 are known).
"""

import math

import numpy as np
import pytest
from helpers import (
    error_gain_slope,
    error_i,
    scaled_error_gain,
    scaled_gain,
    y1_bound_gap,
    yield_i,
)

from decoyqkd import bounds
from decoyqkd.bounds import (
    ProtocolIntensities,
    adversary_oracle,
    asymptotic_bounds,
    deviation_report,
    one_decoy_simple,
    one_decoy_trial,
    two_decoy_bounds,
    vacuum_weak_bounds,
    wang_delta,
    y0_lower,
)
from decoyqkd.model import (
    E0,
    GYS,
    KTH,
    ObservedRates,
    ValidationError,
    overall_gain,
    simulate_observations,
    transmittance,
)

ETA_40KM = transmittance(GYS, 40.0).eta
ETA_140KM = transmittance(GYS, 140.0).eta


def observe(eta, mu, nu1, nu2=0.0):
    return simulate_observations(GYS, eta, (mu, nu1, nu2))


# --- intensity validation ----------------------------------------------


def test_protocol_intensities_validation():
    ints = ProtocolIntensities(mu=0.48, nu1=0.12)
    assert ints.nu2 == 0.0
    for bad in [
        dict(mu=0.0, nu1=0.1),
        dict(mu=0.5, nu1=0.1, nu2=-0.01),
        dict(mu=0.5, nu1=0.1, nu2=0.1),
        dict(mu=0.5, nu1=0.05, nu2=0.1),
        dict(mu=0.5, nu1=0.4, nu2=0.2),
        dict(mu=800.0, nu1=0.1),  # e^mu overflows
    ]:
        with pytest.raises(ValidationError):
            ProtocolIntensities(**bad)


def test_a_mu_whose_exponential_overflows_is_rejected():
    # e^mu in the Y1 bracket was a math range error, not a validation error
    obs = observe(ETA_40KM, 800.0, 0.1)
    for estimate in (vacuum_weak_bounds, one_decoy_trial, one_decoy_simple):
        with pytest.raises(ValidationError, match="mu must be <= "):
            estimate(obs, 800.0, 0.1)
    # e^MU_MAX is still a float
    assert vacuum_weak_bounds(observe(ETA_40KM, bounds.MU_MAX, 0.1), bounds.MU_MAX, 0.1)
    ProtocolIntensities(mu=bounds.MU_MAX, nu1=0.1)


# --- frozen operating points -------------------------------------------


def test_vacuum_weak_frozen_40km():
    est = vacuum_weak_bounds(observe(ETA_40KM, 0.48, 0.12), 0.48, 0.12)
    assert est.estimator == "vacuum-weak"
    assert est.y0_lower == GYS.y0
    assert est.y1_lower == pytest.approx(0.0062777953609933655, rel=1e-12)
    assert est.e1_upper == pytest.approx(0.03867972559425179, rel=1e-12)
    assert est.q1_lower == pytest.approx(est.y1_lower * 0.48 * math.exp(-0.48), rel=1e-15)
    assert not est.vacuous


def test_vacuum_weak_frozen_140km():
    # e1 passes through a cancellation-heavy numerator, so the frozen
    # reference (computed with a different operation order) is only good
    # to ~1e-10 here
    est = vacuum_weak_bounds(observe(ETA_140KM, 0.48, 0.12), 0.48, 0.12)
    assert est.y1_lower == pytest.approx(5.152091858271035e-05, rel=1e-12)
    assert est.e1_upper == pytest.approx(0.05484156946587497, rel=1e-9)


def pinned_estimates(params, length, mu, nu1, nu2):
    """repr of every estimator, and of the two-decoy (Y0, Y1, e1), at one operating point."""
    eta = transmittance(params, length).eta
    ints = ProtocolIntensities(mu=mu, nu1=nu1, nu2=nu2)
    obs2 = simulate_observations(params, eta, ints)
    obs1 = simulate_observations(params, eta, (mu, nu1))
    two = two_decoy_bounds(obs2, ints)
    return [
        repr(two),
        repr(vacuum_weak_bounds(simulate_observations(params, eta, (mu, nu1, 0.0)), mu, nu1)),
        repr(one_decoy_trial(obs1, mu, nu1)),
        repr(one_decoy_simple(obs1, mu, nu1)),
        repr(asymptotic_bounds(params, eta, mu)),
        repr((two.y0_lower, two.y1_lower, two.e1_upper)),
    ]


def test_estimators_pinned_bit_for_bit():
    # every float as the estimators rounded it before they shared one skeleton
    assert pinned_estimates(GYS, 40.0, 0.48, 0.12, 0.03) == [
        "BoundsEstimate(y0_lower=0.0, y1_lower=0.006197584745941977, "
        "q1_lower=0.0018407820048479886, e1_upper=0.04029889782218005, estimator='two-decoy')",
        "BoundsEstimate(y0_lower=1.7e-06, y1_lower=0.006277795360991721, "
        "q1_lower=0.0018646058431388702, e1_upper=0.03867972559426032, estimator='vacuum-weak')",
        "BoundsEstimate(y0_lower=0.0, y1_lower=0.006295503694325054, "
        "q1_lower=0.0018698655019692226, e1_upper=0.039696066806963595, estimator='one-decoy-trial')",
        "BoundsEstimate(y0_lower=0.0, y1_lower=0.00280342699527867, "
        "q1_lower=0.0008326627511133281, e1_upper=0.12456456704338964, estimator='one-decoy-simple')",
        "BoundsEstimate(y0_lower=1.7e-06, y1_lower=0.006506178968356672, "
        "q1_lower=0.0019324394350740096, e1_upper=0.03312202246569933, estimator='asymptotic')",
        "(0.0, 0.006197584745941977, 0.04029889782218005)",
    ]
    assert pinned_estimates(KTH, 60.0, 0.55, 0.1, 0.02) == [
        "BoundsEstimate(y0_lower=0.0003805088916371948, y1_lower=0.009023865637662014, "
        "q1_lower=0.002863474662701449, e1_upper=0.03479690420006668, estimator='two-decoy')",
        "BoundsEstimate(y0_lower=0.0004, y1_lower=0.009111058991169393, "
        "q1_lower=0.0028911430665263353, e1_upper=0.03402601286861082, estimator='vacuum-weak')",
        "BoundsEstimate(y0_lower=0.0, y1_lower=0.013838331718442119, "
        "q1_lower=0.004391212573515601, e1_upper=0.16692857618102083, estimator='one-decoy-trial')",
        "BoundsEstimate(y0_lower=0.0, y1_lower=0.0036167894571064495, "
        "q1_lower=0.0011476882953050402, e1_upper=0.2173951486438609, estimator='one-decoy-simple')",
        "BoundsEstimate(y0_lower=0.0004, y1_lower=0.009422690026066763, "
        "q1_lower=0.0029900305730973273, e1_upper=0.030800854050997018, estimator='asymptotic')",
        "(0.0003805088916371948, 0.009023865637662014, 0.03479690420006668)",
    ]
    # a floored Y1: the cap on e1 and a zero Q1
    assert repr(one_decoy_simple(observe(ETA_40KM, 0.48, 0.05), 0.48, 0.05)) == (
        "BoundsEstimate(y0_lower=0.0, y1_lower=0.0, q1_lower=0.0, e1_upper=0.5, "
        "estimator='one-decoy-simple')"
    )


def test_deviation_report_frozen_values():
    # finite-decoy shortfall relative to the ideal limits, nu/mu = 0.25
    for eta, b_y1, b_e1 in [
        (ETA_40KM, 0.035102570721473984, 0.16779479979847062),
        (ETA_140KM, 0.03459061583304292, 0.14548569638331585),
    ]:
        est = vacuum_weak_bounds(observe(eta, 0.48, 0.12), 0.48, 0.12)
        dev = deviation_report(est, asymptotic_bounds(GYS, eta, 0.48))
        assert dev.beta_y1 == pytest.approx(b_y1, rel=1e-9)
        assert dev.beta_e1 == pytest.approx(b_e1, rel=1e-9)


def test_asymptotic_bounds_are_the_single_photon_limit():
    est = asymptotic_bounds(GYS, ETA_40KM, 0.48)
    assert est.y1_lower == pytest.approx(GYS.y0 + ETA_40KM, rel=1e-15)
    assert est.e1_upper == pytest.approx(
        (E0 * GYS.y0 + GYS.e_detector * ETA_40KM) / (GYS.y0 + ETA_40KM), rel=1e-15
    )
    # the non-overlap approximation overshoots the exact yield slightly
    assert est.y1_lower >= yield_i(GYS, ETA_40KM, 1)
    with pytest.raises(ValidationError):
        asymptotic_bounds(GYS, ETA_40KM, 0.0)


def test_deviation_report_rejects_degenerate_reference():
    est = vacuum_weak_bounds(observe(ETA_40KM, 0.48, 0.12), 0.48, 0.12)
    from dataclasses import replace

    broken = replace(asymptotic_bounds(GYS, ETA_40KM, 0.48), y1_lower=0.0)
    with pytest.raises(ValidationError):
        deviation_report(est, broken)


# --- structural identities ---------------------------------------------


def test_y0_lower_recovers_background_with_vacuum_decoy():
    # at nu2 = 0 the formula reduces to the measured vacuum gain
    obs = observe(ETA_40KM, 0.48, 0.12)
    ints = ProtocolIntensities(mu=0.48, nu1=0.12, nu2=0.0)
    assert y0_lower(obs, ints) == pytest.approx(GYS.y0, rel=1e-12)


def test_y0_lower_floors_at_zero():
    obs = ObservedRates(q_mu=0.1, e_mu=0.03, q_nu1=0.05, e_nu1=0.03,
                        q_nu2=1e-9, e_nu2=0.5)
    ints = ProtocolIntensities(mu=0.5, nu1=0.2, nu2=0.05)
    assert y0_lower(obs, ints) == 0.0


def test_two_decoy_with_vacuum_slot_equals_vacuum_weak():
    # measured vacuum gain and the nu2=0 background bound coincide, so
    # the generic estimator must collapse onto the vacuum+weak one
    obs = observe(ETA_40KM, 0.48, 0.12)
    generic = two_decoy_bounds(obs, ProtocolIntensities(mu=0.48, nu1=0.12, nu2=0.0))
    vw = vacuum_weak_bounds(obs, 0.48, 0.12)
    assert generic.y1_lower == pytest.approx(vw.y1_lower, rel=1e-12)
    assert generic.q1_lower == pytest.approx(vw.q1_lower, rel=1e-12)
    assert generic.e1_upper == pytest.approx(vw.e1_upper, rel=1e-12)


def test_e1_upper_vacuous_when_y1_collapses():
    # a signal gain this bright drives the two-decoy Y1 bracket below 0
    obs = ObservedRates(q_mu=0.1, e_mu=0.03, q_nu1=1e-4, e_nu1=0.03,
                        q_nu2=1e-6, e_nu2=0.5)
    est = two_decoy_bounds(obs, ProtocolIntensities(mu=0.48, nu1=0.12, nu2=0.0))
    assert est.vacuous
    assert est.y1_lower == 0.0
    assert est.e1_upper == 0.5


@pytest.mark.parametrize("length, mu, nu1, nu2", [
    (40.0, 0.48, 0.12, 0.03), (40.0, 0.48, 0.12, 0.0), (140.0, 0.55, 0.2, 0.05),
])
def test_two_decoy_bounds_follow_the_two_decoy_formulas(length, mu, nu1, nu2):
    # Y1 and e1 as the paper writes them, around the Y0 that the estimate reports
    eta = transmittance(GYS, length).eta
    obs = observe(eta, mu, nu1, nu2)
    ints = ProtocolIntensities(mu=mu, nu1=nu1, nu2=nu2)
    est = two_decoy_bounds(obs, ints)
    assert est.y0_lower == y0_lower(obs, ints)
    y1 = mu / ((nu1 - nu2) * (mu - nu1 - nu2)) * (
        obs.q_nu1 * math.exp(nu1)
        - obs.q_nu2 * math.exp(nu2)
        - (nu1**2 - nu2**2) / mu**2 * (obs.q_mu * math.exp(mu) - est.y0_lower)
    )
    e1 = (obs.e_nu1 * obs.q_nu1 * math.exp(nu1)
          - obs.e_nu2 * obs.q_nu2 * math.exp(nu2)) / ((nu1 - nu2) * y1)
    assert est.y1_lower == pytest.approx(y1, rel=1e-9)
    assert est.e1_upper == pytest.approx(e1, rel=1e-9)
    assert est.q1_lower == pytest.approx(y1 * mu * math.exp(-mu), rel=1e-9)


def test_scaled_gain_relations():
    assert scaled_gain(0.48, GYS, ETA_40KM) == pytest.approx(
        overall_gain(0.48, GYS, ETA_40KM) * math.exp(0.48), rel=1e-15
    )
    # the scaled error-gain extends continuously to x = 0
    assert scaled_error_gain(0.0, GYS, ETA_40KM) == E0 * GYS.y0
    assert scaled_error_gain(1e-9, GYS, ETA_40KM) == pytest.approx(
        E0 * GYS.y0, rel=1e-6
    )


def test_y1_bound_gap_identity():
    # with the background correction dropped, the two-decoy Y1 bound is
    # exactly the rescaled signal gain minus the gap
    rng = np.random.default_rng(101)
    for _ in range(10):
        length = rng.uniform(5.0, 120.0)
        mu = rng.uniform(0.3, 0.8)
        nu1 = rng.uniform(0.08, 0.28) * mu
        nu2 = rng.uniform(0.0, 0.8) * nu1
        if nu1 + nu2 >= mu:
            continue
        eta = transmittance(GYS, length).eta
        obs = observe(eta, mu, nu1, nu2)
        denom = (nu1 - nu2) * (mu - nu1 - nu2)
        bracket = (
            obs.q_nu1 * math.exp(nu1)
            - obs.q_nu2 * math.exp(nu2)
            - (nu1**2 - nu2**2) / mu**2 * obs.q_mu * math.exp(mu)
        )
        y1_no_background = mu / denom * bracket
        via_gap = scaled_gain(mu, GYS, eta) / mu - y1_bound_gap(nu2, mu, nu1, GYS, eta)
        assert via_gap == pytest.approx(y1_no_background, rel=1e-9)


def test_error_gain_slope_drives_e1_bound():
    obs = observe(ETA_40KM, 0.48, 0.12, 0.03)
    est = two_decoy_bounds(obs, ProtocolIntensities(mu=0.48, nu1=0.12, nu2=0.03))
    slope = error_gain_slope(0.03, 0.48, 0.12, GYS, ETA_40KM)
    assert est.e1_upper == pytest.approx(slope / est.y1_lower, rel=1e-12)


def test_gap_and_slope_validate_intensities():
    with pytest.raises(ValidationError):
        y1_bound_gap(0.2, 0.48, 0.12, GYS, ETA_40KM)
    with pytest.raises(ValidationError):
        error_gain_slope(-0.01, 0.48, 0.12, GYS, ETA_40KM)


# --- soundness against explicit channels --------------------------------


def test_bounds_sound_on_model_channel():
    # model observations come from a channel whose single-photon values
    # are known in closed form; the estimators that claim yield
    # soundness must bracket them
    for length, mu, nu in [(20.0, 0.48, 0.06), (60.0, 0.5, 0.1), (100.0, 0.4, 0.12)]:
        eta = transmittance(GYS, length).eta
        y1_true = yield_i(GYS, eta, 1)
        e1_true = error_i(GYS, eta, 1)
        obs = observe(eta, mu, nu)
        for est in [
            vacuum_weak_bounds(obs, mu, nu),
            two_decoy_bounds(obs, ProtocolIntensities(mu=mu, nu1=nu, nu2=0.0)),
            one_decoy_simple(obs, mu, nu),
        ]:
            assert est.y1_lower <= y1_true * (1.0 + 1e-12), est.estimator
            assert est.e1_upper >= e1_true * (1.0 - 1e-12), est.estimator
        # the trial variant overestimates Y1 by design (Y0 := 0) and
        # compensates by blaming every weak-decoy error on single
        # photons; only its e1 side brackets the truth
        trial = one_decoy_trial(obs, mu, nu)
        assert trial.e1_upper >= e1_true * (1.0 - 1e-12)


def test_one_decoy_trial_y1_can_exceed_truth():
    # background detections are folded into the single-photon pool, so
    # at long distance (background-dominated) the estimate overshoots
    eta = transmittance(GYS, 100.0).eta
    trial = one_decoy_trial(observe(eta, 0.4, 0.12), 0.4, 0.12)
    assert trial.y1_lower > yield_i(GYS, eta, 1)


def test_one_decoy_variants_ordering():
    # the Y0 := 0 trial bound dominates the signal-error-cap variant
    obs = observe(ETA_40KM, 0.48, 0.12)
    trial = one_decoy_trial(obs, 0.48, 0.12)
    simple = one_decoy_simple(obs, 0.48, 0.12)
    assert trial.y1_lower >= simple.y1_lower > 0.0
    assert trial.e1_upper <= simple.e1_upper
    assert trial.y0_lower == simple.y0_lower == 0.0


def test_one_decoy_simple_vacuous_at_small_nu():
    # the signal-error cap on Y0 swallows the whole weak-decoy gain once
    # nu is small enough; the bound degrades honestly to (0, 0.5)
    est = one_decoy_simple(observe(ETA_40KM, 0.48, 0.05), 0.48, 0.05)
    assert est.vacuous
    assert est.y1_lower == 0.0
    assert est.e1_upper == 0.5


def test_estimators_reject_bad_shapes():
    obs_one = simulate_observations(GYS, ETA_40KM, (0.48, 0.12))
    with pytest.raises(ValidationError):
        vacuum_weak_bounds(obs_one, 0.48, 0.12)
    with pytest.raises(ValidationError, match="second decoy"):
        two_decoy_bounds(obs_one, ProtocolIntensities(mu=0.48, nu1=0.12))
    obs_two = observe(ETA_40KM, 0.48, 0.12)
    with pytest.raises(ValidationError):
        vacuum_weak_bounds(obs_two, 0.12, 0.48)
    with pytest.raises(ValidationError):
        one_decoy_trial(obs_two, 0.48, 0.0)


def tight_channel_observations(mu, nu1):
    """Channel with photon-number support {0, 1, 2} and errorless pairs.

    With nothing above two photons the quadratic truncation behind the
    Y1 bound is exact, and with a vacuum second decoy the background
    bound is exact too, so the estimator has no slack left anywhere.
    """
    y0c, y1c, y2c, e1c = 3e-5, 0.008, 0.04, 0.02

    def gain(x):
        return math.exp(-x) * (y0c + y1c * x + y2c * x * x / 2.0)

    def error_gain(x):
        return math.exp(-x) * (E0 * y0c + e1c * y1c * x)

    obs = ObservedRates(
        q_mu=gain(mu), e_mu=error_gain(mu) / gain(mu),
        q_nu1=gain(nu1), e_nu1=error_gain(nu1) / gain(nu1),
        q_nu2=gain(0.0), e_nu2=error_gain(0.0) / gain(0.0),
    )
    return obs, y1c, e1c


def test_bounds_exact_on_two_photon_channel():
    obs, y1c, e1c = tight_channel_observations(0.6, 0.1)
    est = two_decoy_bounds(obs, ProtocolIntensities(mu=0.6, nu1=0.1, nu2=0.0))
    assert est.y1_lower == pytest.approx(y1c, rel=1e-12)
    assert est.e1_upper == pytest.approx(e1c, rel=1e-12)


# --- tagged-fraction (multiphoton) bound --------------------------------


def test_wang_delta_equals_explicit_yield_subtraction():
    # the closed form is algebra on: tagged fraction = 1 minus the
    # bounded vacuum and single-photon shares of the dimmer pulse
    rng = np.random.default_rng(23)
    for _ in range(10):
        length = rng.uniform(10.0, 90.0)
        nu = rng.uniform(0.1, 0.45)
        mu = nu + rng.uniform(0.1, 0.5)
        eta = transmittance(GYS, length).eta
        obs = observe(eta, mu, nu)
        y0 = obs.q_nu2
        y1 = vacuum_weak_bounds(obs, mu, nu).y1_lower
        direct = (obs.q_nu1 - y0 * math.exp(-nu) - y1 * nu * math.exp(-nu)) / obs.q_nu1
        assert wang_delta(obs, mu, nu) == pytest.approx(direct, rel=1e-12)


def test_wang_delta_role_relabeling():
    # writing the closed form out with the signal/decoy symbols renamed
    # must reproduce the function value term for term
    rng = np.random.default_rng(29)
    for _ in range(10):
        length = rng.uniform(10.0, 80.0)
        sig = rng.uniform(0.1, 0.5)
        dec = sig + rng.uniform(0.1, 0.5)
        eta = transmittance(GYS, length).eta
        obs = observe(eta, dec, sig)
        ratio_term = sig / (dec - sig) * (
            sig * math.exp(-sig) * obs.q_mu
            / (dec * math.exp(-dec) * obs.q_nu1)
            - 1.0
        )
        background_term = sig * math.exp(-sig) * obs.q_nu2 / (dec * obs.q_nu1)
        assert wang_delta(obs, dec, sig) == pytest.approx(
            ratio_term + background_term, rel=1e-12
        )


def test_wang_delta_edge_behavior():
    obs = observe(ETA_40KM, 0.48, 0.12)
    with pytest.raises(ValidationError):
        wang_delta(obs, 0.12, 0.48)
    zero_gain = ObservedRates(q_mu=0.1, e_mu=0.03, q_nu1=0.0, e_nu1=0.0)
    with pytest.raises(ValidationError):
        wang_delta(zero_gain, 0.5, 0.1)
    # absurdly bright decoy gain versus signal gain pins the bound at 1
    lopsided = ObservedRates(q_mu=0.9, e_mu=0.03, q_nu1=1e-6, e_nu1=0.03)
    assert wang_delta(lopsided, 0.5, 0.25) == 1.0


# --- adversary oracle ----------------------------------------------------


def test_oracle_brackets_single_photon_truth():
    # the oracle relaxes the matching constraints by a small feasibility
    # window (solver tolerance plus truncated Poisson tail), so it may
    # dip marginally below the analytic bound; 1e-4 covers the window
    mu, nu = 0.48, 0.12
    obs = observe(ETA_40KM, mu, nu)
    ints = ProtocolIntensities(mu=mu, nu1=nu, nu2=0.0)
    res = adversary_oracle(obs, ints)
    assert res.feasible
    est = two_decoy_bounds(obs, ints)
    assert est.y1_lower <= res.y1_min * (1.0 + 1e-4)
    assert est.e1_upper >= res.e1_max * (1.0 - 1e-4)
    # the model channel itself must sit inside the oracle's window
    assert res.y1_min <= yield_i(GYS, ETA_40KM, 1)
    assert res.e1_max >= error_i(GYS, ETA_40KM, 1) * (1.0 - 1e-4)


def test_oracle_squeezes_to_equality_on_two_photon_channel():
    obs, y1c, _ = tight_channel_observations(0.6, 0.1)
    res = adversary_oracle(obs, ProtocolIntensities(mu=0.6, nu1=0.1, nu2=0.0))
    assert res.feasible
    assert res.y1_min == pytest.approx(y1c, rel=1e-4)


@pytest.mark.parametrize("mu, nu1", [(0.6, 0.1), (0.5, 0.2), (0.7, 0.05)])
def test_oracle_e1_max_is_tight_on_two_photon_channel(mu, nu1):
    # e1c is consistent with the data, and the exact estimator shows no
    # consistent channel exceeds it, so the largest e1 is e1c itself
    obs, _, e1c = tight_channel_observations(mu, nu1)
    res = adversary_oracle(obs, ProtocolIntensities(mu=mu, nu1=nu1, nu2=0.0))
    assert res.e1_max == pytest.approx(e1c, rel=1e-5)


def test_oracle_solves_one_lp_per_extreme(monkeypatch):
    solve = bounds.linprog
    calls = []
    monkeypatch.setattr(bounds, "linprog", lambda *a, **k: calls.append(a) or solve(*a, **k))
    obs = observe(ETA_40KM, 0.48, 0.12)
    assert adversary_oracle(obs, ProtocolIntensities(mu=0.48, nu1=0.12, nu2=0.0)).feasible
    assert len(calls) == 2  # min Y1, then max e1
    impossible = ObservedRates(q_mu=1e-6, e_mu=0.03, q_nu1=1e-6, e_nu1=0.03,
                               q_nu2=0.9, e_nu2=0.5)
    calls.clear()
    assert not adversary_oracle(impossible, ProtocolIntensities(mu=0.5, nu1=0.1, nu2=0.0)).feasible
    assert len(calls) == 1


def test_linprog_is_scipys_loaded_through_the_module_hook(monkeypatch):
    from scipy.optimize import linprog as scipy_linprog

    monkeypatch.delitem(vars(bounds), "linprog", raising=False)  # as before the first oracle call
    from decoyqkd.bounds import linprog

    assert linprog is scipy_linprog
    assert bounds.linprog is scipy_linprog


def test_unknown_bounds_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(bounds, "no_such_name")


def test_oracle_flags_inconsistent_observations():
    # a bright vacuum gain forces Y0 = 0.9, which the signal gain forbids
    impossible = ObservedRates(q_mu=1e-6, e_mu=0.03, q_nu1=1e-6, e_nu1=0.03,
                               q_nu2=0.9, e_nu2=0.5)
    res = adversary_oracle(impossible, ProtocolIntensities(mu=0.5, nu1=0.1, nu2=0.0))
    assert not res.feasible
    assert res.y1_min is None
    assert res.e1_max is None
