"""Finite-statistics tests: confidence bands, worst cases, allocation.

The band arithmetic is simple enough to recompute inline, which is done
wherever a closed form exists; the optimizer is held to "never worse
than any seed it started from" rather than to frozen outputs.
"""

import dataclasses
import math

import pytest

from decoyqkd import fluct
from decoyqkd.bounds import vacuum_weak_bounds
from decoyqkd.fluct import (
    DataAllocation,
    InsufficientDataError,
    fluctuated_bounds,
    max_distance_fluct,
    optimize_allocation,
    perturb_observations,
    scan_distance_fluct,
)
from decoyqkd.model import GYS, ValidationError, simulate_observations, transmittance
from decoyqkd.rate import asymptotic_rate, vacuum_weak_rate

ETA_40KM = transmittance(GYS, 40.0).eta
ETA_100KM = transmittance(GYS, 100.0).eta

INTENSITIES = (0.479, 0.127, 0.0)


def make_alloc(n_total=6.0e9, w1=0.25, w2=0.05, u_alpha=10.0):
    return DataAllocation(
        n_total=n_total,
        n_signal=(1.0 - w1 - w2) * n_total,
        n_decoy1=w1 * n_total,
        n_decoy2=w2 * n_total,
        u_alpha=u_alpha,
    )


def test_data_allocation_validation():
    alloc = make_alloc()
    assert alloc.q == pytest.approx(0.35)
    with pytest.raises(ValidationError):
        DataAllocation(n_total=10.0, n_signal=5.0, n_decoy1=4.0, n_decoy2=2.0)
    with pytest.raises(ValidationError):
        DataAllocation(n_total=10.0, n_signal=11.0, n_decoy1=-1.0, n_decoy2=0.0)
    with pytest.raises(ValidationError):
        DataAllocation(n_total=0.0, n_signal=0.0, n_decoy1=0.0, n_decoy2=0.0)
    with pytest.raises(ValidationError):
        make_alloc(u_alpha=-1.0)


def test_perturb_shifts_each_observable_the_damaging_way():
    alloc = make_alloc()
    obs = simulate_observations(GYS, ETA_40KM, INTENSITIES)
    pert = perturb_observations(obs, alloc)
    # signal-side statistics are left alone
    assert pert.q_mu == obs.q_mu
    assert pert.e_mu == obs.e_mu
    # weak-decoy gain drops by exactly u_alpha standard errors
    band = alloc.u_alpha / math.sqrt(alloc.n_decoy1 * obs.q_nu1)
    assert pert.q_nu1 == pytest.approx(obs.q_nu1 * (1.0 - band), rel=1e-12)
    # its error-gain product rises, so the error rate rises even more
    assert pert.e_nu1 * pert.q_nu1 > obs.e_nu1 * obs.q_nu1
    assert pert.e_nu1 > obs.e_nu1


def test_perturb_vacuum_direction_is_selectable():
    alloc = make_alloc()
    obs = simulate_observations(GYS, ETA_40KM, INTENSITIES)
    up = perturb_observations(obs, alloc, vacuum_gain_direction=+1)
    down = perturb_observations(obs, alloc, vacuum_gain_direction=-1)
    assert up.q_nu2 > obs.q_nu2 > down.q_nu2
    with pytest.raises(ValidationError):
        perturb_observations(obs, alloc, vacuum_gain_direction=0)


def test_perturb_with_zero_u_alpha_is_identity():
    alloc = make_alloc(u_alpha=0.0)
    obs = simulate_observations(GYS, ETA_40KM, INTENSITIES)
    assert perturb_observations(obs, alloc) is obs


def test_perturb_needs_expected_events():
    alloc = DataAllocation(n_total=6.0e9, n_signal=5.7e9, n_decoy1=0.0, n_decoy2=0.3e9)
    obs = simulate_observations(GYS, ETA_40KM, INTENSITIES)
    with pytest.raises(InsufficientDataError):
        perturb_observations(obs, alloc)


def poisson_cdf(k, lam):
    """P(X <= k) for X ~ Poisson(lam), lam > k, summed down from k while the terms count."""
    total = 0.0
    for j in range(k, -1, -1):
        term = math.exp(j * math.log(lam) - lam - math.lgamma(j + 1))
        total += term
        if term < 1e-17 * total:
            break
    return total


def exact_upper_end(count, u_alpha):
    """Mean whose Poisson(mean) <= count has the one-sided Gaussian tail mass of u_alpha."""
    tail = 0.5 * math.erfc(u_alpha / math.sqrt(2.0))
    lo, hi = float(count), count + 2.0 * u_alpha * math.sqrt(count) + u_alpha**2
    assert poisson_cdf(count, hi) < tail
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if poisson_cdf(count, mid) > tail:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("count, too_narrow", [
    (50, "31.2%"), (100, "18.4%"), (200, "10.5%"), (1000, "2.7%"), (10000, "0.3%"),
])
def test_gaussian_band_upper_end_against_the_exact_poisson_limit(count, too_narrow):
    # the ten-sigma band shifts count expected events by u_alpha / sqrt(count) relative;
    # its upper end falls short of the exact Poisson limit at the same tail mass (7.6e-24)
    gaussian = count * (1.0 + fluct._band(10.0, "count", count, 1.0))
    assert gaussian == pytest.approx(count + 10.0 * math.sqrt(count), rel=1e-15)
    assert f"{exact_upper_end(count, 10.0) / gaussian - 1.0:.1%}" == too_narrow


def test_fluctuated_bounds_validation():
    alloc = make_alloc()
    with pytest.raises(ValidationError):
        fluctuated_bounds(GYS, ETA_40KM, INTENSITIES, alloc, estimator="two-decoy")
    with pytest.raises(ValidationError):
        fluctuated_bounds(GYS, ETA_40KM, (0.48, 0.12, 0.05), alloc)


def test_fluctuated_bounds_against_inline_recomputation():
    alloc = make_alloc()
    fb = fluctuated_bounds(GYS, ETA_100KM, INTENSITIES, alloc)
    obs = simulate_observations(GYS, ETA_100KM, INTENSITIES)
    plain = vacuum_weak_rate(GYS, ETA_100KM, 0.479, 0.127, q=alloc.q)
    vw = vacuum_weak_bounds(obs, 0.479, 0.127)

    assert 0.0 < fb.rate_lower < plain
    assert fb.key_bits_lower == pytest.approx(fb.rate_lower * alloc.n_total, rel=1e-12)
    assert fb.beta_r == pytest.approx(1.0 - fb.rate_lower / plain, rel=1e-9)
    # worst-case estimates are strictly weaker than the noiseless ones
    assert fb.y1_hat_lower < vw.y1_lower
    assert fb.e1_hat_upper > vw.e1_upper
    # the background band has a closed form
    assert fb.beta_y0 == pytest.approx(
        alloc.u_alpha / math.sqrt(alloc.n_decoy2 * GYS.y0), rel=1e-12
    )
    assert fb.low_count_observables == ()


def test_fluctuated_bounds_keeps_the_worse_vacuum_direction():
    # evaluating only one vacuum direction would overstate the rate;
    # the reported lower bound must not exceed either single-direction rate
    alloc = make_alloc()
    fb = fluctuated_bounds(GYS, ETA_100KM, INTENSITIES, alloc)
    obs = simulate_observations(GYS, ETA_100KM, INTENSITIES)
    from decoyqkd.rate import KeyRateInputs, key_rate_strong

    for direction in (+1, -1):
        pert = perturb_observations(obs, alloc, vacuum_gain_direction=direction)
        est = vacuum_weak_bounds(pert, 0.479, 0.127)
        rate = key_rate_strong(KeyRateInputs(
            q=alloc.q, q_mu=obs.q_mu, e_mu=obs.e_mu,
            q1_lower=est.q1_lower, e1_upper=est.e1_upper, f_ec=GYS.f_ec,
        ))
        assert fb.rate_lower <= rate * (1.0 + 1e-12)


def test_vacuum_weak_without_vacuum_pulses_degrades_to_one_decoy():
    alloc = make_alloc(w1=0.3, w2=0.0)
    a = fluctuated_bounds(GYS, ETA_100KM, (0.479, 0.127), alloc, estimator="vacuum-weak")
    b = fluctuated_bounds(GYS, ETA_100KM, (0.479, 0.127), alloc, estimator="one-decoy")
    assert a == b


def test_betas_scale_with_u_alpha_and_pulse_budget():
    fb10 = fluctuated_bounds(GYS, ETA_100KM, INTENSITIES, make_alloc(u_alpha=10.0))
    fb5 = fluctuated_bounds(GYS, ETA_100KM, INTENSITIES, make_alloc(u_alpha=5.0))
    for name in ("beta_y0", "beta_y1", "beta_e1"):
        assert getattr(fb10, name) == pytest.approx(2.0 * getattr(fb5, name), rel=1e-9)
    # quadrupling every pool halves each standard error
    fb4n = fluctuated_bounds(GYS, ETA_100KM, INTENSITIES, make_alloc(n_total=2.4e10))
    for name in ("beta_y0", "beta_y1", "beta_e1"):
        assert getattr(fb4n, name) == pytest.approx(0.5 * getattr(fb10, name), rel=1e-9)


def test_low_count_flagging():
    tiny = make_alloc(n_total=2.0e6, w1=0.05, w2=0.001)
    fb = fluctuated_bounds(GYS, ETA_100KM, INTENSITIES, tiny)
    assert "q_nu2" in fb.low_count_observables


def test_no_fluctuations_and_tiny_nu_recover_the_ideal_rate():
    alloc = make_alloc(u_alpha=0.0)
    fb = fluctuated_bounds(GYS, ETA_40KM, (0.48, 0.005, 0.0), alloc)
    ideal = asymptotic_rate(GYS, ETA_40KM, 0.48, q=alloc.q)
    assert fb.beta_r == 0.0
    assert fb.rate_lower == pytest.approx(ideal, rel=0.01)


def test_optimize_allocation_beats_every_seed():
    res = optimize_allocation(GYS, ETA_100KM, 0.479, 6.0e9)
    assert res.result.rate_lower > 0.0
    assert 0.0 < res.nu < 0.479
    assert res.alloc.n_signal + res.alloc.n_decoy1 + res.alloc.n_decoy2 == pytest.approx(6.0e9)
    for nu, w1, w2 in [(0.05, 0.20, 0.02), (0.12, 0.30, 0.05), (0.25, 0.45, 0.10)]:
        fb = fluctuated_bounds(GYS, ETA_100KM, (0.479, nu, 0.0), make_alloc(w1=w1, w2=w2))
        assert res.result.rate_lower >= fb.rate_lower * (1.0 - 1e-9)


def test_optimize_allocation_validation():
    with pytest.raises(ValidationError):
        optimize_allocation(GYS, ETA_100KM, 0.0, 6.0e9)
    with pytest.raises(ValidationError):
        optimize_allocation(GYS, ETA_100KM, 0.479, 0.0)
    with pytest.raises(ValidationError):
        optimize_allocation(GYS, ETA_100KM, 0.479, 6.0e9, estimator="two-decoy")


@pytest.mark.parametrize("mu, message", [
    (800.0, "mu must be <= "),  # e^mu overflows
    (1e-300, "leaves the decoy search"),  # 0.999 mu < 1e-3
    (1e-3, "leaves the decoy search"),
])
def test_optimize_allocation_rejects_a_mu_it_cannot_search(monkeypatch, mu, message):
    def never_called(*args):
        raise AssertionError("the search was started")

    monkeypatch.setattr(fluct, "maximize_scalar", never_called)
    with pytest.raises(ValidationError, match=message):
        optimize_allocation(GYS, ETA_100KM, mu, 6.0e9)


def test_scan_distance_fluct_shape():
    points = scan_distance_fluct(GYS, 0.479, 6.0e9, [40.0, 80.0, 110.0])
    assert [p.length_km for p in points] == [40.0, 80.0, 110.0]
    rates = [p.rate_lower for p in points]
    assert rates[0] > rates[1] > rates[2] > 0.0
    for p in points:
        assert p.n_signal + p.n_decoy1 + p.n_decoy2 == pytest.approx(6.0e9)
        assert p.key_bits == pytest.approx(max(p.rate_lower, 0.0) * 6.0e9, rel=1e-12)
        assert 0.0 < p.nu < 0.479


def test_max_distance_fluct_boundaries():
    # a hundred thousand pulses cannot even pin down the decoy gains
    assert max_distance_fluct(GYS, 0.479, 1.0e5) is None
    # with the full budget the rate is still positive at 20 km, so the
    # search reports the cap it was given
    assert max_distance_fluct(GYS, 0.479, 6.0e9, l_hi=20.0) == 20.0


@pytest.mark.parametrize("l_hi", [0.5, 1.0, -5.0, math.nan, math.inf])
def test_max_distance_fluct_rejects_a_limit_it_cannot_search(monkeypatch, l_hi):
    # 0.5 used to come back as 0.5, which reads as censored below the 1 km start
    def never_called(*args):
        raise AssertionError("the reach probed a length")

    monkeypatch.setattr(fluct, "_search", never_called)
    with pytest.raises(ValidationError, match="l_hi"):
        max_distance_fluct(GYS, 0.479, 6.0e9, l_hi=l_hi)


@pytest.mark.parametrize("estimator", ["one-decoy", "vacuum-weak"])
def test_a_link_with_no_data_raises_rather_than_reporting_no_reach(estimator):
    # no background and no detector error: the one-decoy error-gain product
    # has no expected events anywhere, and with no background vacuum+weak
    # runs the one-decoy analysis
    params = dataclasses.replace(GYS, y0=0.0, e_detector=0.0)
    eta = transmittance(params, 50.0).eta
    for run in (lambda: max_distance_fluct(params, 0.5, 6.0e9, estimator=estimator),
                lambda: optimize_allocation(params, eta, 0.5, 6.0e9, estimator=estimator)):
        with pytest.raises(ValidationError) as raised:
            run()
        assert (type(raised.value), str(raised.value)) == (
            InsufficientDataError,
            "no expected events for e_nu1*q_nu1: 1800000000.0 pulses at rate 0.0",
        )
