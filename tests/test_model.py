"""Channel model tests.

The closed-form gain and QBER are cross-checked against photon-number
series summed independently here, term by term, so the expressions in
the module are not taken on faith.  Expected numbers were frozen from a
separate reference script (bisection/series, no package code).
"""

import dataclasses
import math
import sys

import pytest
from helpers import error_i, gain_i, photon_transmittance, poisson_tail_cutoff, yield_i
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoyqkd.model import (
    E0,
    GYS,
    KTH,
    ExperimentParams,
    ObservedRates,
    ValidationError,
    get_preset,
    load_params,
    overall_gain,
    overall_qber,
    poisson_tail,
    simulate_observations,
    transmittance,
)
from decoyqkd.rate import asymptotic_rate

# GYS fiber, frozen reference values
ETA_40KM = 0.006504478968356672
ETA_140KM = 5.166691296735973e-05


def poisson_pmf(mu, i):
    return math.exp(-mu) * mu**i / math.factorial(i)


def test_preset_values():
    assert GYS.alpha == 0.21
    assert GYS.e_detector == 0.033
    assert GYS.y0 == 1.7e-6
    assert GYS.eta_bob == 0.045
    assert GYS.f_ec == 1.22
    assert KTH.alpha == 0.2
    assert KTH.e_detector == 0.01
    assert KTH.y0 == 4.0e-4
    assert KTH.eta_bob == 0.143


def test_get_preset_is_case_insensitive():
    assert get_preset("gys") is GYS
    assert get_preset("KTH") is KTH
    with pytest.raises(ValidationError):
        get_preset("nonesuch")


def test_params_validation():
    good = dict(alpha=0.2, e_detector=0.03, y0=1e-5, eta_bob=0.1)
    ExperimentParams(**good)
    for field, bad in [
        ("alpha", 0.0),
        ("e_detector", 0.6),
        ("e_detector", -0.1),
        ("y0", 1.0),
        ("y0", -1e-9),
        ("eta_bob", 0.0),
        ("eta_bob", 1.1),
        ("rep_rate", 0.0),
        ("f_ec", 0.99),
    ]:
        with pytest.raises(ValidationError):
            ExperimentParams(**{**good, field: bad})


def test_validation_error_is_a_value_error():
    assert issubclass(ValidationError, ValueError)


def test_load_params_round_trip(tmp_path):
    cfg = tmp_path / "setup.txt"
    cfg.write_text(
        "# custom link\n"
        "alpha = 0.21\n"
        "\n"
        "e_detector = 0.033\n"
        "y0 = 1.7e-6\n"
        "eta_bob = 0.045\n"
        "f_ec = 1.22\n"
    )
    params = load_params(str(cfg))
    assert params.alpha == 0.21
    assert params.y0 == 1.7e-6
    assert params.f_ec == 1.22
    # unspecified optional fields keep their defaults
    assert params.rep_rate == 2.0e6
    assert params.wavelength is None


def test_load_params_reads_every_field(tmp_path):
    cfg = tmp_path / "full.txt"
    cfg.write_text("alpha = 0.2\ne_detector = 0.01\ny0 = 4e-4\neta_bob = 0.143\n"
                   "rep_rate = 1e5\nf_ec = 1.22\nwavelength = 1550\n")
    assert load_params(str(cfg)) == KTH


@pytest.mark.parametrize(
    "body, message",
    [
        ("alpha 0.21\n", "key=value"),
        ("alpha = 0.21\nloss = 3\n", "unknown key"),
        ("alpha = fast\n", "not a number"),
        ("alpha = 0.21\n", "missing required"),
        ("alpha = 0.2\nalpha = 0.3\n", r"bad\.txt:2: repeated key 'alpha'"),
    ],
)
def test_load_params_rejects_malformed_files(tmp_path, body, message):
    cfg = tmp_path / "bad.txt"
    cfg.write_text(body)
    with pytest.raises(ValidationError, match=message):
        load_params(str(cfg))


def test_transmittance_frozen_values():
    point = transmittance(GYS, 40.0)
    assert point.length_km == 40.0
    assert point.eta == pytest.approx(ETA_40KM, rel=1e-12)
    assert transmittance(GYS, 140.0).eta == pytest.approx(ETA_140KM, rel=1e-12)
    # at zero length only the receiver loss remains
    assert transmittance(GYS, 0.0).eta == GYS.eta_bob
    with pytest.raises(ValidationError):
        transmittance(GYS, -1.0)


def test_photon_transmittance():
    assert photon_transmittance(0.3, 0) == 0.0
    assert photon_transmittance(0.3, 1) == pytest.approx(0.3, rel=1e-15)
    assert photon_transmittance(1.0, 5) == 1.0
    assert photon_transmittance(0.3, 3) == pytest.approx(1.0 - 0.7**3, rel=1e-12)
    with pytest.raises(ValidationError):
        photon_transmittance(1.5, 1)
    with pytest.raises(ValidationError):
        photon_transmittance(0.3, -1)


def test_yield_exact_vs_approximate():
    eta = ETA_40KM
    for i in range(6):
        eta_i = photon_transmittance(eta, i)
        exact = yield_i(GYS, eta, i)
        assert exact == pytest.approx(GYS.y0 + eta_i - GYS.y0 * eta_i, rel=1e-15)
        approx = yield_i(GYS, eta, i, approx=True)
        assert approx == pytest.approx(GYS.y0 + eta_i, rel=1e-15)
        assert approx >= exact
    assert yield_i(GYS, eta, 0) == GYS.y0


def test_single_photon_values_frozen():
    eta = ETA_40KM
    assert yield_i(GYS, eta, 1) == pytest.approx(0.0065061679107424625, rel=1e-12)
    assert error_i(GYS, eta, 1) == pytest.approx(0.033122078758520614, rel=1e-12)
    assert yield_i(GYS, eta, 2) == pytest.approx(0.012968327646759197, rel=1e-12)
    assert error_i(GYS, eta, 2) == pytest.approx(0.033061274471982226, rel=1e-12)


def test_error_rate_undefined_at_zero_yield():
    dark_free = ExperimentParams(alpha=0.21, e_detector=0.033, y0=0.0, eta_bob=0.045)
    with pytest.raises(ValidationError):
        error_i(dark_free, ETA_40KM, 0)


def test_overall_gain_and_qber_frozen_values():
    eta = ETA_40KM
    assert overall_gain(0.48, GYS, eta) == pytest.approx(0.003118981063199744, rel=1e-12)
    assert overall_qber(0.48, GYS, eta) == pytest.approx(0.03325453825589505, rel=1e-12)
    assert overall_gain(0.12, GYS, eta) == pytest.approx(0.0007819329360672089, rel=1e-12)
    assert overall_qber(0.12, GYS, eta) == pytest.approx(0.03401530446330799, rel=1e-12)


def test_vacuum_intensity_gives_background_statistics():
    assert overall_gain(0.0, GYS, ETA_40KM) == GYS.y0
    assert overall_qber(0.0, GYS, ETA_40KM) == E0


def test_a_link_whose_overall_gain_exceeds_one_is_rejected():
    # the closed form y0 + 1 - e^(-eta mu) is a probability only up to 1
    bright = dataclasses.replace(GYS, y0=0.75)
    assert overall_gain(0.2, bright, 1.0) == 0.75 - math.expm1(-0.2)
    with pytest.raises(ValidationError) as raised:
        overall_gain(0.48, bright, 1.0)
    assert str(raised.value) == (
        "overall gain y0 + 1 - e^(-eta mu) = 1.131216608193859 exceeds 1 at y0=0.75, "
        "mu=0.48, eta=1.0: the model needs y0 <= e^(-eta mu)")
    with pytest.raises(ValidationError, match="overall gain"):
        simulate_observations(bright, 1.0, (0.48, 0.12, 0.0))


@pytest.mark.parametrize("call", [
    lambda: overall_gain(math.nan, GYS, 0.5),
    lambda: simulate_observations(GYS, 0.5, (math.nan, 0.1)),
    lambda: asymptotic_rate(GYS, 0.5, math.nan),
], ids=["overall_gain", "simulate_observations", "asymptotic_rate"])
def test_a_nan_mean_photon_number_is_rejected(call):
    # `mu < 0` is false for nan: these returned nan or named q_mu
    with pytest.raises(ValidationError, match="^mean photon number must be >= 0, got nan$"):
        call()


def test_qber_undefined_without_any_detections():
    dark_free = ExperimentParams(alpha=0.21, e_detector=0.033, y0=0.0, eta_bob=0.045)
    with pytest.raises(ValidationError):
        overall_qber(0.0, dark_free, ETA_40KM)


def test_gain_series_matches_closed_form():
    # sum_i P_i(mu) * Y_i with the non-overlap yields telescopes exactly
    # to Y0 + 1 - exp(-eta mu); the exact yields add a Y0*eta_i cross
    # term whose total is Y0*(1 - exp(-eta mu)), tiny but nonzero.
    eta = ETA_40KM
    for mu in (0.1, 0.48, 0.77):
        cutoff = poisson_tail_cutoff(mu)
        series_approx = sum(
            gain_i(mu, GYS, eta, i, approx=True) for i in range(cutoff + 1)
        )
        series_exact = sum(gain_i(mu, GYS, eta, i) for i in range(cutoff + 1))
        closed = overall_gain(mu, GYS, eta)
        assert series_approx == pytest.approx(closed, rel=1e-10)
        assert series_exact == pytest.approx(closed, rel=3e-6)
        assert abs(series_exact - closed) > 0.0


def test_error_gain_series_matches_closed_form():
    # e_i * Y_i = E0*Y0 + e_detector*eta_i holds for the exact yields, so
    # the error-gain series and E_mu * Q_mu agree to rounding.
    eta = ETA_40KM
    for mu in (0.1, 0.48, 0.77):
        cutoff = poisson_tail_cutoff(mu)
        series = sum(
            error_i(GYS, eta, i) * gain_i(mu, GYS, eta, i) for i in range(cutoff + 1)
        )
        closed = overall_qber(mu, GYS, eta) * overall_gain(mu, GYS, eta)
        assert series == pytest.approx(closed, rel=1e-10)


def test_observed_rates_validation():
    ObservedRates(q_mu=0.1, e_mu=0.05, q_nu1=0.01, e_nu1=0.06)
    with pytest.raises(ValidationError):
        ObservedRates(q_mu=-0.1, e_mu=0.05, q_nu1=0.01, e_nu1=0.06)
    with pytest.raises(ValidationError):
        ObservedRates(q_mu=0.1, e_mu=1.05, q_nu1=0.01, e_nu1=0.06)
    with pytest.raises(ValidationError):
        ObservedRates(q_mu=0.1, e_mu=0.05, q_nu1=0.01, e_nu1=0.06, q_nu2=0.001)
    both = ObservedRates(q_mu=0.1, e_mu=0.05, q_nu1=0.01, e_nu1=0.06,
                         q_nu2=0.001, e_nu2=0.5)
    assert both.has_second_decoy
    assert not ObservedRates(q_mu=0.1, e_mu=0.05, q_nu1=0.01, e_nu1=0.06).has_second_decoy


def test_simulate_observations_matches_pointwise_model():
    eta = ETA_40KM
    obs = simulate_observations(GYS, eta, (0.48, 0.12, 0.0))
    assert obs.q_mu == overall_gain(0.48, GYS, eta)
    assert obs.e_mu == overall_qber(0.48, GYS, eta)
    assert obs.q_nu1 == overall_gain(0.12, GYS, eta)
    assert obs.e_nu1 == overall_qber(0.12, GYS, eta)
    # a vacuum decoy sees only the background
    assert obs.q_nu2 == GYS.y0
    assert obs.e_nu2 == E0

    one_decoy = simulate_observations(GYS, eta, (0.48, 0.12))
    assert not one_decoy.has_second_decoy
    assert one_decoy.q_nu1 == obs.q_nu1

    with pytest.raises(ValidationError):
        simulate_observations(GYS, eta, (0.48,))


@pytest.mark.parametrize("length", [0.0, 40.0, 140.0])
def test_a_vacuum_decoy_records_the_background_error_rate(length):
    # E0 by definition, which overall_qber(0) gives where there is a background
    for params in (GYS, KTH):
        eta = transmittance(params, length).eta
        obs = simulate_observations(params, eta, (0.48, 0.12, 0.0))
        assert repr(obs.e_nu2) == repr(overall_qber(0.0, params, eta)) == repr(E0)
    # and where there is none, whose vacuum decoy records nothing
    dark_free = dataclasses.replace(GYS, y0=0.0)
    eta = transmittance(dark_free, length).eta
    obs = simulate_observations(dark_free, eta, (0.48, 0.12, 0.0))
    assert (obs.q_nu2, obs.e_nu2) == (0.0, E0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    # from twice the smallest normal float halving y0 is exact
    y0=st.floats(2.0 * sys.float_info.min, 1.0, exclude_max=True),
    e_detector=st.floats(0.0, 0.5),
    eta=st.floats(0.0, 1.0),
)
@example(y0=0.75, e_detector=0.033, eta=1.0)
def test_the_vacuum_error_rate_is_overall_qber_at_zero_bit_for_bit(y0, e_detector, eta):
    params = dataclasses.replace(GYS, y0=y0, e_detector=e_detector)
    try:
        obs = simulate_observations(params, eta, (0.48, 0.12, 0.0))
    except ValidationError as exc:
        # the closed-form signal gain y0 + 1 - e^(-eta mu) exceeds 1: the link is rejected
        assert y0 - math.expm1(-eta * 0.48) > 1.0
        assert str(exc).startswith("overall gain y0 + 1 - e^(-eta mu) = ")
        return
    assert repr(obs.e_nu2) == repr(overall_qber(0.0, params, eta))
    assert repr(obs.q_nu2) == repr(overall_gain(0.0, params, eta))


def test_poisson_tail_cutoff_is_minimal():
    for mu in (0.05, 0.48, 1.5):
        cutoff = poisson_tail_cutoff(mu, tail_mass=1e-12)
        assert poisson_tail(mu, cutoff) <= 1e-12
        assert poisson_tail(mu, cutoff - 1) > 1e-12
    with pytest.raises(ValidationError):
        poisson_tail_cutoff(0.5, tail_mass=0.0)


def test_poisson_tail_against_direct_sum():
    mu, i_max = 0.7, 4
    head = sum(poisson_pmf(mu, i) for i in range(i_max + 1))
    assert poisson_tail(mu, i_max) == pytest.approx(1.0 - head, rel=1e-10)
