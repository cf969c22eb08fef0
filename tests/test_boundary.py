"""Finiteness checks at the library and CLI boundary.

Every validated constructor or function, given any float (nan and
+-inf included), either raises a ValidationError that names the field or
returns finite values; every float option of the CLI rejects nan and
+-inf before any computation, exiting 2 with the option's name.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoyqkd import cli
from decoyqkd.bounds import MU_MAX
from decoyqkd.fluct import DataAllocation, max_distance_fluct, optimize_allocation
from decoyqkd.model import GYS, ValidationError, get_preset, transmittance
from decoyqkd.rate import (
    ESTIMATORS,
    TWO_DECOY,
    KeyRateInputs,
    WangRateInputs,
    estimate_at,
    estimator_rate,
    key_rate_strong,
    key_rate_wang,
    optimal_mu,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
NON_FINITE = (math.nan, math.inf, -math.inf)
ETA_100KM = transmittance(GYS, 100.0).eta


def finite_fields(obj) -> bool:
    return all(
        math.isfinite(v) for v in dataclasses.asdict(obj).values() if isinstance(v, float)
    )


@PROPERTY
@given(ANY_FLOAT)
def test_transmittance_rejects_or_returns_finite(length):
    try:
        point = transmittance(GYS, length)
    except ValidationError as exc:
        assert "length_km" in str(exc)
        assert not 0.0 <= length < math.inf
    else:
        assert finite_fields(point)


@PROPERTY
@given(
    st.sampled_from(("alpha", "e_detector", "y0", "eta_bob", "rep_rate", "f_ec")),
    ANY_FLOAT,
)
def test_experiment_params_reject_or_stay_finite(field, value):
    try:
        params = dataclasses.replace(GYS, **{field: value})
    except ValidationError as exc:
        assert field in str(exc)
    else:
        assert finite_fields(params)


@PROPERTY
@given(
    st.sampled_from(("n_total", "n_signal", "n_decoy1", "n_decoy2", "u_alpha")),
    ANY_FLOAT,
)
def test_data_allocation_rejects_or_stays_finite(field, value):
    base = dict(n_total=1.0e6, n_signal=7.0e5, n_decoy1=2.5e5, n_decoy2=5.0e4, u_alpha=10.0)
    try:
        alloc = DataAllocation(**{**base, field: value})
    except ValidationError as exc:
        if not math.isfinite(value):
            assert field in str(exc)
    else:
        assert finite_fields(alloc)


@PROPERTY
@given(ANY_FLOAT)
@example(3.7796468557663094)  # a right-hand side of 1 - 1e-9, above (1 - mu) e^-mu on [1e-9, 1]
def test_optimal_mu_rejects_or_returns_finite(f_ec):
    try:
        mu = optimal_mu(GYS, f_ec=f_ec)
    except ValidationError as exc:
        assert "f_ec" in str(exc)
    else:
        assert 0.0 < mu <= 1.0


# a finite positive mu or n_total runs the whole optimizer; the boundary
# check only has to catch the rest
REJECTED_POSITIVE = st.one_of(st.sampled_from(NON_FINITE), st.floats(max_value=0.0))


@PROPERTY
@given(st.sampled_from(("mu", "n_total")), REJECTED_POSITIVE)
def test_optimize_allocation_rejects_mu_and_budget(field, value):
    args = {"mu": 0.48, "n_total": 6.0e9, field: value}
    with pytest.raises(ValidationError, match=field):
        optimize_allocation(GYS, ETA_100KM, args["mu"], args["n_total"])


NEGATIVE = st.floats(max_value=-math.ulp(0.0))


@PROPERTY
@given(st.one_of(st.sampled_from(NON_FINITE), NEGATIVE))
def test_allocation_search_rejects_u_alpha(value):
    with pytest.raises(ValidationError, match="u_alpha"):
        optimize_allocation(GYS, ETA_100KM, 0.48, 6.0e9, u_alpha=value)
    with pytest.raises(ValidationError, match="u_alpha"):
        max_distance_fluct(GYS, 0.48, 6.0e9, u_alpha=value)


@PROPERTY
@given(st.one_of(st.sampled_from(NON_FINITE), NEGATIVE,
                 st.floats(min_value=math.nextafter(1.0, 2.0))))
def test_optimize_allocation_rejects_eta_outside_unit_interval(eta):
    with pytest.raises(ValidationError, match="eta"):
        optimize_allocation(GYS, eta, 0.48, 6.0e9)


# the required arguments of each subcommand, so only the option under test is bad
REQUIRED = {
    "optimal-mu": [],
    "bounds": ["--length", "40", "--mu", "0.48", "--nu1", "0.12"],
    "scan": [],
    "fluct-optimize": ["--length", "40"],
}


def float_options():
    sub = next(a for a in cli._build_parser()._actions if a.choices and "scan" in a.choices)
    for command, parser in sub.choices.items():
        for action in parser._actions:
            assert action.type is not float, (command, action.option_strings)
            if action.type is cli._finite:
                yield command, action.option_strings[0]


def test_every_listed_float_option_is_checked():
    options = {opt for _, opt in float_options()}
    assert options == {"--length", "--mu", "--nu1", "--nu2", "--l-min", "--l-max",
                       "--n-pulses", "--u-alpha", "--f-ec"}


@pytest.mark.parametrize("command, option", list(float_options()))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_cli_rejects_non_finite_float_options(capsys, command, option, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *REQUIRED[command], f"{option}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert option in err
    assert "finite" in err


KEY_RATE_BASE = dict(q=0.5, q_mu=0.003, e_mu=0.03, q1_lower=0.0015, e1_upper=0.04, f_ec=1.22)
WANG_BASE = dict(q=0.5, q_mu=0.003, e_mu=0.03, delta=0.4, f_ec=1.22)


@PROPERTY
@given(st.sampled_from(tuple(KEY_RATE_BASE)), ANY_FLOAT)
def test_key_rate_inputs_reject_or_give_a_finite_rate(field, value):
    try:
        inputs = KeyRateInputs(**{**KEY_RATE_BASE, field: value})
    except ValidationError as exc:
        assert field in str(exc)
    else:
        assert math.isfinite(key_rate_strong(inputs))


@PROPERTY
@given(st.sampled_from(tuple(WANG_BASE)), ANY_FLOAT)
def test_wang_rate_inputs_reject_or_give_a_rate(field, value):
    try:
        inputs = WangRateInputs(**{**WANG_BASE, field: value})
    except ValidationError as exc:
        assert field in str(exc)
    else:
        # -inf is the documented value of a degenerate bound
        r = key_rate_wang(inputs)
        assert math.isfinite(r) or r == -math.inf


@pytest.mark.parametrize("field", ["q1_lower", "f_ec"])
def test_rate_inputs_reject_nan(field):
    with pytest.raises(ValidationError, match=field):
        KeyRateInputs(**{**KEY_RATE_BASE, field: math.nan})
    if field in WANG_BASE:
        with pytest.raises(ValidationError, match=field):
            WangRateInputs(**{**WANG_BASE, field: math.nan})


OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(
    name=st.sampled_from(tuple(ESTIMATORS)),
    preset=st.sampled_from(("GYS", "KTH")),
    length=st.floats(0.0, 200.0),
    mu=st.floats(math.ulp(0.0), MU_MAX),
    nu1_frac=OPEN_UNIT,
    nu2_frac=OPEN_UNIT,
)
# mu**2 underflows to 0, or the Y1 bracket's divisor nu1 (mu - nu1) underflows or
# leaves mu / divisor infinite: a float division by zero or nan bounds before
@example(name="vacuum-weak", preset="GYS", length=40.0, mu=1e-300, nu1_frac=0.5, nu2_frac=0.5)
@example(name="one-decoy-trial", preset="GYS", length=40.0, mu=1e-170, nu1_frac=0.5,
         nu2_frac=0.5)
@example(name="two-decoy", preset="GYS", length=40.0, mu=1e-200, nu1_frac=0.5,
         nu2_frac=1e-201 / 5e-201)
@example(name="one-decoy-simple", preset="GYS", length=40.0, mu=0.5, nu1_frac=1e-323,
         nu2_frac=0.5)
@example(name="vacuum-weak", preset="GYS", length=40.0, mu=0.5, nu1_frac=2e-320, nu2_frac=0.5)
def test_every_estimator_rejects_or_gives_finite_bounds_and_rate(name, preset, length, mu,
                                                                   nu1_frac, nu2_frac):
    params = get_preset(preset)
    eta = transmittance(params, length).eta
    nu1 = nu1_frac * mu
    nu2 = nu2_frac * nu1 if ESTIMATORS[name].observes == TWO_DECOY else 0.0
    try:
        est = estimate_at(name, params, eta, mu, nu1, nu2)[1]
        r = estimator_rate(name, params, eta, mu, nu1, nu2)
    except ValidationError:
        return
    assert est is None or finite_fields(est)
    # -inf is the documented value of a degenerate tagged-fraction bound
    assert math.isfinite(r) or (name == "wang" and r == -math.inf)
