"""Finiteness checks at the library and CLI boundary.

Every validated constructor or function, given any float (nan and
+-inf included), either raises a ValidationError that names the field or
returns finite values; every float option of the CLI rejects nan and
+-inf before any computation, exiting 2 with the option's name.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyqkd import cli
from decoyqkd.fluct import DataAllocation, optimize_allocation
from decoyqkd.model import GYS, ValidationError, transmittance
from decoyqkd.rate import optimal_mu

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
