"""The allocation search's objective, the reach's early exit, and their counts.

The search evaluates a fused float kernel (fluct._objective), and a
reach probe stops at its first positive evaluation
(fluct._optimum_is_positive).  Both must give exactly what the full
computation gives: fluctuated_bounds, which builds every intermediate
object, is the kernel's oracle.  The evaluation counts are
deterministic, so they are pinned: a change to the search that moves
them should say so.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyqkd import fluct
from decoyqkd.fluct import (
    DataAllocation,
    InsufficientDataError,
    fluctuated_bounds,
    max_distance_fluct,
    optimize_allocation,
)
from decoyqkd.model import GYS, KTH, ValidationError, transmittance
from decoyqkd.rate import get_estimator, optimal_mu

GYS_MU = optimal_mu(GYS)
KTH_MU = optimal_mu(KTH)


GRID = [
    (estimator, length, nu, w1, w2)
    for estimator in ("vacuum-weak", "one-decoy")
    for length in (20.0, 103.62, 125.0)
    for nu in (0.02, 0.12, 0.4)
    for w1, w2 in ((0.3, 0.05), (0.1, 0.0), (0.5, 0.3))
]


@pytest.mark.parametrize("estimator, length, nu, w1, w2", GRID)
def test_lean_objective_equals_fluctuated_bounds(estimator, length, nu, w1, w2):
    row = get_estimator(estimator, finite_size=True)
    for params, mu in ((GYS, GYS_MU), (KTH, KTH_MU)):
        eta = transmittance(params, length).eta
        for u_alpha in (7.5, 0.0):
            kernel = fluct._objective(params, eta, row, mu, 6.0e9, u_alpha)
            alloc = fluct._make_alloc(6.0e9, w1, w2, u_alpha)
            full = fluctuated_bounds(params, eta, (mu, nu, 0.0), alloc, estimator)
            assert kernel(nu, w1, w2) == full.rate_lower


@pytest.mark.parametrize("estimator", ["vacuum-weak", "one-decoy"])
def test_lean_objective_raises_where_fluctuated_bounds_does(estimator):
    eta = transmittance(GYS, 100.0).eta
    alloc = DataAllocation(n_total=6.0e9, n_signal=5.7e9, n_decoy1=0.0, n_decoy2=0.3e9)
    kernel = fluct._objective(GYS, eta, get_estimator(estimator, finite_size=True),
                              GYS_MU, 6.0e9, 10.0)
    with pytest.raises(InsufficientDataError):
        kernel(0.1, 0.0, 0.05)
    with pytest.raises(InsufficientDataError):
        fluctuated_bounds(GYS, eta, (GYS_MU, 0.1, 0.0), alloc, estimator)


def outcome(fn):
    """fn()'s value, or the type and message of the ValidationError it raises."""
    try:
        return fn()
    except ValidationError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    preset=st.sampled_from(("GYS", "KTH")),
    estimator=st.sampled_from(("vacuum-weak", "one-decoy")),
    length=st.floats(0.0, 180.0),
    log_n=st.floats(4.0, 12.0),
    u_alpha=st.one_of(st.just(0.0), st.floats(0.0, 12.0)),
    nu_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
    w1=st.one_of(st.just(0.0), st.floats(1e-4, 0.9)),
    w2_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_objective_is_fluctuated_bounds_bit_for_bit(preset, estimator, length, log_n, u_alpha,
                                                     nu_frac, w1, w2_frac):
    params, mu = {"GYS": (GYS, GYS_MU), "KTH": (KTH, KTH_MU)}[preset]
    eta = transmittance(params, length).eta
    n_total = 10.0**log_n
    nu = nu_frac * mu
    w2 = w2_frac * (fluct._W_MAX - w1)
    kernel = fluct._objective(params, eta, get_estimator(estimator, finite_size=True),
                              mu, n_total, u_alpha)
    alloc = fluct._make_alloc(n_total, w1, w2, u_alpha)
    expected = outcome(lambda: fluctuated_bounds(
        params, eta, (mu, nu, 0.0), alloc, estimator).rate_lower)
    # the same float, or the same exception with the same message
    assert outcome(lambda: kernel(nu, w1, w2)) == expected


# lengths just inside and just beyond each reach
SIGN_CASES = [
    (GYS, GYS_MU, 6.0e9, "vacuum-weak", 123.0, True),
    (GYS, GYS_MU, 6.0e9, "vacuum-weak", 123.1, False),
    (GYS, GYS_MU, 6.0e9, "one-decoy", 120.2, True),
    (GYS, GYS_MU, 6.0e9, "one-decoy", 120.3, False),
    (KTH, KTH_MU, 8.4e10, "vacuum-weak", 66.7, True),
    (KTH, KTH_MU, 8.4e10, "vacuum-weak", 66.8, False),
]


@pytest.mark.parametrize("params, mu, n_total, estimator, length, expected", SIGN_CASES)
def test_early_exit_sign_equals_the_full_optimum(params, mu, n_total, estimator, length,
                                                 expected):
    eta = transmittance(params, length).eta
    full = optimize_allocation(params, eta, mu, n_total, estimator=estimator)
    early = fluct._optimum_is_positive(params, eta, mu, n_total, 10.0, estimator)
    assert early == (full.result.rate_lower > 0.0) == expected


def count_calls(monkeypatch, fn):
    """(fn(), kernel evaluations, fluctuated_bounds calls) while fn runs."""
    calls = {"kernel": 0, "fluctuated_bounds": 0}
    objective, bounds = fluct._objective, fluct.fluctuated_bounds

    def counted_objective(*args):
        kernel = objective(*args)

        def counted(*point):
            calls["kernel"] += 1
            return kernel(*point)

        return counted

    def counted_bounds(*args, **kwargs):
        calls["fluctuated_bounds"] += 1
        return bounds(*args, **kwargs)

    monkeypatch.setattr(fluct, "_objective", counted_objective)
    monkeypatch.setattr(fluct, "fluctuated_bounds", counted_bounds)
    return fn(), calls["kernel"], calls["fluctuated_bounds"]


def test_reach_evaluation_count(monkeypatch):
    # 22,412 evaluations before the probes stopped at their first positive
    # rate; 3,343 = 3,336 + 7 after, one fluctuated_bounds per negative probe
    reach, n, n_bounds = count_calls(
        monkeypatch, lambda: max_distance_fluct(GYS, GYS_MU, 6.0e9))
    assert reach == 123.078125
    assert (n, n_bounds) == (3336, 7)


def test_table2_evaluation_count(monkeypatch):
    eta = transmittance(GYS, 103.62).eta
    res, n, n_bounds = count_calls(
        monkeypatch, lambda: optimize_allocation(GYS, eta, GYS_MU, 6.0e9, u_alpha=10.0)
    )
    assert f"{res.nu:.4f}" == "0.1206"
    assert (n, n_bounds) == (1107, 1)
