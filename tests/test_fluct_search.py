"""The allocation search's objective, the reach's early exit, and their counts.

The search evaluates only the worst-case rate (fluct._rate_lower), and a
reach probe stops at its first positive evaluation
(fluct._optimum_is_positive).  Both must give exactly what the full
computation gives.  The evaluation counts are deterministic, so they are
pinned: a change to the search that moves them should say so.
"""

import pytest

from decoyqkd import fluct
from decoyqkd.fluct import (
    DataAllocation,
    InsufficientDataError,
    fluctuated_bounds,
    max_distance_fluct,
    optimize_allocation,
)
from decoyqkd.model import GYS, KTH, transmittance
from decoyqkd.rate import get_estimator, optimal_mu

GYS_MU = optimal_mu(GYS)
KTH_MU = optimal_mu(KTH)


def make_alloc(n_total, w1, w2, u_alpha=10.0):
    return DataAllocation(
        n_total=n_total,
        n_signal=(1.0 - w1 - w2) * n_total,
        n_decoy1=w1 * n_total,
        n_decoy2=w2 * n_total,
        u_alpha=u_alpha,
    )


GRID = [
    (estimator, length, nu, w1, w2)
    for estimator in ("vacuum-weak", "one-decoy")
    for length in (20.0, 103.62, 125.0)
    for nu in (0.02, 0.12, 0.4)
    for w1, w2 in ((0.3, 0.05), (0.1, 0.0), (0.5, 0.3))
]


@pytest.mark.parametrize("estimator, length, nu, w1, w2", GRID)
def test_lean_objective_equals_fluctuated_bounds(estimator, length, nu, w1, w2):
    eta = transmittance(GYS, length).eta
    alloc = make_alloc(6.0e9, w1, w2, u_alpha=7.5)
    lean = fluct._rate_lower(GYS, eta, get_estimator(estimator, finite_size=True),
                             GYS_MU, nu, alloc)
    full = fluctuated_bounds(GYS, eta, (GYS_MU, nu, 0.0), alloc, estimator)
    assert lean == full.rate_lower


@pytest.mark.parametrize("estimator", ["vacuum-weak", "one-decoy"])
def test_lean_objective_raises_where_fluctuated_bounds_does(estimator):
    eta = transmittance(GYS, 100.0).eta
    alloc = DataAllocation(n_total=6.0e9, n_signal=5.7e9, n_decoy1=0.0, n_decoy2=0.3e9)
    row = get_estimator(estimator, finite_size=True)
    with pytest.raises(InsufficientDataError):
        fluct._rate_lower(GYS, eta, row, GYS_MU, 0.1, alloc)
    with pytest.raises(InsufficientDataError):
        fluctuated_bounds(GYS, eta, (GYS_MU, 0.1, 0.0), alloc, estimator)


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


def count_evaluations(monkeypatch, fn):
    """Calls of fluct.simulate_observations (one per objective evaluation) while fn runs."""
    calls = [0]
    original = fluct.simulate_observations

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(fluct, "simulate_observations", counted)
    return fn(), calls[0]


def test_reach_evaluation_count(monkeypatch):
    # 22,412 evaluations before the probes stopped at their first positive rate
    reach, n = count_evaluations(monkeypatch, lambda: max_distance_fluct(GYS, GYS_MU, 6.0e9))
    assert reach == 123.078125
    assert n == 3343


def test_table2_evaluation_count(monkeypatch):
    eta = transmittance(GYS, 103.62).eta
    res, n = count_evaluations(
        monkeypatch, lambda: optimize_allocation(GYS, eta, GYS_MU, 6.0e9, u_alpha=10.0)
    )
    assert f"{res.nu:.4f}" == "0.1206"
    assert n == 1108
