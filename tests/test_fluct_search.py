"""The worst-case rate kernel, the reach's early exit, and their counts.

fluctuated_bounds and the allocation search both evaluate one fused float
kernel (fluct._worst_case), and a reach probe stops at its first positive
evaluation (fluct._optimum_is_positive).  Both must give exactly what the
full computation gives: tests/fluct_oracle.py builds every intermediate
object, and is the kernel's oracle.  The evaluation counts are
deterministic, so they are pinned: a change to the search that moves
them should say so.
"""

import pytest
from fluct_oracle import oracle_fluctuated_bounds
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoyqkd import fluct
from decoyqkd.fluct import (
    DataAllocation,
    InsufficientDataError,
    fluctuated_bounds,
    max_distance_fluct,
    optimize_allocation,
    perturb_observations,
    scan_distance_fluct,
)
from decoyqkd.model import GYS, KTH, ValidationError, simulate_observations, transmittance
from decoyqkd.rate import ESTIMATORS, VACUUM_WEAK, get_estimator, optimal_mu

GYS_MU = optimal_mu(GYS)
KTH_MU = optimal_mu(KTH)


def search_rate(params, eta, estimator, mu, n_total, u_alpha, nu, w1, w2):
    """The kernel's (rate, Y1_hat, e1_hat) as the allocation search calls it at (nu, w1, w2)."""
    kernel = fluct._worst_case(params, eta, get_estimator(estimator, finite_size=True), mu)
    n1 = w1 * n_total
    n2 = w2 * n_total
    return kernel(nu, n1, n2, (n_total - n1 - n2) / (2.0 * n_total), u_alpha)


def outcome(fn):
    """repr(fn()), or the type and message of the ValidationError or float error it raises."""
    try:
        return repr(fn())
    except (ValidationError, ArithmeticError) as exc:
        return type(exc), str(exc)


def report_and_oracle(*args):
    """outcome() of fluctuated_bounds(*args) and of the oracle's composition."""
    return outcome(lambda: fluctuated_bounds(*args)), outcome(lambda: oracle_fluctuated_bounds(*args))


GRID = [
    (estimator, length, nu, w1, w2)
    for estimator in ("vacuum-weak", "one-decoy")
    for length in (20.0, 103.62, 125.0)
    for nu in (0.02, 0.12, 0.4)
    for w1, w2 in ((0.3, 0.05), (0.1, 0.0), (0.5, 0.3))
]


@pytest.mark.parametrize("estimator, length, nu, w1, w2", GRID)
def test_lean_objective_equals_fluctuated_bounds(estimator, length, nu, w1, w2):
    for params, mu in ((GYS, GYS_MU), (KTH, KTH_MU)):
        eta = transmittance(params, length).eta
        for u_alpha in (7.5, 0.0):
            args = (params, eta, (mu, nu, 0.0), fluct._make_alloc(6.0e9, w1, w2, u_alpha), estimator)
            fb = fluctuated_bounds(*args)
            assert repr(fb) == repr(oracle_fluctuated_bounds(*args))
            rate = search_rate(params, eta, estimator, mu, 6.0e9, u_alpha, nu, w1, w2)
            assert rate == (fb.rate_lower, fb.y1_hat_lower, fb.e1_hat_upper)


@pytest.mark.parametrize("estimator", ["vacuum-weak", "one-decoy"])
def test_lean_objective_raises_where_fluctuated_bounds_does(estimator):
    eta = transmittance(GYS, 100.0).eta
    alloc = DataAllocation(n_total=6.0e9, n_signal=5.7e9, n_decoy1=0.0, n_decoy2=0.3e9)
    with pytest.raises(InsufficientDataError):
        search_rate(GYS, eta, estimator, GYS_MU, 6.0e9, 10.0, 0.1, 0.0, 0.05)
    full, oracle = report_and_oracle(GYS, eta, (GYS_MU, 0.1, 0.0), alloc, estimator)
    assert full == oracle
    assert full[0] is InsufficientDataError


# one search point per clamp of the kernel, each checked below to reach it
CLAMPS = {
    "q1 floored at 0": dict(
        preset="GYS", estimator="one-decoy", length=25.2, log_n=4.8, u_alpha=9.6,
        mu_choice="optimal", nu_frac=0.31, w1=0.66, w2_frac=0.9, alloc_kind="search", pair=False),
    "e1 capped at 1": dict(
        preset="KTH", estimator="vacuum-weak", length=168.1, log_n=6.5, u_alpha=10.3,
        mu_choice=0.88, nu_frac=0.41, w1=0.3, w2_frac=0.0, alloc_kind="search", pair=False),
    "vacuum band floored at 0": dict(
        preset="GYS", estimator="vacuum-weak", length=144.6, log_n=5.1, u_alpha=6.5,
        mu_choice=0.12, nu_frac=0.87, w1=0.9, w2_frac=0.49, alloc_kind="search", pair=False),
    "e1_hat clamped to 0": dict(
        preset="KTH", estimator="vacuum-weak", length=13.5, log_n=4.4, u_alpha=3.6,
        mu_choice="optimal", nu_frac=0.12, w1=0.86, w2_frac=0.28, alloc_kind="search", pair=False),
    "e1_hat clamped to 0.5": dict(
        preset="GYS", estimator="vacuum-weak", length=147.1, log_n=9.1, u_alpha=11.2,
        mu_choice="optimal", nu_frac=0.04, w1=0.57, w2_frac=0.0, alloc_kind="search", pair=False),
    "Y1 floored at 0": dict(
        preset="KTH", estimator="one-decoy", length=7.3, log_n=11.7, u_alpha=5.8,
        mu_choice=1.1, nu_frac=0.96, w1=0.32, w2_frac=0.0, alloc_kind="search", pair=False),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(
    preset=st.sampled_from(("GYS", "KTH")),
    estimator=st.sampled_from(("vacuum-weak", "one-decoy")),
    length=st.floats(0.0, 180.0),
    log_n=st.floats(4.0, 12.0),
    u_alpha=st.one_of(st.just(0.0), st.floats(0.0, 12.0)),
    mu_choice=st.one_of(st.just("optimal"), st.just(0.0), st.floats(0.0, 1.2)),
    nu_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.999), st.floats(-0.5, 2.0)),
    w1=st.one_of(st.just(0.0), st.floats(1e-4, 0.9)),
    w2_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    alloc_kind=st.sampled_from(("search", "user", "no-signal")),
    pair=st.booleans(),
)
# mu = 800 overflows e^mu: both paths raise the estimators' message, and at nu = 0 the nu one
@example(preset="GYS", estimator="vacuum-weak", length=40.0, log_n=10.0, u_alpha=10.0,
         mu_choice=800.0, nu_frac=0.5, w1=0.3, w2_frac=0.2, alloc_kind="search", pair=False)
@example(preset="GYS", estimator="one-decoy", length=40.0, log_n=10.0, u_alpha=10.0,
         mu_choice=800.0, nu_frac=0.0, w1=0.3, w2_frac=0.0, alloc_kind="user", pair=True)
# mu**2 underflows, or mu / (nu (mu - nu)) has no finite value: the estimators' intensity message
@example(preset="GYS", estimator="vacuum-weak", length=40.0, log_n=10.0, u_alpha=10.0,
         mu_choice=1e-300, nu_frac=0.5, w1=0.3, w2_frac=0.2, alloc_kind="search", pair=False)
@example(preset="GYS", estimator="vacuum-weak", length=40.0, log_n=10.0, u_alpha=10.0,
         mu_choice=0.5, nu_frac=2e-320, w1=0.3, w2_frac=0.2, alloc_kind="search", pair=False)
@example(preset="KTH", estimator="one-decoy", length=40.0, log_n=10.0, u_alpha=0.0,
         mu_choice=0.5, nu_frac=1e-323, w1=0.3, w2_frac=0.0, alloc_kind="search", pair=True)
@example(**CLAMPS["q1 floored at 0"])
@example(**CLAMPS["e1 capped at 1"])
@example(**CLAMPS["vacuum band floored at 0"])
@example(**CLAMPS["e1_hat clamped to 0"])
@example(**CLAMPS["e1_hat clamped to 0.5"])
@example(**CLAMPS["Y1 floored at 0"])
def test_objective_is_fluctuated_bounds_bit_for_bit(preset, estimator, length, log_n, u_alpha,
                                                     mu_choice, nu_frac, w1, w2_frac,
                                                     alloc_kind, pair):
    params, mu = {"GYS": (GYS, GYS_MU), "KTH": (KTH, KTH_MU)}[preset]
    if mu_choice != "optimal":
        mu = mu_choice
    eta = transmittance(params, length).eta
    n_total = 10.0**log_n
    nu = nu_frac * mu if mu > 0.0 else nu_frac
    w2 = w2_frac * (fluct._W_MAX - w1)
    if alloc_kind == "search":
        alloc = fluct._make_alloc(n_total, w1, w2, u_alpha)
    elif alloc_kind == "user":  # n_signal can differ from N - N1 - N2 in the last bit
        alloc = DataAllocation(n_total, (1.0 - w1 - w2) * n_total, w1 * n_total,
                               w2 * n_total, u_alpha)
    else:
        alloc = DataAllocation(n_total, 0.0, w1 * n_total, n_total - w1 * n_total, u_alpha)
    intensities = (mu, nu) if pair else (mu, nu, 0.0)
    full, oracle = report_and_oracle(params, eta, intensities, alloc, estimator)
    # the same report, or the same exception with the same message
    assert full == oracle
    if alloc_kind == "search" and nu >= 0.0 and mu > 0.0:
        # the search's own call of the kernel, with nothing validated ahead of it
        def oracle_rate():
            fb = oracle_fluctuated_bounds(params, eta, intensities, alloc, estimator)
            return fb.rate_lower, fb.y1_hat_lower, fb.e1_hat_upper

        assert outcome(lambda: search_rate(params, eta, estimator, mu, n_total, u_alpha,
                                           nu, w1, w2)) == outcome(oracle_rate)


def clamps_reached(preset, estimator, length, log_n, u_alpha, mu_choice, nu_frac, w1, w2_frac,
                   alloc_kind, pair):
    """The CLAMPS keys that the object path reaches at one search point, either direction."""
    params, mu = {"GYS": (GYS, GYS_MU), "KTH": (KTH, KTH_MU)}[preset]
    if mu_choice != "optimal":
        mu = mu_choice
    alloc = fluct._make_alloc(10.0**log_n, w1, w2_frac * (fluct._W_MAX - w1), u_alpha)
    row = get_estimator(estimator, finite_size=True)
    vacuum = row.observes == VACUUM_WEAK and alloc.n_decoy2 > 0.0
    if not vacuum:
        row = ESTIMATORS["one-decoy"]
    ints = row.intensities(mu, nu_frac * mu)
    obs = simulate_observations(params, transmittance(params, length).eta, ints)
    reached = set()
    for direction in (+1, -1) if vacuum else (+1,):
        shifted = perturb_observations(obs, alloc, direction)
        est = row.estimate(shifted, ints)
        if shifted.q_nu1 == 0.0:
            reached.add("q1 floored at 0")
        elif shifted.e_nu1 == 1.0:
            reached.add("e1 capped at 1")
        if vacuum and direction == -1 and shifted.q_nu2 == 0.0:
            reached.add("vacuum band floored at 0")
        if est.y1_lower == 0.0:
            reached.add("Y1 floored at 0")
        elif est.e1_upper == 0.0:
            reached.add("e1_hat clamped to 0")
        elif est.e1_upper == 0.5:
            reached.add("e1_hat clamped to 0.5")
    return reached


@pytest.mark.parametrize("clamp", CLAMPS)
def test_each_clamp_example_reaches_its_clamp(clamp):
    assert clamp in clamps_reached(**CLAMPS[clamp])


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
    """(fn(), search evaluations, fluctuated_bounds calls) while fn runs.

    A search evaluation is one kernel call the search makes; the two
    that each fluctuated_bounds call makes are not counted.
    """
    calls = {"kernel": 0, "fluctuated_bounds": 0}
    in_bounds = []
    build, bounds = fluct._worst_case, fluct.fluctuated_bounds

    def counted_build(*args):
        kernel = build(*args)
        if in_bounds:
            return kernel

        def counted(*point):
            calls["kernel"] += 1
            return kernel(*point)

        return counted

    def counted_bounds(*args, **kwargs):
        calls["fluctuated_bounds"] += 1
        in_bounds.append(True)
        try:
            return bounds(*args, **kwargs)
        finally:
            in_bounds.pop()

    monkeypatch.setattr(fluct, "_worst_case", counted_build)
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


def test_warm_started_scan_pinned(monkeypatch):
    # each length seeds its search with the last optimum; 125 km is past the reach
    points, n, n_bounds = count_calls(
        monkeypatch, lambda: scan_distance_fluct(GYS, GYS_MU, 6.0e9, [20.0, 60.0, 100.0, 125.0]))
    assert [repr(p) for p in points] == [
        "ScanPoint(length_km=20.0, rate_lower=0.0007615512692223492, nu=0.04413831917509468, "
        "n_signal=5657187999.975581, n_decoy1=342812000.02441853, n_decoy2=0.0, "
        "key_bits=4569307.615334095, low_count_observables=())",
        "ScanPoint(length_km=60.0, rate_lower=8.692657938398857e-05, nu=0.07545181984018311, "
        "n_signal=5377408406.925327, n_decoy1=622591593.0746729, n_decoy2=0.0, "
        "key_bits=521559.4763039314, low_count_observables=())",
        "ScanPoint(length_km=100.0, rate_lower=5.7869309757010755e-06, nu=0.11631438785567137, "
        "n_signal=4351248525.077834, n_decoy1=1412160253.1112576, n_decoy2=236591221.81090876, "
        "key_bits=34721.58585420645, low_count_observables=())",
        "ScanPoint(length_km=125.0, rate_lower=-1.144193145000251e-06, nu=0.11631438785567137, "
        "n_signal=4351248525.077834, n_decoy1=1412160253.1112576, n_decoy2=236591221.81090876, "
        "key_bits=0.0, low_count_observables=())",
    ]
    assert (n, n_bounds) == (4914, 4)
