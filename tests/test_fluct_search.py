"""The worst-case rate kernel, the reach's probe, the scan's continuation, and their counts.

fluctuated_bounds and the allocation search both evaluate one fused float
kernel (fluct._worst_case), and a reach probe evaluates it only at the
undominated allocations of the path a search that finds no key walks
(fluct._probe_allocations).  Both must give exactly what the full
computation gives: tests/fluct_oracle.py builds every intermediate
object, and is the oracle of fluctuated_bounds, message for message, and of
the kernel on the domain it documents, which every search call keeps to;
helpers.flat_walk_positive, which evaluates the whole path, is the
oracle of the probe.  The evaluation counts are deterministic, so they
are pinned: a change to the search that moves them should say so.
"""
import dataclasses
import math

import pytest
from fluct_oracle import oracle_fluctuated_bounds
from helpers import flat_walk, flat_walk_positive, uncached_probe_allocations
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_search_relations import MUS, PRESETS, reach, sample

from decoyqkd import fluct, numerics
from decoyqkd.fluct import (
    AllocationResult,
    DataAllocation,
    InsufficientDataError,
    fluctuated_bounds,
    max_distance_fluct,
    optimize_allocation,
    perturb_observations,
    scan_distance_fluct,
)
from decoyqkd.model import GYS, KTH, ValidationError, simulate_observations, transmittance
from decoyqkd.numerics import find_zero_crossing
from decoyqkd.rate import ESTIMATORS, VACUUM_WEAK, get_estimator, optimal_mu, optimal_mu_wang

GYS_MU = optimal_mu(GYS)
KTH_MU = optimal_mu(KTH)


def runs_vacuum(params, estimator):
    """Whether the vacuum decoy runs: vacuum+weak, on a link with a background."""
    return get_estimator(estimator, finite_size=True).observes == VACUUM_WEAK and params.y0 != 0.0


def search_alloc(n_total, w1, w2, u_alpha):
    """The DataAllocation that fluct._report builds for a search point (nu, w1, w2)."""
    n1 = w1 * n_total
    n2 = w2 * n_total
    return DataAllocation(n_total, n_total - n1 - n2, n1, n2, u_alpha)


def search_rate(params, eta, estimator, mu, n_total, u_alpha, nu, w1, w2, *floor):
    """The kernel's (rate, Y1_hat, e1_hat) at the search point (nu, w1, w2).

    The kernel runs the vacuum+weak analysis when n2 > 0 and the one-decoy
    trial when n2 = 0, so where the vacuum does not run n2 is 0.  A
    ``floor`` is passed on to the kernel.
    """
    kernel = fluct._worst_case(params, eta, mu)
    n1 = w1 * n_total
    n2 = w2 * n_total
    q = (n_total - n1 - n2) / (2.0 * n_total)
    return kernel(nu, n1, n2 if runs_vacuum(params, estimator) else 0.0, q, u_alpha, *floor)


def outcome(fn):
    """repr(fn()), or the type and message of the ValidationError or float error it raises."""
    try:
        return repr(fn())
    except (ValidationError, ArithmeticError) as exc:
        return type(exc), str(exc)


def in_domain(mu, nu, q):
    """Whether a kernel call at (mu, nu, q) lies in the domain fluct._worst_case documents."""
    try:
        fluct._check_one_decoy_intensities(mu, nu)  # 0 < nu < mu, mu in range, finite prefactor
    except ValidationError:
        return False
    return 0.0 < q <= 1.0


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
    # the one-decoy rows with w2 > 0 hold the kernel at n2 = 0 to the one-decoy
    # report of an allocation with vacuum pulses
    for params, mu in ((GYS, GYS_MU), (KTH, KTH_MU)):
        eta = transmittance(params, length).eta
        for u_alpha in (7.5, 0.0):
            alloc = search_alloc(6.0e9, w1, w2, u_alpha)
            args = (params, eta, (mu, nu, 0.0), alloc, estimator)
            fb = fluctuated_bounds(*args)
            assert repr(fb) == repr(oracle_fluctuated_bounds(*args))
            rate = search_rate(params, eta, estimator, mu, 6.0e9, u_alpha, nu, w1, w2)
            assert rate == (fb.rate_lower, fb.y1_hat_lower, fb.e1_hat_upper)
            # the report the search hands back for the same point
            report = fluct._report(params, eta, mu, 6.0e9, u_alpha, estimator, (nu, w1, w2))
            assert repr(report) == repr(AllocationResult(alloc=alloc, nu=nu, result=fb))


@pytest.mark.parametrize("estimator", ["vacuum-weak", "one-decoy"])
def test_lean_objective_raises_where_fluctuated_bounds_does(estimator):
    eta = transmittance(GYS, 100.0).eta
    alloc = DataAllocation(n_total=6.0e9, n_signal=5.7e9, n_decoy1=0.0, n_decoy2=0.3e9)
    with pytest.raises(InsufficientDataError):
        search_rate(GYS, eta, estimator, GYS_MU, 6.0e9, 10.0, 0.1, 0.0, 0.05)
    full, oracle = report_and_oracle(GYS, eta, (GYS_MU, 0.1, 0.0), alloc, estimator)
    assert full == oracle
    assert full[0] is InsufficientDataError


def test_the_kernel_rejects_a_gain_above_one_where_the_model_does():
    # y0 + 1 - e^(-eta x) > 1: at mu the kernel's set-up raises, and the report at a
    # decoy intensity above mu, both with overall_gain's message
    bright = dataclasses.replace(GYS, y0=0.75)
    alloc = search_alloc(6.0e9, 0.3, 0.05, 10.0)
    for mu, nu in ((0.48, 0.12), (0.1, 2.0)):
        full, oracle = report_and_oracle(bright, 1.0, (mu, nu, 0.0), alloc, "vacuum-weak")
        assert full == oracle
        assert full[1].startswith("overall gain y0 + 1 - e^(-eta mu) = ")
        if nu < mu:  # a decoy above mu lies off the kernel's domain
            assert outcome(lambda: search_rate(bright, 1.0, "vacuum-weak", mu, 6.0e9, 10.0,
                                               nu, 0.3, 0.05)) == full


def test_the_kernel_rejects_a_zero_gain_rather_than_dividing_by_it():
    # with no background and eta = 1e-323, eta * nu underflows to 0 at a small decoy,
    # whose gain is then exactly 0: the kernel raises the model's message instead of
    # dividing by it
    with pytest.raises(ValidationError) as raised:
        optimize_allocation(dataclasses.replace(GYS, y0=0.0), 1e-323, 0.5, 6.0e9)
    assert str(raised.value) == "QBER undefined: overall gain is zero"


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
    "Y1 capped at 1": dict(
        preset="GYS", estimator="one-decoy", length=40.0, log_n=10.0, u_alpha=10.0,
        mu_choice=1e-7, nu_frac=0.1, w1=0.3, w2_frac=0.0, alloc_kind="search", pair=False),
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
# N2 * Y0 is subnormal, or underflows to 0 (w2 = 5e-324): betas inf, not a float error
@example(preset="GYS", estimator="vacuum-weak", length=0.0, log_n=4.0, u_alpha=10.0,
         mu_choice="optimal", nu_frac=0.5, w1=0.5, w2_frac=2.22916666666e-313,
         alloc_kind="search", pair=False)
@example(preset="GYS", estimator="vacuum-weak", length=0.0, log_n=4.0, u_alpha=0.0,
         mu_choice="optimal", nu_frac=0.5, w1=0.5, w2_frac=2.22916666666e-313,
         alloc_kind="search", pair=False)
@example(preset="GYS", estimator="vacuum-weak", length=0.0, log_n=4.0, u_alpha=0.0,
         mu_choice="optimal", nu_frac=0.5, w1=0.5, w2_frac=1e-323, alloc_kind="search", pair=False)
# nu >= mu and no weak-decoy pulses: the intensity error comes before the empty band's
@example(preset="GYS", estimator="vacuum-weak", length=40.0, log_n=10.0, u_alpha=10.0,
         mu_choice="optimal", nu_frac=1.5, w1=0.0, w2_frac=0.2, alloc_kind="user", pair=False)
@example(**CLAMPS["q1 floored at 0"])
@example(**CLAMPS["e1 capped at 1"])
@example(**CLAMPS["vacuum band floored at 0"])
@example(**CLAMPS["e1_hat clamped to 0"])
@example(**CLAMPS["e1_hat clamped to 0.5"])
@example(**CLAMPS["Y1 floored at 0"])
@example(**CLAMPS["Y1 capped at 1"])
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
        alloc = search_alloc(n_total, w1, w2, u_alpha)
    elif alloc_kind == "user":  # n_signal can differ from N - N1 - N2 in the last bit
        alloc = DataAllocation(n_total, (1.0 - w1 - w2) * n_total, w1 * n_total,
                               w2 * n_total, u_alpha)
    else:
        alloc = DataAllocation(n_total, 0.0, w1 * n_total, n_total - w1 * n_total, u_alpha)
    intensities = (mu, nu) if pair else (mu, nu, 0.0)
    full, oracle = report_and_oracle(params, eta, intensities, alloc, estimator)
    # the same report, or the same exception with the same message
    assert full == oracle
    if (alloc_kind == "search" and fluct._NU_MIN < 0.999 * mu and in_domain(mu, nu, alloc.q)
            and w1 > 0.0 and w2 >= 0.0 and w1 + w2 <= fluct._W_MAX):
        # a point the search can send: mu passes _search's checks, and (nu, w1, w2) its
        # evaluate's
        def oracle_rate():
            fb = oracle_fluctuated_bounds(params, eta, intensities, alloc, estimator)
            return fb.rate_lower, fb.y1_hat_lower, fb.e1_hat_upper

        assert outcome(lambda: search_rate(params, eta, estimator, mu, n_total, u_alpha,
                                           nu, w1, w2)) == outcome(oracle_rate)


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
)
@example(preset="GYS", estimator="vacuum-weak", length=40.0, log_n=10.0, u_alpha=10.0,
         mu_choice=800.0, nu_frac=0.5, w1=0.3, w2_frac=0.2)
@example(preset="GYS", estimator="vacuum-weak", length=40.0, log_n=10.0, u_alpha=10.0,
         mu_choice=0.5, nu_frac=2e-320, w1=0.3, w2_frac=0.2)
# the +1 direction's rate is negative, and the -1 direction's lower still
@example(preset="GYS", estimator="vacuum-weak", length=120.0, log_n=9.0, u_alpha=10.0,
         mu_choice="optimal", nu_frac=0.25, w1=0.5, w2_frac=0.1)
def test_a_floor_of_zero_keeps_the_clamped_rate(preset, estimator, length, log_n, u_alpha,
                                                mu_choice, nu_frac, w1, w2_frac):
    # the search passes floor 0 and clamps at 0: the kernel may stop at the first
    # direction whose rate is <= 0, and must give the same max(rate, 0) as the
    # default call, or raise the same exception; on the bit-for-bit test's domain
    params, mu = {"GYS": (GYS, GYS_MU), "KTH": (KTH, KTH_MU)}[preset]
    if mu_choice != "optimal":
        mu = mu_choice
    nu = nu_frac * mu if mu > 0.0 else nu_frac
    if nu < 0.0 or mu <= 0.0:
        return
    eta = transmittance(params, length).eta
    w2 = w2_frac * (fluct._W_MAX - w1)

    def clamped(*floor):
        rate = search_rate(params, eta, estimator, mu, 10.0**log_n, u_alpha, nu, w1, w2,
                           *floor)[0]
        return 0.0 if 0.0 > rate else rate

    assert outcome(lambda: clamped(0.0)) == outcome(clamped)


def test_a_floor_stops_at_the_first_direction_at_or_below_it():
    # the -1 direction decides this point's rate; a floor of 0 returns the +1 one
    eta = transmittance(GYS, 120.0).eta
    args = (GYS, eta, "vacuum-weak", GYS_MU, 1.0e9, 10.0, 0.25 * GYS_MU, 0.5,
            0.1 * (fluct._W_MAX - 0.5))
    assert search_rate(*args, 0.0)[0] > search_rate(*args)[0]
    assert search_rate(*args, 0.0)[0] < 0.0


def clamps_reached(preset, estimator, length, log_n, u_alpha, mu_choice, nu_frac, w1, w2_frac,
                   alloc_kind, pair):
    """The CLAMPS keys that the object path reaches at one search point, either direction."""
    params, mu = {"GYS": (GYS, GYS_MU), "KTH": (KTH, KTH_MU)}[preset]
    if mu_choice != "optimal":
        mu = mu_choice
    alloc = search_alloc(10.0**log_n, w1, w2_frac * (fluct._W_MAX - w1), u_alpha)
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
        if est.y1_lower == 1.0:
            reached.add("Y1 capped at 1")
    return reached


@pytest.mark.parametrize("clamp", CLAMPS)
def test_each_clamp_example_reaches_its_clamp(clamp):
    assert clamp in clamps_reached(**CLAMPS[clamp])


@pytest.mark.parametrize("mu, nu", [(1e-7, 1e-8), (1e-160, 1e-162)])
def test_a_yield_at_its_cap_has_unbounded_relative_errors(mu, nu):
    # like a floored Y1; at mu = 1e-160 the propagated terms would square past the float range
    eta = transmittance(GYS, 40.0).eta
    args = (GYS, eta, (mu, nu), DataAllocation(1.0e10, 7.0e9, 3.0e9, 0.0), "one-decoy")
    fb = fluctuated_bounds(*args)
    assert repr(fb) == repr(oracle_fluctuated_bounds(*args))
    assert (fb.y1_hat_lower, fb.beta_y1, fb.beta_e1) == (1.0, math.inf, math.inf)


def probe(params, eta, mu, n_total, estimator):
    """Whether a reach probe met a positive rate: max_distance_fluct's sign."""
    return fluct._reach_probe(params, mu, n_total, 10.0, estimator)(eta)


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
    early = probe(params, eta, mu, n_total, estimator)
    assert early == (full.result.rate_lower > 0.0) == expected


def dominates(big, small):
    """Whether kernel input ``big`` has at least ``small``'s pulses, at its nu and analysis."""
    return (big[0] == small[0] and (big[2] > 0.0) == (small[2] > 0.0)
            and big[1] >= small[1] and big[2] >= small[2])


@pytest.mark.parametrize("params, mu, n_total, estimator, kept", [
    (GYS, GYS_MU, 6.0e9, "vacuum-weak", 27),
    (GYS, GYS_MU, 6.0e9, "one-decoy", 13),
    (KTH, KTH_MU, 8.4e10, "vacuum-weak", 27),
    (KTH, KTH_MU, 1.0e8, "one-decoy", 13),
    (dataclasses.replace(GYS, y0=0.0), 0.5, 6.0e9, "vacuum-weak", 13),
])
def test_a_probe_keeps_the_undominated_allocations_of_the_flat_walk(params, mu, n_total,
                                                                    estimator, kept):
    walk = flat_walk(mu, n_total, runs_vacuum(params, estimator))
    probed = fluct._probe_allocations(params, mu, n_total, 10.0, estimator)
    assert len(probed) == kept
    # a subset of the walk, in its order, each allocation once
    assert probed == [point for point in dict.fromkeys(walk) if point in probed]
    # none dominates another, and each dropped one is dominated by one kept
    assert not any(dominates(a, b) for a in probed for b in probed if a != b)
    for point in walk:
        assert point in probed or any(dominates(other, point) for other in probed)


def test_a_probe_has_the_sign_of_the_whole_flat_walk():
    # at each SIGN_CASES length, and 0.05 km either side of each sampled reach
    cases = [(params, mu, n_total, 10.0, estimator, length)
             for params, mu, n_total, estimator, length, _ in SIGN_CASES]
    for preset, estimator, n_total, u_alpha, _ in sample():
        found = reach(preset, estimator, n_total, u_alpha)
        cases += [(PRESETS[preset], MUS[preset], n_total, u_alpha, estimator, found + step)
                  for step in (-0.05, 0.05)]
    signs = set()
    for params, mu, n_total, u_alpha, estimator, length in cases:
        eta = transmittance(params, length).eta
        sign = fluct._reach_probe(params, mu, n_total, u_alpha, estimator)(eta)
        assert sign == flat_walk_positive(params, eta, mu, n_total, u_alpha,
                                          runs_vacuum(params, estimator))
        signs.add(sign)
    assert signs == {True, False}


def test_a_probe_scales_the_cached_path_to_the_list_built_at_its_budget():
    # at each pinned reach's link and each sampled link, bit for bit
    links = [(params, mu, n_total, 10.0, estimator)
             for params, mu, n_total, estimator, *_ in REACH_PINS]
    links += [(PRESETS[preset], MUS[preset], n_total, u_alpha, estimator)
              for preset, estimator, n_total, u_alpha, _ in sample()]
    for link in links:
        assert fluct._probe_allocations(*link) == uncached_probe_allocations(*link)


def count_path_builds(monkeypatch):
    """Empty the probe-path cache; return a list of _descend's later calls' with_vacuum."""
    builds = []
    descend = fluct._descend

    def counted(worst_case, mu, n_total, u_alpha, with_vacuum, *rest):
        builds.append(with_vacuum)
        return descend(worst_case, mu, n_total, u_alpha, with_vacuum, *rest)

    fluct._flat_path.cache_clear()
    monkeypatch.setattr(fluct, "_descend", counted)
    return builds


def test_the_probe_path_is_built_once_per_mu_and_analysis(monkeypatch):
    builds = count_path_builds(monkeypatch)
    for n_total in (6.0e9, 8.4e10):
        for u_alpha in (5.0, 10.0):
            fluct._probe_allocations(GYS, GYS_MU, n_total, u_alpha, "vacuum-weak")
    assert builds == [True]
    fluct._probe_allocations(GYS, GYS_MU, 6.0e9, 10.0, "one-decoy")
    fluct._probe_allocations(KTH, KTH_MU, 6.0e9, 10.0, "vacuum-weak")
    assert builds == [True, False, True]
    assert fluct._flat_path.cache_info().hits == 3


def test_a_patched_flat_step_cap_builds_a_fresh_probe_path(monkeypatch):
    # the cap shapes the flat walk, so a path cached under another cap would be stale
    builds = count_path_builds(monkeypatch)
    link = (GYS, GYS_MU, 6.0e9, 10.0, "vacuum-weak")
    capped = fluct._probe_allocations(*link)
    monkeypatch.setattr(numerics, "_FLAT_STEPS", numerics._MAX_ITER)
    uncapped = fluct._probe_allocations(*link)
    assert builds == [True, True]
    assert uncapped == uncached_probe_allocations(*link) != capped


def test_each_pinned_reach_is_the_crossing_of_the_whole_flat_walk():
    for params, mu, n_total, estimator, pinned, *_ in REACH_PINS:
        vacuum = runs_vacuum(params, estimator)

        def sign(length):
            eta = transmittance(params, length).eta
            return 1.0 if flat_walk_positive(params, eta, mu, n_total, 10.0, vacuum) else -1.0

        reference = find_zero_crossing(sign, 1.0, fluct.REACH_LIMIT_KM, 8.0, x_tol=0.05)
        assert max_distance_fluct(params, mu, n_total, estimator=estimator) == reference == pinned


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    preset=st.sampled_from(("GYS", "KTH")),
    length_frac=st.floats(0.0, 1.0),
    log_n=st.floats(8.0, 12.0),
    u_alpha=st.floats(0.5, 12.0),
    nu_frac=st.floats(0.01, 0.99),
    w1s=st.lists(st.floats(1e-4, 0.9), min_size=2, max_size=2).map(sorted),
    w2_fracs=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=2).map(sorted),
    vacuum=st.booleans(),
)
# positive at the smaller allocation, near the GYS 6e9 vacuum+weak reach
@example(preset="GYS", length_frac=122.0 / 140.0, log_n=math.log10(6.0e9), u_alpha=10.0,
         nu_frac=0.25, w1s=[0.3, 0.5], w2_fracs=[0.1, 0.2], vacuum=True)
@example(preset="GYS", length_frac=118.0 / 140.0, log_n=math.log10(6.0e9), u_alpha=10.0,
         nu_frac=0.25, w1s=[0.4, 0.6], w2_fracs=[0.0, 0.0], vacuum=False)
def test_more_decoy_pulses_keep_a_positive_rate_positive(preset, length_frac, log_n, u_alpha,
                                                          nu_frac, w1s, w2_fracs, vacuum):
    # ROADMAP item 11's monotonicity, which lets a reach probe skip a dominated
    # allocation: at one length and nu, in one analysis, a rate > 0 at (n1, n2)
    # stays > 0 at any n1' >= n1, n2' >= n2
    params, mu, span = {"GYS": (GYS, GYS_MU, 140.0), "KTH": (KTH, KTH_MU, 80.0)}[preset]
    kernel = fluct._worst_case(params, transmittance(params, length_frac * span).eta, mu)
    n_total = 10.0**log_n
    w1, w1_big = w1s
    room = fluct._W_MAX - w1_big
    w2, w2_big = (f * room for f in w2_fracs) if vacuum else (0.0, 0.0)
    rates = []
    for a, b in ((w1, w2), (w1_big, w2_big)):
        n1, n2 = a * n_total, b * n_total
        rates.append(kernel(nu_frac * mu, n1, n2, (n_total - n1 - n2) / (2.0 * n_total),
                            u_alpha)[0])
    assert rates[1] > 0.0 or not rates[0] > 0.0


def count_calls(monkeypatch, fn):
    """(fn(), search evaluations, fluctuated_bounds calls) while fn runs.

    A search evaluation is one kernel call the search makes; the two
    that each fluctuated_bounds call makes are not counted.
    """
    n_points = n_bounds = 0
    in_bounds = []
    build, bounds = fluct._worst_case, fluct.fluctuated_bounds

    def counted_build(*args):
        kernel = build(*args)
        if in_bounds:
            return kernel

        def counted(*point):
            nonlocal n_points
            n_points += 1
            return kernel(*point)

        return counted

    def counted_bounds(*args, **kwargs):
        nonlocal n_bounds
        n_bounds += 1
        in_bounds.append(True)
        try:
            return bounds(*args, **kwargs)
        finally:
            in_bounds.pop()

    with monkeypatch.context() as patch:
        patch.setattr(fluct, "_worst_case", counted_build)
        patch.setattr(fluct, "fluctuated_bounds", counted_bounds)
        result = fn()
    return result, n_points, n_bounds


# (reach, search evaluations, fluctuated_bounds calls).  22,412 GYS
# evaluations before the probes stopped at their first positive rate;
# (3,336 / 1,131 / 2,807) before the w2 = 0 corner was optimized once per
# search and each probe started at the last positive point; (7 / 5 / 6)
# fluctuated_bounds calls, one per negative probe, before a probe read its
# sign from the search alone; (2,209 / 975 / 2,045) before the probes
# started afresh at each length from two default seeds, not three;
# (1,607 / 644 / 1,419) before a flat line search stopped after 8 tied steps;
# (694 / 289 / 609) before a probe evaluated only the undominated allocations
# of the path a search that finds no key walks
REACH_PINS = [
    (GYS, GYS_MU, 6.0e9, "vacuum-weak", 123.078125, 207, 0),
    (GYS, GYS_MU, 6.0e9, "one-decoy", 120.265625, 84, 0),
    (KTH, KTH_MU, 8.4e10, "vacuum-weak", 66.765625, 193, 0),
]
# (search evaluations, fluctuated_bounds calls) of table2's optimization and
# of the pinned scan over SCAN_LENGTHS
TABLE2_COUNTS = (134, 1)
SCAN_LENGTHS = [20.0, 60.0, 100.0, 125.0]
SCAN_COUNTS = (538, 4)


def test_reach_evaluation_count(monkeypatch):
    for params, mu, n_total, estimator, reach, evaluations, n_bounds in REACH_PINS:
        found = count_calls(
            monkeypatch, lambda: max_distance_fluct(params, mu, n_total, estimator=estimator))
        assert found == (reach, evaluations, n_bounds)


def test_table2_evaluation_count(monkeypatch):
    # 1,107 evaluations before the w2 = 0 corner was optimized once per search,
    # 799 before the default seeds went from three to two, 567 before the
    # line searches took Brent steps once they saw two unequal values, and 253
    # before the search stopped at the first seed that finds key and each line
    # search started from the incumbent
    eta = transmittance(GYS, 103.62).eta
    res, n, n_bounds = count_calls(
        monkeypatch, lambda: optimize_allocation(GYS, eta, GYS_MU, 6.0e9, u_alpha=10.0)
    )
    assert f"{res.nu:.4f}" == "0.1206"
    assert (n, n_bounds) == TABLE2_COUNTS


def test_warm_started_scan_pinned(monkeypatch):
    # 20 km runs the seeds up to the first that finds key; each later length
    # descends from the last optimum alone, and 125 km, past the reach, adds
    # the seeds back.  One corner
    # search cut 4,914 evaluations to 3,367, and the one descent to 1,821;
    # it raised R_L at 100 km from 5.7869309757010755e-06.  Two default seeds
    # instead of three cut them to 1,508 and moved R_L at 20 km from
    # 0.0007615513059530284.  Brent steps in the line searches cut them to 967
    # and moved every point, e.g. R_L at 20 km from 0.0007615513055773012 and at
    # 100 km from 5.786930988631158e-06.  One descent tolerance, 3e-5 where the
    # descent from the last optimum stopped at 1e-6, cut them to 931 and moved
    # R_L at 100 km from 5.786930988092023e-06.  A flat line search that stops
    # after 8 tied steps cut them to 760 and moved no point.  Stopping at the
    # first seed that finds key cut them to 602 and moved no point; each line
    # search starting from the incumbent cut them to 561 and moved every point,
    # e.g. R_L at 20 km from 0.0007615513059165533 and at 100 km from
    # 5.786930827031694e-06.  Refining the w2 = 0 corner at a later length only
    # where the last optimum lay on it cut them to 538 and moved no point: the
    # corner still ran at 60 and 100 km, after optima on it, and not at 125 km,
    # after 100 km's optimum with vacuum pulses
    points, n, n_bounds = count_calls(
        monkeypatch, lambda: scan_distance_fluct(GYS, GYS_MU, 6.0e9, SCAN_LENGTHS))
    assert [repr(p) for p in points] == [
        "ScanPoint(length_km=20.0, rate_lower=0.0007615513059031672, nu=0.04417958129624563, "
        "n_signal=5657264158.279506, n_decoy1=342735841.7204945, n_decoy2=0.0, "
        "key_bits=4569307.835419004, low_count_observables=())",
        "ScanPoint(length_km=60.0, rate_lower=8.69265794512511e-05, nu=0.07544611686574132, "
        "n_signal=5377401951.240931, n_decoy1=622598048.7590696, n_decoy2=0.0, "
        "key_bits=521559.47670750663, low_count_observables=())",
        "ScanPoint(length_km=100.0, rate_lower=5.7869308189017e-06, nu=0.11631463712891922, "
        "n_signal=4350749148.863824, n_decoy1=1412691364.4916942, n_decoy2=236559486.6444813, "
        "key_bits=34721.584913410195, low_count_observables=())",
        "ScanPoint(length_km=125.0, rate_lower=-1.1436972182051224e-06, nu=0.11631463712891922, "
        "n_signal=4350749148.863824, n_decoy1=1412691364.4916942, n_decoy2=236559486.6444813, "
        "key_bits=0.0, low_count_observables=())",
    ]
    assert (n, n_bounds) == SCAN_COUNTS


def test_every_search_call_lies_in_the_kernel_domain(monkeypatch):
    # the kernel checks nothing that _search or fluctuated_bounds' entry checks
    # guarantee: table2, the pinned reaches and the pinned scan keep to its domain
    calls = []
    build = fluct._worst_case

    def recorded_build(params, eta, mu):
        kernel = build(params, eta, mu)

        def recorded(nu, n1, n2, q, u_alpha, *floor):
            calls.append((mu, nu, q))
            return kernel(nu, n1, n2, q, u_alpha, *floor)

        return recorded

    monkeypatch.setattr(fluct, "_worst_case", recorded_build)
    optimize_allocation(GYS, transmittance(GYS, 103.62).eta, GYS_MU, 6.0e9, u_alpha=10.0)
    for params, mu, n_total, estimator, *_ in REACH_PINS:
        max_distance_fluct(params, mu, n_total, estimator=estimator)
    scan_distance_fluct(GYS, GYS_MU, 6.0e9, SCAN_LENGTHS)
    # the pinned search evaluations, and two kernel calls per fluctuated_bounds call
    pinned = [TABLE2_COUNTS, SCAN_COUNTS] + [(n, n_bounds) for *_, n, n_bounds in REACH_PINS]
    assert len(calls) == sum(n + 2 * n_bounds for n, n_bounds in pinned)
    assert [call for call in calls if not in_domain(*call)] == []


def answers(draws):
    """repr of the pinned reaches, probe signs, scan and table2 optimum, of optimal_mu_wang,
    and of the reach and the optimum at each (preset, estimator, N, u_alpha, L) draw."""
    found = [max_distance_fluct(params, mu, n_total, estimator=estimator)
             for params, mu, n_total, estimator, *_ in REACH_PINS]
    found += [probe(params, transmittance(params, length).eta, mu, n_total, estimator)
              for params, mu, n_total, estimator, length, _ in SIGN_CASES]
    found.append(scan_distance_fluct(GYS, GYS_MU, 6.0e9, SCAN_LENGTHS))
    found.append(optimize_allocation(GYS, transmittance(GYS, 103.62).eta, GYS_MU, 6.0e9))
    # at 150 km no mu gives a positive weak-bound rate: the answer is that error
    found += [outcome(lambda: optimal_mu_wang(GYS, length))
              for length in (None, 50.0, 100.0, 150.0)]
    for preset, estimator, n_total, u_alpha, length in draws:
        params, mu = {"GYS": (GYS, GYS_MU), "KTH": (KTH, KTH_MU)}[preset]
        found.append(max_distance_fluct(params, mu, n_total, u_alpha, estimator))
        found.append(optimize_allocation(params, transmittance(params, length).eta, mu, n_total,
                                         u_alpha, estimator))
    return repr(found)


def test_stopping_a_flat_line_search_after_8_steps_changes_no_answer(monkeypatch):
    # _FLAT_STEPS = _MAX_ITER is the walk to the tolerance that the cap replaced
    draws = sample()[:20]
    capped = answers(draws)
    monkeypatch.setattr(numerics, "_FLAT_STEPS", numerics._MAX_ITER)
    assert answers(draws) == capped


def kernel_grid_best(params, eta, mu, n_total, estimator, size=16):
    """The best positive rate on a size**3 kernel grid over (nu, w1, w2), w2 = 0 included, or None."""
    kernel = fluct._worst_case(params, eta, mu)
    vacuum = runs_vacuum(params, estimator)
    nu_hi = 0.999 * mu
    best = None
    for i in range(size):
        nu = fluct._NU_MIN + (nu_hi - fluct._NU_MIN) * i / (size - 1)
        for j in range(size):
            w1 = 0.01 + (fluct._W_MAX - 0.02) * j / (size - 1)
            for k in range(size):
                w2 = (fluct._W_MAX - 0.01) * k / (size - 1)
                if w1 + w2 > fluct._W_MAX:
                    break
                n1, n2 = w1 * n_total, w2 * n_total
                try:
                    rate = kernel(nu, n1, n2 if vacuum else 0.0,
                                  (n_total - n1 - n2) / (2.0 * n_total), 10.0)[0]
                except InsufficientDataError:
                    continue
                if rate > 0.0 and (best is None or rate > best):
                    best = rate
    return best


@pytest.mark.parametrize("estimator", ["vacuum-weak", "one-decoy"])
@pytest.mark.parametrize("params, mu, n_total, length", [
    (GYS, GYS_MU, 6.0e9, length) for length in (5.0, 20.0, 60.0, 100.0, 103.62, 115.0)
] + [
    (KTH, KTH_MU, 8.4e10, length) for length in (5.0, 30.0, 55.0, 62.0)
])
def test_search_is_at_least_the_best_of_a_kernel_grid(params, mu, n_total, length, estimator):
    # a check on the search that does not run it: no grid point beats the optimum
    eta = transmittance(params, length).eta
    grid = kernel_grid_best(params, eta, mu, n_total, estimator)
    if grid is not None:
        found = optimize_allocation(params, eta, mu, n_total, estimator=estimator)
        assert found.result.rate_lower >= grid


# the optimum at GYS 50 km, N = 6e10, mu = 0.1 when a third seed,
# (0.05, 0.20, 0.02), started inside the nu box
@pytest.mark.parametrize("estimator, three_seed_optimum", [
    ("vacuum-weak", 7.607138383149196e-05),
    ("one-decoy", 7.559859008329348e-05),
])
def test_the_search_finds_the_box_when_no_seed_starts_inside_it(estimator, three_seed_optimum):
    # every seed's nu lies above mu, so each evaluates off the box until its
    # first nu line search finds (0, mu)
    mu = 0.1
    assert all(nu >= mu for nu, _, _ in fluct._DEFAULT_SEEDS)
    eta = transmittance(GYS, 50.0).eta
    found = optimize_allocation(GYS, eta, mu, 6.0e10, estimator=estimator)
    assert found.result.rate_lower == pytest.approx(three_seed_optimum, rel=1e-6)


@pytest.mark.parametrize("nu, edge", [
    (1e-3 + 1.0e-5, "lower edge nu = 0.001"),
    (1e-3 + 1.1e-5, None),
    (0.2, None),
    (0.4995 - 1.1e-5, None),
    (0.4995 - 1.0e-5, "upper edge nu = 0.999 mu"),
])
def test_a_nu_within_the_line_search_width_of_the_box_lies_on_its_edge(nu, edge):
    # at mu = 0.5 the nu box is [1e-3, 0.4995], and the width 1e-5 + 1e-6 * 0.4995
    expected = [] if edge is None else [f"nu_opt lies on the decoy search's {edge}"]
    assert fluct._box_edges(0.5, nu, 0.3, 0.05) == expected


@pytest.mark.parametrize("w1, w2, edges", [
    # w1's width is 1e-5 + 1e-6 * 0.98, w2's 1e-5 + 1e-6 * (0.98 - w1)
    (1e-4 + 1.09e-5, 0.05, ["N_1 lies on the allocation search's lower edge N_1 = 0.0001 N"]),
    (1e-4 + 1.1e-5, 0.05, []),
    (0.98 - 1.09e-5, 0.0, ["N_1 lies on the allocation search's upper edge N_1 = 0.98 N"]),
    (0.3, 1e-6 + 1.06e-5, ["N_2 lies on the allocation search's lower edge N_2 = 1e-06 N"]),
    (0.3, 1e-6 + 1.1e-5, []),
    (0.3, 0.68 - 1.06e-5, ["N_2 lies on the allocation search's upper edge N_1 + N_2 = 0.98 N"]),
    (0.3, 0.68 - 1.1e-5, []),
    # w2 = 0 is the one-decoy corner, no edge
    (0.3, 0.0, []),
    (1e-4, 1e-6, ["N_1 lies on the allocation search's lower edge N_1 = 0.0001 N",
                  "N_2 lies on the allocation search's lower edge N_2 = 1e-06 N"]),
])
def test_a_pulse_fraction_within_the_line_search_width_of_the_box_lies_on_its_edge(w1, w2, edges):
    assert fluct._box_edges(0.5, 0.2, w1, w2) == edges


@pytest.mark.parametrize("y0", [1.7e-6, 1e-7, 1e-8, 1e-10, 0.0])
@pytest.mark.parametrize("n_total", [6.0e9, 1.0e11])
def test_vacuum_weak_reaches_at_least_as_far_as_one_decoy(y0, n_total):
    # at low y0 the w2 = 0 corner, which is the one-decoy analysis, decides
    # the vacuum+weak reach, so a weaker corner search would shorten it
    params = dataclasses.replace(GYS, y0=y0)
    vacuum_weak = max_distance_fluct(params, GYS_MU, n_total)
    one_decoy = max_distance_fluct(params, GYS_MU, n_total, estimator="one-decoy")
    assert one_decoy is not None
    assert vacuum_weak >= one_decoy
    if (y0, n_total) == (1e-7, 6.0e9):
        assert vacuum_weak == one_decoy == 157.953125


# (lengths, the lengths where the scan restarts from the default seeds): the
# first, and each one where the descent from the last optimum finds no
# positive rate; past the reach, or after a jump the warm start cannot bridge.
# fig4's budget on GYS and fig6's on KTH
FIG4_LENGTHS = (5.0, 33.0, 61.0, 89.0, 105.0, 117.0, 125.0)
FIG6_LENGTHS = (2.0, 24.0, 46.0, 55.0, 62.0, 70.0)
CONTINUATIONS = [
    (GYS, GYS_MU, 6.0e9, "vacuum-weak", FIG4_LENGTHS, (5.0, 125.0)),
    (GYS, GYS_MU, 6.0e9, "one-decoy", FIG4_LENGTHS, (5.0, 125.0)),
    (KTH, KTH_MU, 8.4e10, "vacuum-weak", FIG6_LENGTHS, (2.0, 70.0)),
    (KTH, KTH_MU, 8.4e10, "one-decoy", FIG6_LENGTHS, (2.0, 62.0, 70.0)),
    (GYS, GYS_MU, 6.0e9, "vacuum-weak", (5.0, 120.0, 60.0), (5.0, 120.0)),
]


def all_seed_optimum(params, eta, mu, n_total, u_alpha, estimator):
    """The best rate_lower of a descent from each default seed, each with its w2 = 0 corner.

    The search itself stops at the first seed that finds key.  Here every
    seed runs as a warm point, which descends alone when it finds key and
    then refines the corner, so the reference does not rest on that rule.
    """
    return max(
        fluct._report(params, eta, mu, n_total, u_alpha, estimator,
                      fluct._search(params, eta, mu, n_total, u_alpha, estimator, warm=seed)
                      ).result.rate_lower
        for seed in fluct._DEFAULT_SEEDS
    )


def test_the_first_seed_that_finds_key_keeps_the_all_seed_optimum():
    # on the first 20 sampled links, inside each reach, and at table2
    for preset, estimator, n_total, u_alpha, length in sample()[:20] + [
            ("GYS", "vacuum-weak", 6.0e9, 10.0, 103.62)]:
        params, mu = {"GYS": (GYS, GYS_MU), "KTH": (KTH, KTH_MU)}[preset]
        eta = transmittance(params, length).eta
        found = optimize_allocation(params, eta, mu, n_total, u_alpha, estimator)
        reference = all_seed_optimum(params, eta, mu, n_total, u_alpha, estimator)
        assert reference > 0.0
        assert found.result.rate_lower >= reference * (1.0 - 1e-6)


@pytest.mark.parametrize("params, mu, n_total, estimator, lengths, restarts", CONTINUATIONS)
def test_continuation_scan_keeps_the_all_seed_optimum(monkeypatch, params, mu, n_total,
                                                      estimator, lengths, restarts):
    # one descent from the last optimum reaches what every default seed reaches
    seen, restarted = [], []

    class Seeds(tuple):
        def __iter__(self):
            restarted.append(seen[-1])
            return super().__iter__()

    monkeypatch.setattr(fluct, "transmittance", lambda p, length: seen.append(length) or
                        transmittance(p, length))
    monkeypatch.setattr(fluct, "_DEFAULT_SEEDS", Seeds(fluct._DEFAULT_SEEDS))
    points = scan_distance_fluct(params, mu, n_total, lengths, estimator=estimator)
    assert tuple(restarted) == restarts
    for point in points:
        eta = transmittance(params, point.length_km).eta
        full = all_seed_optimum(params, eta, mu, n_total, 10.0, estimator)
        assert max(point.rate_lower, 0.0) >= full * (1.0 - 1e-6)


def test_fluctuated_bounds_on_a_link_with_no_background_is_one_decoy():
    # with y0 = 0 the vacuum decoy records nothing, whatever its pulse count
    params = dataclasses.replace(GYS, y0=0.0)
    eta = transmittance(params, 50.0).eta
    alloc = DataAllocation(6.0e9, 5.0e9, 8.0e8, 2.0e8)
    assert (fluctuated_bounds(params, eta, (0.5, 0.05, 0.0), alloc)
            == fluctuated_bounds(params, eta, (0.5, 0.05), alloc, estimator="one-decoy"))


def test_a_link_with_no_background_runs_the_one_decoy_analysis():
    # with y0 = 0 the vacuum decoy records nothing, so vacuum+weak is one-decoy;
    # R_L was 1.5917159522453402e-4 at nu 0.05077663986346922 before one descent
    # tolerance, 3e-5 where a cold search stopped at 1e-4, and 1.591716203594125e-4
    # at nu 0.0508523452661398 before each line search started from the incumbent
    params = dataclasses.replace(GYS, y0=0.0)
    eta = transmittance(params, 50.0).eta
    for estimator in ("vacuum-weak", "one-decoy"):
        res = optimize_allocation(params, eta, 0.5, 6.0e9, estimator=estimator)
        assert (res.result.rate_lower, res.nu, res.alloc.n_decoy2) == (
            1.5917162033254257e-4, 0.05085162264480231, 0.0)
        assert max_distance_fluct(params, 0.5, 6.0e9, estimator=estimator) == 172.453125
