"""Relations that any correct allocation search satisfies, whatever path it takes.

A value pinned from the search's own output only shows that it was
pinned.  The model orders some optima without computing them: more
pulses keep every allocation feasible and narrow every band, a wider
band and a longer link only lower the worst-case rate, the vacuum+weak
search contains the one-decoy analysis as its w2 = 0 corner, an optimum
that leaves that corner along rising lengths does not return to it, and
no finite-size rate beats perfect single-photon knowledge.  Each test checks
one such relation on two seeded samples of links, so a search change that
breaks it fails here, and re-recording cannot mend it.  The second sample
draws small pulse budgets, 10^6-10^8.5, where the search's reach falls
furthest short and some optima rest on fewer than fluct.LOW_COUNT_FLOOR
expected events.

R* is optimize_allocation's rate_lower at a length L drawn inside the
reach; reaches and optima are computed once per sample point and shared.
"""

import functools
import random

import pytest

from decoyqkd import fluct
from decoyqkd.fluct import max_distance_fluct, optimize_allocation, scan_distance_fluct
from decoyqkd.model import GYS, KTH, transmittance
from decoyqkd.rate import FINITE_SIZE_ESTIMATORS, asymptotic_rate, optimal_mu

PRESETS = {"GYS": GYS, "KTH": KTH}
MUS = {name: optimal_mu(params) for name, params in PRESETS.items()}
REL = 1e-9  # each monotone relation holds to rounding, not to the search's tolerance
ORDER_REL = 1e-6  # vacuum+weak against one-decoy: two searches, each to its own precision
CORNER_FRACTIONS = tuple(i / 10.0 for i in range(1, 10))  # ascending lengths, in reaches
SAMPLES = {"search-relations": (8.5, 11.5), "low-budget": (6.0, 8.5)}  # seed: log10 N range


@functools.lru_cache(maxsize=None)
def sample(seed="search-relations"):
    """(preset, estimator, N, u_alpha, L) draws, L inside the reach at (N, u_alpha)."""
    rng = random.Random(seed)
    points = []
    for _ in range(60):
        preset = rng.choice(sorted(PRESETS))
        estimator = rng.choice(FINITE_SIZE_ESTIMATORS)
        n_total = 10.0 ** rng.uniform(*SAMPLES[seed])
        u_alpha = rng.uniform(3.0, 10.0)
        fraction = rng.uniform(0.3, 0.98)
        points.append((preset, estimator, n_total, u_alpha,
                       fraction * reach(preset, estimator, n_total, u_alpha)))
    return points


@functools.lru_cache(maxsize=None)
def reach(preset, estimator, n_total, u_alpha):
    """The finite-size reach in km, 0 where the rate is not positive at 1 km."""
    found = max_distance_fluct(PRESETS[preset], MUS[preset], n_total, u_alpha, estimator)
    return 0.0 if found is None else found


@functools.lru_cache(maxsize=None)
def report(preset, estimator, n_total, u_alpha, length):
    """The optimized allocation's report at one length."""
    params = PRESETS[preset]
    eta = transmittance(params, length).eta
    return optimize_allocation(params, eta, MUS[preset], n_total, u_alpha, estimator).result


def optimum(preset, estimator, n_total, u_alpha, length):
    """R*: the optimized worst-case key per pulse at one length."""
    return report(preset, estimator, n_total, u_alpha, length).rate_lower


@functools.lru_cache(maxsize=None)
def on_corner(preset, n_total, u_alpha, length):
    """Whether the vacuum+weak optimum at one length lies on the w2 = 0 corner."""
    params = PRESETS[preset]
    eta = transmittance(params, length).eta
    return optimize_allocation(params, eta, MUS[preset], n_total,
                               u_alpha).alloc.n_decoy2 == 0.0


def at_most(low, high):
    """low <= high, to REL of the larger magnitude."""
    return low <= high + REL * max(abs(low), abs(high))


@pytest.fixture(params=tuple(SAMPLES))
def points(request):
    return sample(request.param)


def test_the_sample_lies_inside_each_reach(points):
    # L is drawn on 0.3-0.98 of a positive reach, so each optimum below is positive
    for preset, estimator, n_total, u_alpha, length in points:
        assert length > 0.0
        assert optimum(preset, estimator, n_total, u_alpha, length) > 0.0


# the sampled optima whose bands rest on few expected events: the cases a coverage
# test at the low-count edge needs, by (preset, estimator, N to 3 digits)
LOW_COUNT_OPTIMA = {
    "search-relations": {},
    "low-budget": {
        ("GYS", "one-decoy", "1.14e+06"): ("e_nu1*q_nu1",),
        ("KTH", "vacuum-weak", "1.69e+06"): ("q_nu2",),
        ("GYS", "vacuum-weak", "1.06e+06"): ("e_nu1*q_nu1",),
        ("GYS", "vacuum-weak", "1.2e+06"): ("e_nu1*q_nu1",),
    },
}


@pytest.mark.parametrize("seed", tuple(SAMPLES))
def test_the_low_count_optima_are_the_pinned_ones(seed):
    flagged = {}
    for preset, estimator, n_total, u_alpha, length in sample(seed):
        observables = report(preset, estimator, n_total, u_alpha, length).low_count_observables
        if observables:
            flagged[(preset, estimator, f"{n_total:.3g}")] = observables
    assert flagged == LOW_COUNT_OPTIMA[seed]


def test_more_pulses_reach_no_shorter(points):
    for preset, estimator, n_total, u_alpha, _ in points:
        assert at_most(reach(preset, estimator, n_total, u_alpha),
                       reach(preset, estimator, 1.5 * n_total, u_alpha))


def test_a_wider_band_reaches_no_further(points):
    for preset, estimator, n_total, u_alpha, _ in points:
        assert at_most(reach(preset, estimator, n_total, u_alpha + 1.0),
                       reach(preset, estimator, n_total, u_alpha))


def test_more_pulses_give_no_less_key(points):
    for point in points:
        preset, estimator, n_total, u_alpha, length = point
        assert at_most(optimum(*point), optimum(preset, estimator, 1.5 * n_total, u_alpha, length))


def test_a_wider_band_gives_no_more_key(points):
    for point in points:
        preset, estimator, n_total, u_alpha, length = point
        assert at_most(optimum(preset, estimator, n_total, u_alpha + 1.0, length), optimum(*point))


def test_a_longer_link_gives_no_more_key(points):
    for point in points:
        preset, estimator, n_total, u_alpha, length = point
        assert at_most(optimum(preset, estimator, n_total, u_alpha, length + 1.0), optimum(*point))


def test_vacuum_weak_gives_at_least_one_decoy(points):
    # the vacuum+weak search contains the w2 = 0 corner, which is the one-decoy analysis
    for preset, _, n_total, u_alpha, length in points:
        vacuum_weak = optimum(preset, "vacuum-weak", n_total, u_alpha, length)
        one_decoy = optimum(preset, "one-decoy", n_total, u_alpha, length)
        assert max(vacuum_weak, 0.0) >= max(one_decoy, 0.0) * (1.0 - ORDER_REL)


def test_no_optimum_beats_the_asymptotic_rate(points):
    # key per pulse: the asymptotic rate sifts half the pulses, the search at most that
    for preset, estimator, n_total, u_alpha, length in points:
        params = PRESETS[preset]
        for n, u, l in ((n_total, u_alpha, length), (1.5 * n_total, u_alpha, length),
                        (n_total, u_alpha + 1.0, length), (n_total, u_alpha, length + 1.0)):
            bound = asymptotic_rate(params, transmittance(params, l).eta, MUS[preset])
            assert max(optimum(preset, estimator, n, u, l), 0.0) <= max(bound, 0.0)


def test_an_optimum_that_leaves_the_corner_does_not_return_to_it(points):
    # the vacuum decoy measures the background, whose share of the decoy gain grows
    # with distance: scan_distance_fluct skips the corner after an optimum off it
    left = 0
    for preset, estimator, n_total, u_alpha, _ in points:
        if estimator != "vacuum-weak":
            continue
        found = reach(preset, estimator, n_total, u_alpha)
        corners = [on_corner(preset, n_total, u_alpha, f * found) for f in CORNER_FRACTIONS]
        assert corners == sorted(corners, reverse=True)  # on it, then off it for good
        left += corners[0] and not corners[-1]
    assert left > 0  # the sample sees optima leave the corner


def test_a_scan_that_steps_back_in_length_runs_the_corner_there():
    # 20 km's optimum lies on the corner and 100 km's does not; back at 20 km the
    # corner wins again, which a scan that skipped it would miss
    params, mu, n_total = GYS, MUS["GYS"], 6.0e9
    etas = {length: transmittance(params, length).eta for length in (20.0, 100.0)}

    def search(length, warm=None, corner=True):
        return fluct._search(params, etas[length], mu, n_total, 10.0, "vacuum-weak", warm,
                             corner)

    at_100 = search(100.0, search(20.0))
    assert at_100[2] > 0.0
    back = fluct._report(params, etas[20.0], mu, n_total, 10.0, "vacuum-weak",
                         search(20.0, at_100))
    skipped = fluct._report(params, etas[20.0], mu, n_total, 10.0, "vacuum-weak",
                            search(20.0, at_100, corner=False))
    assert back.alloc.n_decoy2 == 0.0 < skipped.alloc.n_decoy2
    assert back.result.rate_lower > skipped.result.rate_lower
    third = scan_distance_fluct(params, mu, n_total, [20.0, 100.0, 20.0])[2]
    assert (third.rate_lower, third.nu, third.n_signal, third.n_decoy1, third.n_decoy2) == (
        back.result.rate_lower, back.nu, back.alloc.n_signal, back.alloc.n_decoy1,
        back.alloc.n_decoy2)
