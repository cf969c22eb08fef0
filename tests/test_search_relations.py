"""Relations that any correct allocation search satisfies, whatever path it takes.

A value pinned from the search's own output only shows that it was
pinned.  The model orders some optima without computing them: more
pulses keep every allocation feasible and narrow every band, a wider
band and a longer link only lower the worst-case rate, the vacuum+weak
search contains the one-decoy analysis as its w2 = 0 corner, and no
finite-size rate beats perfect single-photon knowledge.  Each test checks
one such relation on one seeded sample of links, so a search change that
breaks it fails here, and re-recording cannot mend it.

R* is optimize_allocation's rate_lower at a length L drawn inside the
reach; reaches and optima are computed once per sample point and shared.
"""

import functools
import random

from decoyqkd.fluct import max_distance_fluct, optimize_allocation
from decoyqkd.model import GYS, KTH, transmittance
from decoyqkd.rate import FINITE_SIZE_ESTIMATORS, asymptotic_rate, optimal_mu

PRESETS = {"GYS": GYS, "KTH": KTH}
MUS = {name: optimal_mu(params) for name, params in PRESETS.items()}
REL = 1e-9  # each monotone relation holds to rounding, not to the search's tolerance
ORDER_REL = 1e-6  # vacuum+weak against one-decoy: two searches, each to its own precision


@functools.lru_cache(maxsize=None)
def sample():
    """(preset, estimator, N, u_alpha, L) draws, L inside the reach at (N, u_alpha)."""
    rng = random.Random("search-relations")
    points = []
    for _ in range(60):
        preset = rng.choice(sorted(PRESETS))
        estimator = rng.choice(FINITE_SIZE_ESTIMATORS)
        n_total = 10.0 ** rng.uniform(8.5, 11.5)
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
def optimum(preset, estimator, n_total, u_alpha, length):
    """R*: the optimized worst-case key per pulse at one length."""
    params = PRESETS[preset]
    eta = transmittance(params, length).eta
    return optimize_allocation(params, eta, MUS[preset], n_total, u_alpha,
                               estimator).result.rate_lower


def at_most(low, high):
    """low <= high, to REL of the larger magnitude."""
    return low <= high + REL * max(abs(low), abs(high))


def test_the_sample_lies_inside_each_reach():
    # L is drawn on 0.3-0.98 of a positive reach, so each optimum below is positive
    for preset, estimator, n_total, u_alpha, length in sample():
        assert length > 0.0
        assert optimum(preset, estimator, n_total, u_alpha, length) > 0.0


def test_more_pulses_reach_no_shorter():
    for preset, estimator, n_total, u_alpha, _ in sample():
        assert at_most(reach(preset, estimator, n_total, u_alpha),
                       reach(preset, estimator, 1.5 * n_total, u_alpha))


def test_a_wider_band_reaches_no_further():
    for preset, estimator, n_total, u_alpha, _ in sample():
        assert at_most(reach(preset, estimator, n_total, u_alpha + 1.0),
                       reach(preset, estimator, n_total, u_alpha))


def test_more_pulses_give_no_less_key():
    for point in sample():
        preset, estimator, n_total, u_alpha, length = point
        assert at_most(optimum(*point), optimum(preset, estimator, 1.5 * n_total, u_alpha, length))


def test_a_wider_band_gives_no_more_key():
    for point in sample():
        preset, estimator, n_total, u_alpha, length = point
        assert at_most(optimum(preset, estimator, n_total, u_alpha + 1.0, length), optimum(*point))


def test_a_longer_link_gives_no_more_key():
    for point in sample():
        preset, estimator, n_total, u_alpha, length = point
        assert at_most(optimum(preset, estimator, n_total, u_alpha, length + 1.0), optimum(*point))


def test_vacuum_weak_gives_at_least_one_decoy():
    # the vacuum+weak search contains the w2 = 0 corner, which is the one-decoy analysis
    for preset, _, n_total, u_alpha, length in sample():
        vacuum_weak = optimum(preset, "vacuum-weak", n_total, u_alpha, length)
        one_decoy = optimum(preset, "one-decoy", n_total, u_alpha, length)
        assert max(vacuum_weak, 0.0) >= max(one_decoy, 0.0) * (1.0 - ORDER_REL)


def test_no_optimum_beats_the_asymptotic_rate():
    # key per pulse: the asymptotic rate sifts half the pulses, the search at most that
    for preset, estimator, n_total, u_alpha, length in sample():
        params = PRESETS[preset]
        for n, u, l in ((n_total, u_alpha, length), (1.5 * n_total, u_alpha, length),
                        (n_total, u_alpha + 1.0, length), (n_total, u_alpha, length + 1.0)):
            bound = asymptotic_rate(params, transmittance(params, l).eta, MUS[preset])
            assert max(optimum(preset, estimator, n, u, l), 0.0) <= max(bound, 0.0)
