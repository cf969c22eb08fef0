"""Functions that only the tests use.

Numerics (finite_difference, and the probes of a golden-section search
on a flat objective), the walk of an allocation search that finds no
key, the reach probe that evaluates all of it and the probe's pruned
list built at one budget without a cache, the photon-number series of the channel
model (photon_transmittance, yield_i, gain_i, error_i,
poisson_tail_cutoff), and the structure of the Y1/e1 bounds as functions
of the weakest decoy behind criterion 10's "the weakest decoy should be
vacuum" checks.
"""

import math
from typing import Callable

from decoyqkd import fluct
from decoyqkd.bounds import ProtocolIntensities
from decoyqkd.model import (
    E0,
    ExperimentParams,
    ValidationError,
    _check_eta,
    _check_mu,
    overall_gain,
    overall_qber,
)


def finite_difference(f: Callable[[float], float], x: float, h: float) -> float:
    """Central difference estimate of f'(x) with step ``h``."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def flat_golden_section_probes(lo: float, hi: float, abs_tol: float, rel_tol: float) -> list:
    """The points a golden-section search for a maximum probes on a constant, in order.

    Each tie keeps the left part [a, d] of the bracket; the search stops
    once b - a <= abs_tol + rel_tol * max(|a|, |b|), or after 8 tied
    steps, and then evaluates the midpoint of [lo, hi], its answer for a
    flat objective.
    """
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    probes = [c, d]
    for _ in range(8):
        if b - a <= abs_tol + rel_tol * max(abs(a), abs(b)):
            break
        b, d = d, c
        c = b - g * (b - a)
        probes.append(c)
    return probes + [0.5 * (lo + hi)]


def flat_walk(mu: float, n_total: float, vacuum: bool) -> list:
    """The kernel inputs (nu, n1, n2, q), in order, of an allocation search that finds no key.

    Every evaluation of such a search is 0 on the box, so each line
    search probes the flat golden-section points and moves nothing, and
    each descent ends after one cycle: from each default seed, the seed,
    then a line in nu, in w1 (w2 capped at 0.98 - w1) and, with the
    vacuum decoy, in w2; then, with the vacuum decoy, the w2 = 0 corner
    from the first seed, without the w2 line.  Every seed's nu must lie
    in the nu box [1e-3, 0.999 mu] (else ValueError), so that every
    point lies in the search box.
    """
    nu_hi = 0.999 * mu
    tols = (fluct._LINE_ABS_TOL, fluct._LINE_REL_TOL)
    if not all(fluct._NU_MIN <= nu <= nu_hi for nu, _, _ in fluct._DEFAULT_SEEDS):
        raise ValueError(f"a default seed's nu lies outside the nu box at mu = {mu}")
    starts = [(seed, vacuum) for seed in fluct._DEFAULT_SEEDS]
    if vacuum:
        starts.append((fluct._DEFAULT_SEEDS[0], False))
    points = []
    for (nu, w1, w2), free_w2 in starts:
        w2 = w2 if free_w2 else 0.0
        points.append((nu, w1, w2))
        points += [(x, w1, w2) for x in flat_golden_section_probes(fluct._NU_MIN, nu_hi, *tols)]
        points += [(nu, x, min(w2, fluct._W_MAX - x))
                   for x in flat_golden_section_probes(1e-4, fluct._W_MAX, *tols)]
        if free_w2:
            points += [(nu, w1, x)
                       for x in flat_golden_section_probes(1e-6, fluct._W_MAX - w1, *tols)]
    walk = []
    for nu, w1, w2 in points:
        n1, n2 = w1 * n_total, w2 * n_total
        walk.append((nu, n1, n2, (n_total - n1 - n2) / (2.0 * n_total)))
    return walk


def flat_walk_positive(params: ExperimentParams, eta: float, mu: float, n_total: float,
                       u_alpha: float, vacuum: bool) -> bool:
    """Whether any allocation of flat_walk has a rate > 0: the sign of a search at eta.

    Evaluates the kernel at each allocation in order, skipping one whose
    band has no expected events.
    """
    kernel = fluct._worst_case(params, eta, mu)
    for nu, n1, n2, q in flat_walk(mu, n_total, vacuum):
        try:
            if kernel(nu, n1, n2, q, u_alpha)[0] > 0.0:
                return True
        except fluct.InsufficientDataError:
            continue
    return False


def uncached_probe_allocations(params: ExperimentParams, mu: float, n_total: float,
                               u_alpha: float, estimator: str) -> list:
    """fluct._probe_allocations' list, recorded and pruned at n_total itself, with no cache.

    Runs the descent at n_total on a kernel that records its inputs
    (nu, n1, n2, q) and rates each 0, then keeps, in first-visit order,
    the inputs that no other with the same nu and analysis (n2 > 0 or
    not) dominates with at least as many weak-decoy and vacuum pulses.
    """
    with_vacuum = fluct._check_search(params, mu, n_total, u_alpha, estimator)
    path = {}  # in first-visit order

    def flat(nu, n1, n2, q, *_):
        path[nu, n1, n2, q] = None
        return 0.0, 0.0, 0.0

    fluct._descend(flat, mu, n_total, u_alpha, with_vacuum)
    groups = {}
    for point in path:
        groups.setdefault((point[0], point[2] > 0.0), []).append(point)
    kept = set()
    for group in groups.values():
        top = -1.0
        for point in sorted(group, key=lambda p: (-p[1], -p[2])):
            if point[2] > top:
                kept.add(point)
                top = point[2]
    return [point for point in path if point in kept]


# --- the photon-number series of the channel model ---------------------


def photon_transmittance(eta: float, i: int) -> float:
    """Probability that at least one of i photons survives: 1-(1-eta)^i."""
    _check_eta(eta)
    if i < 0:
        raise ValidationError(f"photon number must be >= 0, got {i}")
    if i == 0:
        return 0.0
    if eta == 1.0:
        return 1.0
    return -math.expm1(i * math.log1p(-eta))


def yield_i(params: ExperimentParams, eta: float, i: int, approx: bool = False) -> float:
    """Yield of an i-photon pulse.

    Exact form y0 + eta_i - y0*eta_i by default; ``approx=True`` drops
    the cross term (background and photon detections treated as
    non-overlapping).
    """
    eta_i = photon_transmittance(eta, i)
    if approx:
        return min(params.y0 + eta_i, 1.0)
    return params.y0 + eta_i - params.y0 * eta_i


def gain_i(mu: float, params: ExperimentParams, eta: float, i: int, approx: bool = False) -> float:
    """Joint probability of an i-photon emission and a detection."""
    _check_mu(mu)
    return yield_i(params, eta, i, approx=approx) * _poisson_pmf(mu, i)


def error_i(params: ExperimentParams, eta: float, i: int, approx: bool = False) -> float:
    """Error rate of detected i-photon pulses.

    Background events are random (error rate E0); photon detections err
    with probability e_detector.  Undefined when the yield vanishes.
    """
    y = yield_i(params, eta, i, approx=approx)
    if y <= 0.0:
        raise ValidationError(
            f"error rate undefined: yield of the {i}-photon component is zero"
        )
    eta_i = photon_transmittance(eta, i)
    return (E0 * params.y0 + params.e_detector * eta_i) / y


def poisson_tail_cutoff(mu_max: float, tail_mass: float = 1e-12) -> int:
    """Smallest i_max whose Poisson tail beyond it is below tail_mass."""
    _check_mu(mu_max)
    if not 0.0 < tail_mass < 1.0:
        raise ValidationError("tail_mass must lie in (0, 1)")
    acc = 0.0
    term = math.exp(-mu_max)
    i = 0
    while acc + term < 1.0 - tail_mass:
        acc += term
        i += 1
        term *= mu_max / i
        if i > 10_000:
            raise ValidationError("tail cutoff search failed to converge")
    return i


def _poisson_pmf(mu: float, i: int) -> float:
    if i < 0:
        raise ValidationError(f"photon number must be >= 0, got {i}")
    return math.exp(-mu) * mu**i / math.factorial(i)


# --- structure of the Y1/e1 bounds as functions of the weakest decoy ---


def scaled_gain(x: float, params: ExperimentParams, eta: float) -> float:
    """Q_x e^x; increasing in x, which drives all monotonicity results."""
    return overall_gain(x, params, eta) * math.exp(x)


def scaled_error_gain(x: float, params: ExperimentParams, eta: float) -> float:
    """E_x Q_x e^x = (E0 y0 + e_detector (1 - e^(-eta x))) e^x."""
    if x == 0.0:
        return E0 * params.y0
    return overall_qber(x, params, eta) * overall_gain(x, params, eta) * math.exp(x)


def y1_bound_gap(
    nu2: float, mu: float, nu1: float, params: ExperimentParams, eta: float
) -> float:
    """Gap between the rescaled signal gain and the Y1 bound (no Y0 term).

    With G(x) = Q_x e^x,

        gap(nu2) = [G(mu) - mu/(nu1 - nu2) * (G(nu1) - G(nu2))]
                   / (mu - nu1 - nu2)

    and the two-decoy Y1 bound with its Y0 correction dropped satisfies
    Y1_lower = G(mu)/mu - gap(nu2).  The gap increases with nu2, which is
    why the weakest decoy should be vacuum.
    """
    _check_gap_args(nu2, mu, nu1)
    g = lambda x: scaled_gain(x, params, eta)
    return (g(mu) - mu / (nu1 - nu2) * (g(nu1) - g(nu2))) / (mu - nu1 - nu2)


def error_gain_slope(
    nu2: float, mu: float, nu1: float, params: ExperimentParams, eta: float
) -> float:
    """Difference quotient of the scaled error-gain between the decoys.

    With J(x) = E_x Q_x e^x, returns (J(nu1) - J(nu2)) / (nu1 - nu2); the
    e1 upper bound equals this slope divided by the Y1 lower bound.  Also
    increasing in nu2.
    """
    _check_gap_args(nu2, mu, nu1)
    j = lambda x: scaled_error_gain(x, params, eta)
    return (j(nu1) - j(nu2)) / (nu1 - nu2)


def _check_gap_args(nu2: float, mu: float, nu1: float) -> None:
    # same admissible region as ProtocolIntensities
    ProtocolIntensities(mu=mu, nu1=nu1, nu2=nu2)
