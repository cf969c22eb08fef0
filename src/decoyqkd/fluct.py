"""Finite-size statistics: confidence bands, worst-case bounds, allocation.

A real experiment distributes N pulses between the signal and the decoy
states and only ever sees finitely many detection events.  Each decoy
observable X measured from N_x pulses carries an expected event count
C = N_x * X and a relative standard error 1/sqrt(C); the worst case
within u_alpha standard deviations shifts it to X * (1 +/- u_alpha/sqrt(C)).
Signal-side fluctuations are ignored (the signal pool dwarfs the decoys).

The shifted observations feed the vacuum+weak (or one-decoy trial)
estimator, giving conservative bounds Y1_hat and e1_hat and a key-rate
floor R_hat.  The background yield enters the Y1 and e1 bounds with
opposite worst-case directions, so both ends of its confidence band are
evaluated and the smaller key rate is kept.

With no vacuum pulses at all there is no background estimate and the
evaluation falls back to the one-decoy (Y0 := 0) analysis, which is why
a vacuum decoy only becomes worth its pulse budget beyond a certain
distance.  On a link with no background the allocation search runs that
analysis alone: its vacuum decoy would record no events.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bounds import _check_mu_range, _check_one_decoy_intensities
from .model import (
    E0,
    ExperimentParams,
    ObservedRates,
    ValidationError,
    _unpack_intensities,
    overall_gain,
    overall_qber,
    simulate_observations,
    transmittance,
)
from .numerics import find_zero_crossing, maximize_scalar
from .rate import VACUUM_WEAK, binary_entropy, get_estimator
from .rate import key_rate_strong  # noqa: F401 - bound here for perfbench's tracer only

LOW_COUNT_FLOOR = 50.0  # below this many expected events the band is dubious
REACH_LIMIT_KM = 250.0  # the finite-size distance search stops here


class InsufficientDataError(ValidationError):
    """An observable has no expected events, so it has no error band."""


@dataclass(frozen=True)
class DataAllocation:
    """Split of the pulse budget between signal and the two decoys."""

    n_total: float
    n_signal: float
    n_decoy1: float
    n_decoy2: float
    u_alpha: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.n_total < math.inf:
            raise ValidationError(f"n_total must be finite and > 0, got {self.n_total}")
        for name in ("n_signal", "n_decoy1", "n_decoy2"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        parts = self.n_signal + self.n_decoy1 + self.n_decoy2
        if abs(parts - self.n_total) > 1e-6 * self.n_total:
            raise ValidationError(
                f"pulse counts must sum to n_total: {parts} != {self.n_total}"
            )
        if not 0.0 <= self.u_alpha < math.inf:
            raise ValidationError(f"u_alpha must be finite and >= 0, got {self.u_alpha}")

    @property
    def q(self) -> float:
        """Sifting factor: half the signal fraction of the pulse budget."""
        return self.n_signal / (2.0 * self.n_total)


@dataclass(frozen=True)
class FluctuatedBounds:
    """Worst-case single-photon bounds and key yield for one allocation.

    The betas are u_alpha times the quadrature-propagated relative
    standard error of each estimate, and inf, whatever u_alpha, where that
    error is unbounded (beta_r is instead the realized rate penalty
    against the same protocol without fluctuations).
    key_bits_lower = max(rate_lower, 0) * n_total.
    """

    y1_hat_lower: float
    e1_hat_upper: float
    rate_lower: float
    key_bits_lower: float
    beta_y0: float
    beta_y1: float
    beta_e1: float
    beta_r: float
    low_count_observables: Tuple[str, ...] = ()


def perturb_observations(
    obs: ObservedRates,
    alloc: DataAllocation,
    vacuum_gain_direction: int = +1,
) -> ObservedRates:
    """Worst-case u_alpha-sigma shift of the decoy observations.

    The weak-decoy gain moves down and its error-gain product up (the
    directions that weaken Y1 and strengthen e1).  The vacuum gain moves
    by ``vacuum_gain_direction`` (+1 loosens Y1, -1 raises e1; callers
    wanting the strict worst case evaluate both).  Signal observables
    are left untouched, and so is e_nu2: the vacuum+weak estimator uses
    E0 * Y0 in its place.  Raises InsufficientDataError for any measured
    observable with zero expected events.
    """
    if vacuum_gain_direction not in (+1, -1):
        raise ValidationError("vacuum_gain_direction must be +1 or -1")
    u = alloc.u_alpha
    if u == 0.0:
        return obs

    q1 = obs.q_nu1 * (1.0 - _band(u, "q_nu1", alloc.n_decoy1, obs.q_nu1))
    q1 = max(q1, 0.0)
    eq1 = obs.e_nu1 * obs.q_nu1
    eq1_up = eq1 * (1.0 + _band(u, "e_nu1*q_nu1", alloc.n_decoy1, eq1))
    e1 = min(eq1_up / q1, 1.0) if q1 > 0.0 else 1.0

    q2 = obs.q_nu2
    if obs.has_second_decoy:
        delta0 = _band(u, "q_nu2", alloc.n_decoy2, q2)
        q2 = min(max(q2 * (1.0 + vacuum_gain_direction * delta0), 0.0), 1.0)
    return ObservedRates(q_mu=obs.q_mu, e_mu=obs.e_mu, q_nu1=q1, e_nu1=e1,
                         q_nu2=q2, e_nu2=obs.e_nu2)


def _band(u_alpha: float, name: str, n_pulses: float, value: float) -> float:
    """u_alpha relative standard errors of an observable with n_pulses * value expected events."""
    count = n_pulses * value
    if count <= 0.0:
        raise InsufficientDataError(
            f"no expected events for {name}: {n_pulses} pulses at rate {value}"
        )
    return u_alpha / math.sqrt(count)


def fluctuated_bounds(
    params: ExperimentParams,
    eta: float,
    intensities,
    alloc: DataAllocation,
    estimator: str = "vacuum-weak",
) -> FluctuatedBounds:
    """Worst-case bounds and key yield for one allocation at one channel.

    ``intensities`` is (mu, nu) or (mu, nu, 0); its length selects nothing.
    The vacuum+weak analysis runs where ``estimator`` (one of
    rate.FINITE_SIZE_ESTIMATORS) is vacuum+weak, the allocation has vacuum
    pulses and the link a background; anywhere else the one-decoy analysis.
    It checks first the observations at (mu, nu), then the intensities as
    the estimators do, then that the allocation has signal pulses; after
    that a band with no expected events raises InsufficientDataError.
    """
    row = get_estimator(estimator, finite_size=True)
    mu, nu, nu2 = _unpack_intensities(intensities)
    if nu2 not in (None, 0.0):
        raise ValidationError("fluctuation analysis expects the second decoy to be vacuum")

    # no vacuum events, or no background to estimate: the kernel's n2 = 0 analysis
    vacuum = row.observes == VACUUM_WEAK and alloc.n_decoy2 > 0.0 and params.y0 != 0.0
    obs = simulate_observations(params, eta, (mu, nu))
    _check_one_decoy_intensities(mu, nu)
    n1, n2, q = alloc.n_decoy1, alloc.n_decoy2 if vacuum else 0.0, alloc.q
    if not q > 0.0:  # no signal pulses: q <= 1/2 holds by DataAllocation's sum
        raise ValidationError(f"q must lie in (0, 1], got {q}")
    y0 = params.y0 if vacuum else 0.0  # the vacuum decoy's gain is the background yield
    counts = {"q_nu1": n1 * obs.q_nu1, "e_nu1*q_nu1": n1 * obs.e_nu1 * obs.q_nu1}
    if vacuum:
        counts["q_nu2"] = n2 * y0
    worst_case = _worst_case(params, eta, mu)
    rate_hat, y1_hat, e1_hat = worst_case(nu, n1, n2, q, alloc.u_alpha)
    rate_plain, y1_plain, e1_plain = worst_case(nu, n1, n2, q, 0.0)
    betas = _quadrature_betas(obs, counts, y0, mu, nu, alloc.u_alpha, y1_plain, e1_plain)
    beta_r = 0.0
    if rate_plain > 0.0:
        beta_r = max(0.0, 1.0 - rate_hat / rate_plain)
    return FluctuatedBounds(
        y1_hat_lower=y1_hat,
        e1_hat_upper=e1_hat,
        rate_lower=rate_hat,
        key_bits_lower=max(rate_hat, 0.0) * alloc.n_total,
        beta_y0=betas[0],
        beta_y1=betas[1],
        beta_e1=betas[2],
        beta_r=beta_r,
        low_count_observables=tuple(
            name for name, count in counts.items() if count < LOW_COUNT_FLOOR),
    )


def _worst_case(params: ExperimentParams, eta: float, mu: float):
    """f(nu, n1, n2, q, u_alpha[, floor]) -> (R_hat, Y1_hat, e1_hat) of the worse direction.

    The worst-case rate at one channel, for n1 weak-decoy and n2 vacuum
    pulses, sifting factor q and a u_alpha-sigma band, in the worse of the
    two vacuum-gain directions; the +1 direction wins ties.  The first
    direction whose rate is <= ``floor`` is returned at once, so
    max(R_hat, floor) is what the default -inf floor gives.  f performs
    the float operations of simulate_observations, perturb_observations,
    vacuum_weak_bounds (one_decoy_trial at n2 = 0) and key_rate_strong in
    their order, without building their objects or their checks.

    f's domain, which fluctuated_bounds checks on entry and the search keeps
    to, is 0 < nu < mu with a finite Y1 prefactor mu / (nu (mu - nu)), mu
    within _check_mu_range, and q in (0, 1].  There f raises only where the
    gain at nu is zero, and _band's InsufficientDataError on an empty band.

    f is the allocation search's inner loop, so it makes no call it can
    avoid: it inlines _band (calling it only to raise) and binary_entropy,
    and writes each min/max clamp as a comparison in the builtin's
    argument order (max(r, 0.0) is ``0.0 if 0.0 > r else r``), which keeps
    NaN and -0.0 results bit for bit.
    """
    q_mu = overall_gain(mu, params, eta)
    e_mu = overall_qber(mu, params, eta)
    y0 = params.y0  # the background yield, and the vacuum decoy's gain exactly

    signal = -q_mu * params.f_ec * binary_entropy(e_mu)
    q_mu_e_mu = q_mu * math.exp(mu)
    e_minus_mu = math.exp(-mu)
    mu2 = mu**2
    neg_eta = -eta
    e0_y0 = E0 * y0
    e_det = params.e_detector
    exp, expm1, log2, sqrt, inf = math.exp, math.expm1, math.log2, math.sqrt, math.inf

    def worst_case(nu: float, n1: float, n2: float, q: float, u_alpha: float,
                   floor: float = -inf) -> Tuple[float, float, float]:
        # simulate_observations at nu
        x = expm1(neg_eta * nu)
        q_nu1 = y0 - x
        if q_nu1 <= 0.0:
            raise ValidationError("QBER undefined: overall gain is zero")
        e_nu1 = (e0_y0 + e_det * -x) / q_nu1
        # perturb_observations; the one-decoy trial is the vacuum+weak algebra at Y0 = 0
        vacuum = n2 > 0.0
        q1, e1 = q_nu1, e_nu1
        y0_hats = (y0 if vacuum else 0.0,)  # without bands both directions coincide
        if u_alpha != 0.0:
            # each band is _band's u_alpha / sqrt(count), and _band raises on a count <= 0
            count = n1 * q_nu1
            if count <= 0.0:
                _band(u_alpha, "q_nu1", n1, q_nu1)
            q1 = q_nu1 * (1.0 - u_alpha / sqrt(count))
            q1 = 0.0 if 0.0 > q1 else q1
            eq1 = e_nu1 * q_nu1
            count = n1 * eq1
            if count <= 0.0:
                _band(u_alpha, "e_nu1*q_nu1", n1, eq1)
            eq1_up = eq1 * (1.0 + u_alpha / sqrt(count))
            e1 = eq1_up / q1 if q1 > 0.0 else 1.0
            e1 = 1.0 if 1.0 < e1 else e1
            if vacuum:
                count = n2 * y0
                if count <= 0.0:
                    _band(u_alpha, "q_nu2", n2, y0)
                delta0 = u_alpha / sqrt(count)
                up = y0 * (1.0 + delta0)
                down = y0 * (1.0 - delta0)
                down = 0.0 if 0.0 > down else down
                y0_hats = (1.0 if 1.0 < up else up, 1.0 if 1.0 < down else down)
        # the estimator and key_rate_strong, once per vacuum-gain direction
        scale = mu / (nu * (mu - nu))
        ex_nu = exp(nu)
        nu2_mu2 = nu**2 / mu2
        q1_ex_nu = q1 * ex_nu
        eq1_ex_nu = e1 * q1 * ex_nu
        worst = y1_hat = e1_hat = None
        for y0_hat in y0_hats:
            y1 = scale * (q1_ex_nu - y0_hat - nu2_mu2 * (q_mu_e_mu - y0_hat))
            y1 = 0.0 if 0.0 > y1 else y1
            y1 = 1.0 if 1.0 < y1 else y1
            e1_upper = 0.5
            if y1 > 0.0:
                e1_upper = (eq1_ex_nu - E0 * y0_hat) / (y1 * nu)
                e1_upper = 0.0 if 0.0 > e1_upper else e1_upper
                e1_upper = 0.5 if 0.5 < e1_upper else e1_upper
            # (y1 * mu) * e^-mu, as the estimators round it; y1 * (mu * e^-mu) differs
            q1_lower = y1 * mu * e_minus_mu
            h = 0.0  # binary_entropy(e1_upper), e1_upper in [0, 0.5]
            if e1_upper != 0.0:
                h = -(e1_upper * log2(e1_upper) + (1.0 - e1_upper) * log2(1.0 - e1_upper))
            rate = q * (signal + q1_lower * (1.0 - h))
            if rate <= floor:  # the other direction can only be lower
                return rate, y1, e1_upper
            if worst is None or rate < worst:  # the +1 direction, first, wins ties
                worst, y1_hat, e1_hat = rate, y1, e1_upper
        return worst, y1_hat, e1_hat

    return worst_case


def _quadrature_betas(
    obs: ObservedRates,
    counts: Dict[str, float],
    y0: float,
    mu: float,
    nu: float,
    u_alpha: float,
    y1_plain: float,
    e1_plain: float,
) -> Tuple[float, float, float]:
    """u_alpha times propagated relative standard errors of Y0, Y1, e1, from unshifted bounds.

    ``counts`` holds each band's expected events.  Without a vacuum decoy
    (no "q_nu2" count) this is the vacuum algebra at Y0 := 0, with no Y0
    error.  A beta is inf, whatever u_alpha, where its error is unbounded:
    a count is 0, Y1 is floored or capped, or a square passes the float range.
    """
    count_y0 = counts.get("q_nu2", math.inf)  # 1/sqrt(inf) = 0: no Y0 error
    d_y0 = 1.0 / math.sqrt(count_y0) if count_y0 > 0.0 else math.inf
    beta_y1 = beta_e1 = math.inf
    if 0.0 < y1_plain < 1.0 and counts["e_nu1*q_nu1"] > 0.0:
        d_qnu = 1.0 / math.sqrt(counts["q_nu1"])
        d_eqnu = 1.0 / math.sqrt(counts["e_nu1*q_nu1"])
        prefactor = mu / ((mu - nu) * nu)
        a_term = prefactor * obs.q_nu1 * math.exp(nu) / y1_plain
        c_term = prefactor * (mu**2 - nu**2) / mu**2 * y0 / y1_plain
        sig_y1 = _quadrature(a_term * d_qnu, c_term * d_y0)
        beta_y1 = u_alpha * sig_y1
        e_gain = obs.e_nu1 * obs.q_nu1 * math.exp(nu)
        e_num = e_gain - E0 * y0
        if e_num > 0.0 and e1_plain > 0.0:
            beta_e1 = u_alpha * _quadrature(e_gain / e_num * d_eqnu, sig_y1,
                                            E0 * y0 / e_num * d_y0)
    # NaN is 0 times an unbounded error: u_alpha = 0, or a term 0 next to an infinite one
    return tuple(math.inf if math.isnan(b) else b for b in (u_alpha * d_y0, beta_y1, beta_e1))


def _quadrature(*terms: float) -> float:
    """sqrt of the sum of the terms' squares, inf where a square passes the float range."""
    try:
        return math.sqrt(sum(t**2 for t in terms))
    except OverflowError:  # where x * x would give inf, x**2 raises
        return math.inf


@dataclass(frozen=True)
class AllocationResult:
    """Best allocation found for one channel point."""

    alloc: DataAllocation
    nu: float
    result: FluctuatedBounds


_DEFAULT_SEEDS = (
    (0.12, 0.30, 0.05),
    (0.25, 0.45, 0.10),
)
_NU_MIN = 1e-3  # the decoy intensity search runs over [_NU_MIN, 0.999 mu]
_W_MAX = 0.98  # keep at least 2% of pulses on the signal
_W1_MIN, _W2_MIN = 1e-4, 1e-6  # the lower ends of the w1 and w2 line searches
# each line search stops on a bracket [a, b] no wider than abs + rel * max(|a|, |b|)
_LINE_ABS_TOL, _LINE_REL_TOL = 1e-5, 1e-6
_REL_TOL = 3e-5  # every coordinate descent stops on a smaller relative gain per cycle
_MAX_CYCLES = 12


def optimize_allocation(
    params: ExperimentParams,
    eta: float,
    mu: float,
    n_total: float,
    u_alpha: float = 10.0,
    estimator: str = "vacuum-weak",
) -> AllocationResult:
    """Maximize the worst-case key yield over (nu, decoy fractions).

    Coordinate descent with maximize_scalar's line searches on the decoy
    intensity nu and the pulse fractions w1 = N1/N, w2 = N2/N, each line
    search handed the current point and value as its incumbent.  The
    descent starts from each of _DEFAULT_SEEDS in turn and stops at the
    first whose best rate is positive; for vacuum+weak the w2 = 0 corner
    (which degrades to the one-decoy analysis) is then optimized once, from
    the best point found with w2 free, and kept when it wins.  Every
    descent, a scan's from its last optimum too, stops once a cycle gains
    less than _REL_TOL relative, or after _MAX_CYCLES cycles.
    scan_distance_fluct runs this search at its first length only, then
    continues from it.
    """
    point = _search(params, eta, mu, n_total, u_alpha, estimator)
    return _report(params, eta, mu, n_total, u_alpha, estimator, point)


def _search(
    params: ExperimentParams,
    eta: float,
    mu: float,
    n_total: float,
    u_alpha: float,
    estimator: str,
    warm: Optional[Tuple[float, float, float]] = None,
) -> Tuple[float, float, float]:
    """optimize_allocation's best point (nu, w1, w2): _descend on the kernel at eta.

    When no evaluation had data, the search raises what fluctuated_bounds
    raises at its best point.
    """
    with_vacuum = _check_search(params, mu, n_total, u_alpha, estimator)
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"eta must lie in [0, 1], got {eta}")
    best, point = _descend(_worst_case(params, eta, mu), mu, n_total, u_alpha, with_vacuum,
                           warm)
    if best < 0.0:  # every evaluation was off the box or had no data
        _report(params, eta, mu, n_total, u_alpha, estimator, point)
    return point


def _check_search(params: ExperimentParams, mu: float, n_total: float, u_alpha: float,
                  estimator: str) -> bool:
    """Check the search's inputs other than eta; return whether its vacuum decoy runs."""
    # with no background the vacuum decoy measures nothing: one-decoy alone
    with_vacuum = (get_estimator(estimator, finite_size=True).observes == VACUUM_WEAK
                   and params.y0 != 0.0)
    if not 0.0 < n_total < math.inf:
        raise ValidationError(f"n_total must be finite and > 0, got {n_total}")
    if not 0.0 <= u_alpha < math.inf:
        raise ValidationError(f"u_alpha must be finite and >= 0, got {u_alpha}")
    if not _NU_MIN < 0.999 * mu:
        raise ValidationError(f"mu={mu} leaves the decoy search [{_NU_MIN:g}, 0.999 mu] empty")
    _check_mu_range(mu)
    return with_vacuum


def _descend(
    worst_case: Callable[..., Tuple[float, float, float]],
    mu: float,
    n_total: float,
    u_alpha: float,
    with_vacuum: bool,
    warm: Optional[Tuple[float, float, float]] = None,
) -> Tuple[float, Tuple[float, float, float]]:
    """The coordinate descent's best (value, (nu, w1, w2)) on the kernel ``worst_case``.

    The objective is max(rate, 0) of worst_case(nu, n1, n2, q, u_alpha, 0.0)
    on the box 0 < nu < mu, w1 > 0, w2 >= 0, w1 + w2 <= _W_MAX, and -1 off
    it or where a band has no expected events.  The best value is the
    running maximum of the evaluations: the line searches keep their
    better interior point, and each descent keeps only gains.

    One rule picks the starts: ``warm`` (if any), then each of
    _DEFAULT_SEEDS in turn, until the first descent whose best is
    positive.  With the vacuum decoy the w2 = 0 corner then descends once,
    from the best point so far.
    """
    nu_hi = 0.999 * mu
    two_n = 2.0 * n_total

    def evaluate(nu: float, w1: float, w2: float) -> float:
        # DataAllocation's checks hold by construction for 0 < w1, 0 <= w2, w1 + w2 <= _W_MAX
        if not 0.0 < nu < mu:
            return -1.0
        if w1 <= 0.0 or w1 + w2 > _W_MAX or w2 < 0.0:
            return -1.0
        n1 = w1 * n_total
        n2 = w2 * n_total
        try:
            rate = worst_case(nu, n1, n2, (n_total - n1 - n2) / two_n, u_alpha, 0.0)[0]
        except InsufficientDataError:
            return -1.0
        return 0.0 if 0.0 > rate else rate  # max(rate, 0.0), without the call

    def refine(seed: Tuple[float, float, float],
               free_w2: bool) -> Tuple[float, Tuple[float, float, float]]:
        nu, w1, w2 = seed
        if not free_w2:
            w2 = 0.0
        best = evaluate(nu, w1, w2)
        for _ in range(_MAX_CYCLES):
            prev = best
            res = maximize_scalar(lambda x: evaluate(x, w1, w2), _NU_MIN, nu_hi,
                                  _LINE_ABS_TOL, _LINE_REL_TOL, (nu, best))
            if res.value > best:
                nu, best = res.x, res.value
            res = maximize_scalar(lambda x: evaluate(nu, x, min(w2, _W_MAX - x)), _W1_MIN, _W_MAX,
                                  _LINE_ABS_TOL, _LINE_REL_TOL, (w1, best))
            if res.value > best:
                w1, best = res.x, res.value
                w2 = min(w2, _W_MAX - w1)
            if free_w2:
                res = maximize_scalar(lambda x: evaluate(nu, w1, x), _W2_MIN,
                                      max(_W_MAX - w1, 2.0 * _W2_MIN), _LINE_ABS_TOL,
                                      _LINE_REL_TOL, (w2, best))
                if res.value > best:
                    w2, best = res.x, res.value
            if best <= 0.0 or (prev > 0.0 and best - prev <= _REL_TOL * prev):
                break
        return best, (nu, w1, w2)

    candidates = []
    for start in itertools.chain(() if warm is None else (warm,), _DEFAULT_SEEDS):
        candidates.append(refine(start, free_w2=with_vacuum))
        if candidates[-1][0] > 0.0:  # the first descent that finds key stands
            break
    if with_vacuum:
        # the w2 = 0 corner, once, from the first best point with w2 free
        candidates.append(refine(max(candidates, key=lambda c: c[0])[1], free_w2=False))
    return max(candidates, key=lambda c: c[0])


def _probe_allocations(params: ExperimentParams, mu: float, n_total: float, u_alpha: float,
                       estimator: str) -> List[Tuple[float, float, float, float]]:
    """The kernel inputs (nu, n1, n2, q) that a reach probe evaluates, in search order.

    While every rate is <= 0 the search's objective is 0 on the box and -1
    off it, whatever the link, so every search that finds no key walks one
    path: each default seed in turn, then the w2 = 0 corner, every line
    search a flat walk of at most numerics._FLAT_STEPS tied steps and its
    midpoint.  That path is _descend on a kernel that records its inputs
    and rates each 0.  On a link where every allocation has data, the
    search finds key exactly when an allocation of the path has a rate
    > 0 there.

    The list keeps the allocations of the path that no other allocation
    on it dominates.  One dominates another when both have the same nu
    and the same analysis (both vacuum pulses, or both n2 = 0), and it
    has at least as many weak-decoy and vacuum pulses.  Its fewer signal
    pulses lower q > 0, which scales the rate and keeps its sign; the
    rate is q B, and where B > 0 it does not fall as n1 or n2 grows, so a
    dominated allocation has key only where its dominator has.  For n1:
    as n1 grows the weak-decoy bands narrow, so Q_nu1's lower end rises
    and the upper end of its error-gain product falls; Y1 rises and e1
    falls, and neither can lower B.  For n2, where only the vacuum band
    narrows, it is a property of the kernel that a test checks, as did
    72,000 seeded kernel calls (ROADMAP item 11).  Dominance is tested
    within each (nu, analysis) group, in one sweep by falling n1.  Of
    the path's 91 allocations (46 for one-decoy), 27 (13) are kept.
    """
    with_vacuum = _check_search(params, mu, n_total, u_alpha, estimator)
    path: Dict[Tuple[float, float, float, float], None] = {}  # in first-visit order

    def flat(nu: float, n1: float, n2: float, q: float, *_) -> Tuple[float, float, float]:
        path[nu, n1, n2, q] = None
        return 0.0, 0.0, 0.0  # no rate, no bounds: the kernel of a search that finds no key

    _descend(flat, mu, n_total, u_alpha, with_vacuum)
    groups: Dict[Tuple[float, bool], List[Tuple[float, float, float, float]]] = {}
    for point in path:
        groups.setdefault((point[0], point[2] > 0.0), []).append(point)
    kept = set()
    for group in groups.values():
        # by n1, then n2, falling: a point is dominated where an earlier one has n2 >= its own
        top = -1.0
        for point in sorted(group, key=lambda p: (-p[1], -p[2])):
            if point[2] > top:
                kept.add(point)
                top = point[2]
    return [point for point in path if point in kept]


def _reach_probe(params: ExperimentParams, mu: float, n_total: float, u_alpha: float,
                 estimator: str) -> Callable[[float], bool]:
    """f(eta): whether the allocation search finds a positive rate at transmittance eta.

    f runs the kernel over _probe_allocations, built once here, in order,
    and returns at the first rate > 0.  It skips an allocation whose band
    has no expected events; where none has data it runs the search, which
    raises what fluctuated_bounds raises at its best point.  A link where
    only some allocations of the path have data is the one place where f
    can differ from the search's sign: the search rates an allocation
    with no data -1, as off the box, so its line searches no longer tie
    there and its walk can leave the path.
    """
    allocations = _probe_allocations(params, mu, n_total, u_alpha, estimator)

    def positive(eta: float) -> bool:
        worst_case = _worst_case(params, eta, mu)
        had_data = False
        for nu, n1, n2, q in allocations:
            try:
                if worst_case(nu, n1, n2, q, u_alpha, 0.0)[0] > 0.0:
                    return True
            except InsufficientDataError:
                continue
            had_data = True
        if not had_data:
            _search(params, eta, mu, n_total, u_alpha, estimator)
        return False

    return positive


def _box_edges(mu: float, nu: float, w1: float, w2: float) -> List[str]:
    """The edges of the search box that the point (nu, w1, w2) lies on, one phrase each.

    The box is nu in [_NU_MIN, 0.999 mu], w1 in [_W1_MIN, _W_MAX] and w2 in
    [_W2_MIN, _W_MAX - w1], each the bracket of its line search.  A
    coordinate lies on an edge when it is within that line search's
    stopping width of it: there the box, not the model, sets the optimum.
    w2 = 0 is the one-decoy corner, which the search optimizes in its own
    right, so it lies on no edge.
    """
    lines = [  # (what lies on the edge, x, the bracket, its lower and upper edges)
        ("nu_opt lies on the decoy", nu, _NU_MIN, 0.999 * mu, f"nu = {_NU_MIN:g}",
         "nu = 0.999 mu"),
        ("N_1 lies on the allocation", w1, _W1_MIN, _W_MAX, f"N_1 = {_W1_MIN:g} N",
         f"N_1 = {_W_MAX:g} N"),
    ]
    if w2 != 0.0:
        lines.append(("N_2 lies on the allocation", w2, _W2_MIN, max(_W_MAX - w1, 2.0 * _W2_MIN),
                      f"N_2 = {_W2_MIN:g} N", f"N_1 + N_2 = {_W_MAX:g} N"))
    edges = []
    for what, x, lo, hi, lo_edge, hi_edge in lines:
        width = _LINE_ABS_TOL + _LINE_REL_TOL * hi
        if x - lo <= width:
            edges.append(f"{what} search's lower edge {lo_edge}")
        elif hi - x <= width:
            edges.append(f"{what} search's upper edge {hi_edge}")
    return edges


def _report(params: ExperimentParams, eta: float, mu: float, n_total: float, u_alpha: float,
            estimator: str, point: Tuple[float, float, float]) -> AllocationResult:
    """fluctuated_bounds at the search point (nu, w1, w2), with the allocation it stands for."""
    nu, w1, w2 = point
    n1 = w1 * n_total
    n2 = w2 * n_total
    alloc = DataAllocation(n_total=n_total, n_signal=n_total - n1 - n2, n_decoy1=n1,
                           n_decoy2=n2, u_alpha=u_alpha)
    fb = fluctuated_bounds(params, eta, (mu, nu, 0.0), alloc, estimator)
    return AllocationResult(alloc=alloc, nu=nu, result=fb)


@dataclass(frozen=True)
class ScanPoint:
    """One distance sample of an optimized finite-statistics scan."""

    length_km: float
    rate_lower: float
    nu: float
    n_signal: float
    n_decoy1: float
    n_decoy2: float
    key_bits: float
    low_count_observables: Tuple[str, ...] = ()


def scan_distance_fluct(
    params: ExperimentParams,
    mu: float,
    n_total: float,
    lengths_km: Sequence[float],
    u_alpha: float = 10.0,
    estimator: str = "vacuum-weak",
) -> List[ScanPoint]:
    """Optimized key yield over a distance grid, as a continuation.

    The first length runs optimize_allocation's search.  The optimum moves
    little from one length to the next, so each later one descends from
    the last optimum first (see _search's ``warm``) and stops on the same
    _REL_TOL, then refines the w2 = 0 corner; past the reach that descent
    finds no positive rate, and the default seeds run in turn, as at the
    first length.
    """
    points: List[ScanPoint] = []
    warm: Optional[Tuple[float, float, float]] = None
    for length in lengths_km:
        eta = transmittance(params, length).eta
        warm = _search(params, eta, mu, n_total, u_alpha, estimator, warm=warm)
        res = _report(params, eta, mu, n_total, u_alpha, estimator, warm)
        alloc, fb = res.alloc, res.result
        points.append(ScanPoint(
            length_km=length,
            rate_lower=fb.rate_lower,
            nu=res.nu,
            n_signal=alloc.n_signal,
            n_decoy1=alloc.n_decoy1,
            n_decoy2=alloc.n_decoy2,
            key_bits=fb.key_bits_lower,
            low_count_observables=fb.low_count_observables,
        ))
    return points


def max_distance_fluct(
    params: ExperimentParams,
    mu: float,
    n_total: float,
    u_alpha: float = 10.0,
    estimator: str = "vacuum-weak",
    l_hi: float = REACH_LIMIT_KM,
) -> Optional[float]:
    """Largest distance with a positive optimized key yield, to 0.05 km.

    Marches from 1 km in 8 km steps and bisects the first bracket where
    the optimum stops being positive.  Returns None when it is not
    positive at 1 km, and exactly l_hi when it is still positive there.
    l_hi must be finite and > 1 km.  Each probe asks only the sign: it
    tries the allocations of _probe_allocations, built once per call (27
    for vacuum+weak, 13 for one-decoy), and stops at the first with a
    positive rate.
    """
    if not 1.0 < l_hi < math.inf:
        raise ValidationError(f"l_hi must be finite and > 1 km, got {l_hi}")
    positive = _reach_probe(params, mu, n_total, u_alpha, estimator)
    return find_zero_crossing(
        lambda length: 1.0 if positive(transmittance(params, length).eta) else -1.0,
        1.0, l_hi, 8.0, x_tol=0.05)
