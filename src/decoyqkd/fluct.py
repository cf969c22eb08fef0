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
distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .model import (
    E0,
    ExperimentParams,
    ObservedRates,
    ValidationError,
    _unpack_intensities,
    simulate_observations,
    transmittance,
)
from .numerics import SearchConfig, maximize_scalar
from .rate import ESTIMATORS, VACUUM_WEAK, get_estimator, rate_from_estimate
from .rate import key_rate_strong  # noqa: F401 - bound here for perfbench's tracer only

LOW_COUNT_FLOOR = 50.0  # below this many expected events the band is dubious


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
    standard error of each estimate (beta_r is instead the realized rate
    penalty against the same protocol without fluctuations).
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
    are left untouched.  Raises InsufficientDataError for any measured
    observable with zero expected events.
    """
    if vacuum_gain_direction not in (+1, -1):
        raise ValidationError("vacuum_gain_direction must be +1 or -1")
    if alloc.u_alpha == 0.0:
        return obs

    def band(name: str, n_pulses: float, value: float) -> float:
        count = n_pulses * value
        if count <= 0.0:
            raise InsufficientDataError(
                f"no expected events for {name}: {n_pulses} pulses at rate {value}"
            )
        return alloc.u_alpha / math.sqrt(count)

    q1 = obs.q_nu1 * (1.0 - band("q_nu1", alloc.n_decoy1, obs.q_nu1))
    q1 = max(q1, 0.0)
    eq1 = obs.e_nu1 * obs.q_nu1
    eq1_up = eq1 * (1.0 + band("e_nu1*q_nu1", alloc.n_decoy1, eq1))
    e1 = min(eq1_up / q1, 1.0) if q1 > 0.0 else 1.0

    fields = {"q_nu1": q1, "e_nu1": e1}
    if obs.has_second_decoy:
        delta0 = band("q_nu2", alloc.n_decoy2, obs.q_nu2)
        q2 = obs.q_nu2 * (1.0 + vacuum_gain_direction * delta0)
        q2 = min(max(q2, 0.0), 1.0)
        eq2 = obs.e_nu2 * obs.q_nu2
        eq2_dn = eq2 * (1.0 - band("e_nu2*q_nu2", alloc.n_decoy2, eq2))
        e2 = min(max(eq2_dn, 0.0) / q2, 1.0) if q2 > 0.0 else 0.0
        fields["q_nu2"] = q2
        fields["e_nu2"] = e2
    return replace(obs, **fields)


def _low_counts(obs: ObservedRates, alloc: DataAllocation, with_vacuum: bool) -> Tuple[str, ...]:
    checks = [
        ("q_nu1", alloc.n_decoy1 * obs.q_nu1),
        ("e_nu1*q_nu1", alloc.n_decoy1 * obs.e_nu1 * obs.q_nu1),
    ]
    if with_vacuum and obs.has_second_decoy:
        checks.append(("q_nu2", alloc.n_decoy2 * obs.q_nu2))
    return tuple(name for name, count in checks if count < LOW_COUNT_FLOOR)


def fluctuated_bounds(
    params: ExperimentParams,
    eta: float,
    intensities,
    alloc: DataAllocation,
    estimator: str = "vacuum-weak",
) -> FluctuatedBounds:
    """Worst-case bounds and key yield for one allocation at one channel.

    ``intensities`` must be (mu, nu) for one-decoy or (mu, nu, 0) for
    vacuum+weak; a vacuum+weak request with no vacuum pulses degrades to
    the one-decoy analysis.  ``estimator`` is one of
    rate.FINITE_SIZE_ESTIMATORS.
    """
    row = get_estimator(estimator, finite_size=True)
    mu, nu, nu2 = _unpack_intensities(intensities)
    if nu2 not in (None, 0.0):
        raise ValidationError("fluctuation analysis expects the second decoy to be vacuum")

    use_vacuum = row.observes == VACUUM_WEAK and alloc.n_decoy2 > 0.0
    if not use_vacuum:
        row = ESTIMATORS["one-decoy"]  # no vacuum pulses, no background estimate
    ints = row.intensities(mu, nu)
    obs = simulate_observations(params, eta, ints)
    q = alloc.q
    f_ec = params.f_ec

    est_plain = row.estimate(obs, ints)
    # the vacuum gain's worst direction differs for Y1 and e1: try both
    candidates = []
    for direction in (+1, -1) if use_vacuum else (+1,):
        est = row.estimate(perturb_observations(obs, alloc, direction), ints)
        candidates.append((rate_from_estimate(obs, est, q, f_ec), est))
    rate_hat, est_hat = min(candidates, key=lambda c: c[0])

    rate_plain = rate_from_estimate(obs, est_plain, q, f_ec)
    betas = _quadrature_betas(obs, alloc, mu, nu, use_vacuum, est_plain)
    beta_r = 0.0
    if rate_plain > 0.0:
        beta_r = max(0.0, 1.0 - rate_hat / rate_plain)
    return FluctuatedBounds(
        y1_hat_lower=est_hat.y1_lower,
        e1_hat_upper=est_hat.e1_upper,
        rate_lower=rate_hat,
        key_bits_lower=max(rate_hat, 0.0) * alloc.n_total,
        beta_y0=betas[0],
        beta_y1=betas[1],
        beta_e1=betas[2],
        beta_r=beta_r,
        low_count_observables=_low_counts(obs, alloc, use_vacuum),
    )


def _quadrature_betas(
    obs: ObservedRates,
    alloc: DataAllocation,
    mu: float,
    nu: float,
    use_vacuum: bool,
    est_plain,
) -> Tuple[float, float, float]:
    """u_alpha times propagated relative standard errors of Y0, Y1, e1."""
    u = alloc.u_alpha
    if est_plain.y1_lower <= 0.0:
        beta_y0 = u / math.sqrt(alloc.n_decoy2 * obs.q_nu2) if use_vacuum else 0.0
        return beta_y0, math.inf, math.inf

    d_qnu = 1.0 / math.sqrt(alloc.n_decoy1 * obs.q_nu1)
    d_eqnu = 1.0 / math.sqrt(alloc.n_decoy1 * obs.e_nu1 * obs.q_nu1)
    prefactor = mu / ((mu - nu) * nu)
    a_term = prefactor * obs.q_nu1 * math.exp(nu) / est_plain.y1_lower

    contrib_y1 = [(a_term * d_qnu) ** 2]
    beta_y0 = 0.0
    e_num = obs.e_nu1 * obs.q_nu1 * math.exp(nu)
    if use_vacuum:
        y0 = obs.q_nu2
        d_y0 = 1.0 / math.sqrt(alloc.n_decoy2 * y0)
        beta_y0 = u * d_y0
        c_term = prefactor * (mu**2 - nu**2) / mu**2 * y0 / est_plain.y1_lower
        contrib_y1.append((c_term * d_y0) ** 2)
        e_num = e_num - E0 * y0
    sig_y1 = math.sqrt(sum(contrib_y1))

    if e_num <= 0.0 or est_plain.e1_upper <= 0.0:
        return beta_y0, u * sig_y1, math.inf
    contrib_e1 = [
        (obs.e_nu1 * obs.q_nu1 * math.exp(nu) / e_num * d_eqnu) ** 2,
        sig_y1**2,
    ]
    if use_vacuum:
        contrib_e1.append((E0 * obs.q_nu2 / e_num * d_y0) ** 2)
    return beta_y0, u * sig_y1, u * math.sqrt(sum(contrib_e1))


@dataclass(frozen=True)
class AllocationResult:
    """Best allocation found for one channel point."""

    alloc: DataAllocation
    nu: float
    result: FluctuatedBounds


_DEFAULT_SEEDS = (
    (0.05, 0.20, 0.02),
    (0.12, 0.30, 0.05),
    (0.25, 0.45, 0.10),
)
_W_MAX = 0.98  # keep at least 2% of pulses on the signal
_REL_TOL = 1e-4  # coordinate descent stops on a smaller relative gain per cycle
_MAX_CYCLES = 12


def optimize_allocation(
    params: ExperimentParams,
    eta: float,
    mu: float,
    n_total: float,
    u_alpha: float = 10.0,
    estimator: str = "vacuum-weak",
    seeds: Sequence[Tuple[float, float, float]] = _DEFAULT_SEEDS,
) -> AllocationResult:
    """Maximize the worst-case key yield over (nu, decoy fractions).

    Coordinate descent with golden-section line searches on the decoy
    intensity nu and the pulse fractions w1 = N1/N, w2 = N2/N, restarted
    from each seed; for vacuum+weak the w2 = 0 corner (which degrades to
    the one-decoy analysis) is optimized separately and kept when it
    wins.  Each descent stops once a cycle gains less than _REL_TOL
    relative, or after _MAX_CYCLES cycles.
    """
    with_vacuum = get_estimator(estimator, finite_size=True).observes == VACUUM_WEAK
    if not 0.0 < n_total < math.inf:
        raise ValidationError(f"n_total must be finite and > 0, got {n_total}")
    if not 0.0 < mu < math.inf:
        raise ValidationError(f"mu must be finite and > 0, got {mu}")

    nu_hi = 0.999 * mu

    def evaluate(nu: float, w1: float, w2: float) -> float:
        if not 0.0 < nu < mu:
            return -1.0
        if w1 <= 0.0 or w1 + w2 > _W_MAX or w2 < 0.0:
            return -1.0
        alloc = _make_alloc(n_total, w1, w2, u_alpha)
        try:
            fb = fluctuated_bounds(params, eta, (mu, nu, 0.0), alloc, estimator)
        except InsufficientDataError:
            return -1.0
        return max(fb.rate_lower, 0.0)

    def refine(seed: Tuple[float, float, float], free_w2: bool) -> Tuple[float, Tuple[float, float, float]]:
        nu, w1, w2 = seed
        if not free_w2:
            w2 = 0.0
        best = evaluate(nu, w1, w2)
        for _ in range(_MAX_CYCLES):
            prev = best
            res = maximize_scalar(
                lambda x: evaluate(x, w1, w2),
                SearchConfig(lo=1e-3, hi=nu_hi, abs_tol=1e-5, rel_tol=1e-6),
            )
            if res.value > best:
                nu, best = res.x, res.value
            res = maximize_scalar(
                lambda x: evaluate(nu, x, min(w2, _W_MAX - x)),
                SearchConfig(lo=1e-4, hi=_W_MAX, abs_tol=1e-5, rel_tol=1e-6),
            )
            if res.value > best:
                w1, best = res.x, res.value
                w2 = min(w2, _W_MAX - w1)
            if free_w2:
                res = maximize_scalar(
                    lambda x: evaluate(nu, w1, x),
                    SearchConfig(lo=0.0 + 1e-6, hi=max(_W_MAX - w1, 2e-6), abs_tol=1e-5, rel_tol=1e-6),
                )
                if res.value > best:
                    w2, best = res.x, res.value
            if best <= 0.0:
                break
            if prev > 0.0 and (best - prev) <= _REL_TOL * prev:
                break
        return best, (nu, w1, w2)

    candidates = []
    for seed in seeds:
        candidates.append(refine(seed, free_w2=with_vacuum))
        if with_vacuum:
            candidates.append(refine(seed, free_w2=False))
    _, (nu, w1, w2) = max(candidates, key=lambda c: c[0])
    alloc = _make_alloc(n_total, w1, w2, u_alpha)
    fb = fluctuated_bounds(params, eta, (mu, nu, 0.0), alloc, estimator)
    return AllocationResult(alloc=alloc, nu=nu, result=fb)


def _make_alloc(n_total: float, w1: float, w2: float, u_alpha: float) -> DataAllocation:
    n1 = w1 * n_total
    n2 = w2 * n_total
    return DataAllocation(
        n_total=n_total,
        n_signal=n_total - n1 - n2,
        n_decoy1=n1,
        n_decoy2=n2,
        u_alpha=u_alpha,
    )


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


def scan_distance_fluct(
    params: ExperimentParams,
    mu: float,
    n_total: float,
    lengths_km: Sequence[float],
    u_alpha: float = 10.0,
    estimator: str = "vacuum-weak",
) -> List[ScanPoint]:
    """Optimized key yield over a distance grid, warm-starting each point."""
    points: List[ScanPoint] = []
    seeds: Tuple[Tuple[float, float, float], ...] = _DEFAULT_SEEDS
    for length in lengths_km:
        eta = transmittance(params, length).eta
        res = optimize_allocation(
            params, eta, mu, n_total, u_alpha=u_alpha, estimator=estimator, seeds=seeds
        )
        points.append(ScanPoint(
            length_km=length,
            rate_lower=res.result.rate_lower,
            nu=res.nu,
            n_signal=res.alloc.n_signal,
            n_decoy1=res.alloc.n_decoy1,
            n_decoy2=res.alloc.n_decoy2,
            key_bits=res.result.key_bits_lower,
        ))
        warm = (res.nu, res.alloc.n_decoy1 / n_total, res.alloc.n_decoy2 / n_total)
        seeds = (warm,) + _DEFAULT_SEEDS
    return points


def max_distance_fluct(
    params: ExperimentParams,
    mu: float,
    n_total: float,
    u_alpha: float = 10.0,
    estimator: str = "vacuum-weak",
    l_lo: float = 1.0,
    l_hi: float = 250.0,
    l_tol: float = 0.05,
) -> Optional[float]:
    """Largest distance with a positive optimized key yield, by bisection."""

    def positive(length: float) -> bool:
        eta = transmittance(params, length).eta
        res = optimize_allocation(params, eta, mu, n_total, u_alpha=u_alpha, estimator=estimator)
        return res.result.rate_lower > 0.0

    if not positive(l_lo):
        return None
    lo = l_lo
    hi = None
    step = 8.0
    x = l_lo
    while x < l_hi:
        x = min(x + step, l_hi)
        if positive(x):
            lo = x
        else:
            hi = x
            break
    if hi is None:
        return l_hi
    while hi - lo > l_tol:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
