"""Decoy-state bounds on the single-photon yield and error rate.

An eavesdropper may set the yield Y_i and error rate e_i of each
photon-number component freely, but the same {Y_i, e_i} must reproduce
the gains and QBERs observed at every intensity.  Sending decoy pulses
of different mean photon numbers therefore pins down Y_1 (from below)
and e_1 (from above):

    two-decoy (mu, nu1, nu2 with nu2 < nu1, nu1 + nu2 < mu)
        Y0 >= (nu1 Q_nu2 e^nu2 - nu2 Q_nu1 e^nu1) / (nu1 - nu2)
        Y1 >= mu / (mu nu1 - mu nu2 - nu1^2 + nu2^2) *
              [Q_nu1 e^nu1 - Q_nu2 e^nu2
               - (nu1^2 - nu2^2)/mu^2 * (Q_mu e^mu - Y0_lower)]
        e1 <= (E_nu1 Q_nu1 e^nu1 - E_nu2 Q_nu2 e^nu2) / ((nu1 - nu2) Y1_lower)

    vacuum+weak: the nu2 -> 0 special case; the vacuum measurement gives
    Y0 directly and its error rate is E0 by definition.

    one-decoy: no vacuum data.  Either substitute the signal-error upper
    bound Y0 <= E_mu Q_mu e^mu / E0 (the "simple" variant), or set
    Y0 := 0, which an optimal eavesdropper would prefer anyway (the
    "trial" variant, tighter in practice).

All bounds are floored/capped at their vacuous values (Y1 at 0, e1 at
0.5) so that a key-rate formula downstream stays well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .model import (
    E0,
    ExperimentParams,
    ObservedRates,
    ValidationError,
    overall_gain,
    overall_qber,
    poisson_tail,
)


@dataclass(frozen=True)
class ProtocolIntensities:
    """Signal and decoy mean photon numbers with the ordering constraints."""

    mu: float
    nu1: float
    nu2: float = 0.0

    def __post_init__(self) -> None:
        if self.mu <= 0.0:
            raise ValidationError(f"mu must be > 0, got {self.mu}")
        if self.nu2 < 0.0:
            raise ValidationError(f"nu2 must be >= 0, got {self.nu2}")
        if not self.nu2 < self.nu1:
            raise ValidationError(
                f"intensities must satisfy nu2 < nu1, got nu1={self.nu1}, nu2={self.nu2}"
            )
        if not self.nu1 + self.nu2 < self.mu:
            raise ValidationError(
                f"intensities must satisfy nu1 + nu2 < mu, got "
                f"mu={self.mu}, nu1={self.nu1}, nu2={self.nu2}"
            )


@dataclass(frozen=True)
class BoundsEstimate:
    """Single-photon bounds produced by one estimator.

    q1_lower is always y1_lower * mu * e^(-mu) for the signal intensity
    the estimator was run at.  ``vacuous`` flags a floored Y1 (and hence
    e1 pinned at 0.5): the data admit a single-photon-free channel.
    """

    y0_lower: float
    y1_lower: float
    q1_lower: float
    e1_upper: float
    estimator: str

    @property
    def vacuous(self) -> bool:
        return self.y1_lower <= 0.0


@dataclass(frozen=True)
class DeviationReport:
    """Relative gaps between finite-decoy bounds and their ideal limits."""

    beta_y1: float
    beta_e1: float


def _require_second_decoy(obs: ObservedRates) -> None:
    if not obs.has_second_decoy:
        raise ValidationError("estimator needs observations at a second decoy intensity")


def y0_lower(obs: ObservedRates, intensities: ProtocolIntensities) -> float:
    """Background-yield lower bound from the two decoy gains."""
    _require_second_decoy(obs)
    nu1, nu2 = intensities.nu1, intensities.nu2
    val = (
        nu1 * obs.q_nu2 * math.exp(nu2) - nu2 * obs.q_nu1 * math.exp(nu1)
    ) / (nu1 - nu2)
    return max(val, 0.0)


def _y1_from_bracket(
    obs: ObservedRates, mu: float, nu1: float, nu2_gain_scaled: float,
    nu2: float, y0_value: float,
) -> float:
    # shared algebra: every Y1 estimator differs only in what it uses for
    # the second-decoy gain term and for Y0
    denom = (nu1 - nu2) * (mu - nu1 - nu2)
    bracket = (
        obs.q_nu1 * math.exp(nu1)
        - nu2_gain_scaled
        - (nu1**2 - nu2**2) / mu**2 * (obs.q_mu * math.exp(mu) - y0_value)
    )
    return mu / denom * bracket


def y1_lower_two_decoy(obs: ObservedRates, intensities: ProtocolIntensities) -> float:
    """Single-photon-yield lower bound from signal plus two decoys."""
    _require_second_decoy(obs)
    mu, nu1, nu2 = intensities.mu, intensities.nu1, intensities.nu2
    y0l = y0_lower(obs, intensities)
    val = _y1_from_bracket(
        obs, mu, nu1, obs.q_nu2 * math.exp(nu2), nu2, y0l
    )
    return max(val, 0.0)


def e1_upper_two_decoy(
    obs: ObservedRates, intensities: ProtocolIntensities, y1_low: float
) -> float:
    """Single-photon error-rate upper bound given a Y1 lower bound.

    A non-positive y1_low makes the bound vacuous; 0.5 is returned.
    """
    _require_second_decoy(obs)
    if y1_low <= 0.0:
        return 0.5
    nu1, nu2 = intensities.nu1, intensities.nu2
    val = (
        obs.e_nu1 * obs.q_nu1 * math.exp(nu1)
        - obs.e_nu2 * obs.q_nu2 * math.exp(nu2)
    ) / ((nu1 - nu2) * y1_low)
    return min(max(val, 0.0), 0.5)


def two_decoy_bounds(obs: ObservedRates, intensities: ProtocolIntensities) -> BoundsEstimate:
    """Bundle of the two-decoy Y0/Y1/Q1/e1 bounds."""
    y0l = y0_lower(obs, intensities)
    y1l = y1_lower_two_decoy(obs, intensities)
    return BoundsEstimate(
        y0_lower=y0l,
        y1_lower=y1l,
        q1_lower=y1l * intensities.mu * math.exp(-intensities.mu),
        e1_upper=e1_upper_two_decoy(obs, intensities, y1l),
        estimator="two-decoy",
    )


def vacuum_weak_bounds(obs: ObservedRates, mu: float, nu: float) -> BoundsEstimate:
    """Bounds for the vacuum-plus-weak-decoy protocol.

    The observed vacuum gain supplies Y0 directly and the vacuum error
    rate is E0 by definition, which tightens both bounds relative to the
    generic two-decoy formulas at small nu2.
    """
    _check_one_decoy_intensities(mu, nu)
    if not obs.has_second_decoy:
        raise ValidationError("vacuum+weak needs a vacuum (nu2=0) measurement")
    y0 = obs.q_nu2
    y1 = max(_y1_from_bracket(obs, mu, nu, y0, 0.0, y0), 0.0)
    if y1 <= 0.0:
        e1 = 0.5
    else:
        e1 = (obs.e_nu1 * obs.q_nu1 * math.exp(nu) - E0 * y0) / (y1 * nu)
        e1 = min(max(e1, 0.0), 0.5)
    return BoundsEstimate(
        y0_lower=y0,
        y1_lower=y1,
        q1_lower=y1 * mu * math.exp(-mu),
        e1_upper=e1,
        estimator="vacuum-weak",
    )


def one_decoy_simple(obs: ObservedRates, mu: float, nu: float) -> BoundsEstimate:
    """One-decoy bounds using the signal-error cap on the background.

    All errors blamed on the background give Y0 <= E_mu Q_mu e^mu / E0;
    substituting that cap where the vacuum measurement would sit yields a
    valid (weaker) Y1 lower bound, and e1 is bounded through the signal
    error sum e1 <= E_mu Q_mu e^mu / (Y1_lower * mu).
    """
    _check_one_decoy_intensities(mu, nu)
    y0_cap = obs.e_mu * obs.q_mu * math.exp(mu) / E0
    y1 = max(_y1_from_bracket(obs, mu, nu, y0_cap, 0.0, y0_cap), 0.0)
    if y1 <= 0.0:
        e1 = 0.5
    else:
        e1 = min(max(obs.e_mu * obs.q_mu * math.exp(mu) / (y1 * mu), 0.0), 0.5)
    return BoundsEstimate(
        y0_lower=0.0,
        y1_lower=y1,
        q1_lower=y1 * mu * math.exp(-mu),
        e1_upper=e1,
        estimator="one-decoy-simple",
    )


def one_decoy_trial(obs: ObservedRates, mu: float, nu: float) -> BoundsEstimate:
    """One-decoy bounds obtained by trying Y0 := 0.

    Zeroing the background can push the Y1 estimate above the true
    single-photon yield, but it pushes the e1 estimate up with it
    (every weak-decoy error, background included, lands on the
    single-photon pool), and the key rate computed from the pair stays
    conservative: an eavesdropper learns more from single-photon
    signals than from background clicks.  Tighter than the simple
    variant whenever both are non-vacuous.
    """
    _check_one_decoy_intensities(mu, nu)
    y1 = max(_y1_from_bracket(obs, mu, nu, 0.0, 0.0, 0.0), 0.0)
    if y1 <= 0.0:
        e1 = 0.5
    else:
        e1 = min(max(obs.e_nu1 * obs.q_nu1 * math.exp(nu) / (y1 * nu), 0.0), 0.5)
    return BoundsEstimate(
        y0_lower=0.0,
        y1_lower=y1,
        q1_lower=y1 * mu * math.exp(-mu),
        e1_upper=e1,
        estimator="one-decoy-trial",
    )


def asymptotic_bounds(params: ExperimentParams, eta: float, mu: float) -> BoundsEstimate:
    """Infinite-decoy limit: the bounds collapse onto the model values.

    Uses the standard Y1 ~= y0 + eta form (the nu -> 0 limit of the
    finite-decoy estimators converges to exactly this).
    """
    if mu <= 0.0:
        raise ValidationError(f"mu must be > 0, got {mu}")
    y1 = params.y0 + eta
    if y1 <= 0.0:
        raise ValidationError("asymptotic bounds undefined: y0 + eta is zero")
    e1 = min((E0 * params.y0 + params.e_detector * eta) / y1, 0.5)
    return BoundsEstimate(
        y0_lower=params.y0,
        y1_lower=y1,
        q1_lower=y1 * mu * math.exp(-mu),
        e1_upper=e1,
        estimator="asymptotic",
    )


def deviation_report(finite: BoundsEstimate, asymptotic: BoundsEstimate) -> DeviationReport:
    """How far finite-decoy bounds fall short of the ideal limits.

    beta_y1 = (Y1_ideal - Y1_lower) / Y1_ideal
    beta_e1 = (e1_upper - e1_ideal) / e1_ideal
    """
    if asymptotic.y1_lower <= 0.0 or asymptotic.e1_upper <= 0.0:
        raise ValidationError("asymptotic reference is degenerate")
    return DeviationReport(
        beta_y1=(asymptotic.y1_lower - finite.y1_lower) / asymptotic.y1_lower,
        beta_e1=(finite.e1_upper - asymptotic.e1_upper) / asymptotic.e1_upper,
    )


def wang_delta(obs: ObservedRates, mu: float, nu: float) -> float:
    """Upper bound on the multiphoton (tagged) fraction of nu-pulses.

    Wang's estimate for a protocol whose signal has mean photon number
    nu and whose decoy is the brighter mu > nu:

        Delta <= nu/(mu - nu) * (nu e^-nu Q_mu / (mu e^-mu Q_nu) - 1)
                 + nu e^-nu Y0 / (mu Q_nu)

    The background term uses the measured vacuum gain when present and
    is dropped otherwise.  The result is clamped to [0, 1].
    """
    _check_one_decoy_intensities(mu, nu)
    if obs.q_nu1 <= 0.0:
        raise ValidationError("tagged-fraction bound undefined: decoy gain is zero")
    y0 = obs.q_nu2 if obs.has_second_decoy else 0.0
    val = (
        nu / (mu - nu)
        * (nu * math.exp(-nu) * obs.q_mu / (mu * math.exp(-mu) * obs.q_nu1) - 1.0)
        + nu * math.exp(-nu) * y0 / (mu * obs.q_nu1)
    )
    return min(max(val, 0.0), 1.0)


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


def _check_one_decoy_intensities(mu: float, nu: float) -> None:
    if not 0.0 < nu < mu:
        raise ValidationError(f"need 0 < nu < mu, got mu={mu}, nu={nu}")


# --- adversary oracle -------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Extremes of the yield/error sets consistent with the observations."""

    feasible: bool
    y1_min: Optional[float]
    e1_max: Optional[float]


def adversary_oracle(
    obs: ObservedRates,
    intensities: ProtocolIntensities,
    i_max: int = 10,
    gain_tol: float = 1e-10,
    e1_resolution: float = 1e-6,
) -> OracleResult:
    """Search the truncated channels {Y_i, e_i Y_i} matching the data.

    Variables are the yields Y_0..Y_imax in [0, 1] and the error-yield
    products b_i = e_i Y_i in [0, Y_i].  For every observed intensity s
    the truncated sums must match Q_s e^s and E_s Q_s e^s within
    gain_tol plus the Poisson tail mass above i_max (yields above the
    cutoff can contribute at most that much).  Returns the smallest
    feasible Y_1 and the largest feasible e_1 = b_1 / Y_1, the latter by
    bisection on the ratio with an LP feasibility check per step.

    A sound estimator must give y1_lower <= y1_min and e1_upper >= e1_max.
    """
    if i_max < 3:
        raise ValidationError(f"i_max must be >= 3, got {i_max}")
    if gain_tol <= 0.0:
        raise ValidationError("gain_tol must be positive")

    sources = [(intensities.mu, obs.q_mu, obs.e_mu), (intensities.nu1, obs.q_nu1, obs.e_nu1)]
    if obs.has_second_decoy:
        sources.append((intensities.nu2, obs.q_nu2, obs.e_nu2))

    n = i_max + 1
    rows = []
    gains = []
    slacks = []
    for s, q, e in sources:
        coeff = np.array([s**i / math.factorial(i) for i in range(n)])
        tail = poisson_tail(s, i_max) * math.exp(s)  # un-normalized tail mass
        rows.append(coeff)
        gains.append((q * math.exp(s), e * q * math.exp(s)))
        slacks.append(tail + gain_tol)

    def window_rows(values, idx_offset, a_ub, b_ub):
        # two-sided |sum - target| <= slack as a pair of inequality rows
        for coeff, (g, j), slack in zip(rows, gains, slacks):
            target = values(g, j)
            row = np.zeros(2 * n)
            row[idx_offset:idx_offset + n] = coeff
            a_ub.append(row)
            b_ub.append(target + gain_tol)
            a_ub.append(-row)
            b_ub.append(-(target - slack))

    a_ub: list = []
    b_ub: list = []
    window_rows(lambda g, j: g, 0, a_ub, b_ub)       # gain constraints on Y
    window_rows(lambda g, j: j, n, a_ub, b_ub)       # error-gain constraints on b
    for i in range(n):                               # b_i <= Y_i
        row = np.zeros(2 * n)
        row[n + i] = 1.0
        row[i] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    a_ub = np.array(a_ub)
    b_ub = np.array(b_ub)
    var_bounds = [(0.0, 1.0)] * (2 * n)

    def solve(c):
        return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=var_bounds, method="highs")

    c_min_y1 = np.zeros(2 * n)
    c_min_y1[1] = 1.0
    res = solve(c_min_y1)
    if not res.success:
        return OracleResult(feasible=False, y1_min=None, e1_max=None)
    y1_min = float(res.fun)

    # largest b1/Y1: bisection on t, asking whether b1 - t*Y1 >= 0 is
    # achievable (b_i <= Y_i already restricts the ratio to [0, 1])
    lo, hi = 0.0, 1.0
    while hi - lo > e1_resolution:
        t = 0.5 * (lo + hi)
        c = np.zeros(2 * n)
        c[1] = t
        c[n + 1] = -1.0
        res_t = solve(c)
        if res_t.success and -res_t.fun >= 0.0:
            lo = t
        else:
            hi = t
    return OracleResult(feasible=True, y1_min=y1_min, e1_max=lo)
