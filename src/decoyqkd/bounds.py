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
0.5) so that a key-rate formula downstream stays well defined.  Every
estimator is one skeleton over that: _y1_from_bracket (the floored Y1),
_e1_from (the capped e1) and _estimate (Q1 = Y1 mu e^-mu).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .model import (
    E0,
    ExperimentParams,
    ObservedRates,
    ValidationError,
    poisson_tail,
)


MU_MAX = math.log(sys.float_info.max)  # e^mu overflows a float past this


@dataclass(frozen=True)
class ProtocolIntensities:
    """Signal and decoy mean photon numbers with the ordering constraints."""

    mu: float
    nu1: float
    nu2: float = 0.0

    def __post_init__(self) -> None:
        if self.mu <= 0.0:
            raise ValidationError(f"mu must be > 0, got {self.mu}")
        _check_mu_range(self.mu)
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
        _check_bracket(self.mu, self.nu1, self.nu2)


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


def y0_lower(obs: ObservedRates, intensities: ProtocolIntensities) -> float:
    """Background-yield lower bound from the two decoy gains."""
    if not obs.has_second_decoy:
        raise ValidationError("estimator needs observations at a second decoy intensity")
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
    # the second-decoy gain term and for Y0; floored at the vacuous 0
    denom = (nu1 - nu2) * (mu - nu1 - nu2)
    bracket = (
        obs.q_nu1 * math.exp(nu1)
        - nu2_gain_scaled
        - (nu1**2 - nu2**2) / mu**2 * (obs.q_mu * math.exp(mu) - y0_value)
    )
    return max(mu / denom * bracket, 0.0)


def _e1_from(y1: float, error_gain: float, scale: float) -> float:
    """e1 <= error_gain / (scale * Y1), in [0, 0.5]; the vacuous 0.5 when Y1 is floored."""
    if y1 <= 0.0:
        return 0.5
    return min(max(error_gain / (scale * y1), 0.0), 0.5)


def _estimate(name: str, mu: float, y0: float, y1: float, e1: float) -> BoundsEstimate:
    return BoundsEstimate(y0_lower=y0, y1_lower=y1, q1_lower=y1 * mu * math.exp(-mu),
                          e1_upper=e1, estimator=name)


def two_decoy_bounds(obs: ObservedRates, intensities: ProtocolIntensities) -> BoundsEstimate:
    """Bounds from signal plus two decoys, Y0 bounded from the two decoy gains."""
    mu, nu1, nu2 = intensities.mu, intensities.nu1, intensities.nu2
    y0 = y0_lower(obs, intensities)
    y1 = _y1_from_bracket(obs, mu, nu1, obs.q_nu2 * math.exp(nu2), nu2, y0)
    error_gain = obs.e_nu1 * obs.q_nu1 * math.exp(nu1) - obs.e_nu2 * obs.q_nu2 * math.exp(nu2)
    return _estimate("two-decoy", mu, y0, y1, _e1_from(y1, error_gain, nu1 - nu2))


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
    y1 = _y1_from_bracket(obs, mu, nu, y0, 0.0, y0)
    e1 = _e1_from(y1, obs.e_nu1 * obs.q_nu1 * math.exp(nu) - E0 * y0, nu)
    return _estimate("vacuum-weak", mu, y0, y1, e1)


def one_decoy_simple(obs: ObservedRates, mu: float, nu: float) -> BoundsEstimate:
    """One-decoy bounds using the signal-error cap on the background.

    All errors blamed on the background give Y0 <= E_mu Q_mu e^mu / E0;
    substituting that cap where the vacuum measurement would sit yields a
    valid (weaker) Y1 lower bound, and e1 is bounded through the signal
    error sum e1 <= E_mu Q_mu e^mu / (Y1_lower * mu).
    """
    _check_one_decoy_intensities(mu, nu)
    signal_error_gain = obs.e_mu * obs.q_mu * math.exp(mu)
    y0_cap = signal_error_gain / E0
    y1 = _y1_from_bracket(obs, mu, nu, y0_cap, 0.0, y0_cap)
    return _estimate("one-decoy-simple", mu, 0.0, y1, _e1_from(y1, signal_error_gain, mu))


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
    y1 = _y1_from_bracket(obs, mu, nu, 0.0, 0.0, 0.0)
    e1 = _e1_from(y1, obs.e_nu1 * obs.q_nu1 * math.exp(nu), nu)
    return _estimate("one-decoy-trial", mu, 0.0, y1, e1)


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
    return _estimate("asymptotic", mu, params.y0, y1, e1)


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


def _check_one_decoy_intensities(mu: float, nu: float) -> None:
    if not 0.0 < nu < mu:
        raise ValidationError(f"need 0 < nu < mu, got mu={mu}, nu={nu}")
    _check_mu_range(mu)
    _check_bracket(mu, nu, 0.0)


def _check_mu_range(mu: float) -> None:
    if mu > MU_MAX:
        raise ValidationError(f"mu must be <= {MU_MAX}, where e^mu overflows a float, got {mu}")
    if mu**2 == 0.0:
        raise ValidationError(f"mu={mu} is too small: mu**2 underflows to 0")


def _check_bracket(mu: float, nu1: float, nu2: float) -> None:
    # the Y1 bracket's prefactor mu / divisor must be a finite float
    divisor = (nu1 - nu2) * (mu - nu1 - nu2)
    if not (divisor > 0.0 and mu / divisor < math.inf):
        raise ValidationError(
            f"intensities mu={mu}, nu1={nu1}, nu2={nu2} leave the Y1 bound no finite "
            f"prefactor mu / ((nu1 - nu2)(mu - nu1 - nu2))"
        )


# --- adversary oracle -------------------------------------------------

ORACLE_I_MAX = 10  # the photon-number cutoff of the oracle's channels
ORACLE_GAIN_TOL = 1e-10  # absolute slack on every gain the oracle matches


@dataclass(frozen=True)
class OracleResult:
    """Extremes of the yield/error sets consistent with the observations."""

    feasible: bool
    y1_min: Optional[float]
    e1_max: Optional[float]


def adversary_oracle(obs: ObservedRates, intensities: ProtocolIntensities) -> OracleResult:
    """Search the truncated channels {Y_i, e_i Y_i} matching the data.

    Variables are the yields Y_0..Y_imax in [0, 1] and the error-yield
    products b_i = e_i Y_i in [0, Y_i], with imax = ORACLE_I_MAX.  For
    every observed intensity s the truncated sums must match Q_s e^s and
    E_s Q_s e^s within ORACLE_GAIN_TOL plus the Poisson tail mass above
    imax (yields above the cutoff can contribute at most that much).
    Returns the smallest feasible Y_1, and the largest feasible
    e_1 = b_1 / Y_1 from one LP in Charnes-Cooper form: with t = 1/Y_1,
    maximize t b_1 subject to t Y_1 = 1 and every constraint scaled by t.
    If no feasible channel has Y_1 > 0, e1_max is the vacuous 1.

    A sound estimator must give y1_lower <= y1_min and e1_upper >= e1_max.
    """
    sources = [(intensities.mu, obs.q_mu, obs.e_mu), (intensities.nu1, obs.q_nu1, obs.e_nu1)]
    if obs.has_second_decoy:
        sources.append((intensities.nu2, obs.q_nu2, obs.e_nu2))

    # Rows over the columns Y_0..Y_imax, b_0..b_imax and a scale t, each
    # read as row . x <= 0.  With t = 1 they are the constraints on the
    # channel; the e1_max LP keeps t as the variable 1/Y_1.
    n = ORACLE_I_MAX + 1
    t = 2 * n
    rows = []
    for offset in (0, n):  # gains on Y, then error gains on b
        for s, q, e in sources:
            target = (e * q if offset else q) * math.exp(s)
            slack = poisson_tail(s, ORACLE_I_MAX) * math.exp(s) + ORACLE_GAIN_TOL  # tail mass + tol
            coeff = [0.0] * t
            coeff[offset:offset + n] = [s**i / math.factorial(i) for i in range(n)]
            # two-sided window target - slack <= sum <= target + ORACLE_GAIN_TOL
            rows.append(coeff + [-(target + ORACLE_GAIN_TOL)])
            rows.append([-x for x in coeff] + [target - slack])

    def unit_row(plus, minus):
        row = [0.0] * (t + 1)
        row[plus], row[minus] = 1.0, -1.0
        return row

    rows += [unit_row(n + i, i) for i in range(n)]  # b_i <= Y_i
    rows += [unit_row(i, t) for i in range(n)]  # Y_i <= t, so b_i <= t too

    linprog = sys.modules[__name__].linprog  # the module attribute, so a patch sees every LP
    # min Y_1 at t = 1, its column moved to the right-hand side
    res = linprog([float(j == 1) for j in range(t)], A_ub=[row[:t] for row in rows],
                  b_ub=[-row[t] for row in rows], bounds=(0.0, None), method="highs")
    if not res.success:
        return OracleResult(feasible=False, y1_min=None, e1_max=None)
    # max t b_1 with t Y_1 = 1: the columns now hold t Y and t b
    ratio = linprog([-float(j == n + 1) for j in range(t + 1)], A_ub=rows,
                    b_ub=[0.0] * len(rows), method="highs",
                    bounds=[(0.0, None), (1.0, 1.0)] + [(0.0, None)] * (t - 1))
    e1_max = -ratio.fun if ratio.success else 1.0
    return OracleResult(feasible=True, y1_min=float(res.fun), e1_max=float(e1_max))


def __getattr__(name: str):
    """Import scipy's ``linprog`` on first use: only the oracle needs scipy."""
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog

    globals()["linprog"] = linprog
    return linprog
