"""Secure key rates and the intensity/distance optimizations built on them.

Two lower bounds on the asymptotic secure-key fraction per pulse are
used.  The strong form consumes single-photon bounds from a decoy-state
estimator:

    R >= q * (-Q_mu f_ec H2(E_mu) + Q1_lower * (1 - H2(e1_upper)))

The weak (tagged-fraction) form needs only an upper bound Delta on the
multiphoton fraction of detected signals:

    R >= q Q_mu * (-f_ec H2(E_mu) + (1 - Delta) * (1 - H2(E_mu / (1 - Delta))))

Negative values are meaningful (no secure key at that operating point)
and are preserved; clamping to zero happens only where bits are counted.

ESTIMATORS is the one table of estimators: what each observes, its
bounds function, and whether the finite-size analysis supports it.
estimator_rate evaluates any row on noiseless model observations.

When the background is negligible and all errors come from misalignment,
the signal intensity maximizing the strong bound solves

    (1 - mu) e^(-mu) = f_ec * H2(e_detector) / (1 - H2(e_detector)),

which is how the default optimal_mu is computed; an exact-rate maximizer
is provided alongside for cross-checking the approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

from . import bounds as _bounds
from .model import (
    ExperimentParams,
    ObservedRates,
    ValidationError,
    overall_gain,
    overall_qber,
    simulate_observations,
    transmittance,
)
from .numerics import find_zero_crossing, maximize_scalar


class NoPositiveRateError(ValidationError):
    """The error model admits no intensity with a positive key rate."""


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


@dataclass(frozen=True)
class KeyRateInputs:
    """Everything the strong key-rate bound consumes.

    q is the basis-sifting factor: 1/2 for standard BB84, close to 1 for
    the efficient variant.
    """

    q: float
    q_mu: float
    e_mu: float
    q1_lower: float
    e1_upper: float
    f_ec: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q <= 1.0:
            raise ValidationError(f"q must lie in (0, 1], got {self.q}")
        if not 0.0 <= self.q_mu <= 1.0:
            raise ValidationError(f"q_mu must lie in [0, 1], got {self.q_mu}")
        if not 0.0 <= self.e_mu <= 1.0:
            raise ValidationError(f"e_mu must lie in [0, 1], got {self.e_mu}")
        if not 0.0 <= self.q1_lower < math.inf:
            raise ValidationError(f"q1_lower must be finite and >= 0, got {self.q1_lower}")
        if not 0.0 <= self.e1_upper <= 1.0:
            raise ValidationError(f"e1_upper must lie in [0, 1], got {self.e1_upper}")
        if not 1.0 <= self.f_ec < math.inf:
            raise ValidationError(f"f_ec must be finite and >= 1, got {self.f_ec}")


def key_rate_strong(inputs: KeyRateInputs) -> float:
    """Strong lower bound on the secure-key fraction per pulse."""
    return inputs.q * (
        -inputs.q_mu * inputs.f_ec * binary_entropy(inputs.e_mu)
        + inputs.q1_lower * (1.0 - binary_entropy(inputs.e1_upper))
    )


@dataclass(frozen=True)
class WangRateInputs:
    """Inputs of the tagged-fraction (weak) key-rate bound."""

    q: float
    q_mu: float
    e_mu: float
    delta: float
    f_ec: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q <= 1.0:
            raise ValidationError(f"q must lie in (0, 1], got {self.q}")
        if not 0.0 <= self.q_mu <= 1.0:
            raise ValidationError(f"q_mu must lie in [0, 1], got {self.q_mu}")
        if not 0.0 <= self.e_mu <= 1.0:
            raise ValidationError(f"e_mu must lie in [0, 1], got {self.e_mu}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValidationError(f"delta must lie in [0, 1], got {self.delta}")
        if not 1.0 <= self.f_ec < math.inf:
            raise ValidationError(f"f_ec must be finite and >= 1, got {self.f_ec}")


def key_rate_wang(inputs: WangRateInputs) -> float:
    """Weak key-rate bound from a multiphoton-fraction cap.

    Returns -inf when the bound degenerates (all detections possibly
    tagged, or the rescaled error rate leaves [0, 1]).
    """
    if inputs.delta >= 1.0:
        return -math.inf
    e_scaled = inputs.e_mu / (1.0 - inputs.delta)
    if e_scaled > 1.0:
        return -math.inf
    return inputs.q * inputs.q_mu * (
        -inputs.f_ec * binary_entropy(inputs.e_mu)
        + (1.0 - inputs.delta) * (1.0 - binary_entropy(e_scaled))
    )


def optimal_mu(params: ExperimentParams, f_ec: float | None = None) -> float:
    """Signal intensity maximizing the strong bound, background neglected.

    Solves (1 - mu) e^(-mu) = f_ec H2(e_det) / (1 - H2(e_det)) on (0, 1].
    With a perfect detector the optimum is mu = 1.
    """
    f = params.f_ec if f_ec is None else f_ec
    if not 1.0 <= f < math.inf:
        raise ValidationError(f"f_ec must be finite and >= 1, got {f}")
    h = binary_entropy(params.e_detector)
    if h >= 0.5:
        raise NoPositiveRateError(
            f"e_detector={params.e_detector} leaves no single-photon advantage"
        )
    rhs = f * h / (1.0 - h)
    if rhs == 0.0:
        return 1.0
    # (1 - m) e^-m falls from 1 to 0 on [0, 1], so this is positive left of its one root
    mu = find_zero_crossing(lambda m: (1.0 - m) * math.exp(-m) - rhs, 1e-9, 1.0, 1.0, x_tol=1e-9)
    if mu is None:
        raise NoPositiveRateError(
            f"error correction at f_ec={f}, e_detector={params.e_detector} "
            "consumes the whole key"
        )
    return mu


def optimal_mu_exact(params: ExperimentParams, eta: float) -> float:
    """Intensity maximizing the exact asymptotic rate at one channel.

    Cross-check for optimal_mu: includes the background and the full
    gain/QBER expressions instead of the stationarity approximation.
    Raises NoPositiveRateError when no mu in the bracket gives key.
    """
    lo, hi = 0.01, 1.5
    best = maximize_scalar(lambda mu: asymptotic_rate(params, eta, mu), lo, hi, 1e-7, 1e-9)
    if not best.value > 0.0:
        raise NoPositiveRateError(
            f"no mu in [{lo}, {hi}] gives a positive asymptotic rate at eta={eta:.6e}"
        )
    return best.x


def optimal_mu_wang(params: ExperimentParams, length_km: float | None = None) -> float:
    """Signal intensity maximizing the weak bound with Delta = mu.

    In the asymptotic limit of Wang-style estimation the tagged-fraction
    cap tends to the signal intensity itself, so the rate is maximized
    with Delta set to mu.  With a length the rate at that distance is
    maximized; without one the secure distance is maximized instead.  That
    distance is found to a bisection tolerance, so it is piecewise constant
    in mu, and the answer is one point of its top plateau: which one
    depends on the line search's steps, not on the model.  Raises
    NoPositiveRateError when no mu in the bracket gives key.
    """
    if length_km is not None:
        eta = transmittance(params, length_km).eta

        def objective(mu: float) -> float:
            return wang_asymptotic_rate(params, eta, mu)

    else:

        def objective(mu: float) -> float:
            d = max_secure_distance(
                lambda l: wang_asymptotic_rate(params, transmittance(params, l).eta, mu)
            )
            return -1.0 if d is None else d

    lo, hi = 0.01, 0.99
    best = maximize_scalar(objective, lo, hi, 1e-6, 1e-9)
    if not best.value > 0.0:
        where = "at any distance" if length_km is None else f"at {length_km:g} km"
        raise NoPositiveRateError(f"no mu in [{lo}, {hi}] gives a positive weak-bound rate {where}")
    return best.x


# --- the estimator table -----------------------------------------------

# what an estimator observes: "mu" alone is the model's own signal gain and QBER
SIGNAL, ONE_DECOY, VACUUM_WEAK, TWO_DECOY = "mu", "mu nu1", "mu nu1 0", "mu nu1 nu2"


class _Signal(NamedTuple):
    q_mu: float
    e_mu: float


@dataclass(frozen=True)
class Estimator:
    """One row of ESTIMATORS.

    ``bounds`` names the estimator's function in decoyqkd.bounds.  It is
    looked up on every call, so a wrapper installed on that module sees
    the call; the tagged-fraction rate ("wang") needs none.
    """

    name: str  # as BoundsEstimate.estimator reports it
    observes: str  # SIGNAL, ONE_DECOY, VACUUM_WEAK or TWO_DECOY
    bounds: Optional[str]
    finite_size: bool = False  # supported by fluct's confidence-band analysis

    def intensities(self, mu: float, nu1: float, nu2: float = 0.0):
        """The intensities it observes, as simulate_observations takes them."""
        if self.observes == TWO_DECOY:
            return _bounds.ProtocolIntensities(mu=mu, nu1=nu1, nu2=nu2)
        return (mu, nu1, 0.0) if self.observes == VACUUM_WEAK else (mu, nu1)

    def estimate(self, obs: ObservedRates, intensities) -> _bounds.BoundsEstimate:
        """Single-photon bounds from observations at ``intensities``."""
        fn = getattr(_bounds, self.bounds)
        if self.observes == TWO_DECOY:
            return fn(obs, intensities)
        return fn(obs, intensities[0], intensities[1])


ESTIMATORS: Dict[str, Estimator] = {e.name: e for e in (
    Estimator("asymptotic", SIGNAL, "asymptotic_bounds"),
    Estimator("vacuum-weak", VACUUM_WEAK, "vacuum_weak_bounds", finite_size=True),
    Estimator("one-decoy-trial", ONE_DECOY, "one_decoy_trial", finite_size=True),
    Estimator("one-decoy-simple", ONE_DECOY, "one_decoy_simple"),
    Estimator("two-decoy", TWO_DECOY, "two_decoy_bounds"),
    Estimator("wang", SIGNAL, None),
)}
ESTIMATORS["one-decoy"] = ESTIMATORS["one-decoy-trial"]  # the finite-size analysis' name
FINITE_SIZE_ESTIMATORS = tuple(name for name, e in ESTIMATORS.items() if e.finite_size)


def get_estimator(name: str, finite_size: bool = False) -> Estimator:
    """The ESTIMATORS row for ``name``; with finite_size, only FINITE_SIZE_ESTIMATORS."""
    row = ESTIMATORS.get(name)
    if row is None or (finite_size and not row.finite_size):
        names = FINITE_SIZE_ESTIMATORS if finite_size else tuple(ESTIMATORS)
        kind = "finite-size estimator" if finite_size else "estimator"
        raise ValidationError(f"{kind} must be one of {names}, got {name!r}")
    return row


def rate_from_estimate(obs, est, q: float, f_ec: float) -> float:
    """Strong key rate from the signal's obs.q_mu, obs.e_mu and a bounds estimate."""
    return key_rate_strong(KeyRateInputs(
        q=q, q_mu=obs.q_mu, e_mu=obs.e_mu,
        q1_lower=est.q1_lower, e1_upper=est.e1_upper, f_ec=f_ec,
    ))


def estimate_at(name: str, params: ExperimentParams, eta: float, mu: float,
                nu1: float | None = None, nu2: float = 0.0):
    """Noiseless model observations at one channel and the estimator's bounds (or None).

    On a link with no background the vacuum decoy records nothing, and
    vacuum+weak is the one-decoy trial's algebra (Y0 = 0) bit for bit.
    """
    row = get_estimator(name)
    if row.observes != SIGNAL:
        ints = row.intensities(mu, nu1, nu2)
        obs = simulate_observations(params, eta, ints)
        return obs, row.estimate(obs, ints)
    est = None if row.bounds is None else getattr(_bounds, row.bounds)(params, eta, mu)
    return _Signal(overall_gain(mu, params, eta), overall_qber(mu, params, eta)), est


def estimator_rate(
    name: str, params: ExperimentParams, eta: float, mu: float,
    nu1: float | None = None, nu2: float = 0.0, q: float = 0.5,
) -> float:
    """Key rate per pulse of one estimator on noiseless model observations.

    The tagged-fraction estimator ("wang") uses the weak bound with the
    asymptotic cap Delta = mu; every other one the strong bound.
    """
    obs, est = estimate_at(name, params, eta, mu, nu1, nu2)
    if est is None:
        return key_rate_wang(WangRateInputs(
            q=q, q_mu=obs.q_mu, e_mu=obs.e_mu, delta=mu, f_ec=params.f_ec,
        ))
    return rate_from_estimate(obs, est, q, params.f_ec)


# --- rate-versus-distance curves --------------------------------------


def asymptotic_rate(params: ExperimentParams, eta: float, mu: float, q: float = 0.5) -> float:
    """Strong bound with perfect (infinite-decoy) single-photon knowledge."""
    return estimator_rate("asymptotic", params, eta, mu, q=q)


def vacuum_weak_rate(
    params: ExperimentParams, eta: float, mu: float, nu: float, q: float = 0.5
) -> float:
    """Strong bound fed by the vacuum+weak estimator on model observations."""
    return estimator_rate("vacuum-weak", params, eta, mu, nu, q=q)


def one_decoy_rate(
    params: ExperimentParams, eta: float, mu: float, nu: float,
    variant: str = "trial", q: float = 0.5,
) -> float:
    """Strong bound fed by a one-decoy estimator ("trial" or "simple")."""
    return estimator_rate(f"one-decoy-{variant}", params, eta, mu, nu, q=q)


def two_decoy_rate(params: ExperimentParams, eta: float, intensities, q: float = 0.5) -> float:
    """Strong bound fed by the generic two-decoy estimator at a ProtocolIntensities."""
    return estimator_rate(
        "two-decoy", params, eta, intensities.mu, intensities.nu1, intensities.nu2, q=q
    )


def wang_asymptotic_rate(params: ExperimentParams, eta: float, mu: float, q: float = 0.5) -> float:
    """Weak bound with the asymptotic tagged-fraction cap Delta = mu."""
    return estimator_rate("wang", params, eta, mu, q=q)


REACH_LIMIT_KM = 500.0  # the noiseless distance search stops here


def max_secure_distance(rate_of_length) -> float | None:
    """Zero crossing of a rate-versus-distance curve, to 0.01 km.

    Expects the usual shape: positive at short distance, negative past
    the crossing.  Returns None when the rate is never positive, and
    exactly REACH_LIMIT_KM when it is still positive there (a crossing
    is always below it).
    """
    return find_zero_crossing(rate_of_length, 0.0, REACH_LIMIT_KM, 2.0, x_tol=0.01)
