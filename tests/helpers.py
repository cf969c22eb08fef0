"""Functions that only the tests use.

Numerics (finite_difference, and the probes of a golden-section search
on a flat objective), the photon-number series of the channel
model (photon_transmittance, yield_i, gain_i, error_i,
poisson_tail_cutoff), and the structure of the Y1/e1 bounds as functions
of the weakest decoy behind criterion 10's "the weakest decoy should be
vacuum" checks.
"""

import math
from typing import Callable

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
