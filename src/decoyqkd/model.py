"""Closed-form model of a fiber-based weak-coherent-pulse QKD link.

A phase-randomized laser pulse of mean photon number mu is a Poissonian
mixture of number states, the fiber is a beamsplitter of transmittance
eta, and the receiver is a threshold detector with background yield y0
and misalignment error e_detector.  Everything observable at the
receiver then has a closed form:

    eta_i = 1 - (1 - eta)^i              per-photon-number transmittance
    Y_i   = y0 + eta_i - y0 * eta_i      yield of an i-photon pulse
    Q_i   = Y_i * mu^i e^(-mu) / i!      gain of the i-photon component
    e_i   = (e0 * y0 + e_detector * eta_i) / Y_i
    Q_mu  = y0 + 1 - e^(-eta * mu)       overall gain
    E_mu  = (e0 * y0 + e_detector * (1 - e^(-eta * mu))) / Q_mu

Background events carry no bit correlation, so their error rate e0 is
fixed at 1/2.  The closed-form overall gain and QBER coincide with the
photon-number series under the widely used approximation
Y_i ~= y0 + eta_i (dropping the y0*eta_i cross term), and differ from
the exact series only by that term.  The series itself (yield_i,
gain_i, error_i, and yield_i's ``approx`` flag for the approximation)
lives in tests/helpers.py, where the tests check the closed forms
against it.
"""

from __future__ import annotations

import io
import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional

E0 = 0.5  # background error rate: dark counts land in either bit value


class ValidationError(ValueError):
    """An input violates a documented model constraint."""


@dataclass(frozen=True)
class ExperimentParams:
    """Hardware constants of one QKD setup.

    alpha       fiber loss coefficient, dB/km
    e_detector  misalignment/optics error probability, in [0, 0.5]
    y0          background yield per pulse (dark counts, stray light)
    eta_bob     receiver transmittance (internal optics times detector
                efficiency), in (0, 1]
    rep_rate    pulse repetition rate, Hz (bookkeeping only; rates in
                this package are per pulse)
    f_ec        error-correction inefficiency relative to the Shannon
                limit, >= 1
    wavelength  operating wavelength in nm, informational; None or > 0
    """

    alpha: float
    e_detector: float
    y0: float
    eta_bob: float
    rep_rate: float = 2.0e6
    f_ec: float = 1.22
    wavelength: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValidationError(f"alpha must be finite and > 0 dB/km, got {self.alpha}")
        if not 0.0 <= self.e_detector <= 0.5:
            raise ValidationError(f"e_detector must lie in [0, 0.5], got {self.e_detector}")
        if not 0.0 <= self.y0 < 1.0:
            raise ValidationError(f"y0 must lie in [0, 1), got {self.y0}")
        if not 0.0 < self.eta_bob <= 1.0:
            raise ValidationError(f"eta_bob must lie in (0, 1], got {self.eta_bob}")
        if not 0.0 < self.rep_rate < math.inf:
            raise ValidationError(f"rep_rate must be finite and > 0, got {self.rep_rate}")
        if not 1.0 <= self.f_ec < math.inf:
            raise ValidationError(f"f_ec must be finite and >= 1, got {self.f_ec}")
        if self.wavelength is not None and not 0.0 < self.wavelength < math.inf:
            raise ValidationError(f"wavelength must be finite and > 0 nm, got {self.wavelength}")


# Standard parameter sets from the experimental literature.
GYS = ExperimentParams(
    alpha=0.21, e_detector=0.033, y0=1.7e-6, eta_bob=0.045,
    rep_rate=2.0e6, f_ec=1.22, wavelength=1550.0,
)
KTH = ExperimentParams(
    alpha=0.2, e_detector=0.01, y0=4.0e-4, eta_bob=0.143,
    rep_rate=1.0e5, f_ec=1.22, wavelength=1550.0,
)
PRESETS = {"GYS": GYS, "KTH": KTH}


def get_preset(name: str) -> ExperimentParams:
    try:
        return PRESETS[name.upper()]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def load_params(path: str) -> ExperimentParams:
    """Read ExperimentParams from a flat key=value text file.

    Blank lines and lines starting with '#' are ignored.  Keys must match
    the ExperimentParams field names; unknown and repeated keys are rejected.
    """
    keys = {f.name: f.default is MISSING for f in fields(ExperimentParams)}  # name: required
    values = {}
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        body = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    # StringIO(newline=None) splits lines as a text-mode open() would
    for line_no, raw in enumerate(io.StringIO(body, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValidationError(f"{path}:{line_no}: unknown key {key!r}")
        if key in values:
            raise ValidationError(f"{path}:{line_no}: repeated key {key!r}")
        try:
            values[key] = float(text.strip())
        except ValueError:
            raise ValidationError(f"{path}:{line_no}: value for {key!r} is not a number") from None
    missing = [k for k, required in keys.items() if required and k not in values]
    if missing:
        raise ValidationError(f"{path}: missing required keys {missing}")
    return ExperimentParams(**values)


@dataclass(frozen=True)
class ChannelPoint:
    """A fiber length and the end-to-end transmittance it implies."""

    length_km: float
    eta: float


def transmittance(params: ExperimentParams, length_km: float) -> ChannelPoint:
    """End-to-end transmittance eta = 10^(-alpha*l/10) * eta_bob."""
    if not 0.0 <= length_km < math.inf:
        raise ValidationError(f"length_km must be finite and >= 0, got {length_km}")
    eta = 10.0 ** (-params.alpha * length_km / 10.0) * params.eta_bob
    return ChannelPoint(length_km=length_km, eta=eta)


def overall_gain(mu: float, params: ExperimentParams, eta: float) -> float:
    """Detection probability per pulse at mean photon number mu.

    The closed form y0 + 1 - e^(-eta mu) is a probability only while
    y0 <= e^(-eta mu); a link that breaks that is rejected here.
    """
    _check_mu(mu)
    _check_eta(eta)
    gain = params.y0 - math.expm1(-eta * mu)
    if gain > 1.0:
        raise ValidationError(
            f"overall gain y0 + 1 - e^(-eta mu) = {gain} exceeds 1 at y0={params.y0}, "
            f"mu={mu}, eta={eta}: the model needs y0 <= e^(-eta mu)"
        )
    return gain


def overall_qber(mu: float, params: ExperimentParams, eta: float) -> float:
    """Quantum bit error rate at mean photon number mu."""
    q = overall_gain(mu, params, eta)
    if q <= 0.0:
        raise ValidationError("QBER undefined: overall gain is zero")
    return (E0 * params.y0 + params.e_detector * (-math.expm1(-eta * mu))) / q


@dataclass(frozen=True)
class ObservedRates:
    """Gains and QBERs an experiment would record at its intensities.

    Signal fields are always present; the second decoy pair is None for
    one-decoy protocols.  A zero second-decoy intensity represents a
    vacuum decoy, whose gain is the background yield and whose error
    rate is E0.
    """

    q_mu: float
    e_mu: float
    q_nu1: float
    e_nu1: float
    q_nu2: Optional[float] = None
    e_nu2: Optional[float] = None

    def __post_init__(self) -> None:
        pairs = [("q_mu", self.q_mu, "e_mu", self.e_mu),
                 ("q_nu1", self.q_nu1, "e_nu1", self.e_nu1)]
        if (self.q_nu2 is None) != (self.e_nu2 is None):
            raise ValidationError("q_nu2 and e_nu2 must be supplied together")
        if self.q_nu2 is not None:
            pairs.append(("q_nu2", self.q_nu2, "e_nu2", self.e_nu2))
        for qn, q, en, e in pairs:
            if not 0.0 <= q <= 1.0:
                raise ValidationError(f"{qn} must lie in [0, 1], got {q}")
            if not 0.0 <= e <= 1.0:
                raise ValidationError(f"{en} must lie in [0, 1], got {e}")

    @property
    def has_second_decoy(self) -> bool:
        return self.q_nu2 is not None


def simulate_observations(params: ExperimentParams, eta: float, intensities) -> ObservedRates:
    """Noiseless observations the model predicts at the given intensities.

    ``intensities`` is any object with mu, nu1 and (possibly None) nu2
    attributes, or a (mu, nu1) / (mu, nu1, nu2) tuple.
    """
    mu, nu1, nu2 = _unpack_intensities(intensities)
    obs = {
        "q_mu": overall_gain(mu, params, eta),
        "e_mu": overall_qber(mu, params, eta),
        "q_nu1": overall_gain(nu1, params, eta),
        "e_nu1": overall_qber(nu1, params, eta),
    }
    if nu2 is not None:
        obs["q_nu2"] = overall_gain(nu2, params, eta)
        # a vacuum decoy records background alone, whose error rate is E0
        obs["e_nu2"] = E0 if nu2 == 0.0 else overall_qber(nu2, params, eta)
    return ObservedRates(**obs)


def poisson_tail(mu: float, i_max: int) -> float:
    """Poisson tail mass sum_{i > i_max} mu^i e^(-mu) / i!."""
    _check_mu(mu)
    acc = 0.0
    term = math.exp(-mu)
    for i in range(i_max + 1):
        acc += term
        term *= mu / (i + 1)
    return max(0.0, 1.0 - acc)


def _unpack_intensities(intensities):
    if hasattr(intensities, "mu"):
        mu = intensities.mu
        nu1 = intensities.nu1
        nu2 = getattr(intensities, "nu2", None)
    else:
        seq = tuple(intensities)
        if len(seq) == 2:
            mu, nu1 = seq
            nu2 = None
        elif len(seq) == 3:
            mu, nu1, nu2 = seq
        else:
            raise ValidationError("intensities must supply (mu, nu1[, nu2])")
    return mu, nu1, nu2


def _check_mu(mu: float) -> None:
    if not mu >= 0.0:  # NaN too
        raise ValidationError(f"mean photon number must be >= 0, got {mu}")


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"transmittance must lie in [0, 1], got {eta}")
