"""Scalar root finding, bounded maximization, and derivative estimates.

Everything this package optimizes is smooth, cheap to evaluate, and
one-dimensional (or reducible to coordinate-wise line searches), so plain
bisection and golden-section search are used throughout.  No derivatives
are required anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BracketError(ValueError):
    """The supplied interval does not bracket a zero of the function."""


@dataclass(frozen=True)
class SearchConfig:
    """Interval and stopping rules shared by the 1-d searches.

    The search stops once the interval width falls below
    ``abs_tol + rel_tol * |x|`` or after ``max_iter`` iterations.
    """

    lo: float
    hi: float
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket must satisfy lo < hi, got ({self.lo}, {self.hi})")
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def width_ok(self, lo: float, hi: float) -> bool:
        return (hi - lo) <= self.abs_tol + self.rel_tol * max(abs(lo), abs(hi))


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of a bounded scalar maximization.

    ``converged`` is False when the iteration cap was hit before the
    bracket shrank to tolerance, or when the objective was flat over
    every probe (in which case ``x`` is the bracket midpoint).
    """

    x: float
    value: float
    converged: bool


def find_root(f: Callable[[float], float], cfg: SearchConfig) -> float:
    """Locate a zero of ``f`` inside the bracket by bisection.

    When the endpoint signs agree the routine falls back to minimizing
    |f|, which resolves tangent roots (the minimum is accepted as a root
    when |f| drops below ``abs_tol``); a bracket holding no zero at all
    raises BracketError.
    """
    lo, hi = cfg.lo, cfg.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        touch = maximize_scalar(lambda x: -abs(f(x)), cfg)
        if abs(f(touch.x)) <= cfg.abs_tol:
            return touch.x
        raise BracketError(
            f"f has the same sign at both endpoints of ({cfg.lo}, {cfg.hi}) "
            "and no tangent root was found"
        )
    for _ in range(cfg.max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or cfg.width_ok(lo, hi):
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def maximize_scalar(f: Callable[[float], float], cfg: SearchConfig) -> MaximizeResult:
    """Golden-section search for a maximum of ``f`` on the bracket."""
    a, b = cfg.lo, cfg.hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    v_lo = min(fc, fd)
    v_hi = max(fc, fd)
    converged = False
    for _ in range(cfg.max_iter):
        if cfg.width_ok(a, b):
            converged = True
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
            v_lo, v_hi = min(v_lo, fc), max(v_hi, fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
            v_lo, v_hi = min(v_lo, fd), max(v_hi, fd)
    if v_hi - v_lo == 0.0:
        # objective indistinguishable from a constant over every probe
        mid = 0.5 * (cfg.lo + cfg.hi)
        return MaximizeResult(x=mid, value=f(mid), converged=False)
    if fc >= fd:
        return MaximizeResult(x=c, value=fc, converged=converged)
    return MaximizeResult(x=d, value=fd, converged=converged)


def finite_difference(f: Callable[[float], float], x: float, h: float) -> float:
    """Central difference estimate of f'(x) with step ``h``."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def find_zero_crossing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    step: float,
    x_tol: float = 0.01,
) -> Optional[float]:
    """First point where ``f`` stops being positive, marching from ``lo``.

    Intended for curves that are positive on the left and stay
    non-positive past their first crossing (key rate versus distance).
    The march takes steps of ``step`` up to ``hi``, where -inf < lo < hi
    < inf (else ValueError); the first bracket whose right end has
    ``f <= 0`` is bisected to ``x_tol``.  Returns

    * None when ``f(lo) <= 0`` (never positive);
    * the bisected crossing, strictly below ``hi``;
    * exactly ``hi`` when ``f`` is still positive there (censored).
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need -inf < lo < hi < inf, got lo={lo}, hi={hi}")
    if not (step > 0.0 and x_tol > 0.0):
        raise ValueError("step and x_tol must be positive")
    if f(lo) <= 0.0:
        return None
    a = lo
    while a < hi:
        b = min(a + step, hi)
        if f(b) <= 0.0:
            m = 0.5 * (a + b)
            while (b - a) > x_tol and a < m < b:  # stop if a and b are adjacent floats
                if f(m) > 0.0:
                    a = m
                else:
                    b = m
                m = 0.5 * (a + b)
            # the midpoint of a and hi can round up to hi, which would read as censored
            return m if m < hi else a
        a = b
    return hi
