"""Bounded maximization and the march-and-bisect zero crossing.

Everything this package optimizes is smooth, cheap to evaluate, and
one-dimensional (or reducible to coordinate-wise line searches), so
golden-section search and bisection are used throughout.  No derivatives
are required anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 200


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


def maximize_scalar(
    f: Callable[[float], float], lo: float, hi: float, abs_tol: float, rel_tol: float
) -> MaximizeResult:
    """Golden-section search for a maximum of ``f`` on [lo, hi].

    The search stops once its bracket [a, b] is no wider than
    ``abs_tol + rel_tol * max(|a|, |b|)``, or after 200 iterations.
    Needs -inf < lo < hi < inf and finite tolerances > 0 (else ValueError).
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need -inf < lo < hi < inf, got lo={lo}, hi={hi}")
    for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol)):
        if not 0.0 < tol < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {tol}")
    # the allocation search's line searches run this loop, so each min/max is a
    # comparison in the builtin's argument order: NaN probes and the flat test
    # below come out as with the builtins
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    v_lo = fd if fd < fc else fc
    v_hi = fd if fd > fc else fc
    converged = False
    for _ in range(_MAX_ITER):
        # max(abs(a), abs(b)) is max(-a, b), since every step keeps a <= b
        if (b - a) <= abs_tol + rel_tol * (-a if -a > b else b):
            converged = True
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
            if fc < v_lo:
                v_lo = fc
            if fc > v_hi:
                v_hi = fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
            if fd < v_lo:
                v_lo = fd
            if fd > v_hi:
                v_hi = fd
    if v_hi - v_lo == 0.0:
        # objective indistinguishable from a constant over every probe
        mid = 0.5 * (lo + hi)
        return MaximizeResult(x=mid, value=f(mid), converged=False)
    if fc >= fd:
        return MaximizeResult(x=c, value=fc, converged=converged)
    return MaximizeResult(x=d, value=fd, converged=converged)


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
