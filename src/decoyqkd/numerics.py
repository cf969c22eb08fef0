"""Bounded maximization and the march-and-bisect zero crossing.

Everything this package optimizes is cheap to evaluate and
one-dimensional (or reducible to coordinate-wise line searches), and
smooth where it is not flat, so one line search and bisection are used
throughout.  The line search is golden section while its two interior
probes tie (a reach probe's clamped objective is 0 until its first
positive rate), for at most eight steps, and Brent's method once they
differ; a caller that already knows one point and its value (a
coordinate descent's current point) hands it in as an incumbent, which
joins Brent's first fit at no evaluation.  No derivatives are required
anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEP = 0.5 * (3.0 - math.sqrt(5.0))  # 1 - _INV_GOLDEN, Brent's golden-section step
_MAX_ITER = 200
_FLAT_STEPS = 8  # golden steps of tied probes before a line search calls f flat


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of a bounded scalar maximization.

    ``converged`` is False when the iteration cap was hit before the
    bracket shrank to tolerance, or when every pair of interior probes
    tied (in which case ``x`` is the bracket midpoint).
    """

    x: float
    value: float
    converged: bool


def maximize_scalar(
    f: Callable[[float], float], lo: float, hi: float, abs_tol: float, rel_tol: float,
    incumbent: Optional[Tuple[float, float]] = None,
) -> MaximizeResult:
    """Maximum of ``f`` on [lo, hi]: golden section while ``f`` looks flat, then Brent.

    Golden-section steps run while the two interior probes tie (each step
    replaces one of them, so every earlier probe tied too), at most 8 of
    them: a tie keeps the left part of the bracket, so more would only
    walk toward ``lo``.  At the first pair that does not tie the bracket
    shrinks by that comparison, and Brent's method (Brent 1973, ch. 5;
    scipy's fminbound loop, written for a maximum) continues from the
    larger point, or from the number where the other is NaN, so a NaN is
    never the best point: a parabolic step through the three best points,
    or a golden-section step where the parabola is not trusted.  The
    search stops once its bracket [a, b] is no wider than
    ``abs_tol + rel_tol * max(|a|, |b|)``, or after 200 steps.  A search
    whose probes tied throughout, to that width or for 8 steps, returns
    the bracket midpoint, unconverged.

    ``incumbent`` is a known point and its value ``(x0, f(x0))``, which
    costs no evaluation.  The tied phase never reads it.  Where x0 lies
    strictly inside the bracket that phase left, is neither probe, and
    f(x0) is not NaN, it joins the two probes: the best of the three is
    Brent's first point, the bracket shrinks to the nearest known point on
    each side of it, and the first step may be parabolic.  Elsewhere it
    is ignored.  The search never returns less than f(x0) once x0 joins.
    Needs -inf < lo < hi < inf and finite tolerances > 0 (else ValueError).
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need -inf < lo < hi < inf, got lo={lo}, hi={hi}")
    for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol)):
        if not 0.0 < tol < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {tol}")
    # golden section replaces one interior point per step, so while c and d
    # tie every earlier probe tied too; a tie keeps the left point
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    while fc == fd:
        # max(abs(a), abs(b)) is max(-a, b), since every step keeps a <= b
        if steps == _FLAT_STEPS or (b - a) <= abs_tol + rel_tol * (-a if -a > b else b):
            # objective indistinguishable from a constant over every probe
            mid = 0.5 * (lo + hi)
            return MaximizeResult(x=mid, value=f(mid), converged=False)
        steps += 1
        b, d, fd = d, c, fc
        c = b - _INV_GOLDEN * (b - a)
        fc = f(c)
    # Brent from the best known point, never a NaN while another is a number:
    # the larger of c and d, or the incumbent where it beats both.  w and v are
    # the second and third best points, u the latest probe, e the step before
    # last and step the last
    if fd > fc or fc != fc:
        x, fx, w, fw = d, fd, c, fc
    else:
        x, fx, w, fw = c, fc, d, fd
    v, fv = w, fw
    known = (c, d)
    if incumbent is not None:
        x0, f0 = incumbent
        if a < x0 < b and x0 != c and x0 != d and f0 == f0:
            known = (c, d, x0)
            if f0 > fx or fx != fx:
                v, fv, w, fw, x, fx = w, fw, x, fx, x0, f0
            elif f0 > fw or fw != fw:
                v, fv, w, fw = w, fw, x0, f0
            else:
                v, fv = x0, f0
    # the bracket shrinks to the nearest known point on each side of x
    for k in known:
        if a < k < x:
            a = k
        elif x < k < b:
            b = k
    step = 0.0
    # three known points are a fit, so the first step may be parabolic
    e = b - a if len(known) == 3 else 0.0
    converged = False
    while steps < _MAX_ITER:
        m = 0.5 * (a + b)
        tol2 = 0.5 * (abs_tol + rel_tol * (-a if -a > b else b))
        tol1 = 0.5 * tol2
        # max(x - a, b - x) <= tol2, hence b - a <= 2 tol2, the golden-section contract
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            converged = True
            break
        steps += 1
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, step
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                step = p / q
                golden = False
                u = x + step
                if (u - a) < tol2 or (b - u) < tol2:
                    step = tol1 if m >= x else -tol1
        if golden:
            e = (a - x) if x >= m else (b - x)
            step = _GOLDEN_STEP * e
        u = x + (step if abs(step) >= tol1 else (tol1 if step >= 0.0 else -tol1))
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return MaximizeResult(x=x, value=fx, converged=converged)


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
