"""Numerical helpers that only the tests use."""

from typing import Callable


def finite_difference(f: Callable[[float], float], x: float, h: float) -> float:
    """Central difference estimate of f'(x) with step ``h``."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)
