"""Order statistics used by the benchmark report.

Standard library only, so the launcher can use it without importing
numpy.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail value


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has ``TAIL_BEYOND`` samples above it.

    ``percentile`` is the rank of ``value`` as a share of ``n`` (in %),
    ``beyond`` the number of samples ranked above it.  With too few
    samples there is no such percentile: ``defined`` is False and
    ``value`` is the maximum.
    """

    value: float
    percentile: float
    beyond: int
    n: int
    defined: bool


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Value at 1-based rank ``n - beyond`` of the sorted samples."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = n - beyond
    if rank < 1:
        return Tail(value=ordered[-1], percentile=100.0, beyond=0, n=n, defined=False)
    return Tail(
        value=ordered[rank - 1],
        percentile=100.0 * rank / n,
        beyond=n - rank,
        n=n,
        defined=True,
    )


def per_input_medians(inputs: Sequence[object], samples: Sequence[float]) -> list:
    """Median of each input's samples, one value per distinct input.

    ``inputs[i]`` names the input that produced ``samples[i]``.  An input
    run several times in one run counts once, at its median, so a host
    stall during one of its repeats does not reach the order statistics
    taken over inputs.
    """
    if len(inputs) != len(samples):
        raise ValueError("one input per sample")
    by_input: dict = {}
    for key, x in zip(inputs, samples):
        by_input.setdefault(key, []).append(x)
    return [statistics.median(xs) for xs in by_input.values()]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
