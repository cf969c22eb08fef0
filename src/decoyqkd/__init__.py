"""Decoy-state QKD: yields, gains, key-rate bounds, and pulse allocation.

The package models a weak-coherent-pulse BB84 link, derives lower bounds
on the single-photon contribution from decoy measurements, evaluates the
resulting secure-key rates (with and without finite-statistics effects),
and optimizes the decoy intensities and pulse allocation.
"""

from . import bounds, fluct, model, numerics, rate  # noqa: F401

__version__ = "0.1.0"
