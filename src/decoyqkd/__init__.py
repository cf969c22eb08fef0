"""Decoy-state QKD: yields, gains, key-rate bounds, and pulse allocation.

The package models a weak-coherent-pulse BB84 link, derives lower bounds
on the single-photon contribution from decoy measurements, evaluates the
resulting secure-key rates (with and without finite-statistics effects),
and optimizes the decoy intensities and pulse allocation.
"""

from .bounds import (
    BoundsEstimate,
    DeviationReport,
    OracleResult,
    ProtocolIntensities,
    adversary_oracle,
    asymptotic_bounds,
    deviation_report,
    one_decoy_simple,
    one_decoy_trial,
    two_decoy_bounds,
    vacuum_weak_bounds,
    wang_delta,
    y0_lower,
)
from .fluct import (
    AllocationResult,
    DataAllocation,
    FluctuatedBounds,
    InsufficientDataError,
    ScanPoint,
    fluctuated_bounds,
    max_distance_fluct,
    optimize_allocation,
    perturb_observations,
    scan_distance_fluct,
)
from .model import (
    E0,
    GYS,
    KTH,
    PRESETS,
    ChannelPoint,
    ExperimentParams,
    ObservedRates,
    ValidationError,
    get_preset,
    load_params,
    overall_gain,
    overall_qber,
    simulate_observations,
    transmittance,
)
from .rate import (
    KeyRateInputs,
    NoPositiveRateError,
    WangRateInputs,
    asymptotic_rate,
    binary_entropy,
    key_rate_strong,
    key_rate_wang,
    max_secure_distance,
    one_decoy_rate,
    optimal_mu,
    optimal_mu_exact,
    optimal_mu_wang,
    two_decoy_rate,
    vacuum_weak_rate,
    wang_asymptotic_rate,
)

__version__ = "0.1.0"
