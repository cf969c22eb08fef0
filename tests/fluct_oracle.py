"""fluctuated_bounds composed from the library's public objects.

The library computes the worst-case finite-size rate with one fused
float kernel (fluct._worst_case).  This module builds the same report the
long way: shift the observations with perturb_observations, run the
estimator on each, and turn each estimate into a key rate with
rate_from_estimate, keeping the worse vacuum-gain direction.  The tests
hold fluctuated_bounds to it value for value and message for message, and
the kernel value for value on its domain.  The plain estimate and rate
come before the shifted ones, so a bad intensity or an allocation with no
signal pulses raises before a band with no expected events, as
fluctuated_bounds' entry checks do.
"""

from decoyqkd import fluct
from decoyqkd.model import ValidationError, _unpack_intensities, simulate_observations
from decoyqkd.rate import ESTIMATORS, VACUUM_WEAK, get_estimator, rate_from_estimate


def oracle_fluctuated_bounds(params, eta, intensities, alloc, estimator="vacuum-weak"):
    """fluct.fluctuated_bounds(...), built from intermediate objects."""
    row = get_estimator(estimator, finite_size=True)
    mu, nu, nu2 = _unpack_intensities(intensities)
    if nu2 not in (None, 0.0):
        raise ValidationError("fluctuation analysis expects the second decoy to be vacuum")

    use_vacuum = row.observes == VACUUM_WEAK and alloc.n_decoy2 > 0.0 and params.y0 != 0.0
    if not use_vacuum:
        row = ESTIMATORS["one-decoy"]  # no vacuum events, no background estimate
    ints = row.intensities(mu, nu)
    obs = simulate_observations(params, eta, ints)
    q = alloc.q
    f_ec = params.f_ec

    est_plain = row.estimate(obs, ints)
    rate_plain = rate_from_estimate(obs, est_plain, q, f_ec)
    # the vacuum gain's worst direction differs for Y1 and e1: try both
    candidates = []
    for direction in (+1, -1) if use_vacuum else (+1,):
        est = row.estimate(fluct.perturb_observations(obs, alloc, direction), ints)
        candidates.append((rate_from_estimate(obs, est, q, f_ec), est))
    rate_hat, est_hat = min(candidates, key=lambda c: c[0])

    counts = {"q_nu1": alloc.n_decoy1 * obs.q_nu1,
              "e_nu1*q_nu1": alloc.n_decoy1 * obs.e_nu1 * obs.q_nu1}
    if use_vacuum:
        counts["q_nu2"] = alloc.n_decoy2 * obs.q_nu2
    y0 = obs.q_nu2 if use_vacuum else 0.0
    betas = fluct._quadrature_betas(obs, counts, y0, mu, nu, alloc.u_alpha,
                                    est_plain.y1_lower, est_plain.e1_upper)
    beta_r = 0.0
    if rate_plain > 0.0:
        beta_r = max(0.0, 1.0 - rate_hat / rate_plain)
    return fluct.FluctuatedBounds(
        y1_hat_lower=est_hat.y1_lower,
        e1_hat_upper=est_hat.e1_upper,
        rate_lower=rate_hat,
        key_bits_lower=max(rate_hat, 0.0) * alloc.n_total,
        beta_y0=betas[0],
        beta_y1=betas[1],
        beta_e1=betas[2],
        beta_r=beta_r,
        low_count_observables=tuple(
            name for name, count in counts.items() if count < fluct.LOW_COUNT_FLOOR),
    )
