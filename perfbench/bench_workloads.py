"""Seeded workloads: input generators, queries, correctness checks, canaries.

Each workload turns a seed into a fixed-length list of inputs (the same
seed gives the same list), runs one query per input against the public
API, and checks every answer.  Inputs are generated once, before
timing; a query receives only its input.

The generators use ``random.Random`` so that the inputs do not depend
on numpy's generator versions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from decoyqkd import bounds, fluct, model, rate

# --- finite_scan ---------------------------------------------------------

N_PULSES_RANGE = (6.0e9, 8.4e10)  # the paper's two budgets
U_ALPHA_RANGE = (5.0, 10.0)
# distance spans of the paper's finite-size figures (fig4/fig5 for GYS,
# fig6 for KTH); the scan grid is drawn inside them
SCAN_SPAN = {"GYS": (5.0, 129.0), "KTH": (2.0, 66.0)}
SCAN_POINTS = 4
# Query kinds in a block; the loop runs whole blocks, so every run has
# the same mix.  Query cost clusters by kind: one-decoy ~0.2-0.5 s, KTH
# vacuum+weak ~0.85 s, GYS vacuum+weak 1.1-1.5 s on the seed commit.  The
# median and the tail are order statistics, so they are steady only
# inside one continuous cluster: GYS vacuum+weak (the paper's main
# protocol and parameter set) fills 60% of a block, which puts the
# median there for the 15 to 45 queries a run sends.
FINITE_BLOCK = (
    ("GYS", "vacuum-weak"), ("KTH", "vacuum-weak"), ("GYS", "vacuum-weak"),
    (None, "one-decoy"), ("GYS", "vacuum-weak"),
)
FINITE_BLOCKS = 10


@dataclass(frozen=True)
class FiniteScanQuery:
    """One ``decoyqkd scan --n-pulses`` request."""

    preset: str
    estimator: str
    mu: float
    n_pulses: float
    u_alpha: float
    lengths_km: Tuple[float, ...]


def generate_finite_scan(seed: int) -> List[FiniteScanQuery]:
    rng = random.Random(f"finite_scan/{seed}")
    mus = {name: rate.optimal_mu(model.get_preset(name)) for name in SCAN_SPAN}
    lo, hi = (math.log(x) for x in N_PULSES_RANGE)
    n = len(FINITE_BLOCK)
    first_od = rng.randrange(2)
    out = []
    for block in range(FINITE_BLOCKS):
        # budget and u_alpha are stratified so that each block spans both
        # ranges; the one-decoy query alternates presets between blocks
        budget_strata = rng.sample(range(n), n)
        u_strata = rng.sample(range(n), n)
        for pos, (preset, estimator) in enumerate(FINITE_BLOCK):
            preset = preset or ("GYS", "KTH")[(block + first_od) % 2]
            l_lo, l_hi = SCAN_SPAN[preset]
            width = (l_hi - l_lo) / SCAN_POINTS
            u_lo, u_hi = U_ALPHA_RANGE
            out.append(FiniteScanQuery(
                preset=preset,
                estimator=estimator,
                mu=mus[preset],
                n_pulses=math.exp(lo + (hi - lo) * (budget_strata[pos] + rng.random()) / n),
                u_alpha=u_lo + (u_hi - u_lo) * (u_strata[pos] + rng.random()) / n,
                lengths_km=tuple(l_lo + width * (i + rng.random()) for i in range(SCAN_POINTS)),
            ))
    return out


def run_finite_scan(q: FiniteScanQuery):
    """The CLI's ``scan --n-pulses`` path: optimized scan, then the reach."""
    params = model.get_preset(q.preset)
    points = fluct.scan_distance_fluct(
        params, q.mu, q.n_pulses, q.lengths_km, u_alpha=q.u_alpha, estimator=q.estimator
    )
    reach = fluct.max_distance_fluct(
        params, q.mu, q.n_pulses, u_alpha=q.u_alpha, estimator=q.estimator, l_hi=250.0
    )
    return tuple(
        (p.length_km, p.rate_lower, p.nu, p.n_signal, p.n_decoy1, p.n_decoy2, p.key_bits)
        for p in points
    ), reach


def _asymptotic_reach(params: model.ExperimentParams, mu: float, q: float = 0.5) -> Optional[float]:
    return rate.max_secure_distance(
        lambda l: rate.asymptotic_rate(params, model.transmittance(params, l).eta, mu, q=q)
    )


def _scan_asymptotic(q: FiniteScanQuery, points) -> List[float]:
    params = model.get_preset(q.preset)
    return [
        rate.asymptotic_rate(params, model.transmittance(params, p[0]).eta, q.mu) for p in points
    ]


def check_finite_scan(q: FiniteScanQuery, out) -> Optional[str]:
    points, reach = out
    params = model.get_preset(q.preset)
    for (length, rate_lower, _, n_s, n_1, n_2, _), asym in zip(points, _scan_asymptotic(q, points)):
        if abs(n_s + n_1 + n_2 - q.n_pulses) > 1e-9 * q.n_pulses:
            return f"allocation at {length:.2f} km sums to {n_s + n_1 + n_2}, not {q.n_pulses}"
        # key per pulse, as in check_asymptotic_sweep
        if not max(rate_lower, 0.0) <= max(asym, 0.0):
            return f"fluctuated rate {rate_lower} above asymptotic {asym} at {length:.2f} km"
    if reach is None:
        return "no positive finite-size rate at 1 km"
    asym_reach = _asymptotic_reach(params, q.mu)
    if not reach <= asym_reach:
        return f"finite reach {reach:.3f} km beyond asymptotic reach {asym_reach:.3f} km"
    return None


def scan_raw_rate_above_asymptotic(q: FiniteScanQuery, out) -> bool:
    """A fluctuated scan point above the asymptotic rate, signs included."""
    points = out[0]
    return any(p[1] > a for p, a in zip(points, _scan_asymptotic(q, points)))


def warm_up_finite_scan(items: Sequence[FiniteScanQuery]) -> None:
    q = items[0]
    params = model.get_preset(q.preset)
    eta = model.transmittance(params, q.lengths_km[0]).eta
    fluct.optimize_allocation(params, eta, q.mu, q.n_pulses, u_alpha=q.u_alpha, estimator=q.estimator)


def _canary_table2() -> Optional[str]:
    gys = model.GYS
    res = fluct.optimize_allocation(
        gys, model.transmittance(gys, 103.62).eta, rate.optimal_mu(gys), 6.0e9, u_alpha=10.0
    )
    # the literals `decoyqkd reproduce table2` prints
    got = (f"{res.nu:.4f}", f"{res.result.key_bits_lower:.4e}")
    if got != ("0.1206", "2.4736e+04"):
        return f"table2 nu_opt/B_bits {got}, pinned ('0.1206', '2.4736e+04')"
    return None


def _canary_reach(estimator: str, pinned_km: float) -> Callable[[], Optional[str]]:
    def canary() -> Optional[str]:
        gys = model.GYS
        d = fluct.max_distance_fluct(gys, rate.optimal_mu(gys), 6.0e9, estimator=estimator)
        if d is None or abs(d - pinned_km) > 0.05:
            return f"GYS N=6e9 {estimator} reach {d}, pinned {pinned_km} +- 0.05 km"
        return None

    return canary


# --- asymptotic_sweep ----------------------------------------------------

SWEEP_ESTIMATORS = (
    "asymptotic", "vacuum-weak", "one-decoy-trial", "one-decoy-simple", "two-decoy", "wang",
)
FINITE_DECOY = ("vacuum-weak", "one-decoy-trial", "one-decoy-simple", "two-decoy")
SWEEP_SPAN = {"GYS": 160.0, "KTH": 80.0}  # curve end, km, before jitter
SWEEP_STEPS = 33  # the CLI's default grid
SWEEP_PER_KIND = 80  # 960 inputs, so the median and tail do not hang on a few
SWEEP_Q = 0.5


@dataclass(frozen=True)
class SweepQuery:
    """One noiseless ``decoyqkd scan`` request on a jittered link."""

    preset: str
    estimator: str
    params: model.ExperimentParams
    mu: float
    nu1: float
    nu2: float
    lengths_km: Tuple[float, ...]
    deviation_km: float


def _jitter(rng: random.Random, base: model.ExperimentParams) -> model.ExperimentParams:
    def scale(x: float, lo: float, hi: float) -> float:
        return x * math.exp(rng.uniform(math.log(lo), math.log(hi)))

    return model.ExperimentParams(
        alpha=scale(base.alpha, 0.9, 1.1),
        e_detector=scale(base.e_detector, 0.8, 1.25),
        y0=scale(base.y0, 0.5, 2.0),
        eta_bob=scale(base.eta_bob, 0.8, 1.25),
        rep_rate=base.rep_rate,
        f_ec=base.f_ec,
        wavelength=base.wavelength,
    )


def generate_asymptotic_sweep(seed: int) -> List[SweepQuery]:
    rng = random.Random(f"asymptotic_sweep/{seed}")
    out = []
    for _ in range(SWEEP_PER_KIND):
        for preset in ("GYS", "KTH"):
            for estimator in SWEEP_ESTIMATORS:
                params = _jitter(rng, model.get_preset(preset))
                mu = rng.uniform(0.25, 0.5) if estimator == "wang" else rng.uniform(0.3, 0.7)
                nu1 = mu * rng.uniform(0.05, 0.3)
                nu2 = nu1 * rng.uniform(0.0, 0.8) if estimator == "two-decoy" else 0.0
                l_max = SWEEP_SPAN[preset] * rng.uniform(0.9, 1.2)
                lengths = tuple(l_max * i / (SWEEP_STEPS - 1) for i in range(SWEEP_STEPS))
                out.append(SweepQuery(
                    preset=preset, estimator=estimator, params=params,
                    mu=mu, nu1=nu1, nu2=nu2, lengths_km=lengths,
                    deviation_km=rng.uniform(0.0, l_max),
                ))
    rng.shuffle(out)
    return out


def _rate_function(q: SweepQuery, counter: List[int]) -> Callable[[float], float]:
    """The rate-versus-length curve the CLI's noiseless scan evaluates."""
    p = q.params
    if q.estimator == "asymptotic":
        def at(eta):
            return rate.asymptotic_rate(p, eta, q.mu, q=SWEEP_Q)
    elif q.estimator == "vacuum-weak":
        def at(eta):
            return rate.vacuum_weak_rate(p, eta, q.mu, q.nu1, q=SWEEP_Q)
    elif q.estimator in ("one-decoy-trial", "one-decoy-simple"):
        variant = q.estimator.rsplit("-", 1)[1]

        def at(eta):
            return rate.one_decoy_rate(p, eta, q.mu, q.nu1, variant, q=SWEEP_Q)
    elif q.estimator == "two-decoy":
        ints = bounds.ProtocolIntensities(mu=q.mu, nu1=q.nu1, nu2=q.nu2)

        def at(eta):
            return rate.two_decoy_rate(p, eta, ints, q=SWEEP_Q)
    else:
        def at(eta):
            return rate.wang_asymptotic_rate(p, eta, q.mu, q=SWEEP_Q)

    def curve(length: float) -> float:
        counter[0] += 1
        return at(model.transmittance(p, length).eta)

    return curve


def _deviation(q: SweepQuery) -> Tuple[float, float]:
    p = q.params
    eta = model.transmittance(p, q.deviation_km).eta
    if q.estimator == "two-decoy":
        ints = bounds.ProtocolIntensities(mu=q.mu, nu1=q.nu1, nu2=q.nu2)
        est = bounds.two_decoy_bounds(model.simulate_observations(p, eta, ints), ints)
    elif q.estimator == "vacuum-weak":
        obs = model.simulate_observations(p, eta, (q.mu, q.nu1, 0.0))
        est = bounds.vacuum_weak_bounds(obs, q.mu, q.nu1)
    else:
        obs = model.simulate_observations(p, eta, (q.mu, q.nu1))
        one_decoy = bounds.one_decoy_trial if q.estimator == "one-decoy-trial" else bounds.one_decoy_simple
        est = one_decoy(obs, q.mu, q.nu1)
    dev = bounds.deviation_report(est, bounds.asymptotic_bounds(p, eta, q.mu))
    return dev.beta_y1, dev.beta_e1


def run_asymptotic_sweep(q: SweepQuery):
    """Curve over the grid, its zero crossing, and a deviation report.

    The third element counts the curve evaluations the reach search made.
    """
    counter = [0]
    curve = _rate_function(q, counter)
    values = tuple(curve(l) for l in q.lengths_km)
    before = counter[0]
    reach = rate.max_secure_distance(curve)
    search_evals = counter[0] - before
    deviation = _deviation(q) if q.estimator in FINITE_DECOY else None
    return values, reach, search_evals, deviation


def check_asymptotic_sweep(q: SweepQuery, out) -> Optional[str]:
    values, reach, _, deviation = out
    if any(math.isnan(v) for v in values):
        return "rate curve has NaN"
    if deviation is not None and not all(math.isfinite(x) for x in deviation):
        return f"deviation report not finite: {deviation}"
    if q.estimator not in FINITE_DECOY:
        return None
    # Compared as key per pulse, max(R, 0): past the reach the one-decoy
    # trial estimator's negative rate can sit above the asymptotic one
    # (see sweep_raw_rate_above_asymptotic), which claims no key.
    for length, value, asym in zip(q.lengths_km, values, _asymptotic_curve(q)):
        if not max(value, 0.0) <= max(asym, 0.0):
            return f"{q.estimator} rate {value} above asymptotic {asym} at {length:.2f} km"
    asym_reach = _asymptotic_reach(q.params, q.mu, SWEEP_Q)
    if reach is not None and (asym_reach is None or reach > asym_reach):
        return f"{q.estimator} reach {reach} beyond asymptotic reach {asym_reach}"
    return None


def _asymptotic_curve(q: SweepQuery) -> List[float]:
    return [
        rate.asymptotic_rate(q.params, model.transmittance(q.params, l).eta, q.mu, q=SWEEP_Q)
        for l in q.lengths_km
    ]


def sweep_raw_rate_above_asymptotic(q: SweepQuery, out) -> bool:
    """A finite-decoy curve point above the asymptotic one, signs included."""
    if q.estimator not in FINITE_DECOY:
        return False
    return any(v > a for v, a in zip(out[0], _asymptotic_curve(q)))


def warm_up_asymptotic_sweep(items: Sequence[SweepQuery]) -> None:
    # one query costs about a millisecond, so it is the cheap warm-up
    run_asymptotic_sweep(items[0])


def _canary_reach_noiseless(label: str, curve, pinned_km: float) -> Callable[[], Optional[str]]:
    def canary() -> Optional[str]:
        d = rate.max_secure_distance(curve)
        if d is None or abs(d - pinned_km) > 0.5:
            return f"{label} reach {d}, pinned {pinned_km} +- 0.5 km"
        return None

    return canary


def _gys_curve(rate_at: Callable[[float], float]) -> Callable[[float], float]:
    return lambda l: rate_at(model.transmittance(model.GYS, l).eta)


# --- oracle_certify ------------------------------------------------------

# criterion 10a's domain, extended to KTH over its shorter reach
ORACLE_SPAN = {"GYS": (5.0, 120.0), "KTH": (5.0, 60.0)}
ORACLE_PER_PRESET = 32  # per block; the lengths are stratified within it
# One block, so that a 45 s run sends each input about ten times: each
# input then counts at its median latency, and a host stall in one
# repeat does not reach the median or the tail over inputs.  Query cost
# hardly depends on the point, so with fewer repeats the tail over
# inputs would measure the host's noise rather than the oracle.
ORACLE_BLOCKS = 1
ORACLE_VACUUM_SHARE = 0.3
ORACLE_SLACK = 1e-4


@dataclass(frozen=True)
class OracleQuery:
    """Observations at one operating point, to be certified by the LP oracle."""

    preset: str
    length_km: float
    intensities: bounds.ProtocolIntensities
    obs: model.ObservedRates


def generate_oracle_certify(seed: int) -> List[OracleQuery]:
    rng = random.Random(f"oracle_certify/{seed}")
    n = ORACLE_PER_PRESET
    out = []
    for _ in range(ORACLE_BLOCKS):
        block = []
        for preset, (l_lo, l_hi) in ORACLE_SPAN.items():
            params = model.get_preset(preset)
            vacuum = [i < round(ORACLE_VACUUM_SHARE * n) for i in range(n)]
            rng.shuffle(vacuum)
            for i in range(n):
                length = l_lo + (l_hi - l_lo) * (i + rng.random()) / n
                mu = rng.uniform(0.3, 0.7)
                nu1 = mu * rng.uniform(0.1, 0.3)
                nu2 = 0.0 if vacuum[i] else nu1 * rng.uniform(0.0, 0.8)
                ints = bounds.ProtocolIntensities(mu=mu, nu1=nu1, nu2=nu2)
                eta = model.transmittance(params, length).eta
                block.append(OracleQuery(preset, length, ints, model.simulate_observations(params, eta, ints)))
        rng.shuffle(block)
        out += block
    return out


def run_oracle_certify(q: OracleQuery):
    est = bounds.two_decoy_bounds(q.obs, q.intensities)
    res = bounds.adversary_oracle(q.obs, q.intensities)
    return est.y1_lower, est.e1_upper, res.feasible, res.y1_min, res.e1_max


def check_oracle_certify(q: OracleQuery, out) -> Optional[str]:
    y1_lower, e1_upper, feasible, y1_min, e1_max = out
    where = f"{q.preset} l={q.length_km:.2f} {q.intensities}"
    if not feasible:
        return f"oracle infeasible at {where}"
    if not y1_lower <= y1_min * (1.0 + ORACLE_SLACK) + 1e-12:
        return f"y1_lower {y1_lower} above oracle y1_min {y1_min} at {where}"
    if not e1_upper >= e1_max * (1.0 - ORACLE_SLACK):
        return f"e1_upper {e1_upper} below oracle e1_max {e1_max} at {where}"
    return None


def warm_up_oracle_certify(items: Sequence[OracleQuery]) -> None:
    run_oracle_certify(items[0])


# --- registry ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list]
    run: Callable
    check: Callable[[object, object], Optional[str]]
    warm_up: Callable[[Sequence], None]
    canaries: Tuple[Tuple[str, Callable[[], Optional[str]]], ...]
    # The timed loop stops only between blocks of this many queries (0:
    # the whole input list), so every run has the same mix of inputs.
    block: int = 0
    # Known looseness the gates do not fail on: (name, predicate on an
    # input and its answer); the inputs where it holds are counted.
    findings: Tuple[Tuple[str, Callable[[object, object], bool]], ...] = ()
    # Deterministic work counts carried in a query's answer.
    counts: Callable[[object], Dict[str, int]] = lambda out: {}


def _canaries_asymptotic():
    gys = model.GYS
    return (
        ("criterion2_asymptotic_reach", _canary_reach_noiseless(
            "asymptotic mu=0.48", _gys_curve(lambda eta: rate.asymptotic_rate(gys, eta, 0.48)), 142.05)),
        ("criterion3_vacuum_weak_reach", _canary_reach_noiseless(
            "vacuum-weak mu=0.48 nu=0.05",
            _gys_curve(lambda eta: rate.vacuum_weak_rate(gys, eta, 0.48, 0.05)), 140.55)),
        ("criterion4_wang_reach", _canary_reach_noiseless(
            "wang mu=0.30", _gys_curve(lambda eta: rate.wang_asymptotic_rate(gys, eta, 0.30)), 128.55)),
    )


WORKLOADS: Dict[str, Workload] = {
    "finite_scan": Workload(
        "finite_scan", generate_finite_scan, run_finite_scan, check_finite_scan,
        warm_up_finite_scan,
        (
            ("table2", _canary_table2),
            ("gys_6e9_reach_vacuum_weak", _canary_reach("vacuum-weak", 123.08)),
            ("gys_6e9_reach_one_decoy", _canary_reach("one-decoy", 120.27)),
        ),
        block=len(FINITE_BLOCK),
        findings=(("raw_rate_above_asymptotic_inputs", scan_raw_rate_above_asymptotic),),
    ),
    "asymptotic_sweep": Workload(
        "asymptotic_sweep", generate_asymptotic_sweep, run_asymptotic_sweep,
        check_asymptotic_sweep, warm_up_asymptotic_sweep, _canaries_asymptotic(),
        findings=(("raw_rate_above_asymptotic_inputs", sweep_raw_rate_above_asymptotic),),
        counts=lambda out: {"rate.max_secure_distance.rate_evals": out[2]},
    ),
    "oracle_certify": Workload(
        "oracle_certify", generate_oracle_certify, run_oracle_certify,
        check_oracle_certify, warm_up_oracle_certify, (),
        block=2 * ORACLE_PER_PRESET,
    ),
}
