"""Command-line front end.

Subcommands:

    optimal-mu      signal intensity choices for a parameter set
    bounds          single-photon bounds at one operating point
    scan            rate-versus-distance curves (add --n-pulses for the
                    finite-statistics optimized scan)
    fluct-optimize  pulse-allocation optimization at one distance
    reproduce       canned figure/table datasets (fig1..fig6, table2)

Exit codes: 0 on success, 2 on input validation errors, 1 on anything
else.  CSV goes to --out when given, otherwise to standard output; a
failed command leaves the --out file as it was.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import sys
from contextlib import contextmanager
from typing import Iterable, Optional, Sequence

from . import bounds as bounds_mod
from . import fluct as fluct_mod
from . import rate as rate_mod
from .model import (
    GYS,
    KTH,
    ExperimentParams,
    ValidationError,
    get_preset,
    load_params,
    simulate_observations,
    transmittance,
)

# fixed operating points for the canned curves
CURVE_MU = 0.48
CURVE_NU = 0.05
CURVE_WANG_MU_GYS = 0.30
CURVE_WANG_MU_KTH = 0.43
PULSES_DEFAULT = 6.0e9
PULSES_LARGE = 8.4e10


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        args.func(args)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def _finite(text: str) -> float:
    """argparse type: a float that is neither nan nor +-inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description="Decoy-state QKD rate bounds, deviations, and pulse allocation.",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p = sub.add_parser("optimal-mu", help="signal intensity choices for a parameter set")
    _add_params_opts(p)
    p.add_argument("--method", choices=("strong", "wang"), default="strong")
    p.add_argument("--length", type=_finite, default=None,
                   help="fiber length in km for the exact-rate cross-check")
    p.set_defaults(func=cmd_optimal_mu)

    p = sub.add_parser("bounds", help="single-photon bounds at one operating point")
    _add_params_opts(p)
    p.add_argument("--length", type=_finite, required=True, help="fiber length, km")
    p.add_argument("--mu", type=_finite, required=True)
    p.add_argument("--nu1", type=_finite, required=True)
    p.add_argument("--nu2", type=_finite, default=0.0)
    p.add_argument("--efficient-bb84", action="store_true",
                   help="use q = 1 instead of the standard 1/2")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("scan", help="rate-versus-distance curves")
    _add_params_opts(p)
    p.add_argument("--estimator", default="vacuum-weak", choices=tuple(rate_mod.ESTIMATORS))
    p.add_argument("--mu", type=_finite, default=None,
                   help="signal intensity (default: the optimal-mu root)")
    # unset unless given, so that cmd_scan can reject what its branch does not read
    p.add_argument("--nu1", type=_finite, default=argparse.SUPPRESS, help=f"default {CURVE_NU:g}")
    p.add_argument("--nu2", type=_finite, default=argparse.SUPPRESS, help="default 0")
    p.add_argument("--l-min", type=_finite, default=0.0)
    p.add_argument("--l-max", type=_finite, default=160.0)
    p.add_argument("--steps", type=int, default=33)
    p.add_argument("--n-pulses", type=_finite, default=None,
                   help="run the finite-statistics optimized scan with this pulse budget")
    p.add_argument("--u-alpha", type=_finite, default=argparse.SUPPRESS, help="default 10")
    p.add_argument("--efficient-bb84", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--out", default=None, help="CSV destination (default: stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fluct-optimize", help="pulse-allocation optimization at one distance")
    _add_params_opts(p)
    p.add_argument("--length", type=_finite, required=True)
    p.add_argument("--n-pulses", type=_finite, default=PULSES_DEFAULT)
    p.add_argument("--u-alpha", type=_finite, default=10.0)
    p.add_argument("--mu", type=_finite, default=None,
                   help="signal intensity (default: the optimal-mu root)")
    p.add_argument("--estimator", default="vacuum-weak", choices=rate_mod.FINITE_SIZE_ESTIMATORS)
    p.set_defaults(func=cmd_fluct_optimize)

    p = sub.add_parser("reproduce", help="canned figure/table datasets")
    p.add_argument("target", choices=tuple(_REPRODUCE))
    p.add_argument("--out", default=None, help="CSV destination (default: stdout)")
    p.set_defaults(func=cmd_reproduce)

    return parser


def _add_params_opts(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--preset", default="GYS", help="parameter preset name (GYS, KTH)")
    g.add_argument("--config", default=None, help="key=value parameter file")
    p.add_argument("--f-ec", type=_finite, default=None, help="override f_ec")


def _params_from(args) -> ExperimentParams:
    try:
        params = load_params(args.config) if args.config else get_preset(args.preset)
    except OSError as exc:
        raise ValidationError(f"--config {args.config}: {exc.strerror}") from None
    if args.f_ec is not None:
        params = dataclasses.replace(params, f_ec=args.f_ec)
    return params


@contextmanager
def _csv_out(path: Optional[str]):
    """CSV writer to stdout, or to ``path`` once the block has succeeded.

    A command that fails part-way leaves ``path`` as it was.
    """
    if path is None or path == "-":
        yield csv.writer(sys.stdout, lineterminator="\n")
        return
    buf = io.StringIO()
    yield csv.writer(buf, lineterminator="\n")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise ValidationError(f"--out {path}: {exc.strerror}") from None
    print(f"wrote {path}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _emit(writer, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])


def _print_reach(key: str, km: Optional[float], limit: float = rate_mod.REACH_LIMIT_KM) -> None:
    """One reach line: a crossing, none, or censored at the search limit."""
    if km is None:
        print(f"{key} = none (rate never positive)")
    elif km == limit:
        print(f"{key} = >= {km:.2f} (rate still positive at the search limit)")
    else:
        print(f"{key} = {km:.2f}")


def cmd_optimal_mu(args) -> None:
    params = _params_from(args)
    if args.method == "wang":
        mu_w = rate_mod.optimal_mu_wang(params, length_km=args.length)
        where = f"at {args.length:g} km" if args.length is not None else "maximizing distance"
        print(f"mu_wang ({where}) = {mu_w:.6f}")
        return
    mu_ideal = rate_mod.optimal_mu(params, f_ec=1.0)
    mu_real = rate_mod.optimal_mu(params)
    if args.length is not None:  # computed first, so a failure prints nothing
        mu_exact = rate_mod.optimal_mu_exact(params, transmittance(params, args.length).eta)
    print(f"mu_optimal(f_ec=1.00) = {mu_ideal:.6f}")
    print(f"mu_optimal(f_ec={params.f_ec:.2f}) = {mu_real:.6f}")
    if args.length is not None:
        print(f"mu_exact_rate({args.length:g} km) = {mu_exact:.6f}")


def cmd_bounds(args) -> None:
    if args.nu2 < 0.0:  # a negative nu2 would only drop the two-decoy row
        raise ValidationError(f"nu2 must be >= 0, got {args.nu2}")
    params = _params_from(args)
    eta = transmittance(params, args.length).eta
    q = 1.0 if args.efficient_bb84 else 0.5

    names = ["asymptotic", "vacuum-weak"] + (["two-decoy"] if args.nu2 > 0.0 else [])
    names += ["one-decoy-trial", "one-decoy-simple"]
    estimates = [
        rate_mod.estimate_at(name, params, eta, args.mu, args.nu1, args.nu2) for name in names
    ]
    asym = estimates[0][1]
    obs_vw = estimates[1][0]

    # all inputs validated above; nothing hits stdout on a bad operating point
    print(f"eta = {eta:.6e}")
    for obs, est in estimates:
        r = rate_mod.rate_from_estimate(obs, est, q, params.f_ec)
        dev = bounds_mod.deviation_report(est, asym)
        print(
            f"{est.estimator:16s} Y0_L={est.y0_lower:.6e} Y1_L={est.y1_lower:.6e} "
            f"Q1_L={est.q1_lower:.6e} e1_U={est.e1_upper:.6f} R={r:.6e} "
            f"beta_y1={100 * dev.beta_y1:.2f}% beta_e1={100 * dev.beta_e1:.2f}%"
        )
    delta = bounds_mod.wang_delta(obs_vw, args.mu, args.nu1)
    print(f"tagged-fraction bound (nu1 pulses, mu as decoy): {delta:.6f}")


def _noiseless_rate_fn(params, estimator, mu, nu1=CURVE_NU, nu2=0.0, q=0.5):
    return lambda l: rate_mod.estimator_rate(
        estimator, params, transmittance(params, l).eta, mu, nu1, nu2, q=q
    )


def _grid(lo: float, hi: float, steps: int):
    if steps < 2:
        raise ValidationError("steps must be >= 2")
    if hi <= lo:
        raise ValidationError("l-max must exceed l-min")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _reject_unread(args, unread: Sequence[str], reader: str) -> None:
    """Exit 2 on each option in ``unread`` given on the command line."""
    given = ["--" + dest.replace("_", "-") for dest in unread if dest in vars(args)]
    if given:
        raise ValidationError(f"{reader} does not read {', '.join(given)}")


def cmd_scan(args) -> None:
    finite = args.n_pulses is not None
    if finite:
        _reject_unread(args, ("nu1", "nu2", "efficient_bb84"), "scan --n-pulses")
        u_alpha = _band_width(getattr(args, "u_alpha", 10.0))
    else:
        _reject_unread(args, ("u_alpha",), "scan without --n-pulses")
    # an estimator reads the decoy intensities its row observes
    observes = rate_mod.ESTIMATORS[args.estimator].observes.split()
    _reject_unread(args, [n for n in ("nu1", "nu2") if n not in observes],
                   f"scan --estimator {args.estimator}")
    params = _params_from(args)
    mu = args.mu if args.mu is not None else rate_mod.optimal_mu(params)
    grid = _grid(args.l_min, args.l_max, args.steps)
    if finite:
        points = fluct_mod.scan_distance_fluct(
            params, mu, args.n_pulses, grid, u_alpha=u_alpha, estimator=args.estimator
        )
        rows = []
        for p in points:
            positive = p.rate_lower > 0.0  # elsewhere no allocation is an optimum to check or print
            if positive:
                _require_counts(args.n_pulses, p.low_count_observables, p.length_km)
            alloc = (p.nu, p.n_signal, p.n_decoy1, p.n_decoy2) if positive else ("",) * 4
            rows.append((p.length_km, p.rate_lower, *alloc, p.key_bits))
        with _csv_out(args.out) as w:
            _emit(w, ("l_km", "R_L", "nu_opt", "NS", "N1", "N2", "B_bits"), rows)
        l_hi = max(args.l_max, fluct_mod.REACH_LIMIT_KM)
        dmax = fluct_mod.max_distance_fluct(
            params, mu, args.n_pulses, u_alpha=u_alpha, estimator=args.estimator, l_hi=l_hi
        )
        _print_reach("max_distance_km", dmax, l_hi)
        return
    q = 1.0 if getattr(args, "efficient_bb84", False) else 0.5
    fn = _noiseless_rate_fn(params, args.estimator, mu, getattr(args, "nu1", CURVE_NU),
                            getattr(args, "nu2", 0.0), q)
    with _csv_out(args.out) as w:
        _emit(w, ("l_km", "rate_per_pulse"), [(l, fn(l)) for l in grid])
    _print_reach("max_distance_km", rate_mod.max_secure_distance(fn))


def _band_width(u_alpha: float) -> float:
    """``u_alpha``, rejected unless > 0: with no band the search only shrinks the decoys."""
    if not u_alpha > 0.0:
        raise ValidationError(
            f"--u-alpha must be > 0, got {u_alpha:g}; without a confidence band no allocation "
            "is an optimum, and scan without --n-pulses gives the noiseless rate"
        )
    return u_alpha


def _require_counts(n_pulses: float, low_count_observables: Sequence[str],
                    length_km: float) -> None:
    """Reject an optimum whose confidence bands rest on too few expected events."""
    if low_count_observables:
        raise ValidationError(
            f"--n-pulses {n_pulses:g} leaves fewer than {fluct_mod.LOW_COUNT_FLOOR:g} "
            f"expected events for {', '.join(low_count_observables)} at {length_km:g} km, "
            "too few for a confidence band"
        )


def cmd_fluct_optimize(args) -> None:
    u_alpha = _band_width(args.u_alpha)
    params = _params_from(args)
    mu = args.mu if args.mu is not None else rate_mod.optimal_mu(params)
    eta = transmittance(params, args.length).eta
    res = fluct_mod.optimize_allocation(
        params, eta, mu, args.n_pulses, u_alpha=u_alpha, estimator=args.estimator
    )
    alloc, fb = res.alloc, res.result
    if not fb.rate_lower > 0.0:
        raise ValidationError(
            f"no allocation gives a positive key rate at --length {args.length:g} km"
        )
    _require_counts(args.n_pulses, fb.low_count_observables, args.length)
    print(f"l_km = {args.length:.2f}")
    print(f"mu = {mu:.6f}")
    print(f"eta = {eta:.6e}")
    print(f"nu_opt = {res.nu:.6f}")
    print(f"N = {alloc.n_total:.6g}")
    print(f"N_S = {alloc.n_signal:.6g}  ({alloc.n_signal / alloc.n_total:.4f} of N)")
    print(f"N_1 = {alloc.n_decoy1:.6g}  ({alloc.n_decoy1 / alloc.n_total:.4f} of N)")
    print(f"N_2 = {alloc.n_decoy2:.6g}  ({alloc.n_decoy2 / alloc.n_total:.4f} of N)")
    print(f"R_L = {fb.rate_lower:.6e}")
    print(f"B_bits = {fb.key_bits_lower:.6e}")
    print(f"beta_y0 = {100 * fb.beta_y0:.2f}%")
    print(f"beta_y1 = {100 * fb.beta_y1:.2f}%")
    print(f"beta_e1 = {100 * fb.beta_e1:.2f}%")
    print(f"beta_r = {100 * fb.beta_r:.2f}%")
    for edge in fluct_mod._box_edges(mu, res.nu, alloc.n_decoy1 / alloc.n_total,
                                     alloc.n_decoy2 / alloc.n_total):
        print(f"note: {edge}: the search box, not the model, sets it", file=sys.stderr)


# --- canned datasets ---------------------------------------------------


def cmd_reproduce(args) -> None:
    _REPRODUCE[args.target](args.out)


def _reproduce_fig1(out: Optional[str]) -> None:
    mu = CURVE_MU
    rows = []
    for idx in range(1, 26):
        ratio = idx / 100.0
        nu = ratio * mu
        row = [ratio]
        for length in (40.0, 140.0):
            eta = transmittance(GYS, length).eta
            obs = simulate_observations(GYS, eta, (mu, nu, 0.0))
            est = bounds_mod.vacuum_weak_bounds(obs, mu, nu)
            asym = bounds_mod.asymptotic_bounds(GYS, eta, mu)
            dev = bounds_mod.deviation_report(est, asym)
            row.extend([100.0 * dev.beta_y1, 100.0 * dev.beta_e1])
        rows.append(row)
    with _csv_out(out) as w:
        _emit(w, ("nu_over_mu", "beta_y1_40km_pct", "beta_e1_40km_pct",
                  "beta_y1_140km_pct", "beta_e1_140km_pct"), rows)
    last = rows[-1]
    print(f"deviations at nu/mu=0.25, 40 km: beta_y1={last[1]:.2f}% beta_e1={last[2]:.2f}%")
    print(f"deviations at nu/mu=0.25, 140 km: beta_y1={last[3]:.2f}% beta_e1={last[4]:.2f}%")


def _reproduce_fig2(out: Optional[str]) -> None:
    fns = {
        "rate_asymptotic": _noiseless_rate_fn(GYS, "asymptotic", CURVE_MU),
        "rate_vacuum_weak": _noiseless_rate_fn(GYS, "vacuum-weak", CURVE_MU),
        "rate_wang": _noiseless_rate_fn(GYS, "wang", CURVE_WANG_MU_GYS),
    }
    grid = _grid(0.0, 150.0, 76)
    rows = [[l] + [fn(l) for fn in fns.values()] for l in grid]
    with _csv_out(out) as w:
        _emit(w, ("l_km", *fns.keys()), rows)
    for name, fn in fns.items():
        _print_reach(f"max_distance_km[{name}]", rate_mod.max_secure_distance(fn))
    mu_w = rate_mod.optimal_mu_wang(GYS)
    print(f"mu_wang_optimal = {mu_w:.4f}")


def _reproduce_fig3(out: Optional[str]) -> None:
    mu = rate_mod.optimal_mu(GYS)
    grid = _grid(5.0, 121.0, 30)
    vw = fluct_mod.scan_distance_fluct(GYS, mu, PULSES_DEFAULT, grid, estimator="vacuum-weak")
    od = fluct_mod.scan_distance_fluct(GYS, mu, PULSES_DEFAULT, grid, estimator="one-decoy")
    rows = [
        (p.length_km, p.nu, p.n_decoy2 / PULSES_DEFAULT, o.nu)
        for p, o in zip(vw, od)
    ]
    with _csv_out(out) as w:
        _emit(w, ("l_km", "nu_opt_vw", "n2_frac_vw", "nu_opt_one_decoy"), rows)
    activation = next((p.length_km for p in vw if p.n_decoy2 > 0.0), None)
    print(f"vacuum_decoy_activation_km = {activation}")
    short = rows[0]
    print(f"nu_opt at {short[0]:.1f} km: vw={short[1]:.4f} one-decoy={short[3]:.4f}")


def _fluct_figure(params, n_pulses, grid, wang_mu: Optional[float], out: Optional[str]) -> None:
    mu = rate_mod.optimal_mu(params)
    asym_fn = _noiseless_rate_fn(params, "asymptotic", mu)
    vw = fluct_mod.scan_distance_fluct(params, mu, n_pulses, grid, estimator="vacuum-weak")
    od = fluct_mod.scan_distance_fluct(params, mu, n_pulses, grid, estimator="one-decoy")
    header = ["l_km", "rate_asymptotic", "rate_vw_fluct", "rate_one_decoy_fluct"]
    rows = [
        [p.length_km, asym_fn(p.length_km), p.rate_lower, o.rate_lower]
        for p, o in zip(vw, od)
    ]
    if wang_mu is not None:
        wang_fn = _noiseless_rate_fn(params, "wang", wang_mu)
        header.append("rate_wang")
        for row in rows:
            row.append(wang_fn(row[0]))
    with _csv_out(out) as w:
        _emit(w, header, rows)
    print(f"mu = {mu:.4f}")
    _print_reach("max_distance_km[asymptotic]", rate_mod.max_secure_distance(asym_fn))
    for estimator in ("vacuum-weak", "one-decoy"):
        _print_reach(f"max_distance_km[{estimator} fluct]",
                     fluct_mod.max_distance_fluct(params, mu, n_pulses, estimator=estimator),
                     fluct_mod.REACH_LIMIT_KM)
    if wang_mu is not None:
        _print_reach(f"max_distance_km[wang mu={wang_mu:g}]", rate_mod.max_secure_distance(wang_fn))


def _reproduce_table2(out: Optional[str]) -> None:
    length = 103.62
    n_total = PULSES_DEFAULT
    mu = rate_mod.optimal_mu(GYS)
    eta = transmittance(GYS, length).eta
    res = fluct_mod.optimize_allocation(GYS, eta, mu, n_total, u_alpha=10.0)
    alloc, fb = res.alloc, res.result
    header = ("l_km", "mu", "u_alpha", "N", "N_S", "N_1", "N_2", "eta", "nu",
              "B_bits", "beta_y0_pct", "beta_y1_pct", "beta_e1_pct", "beta_r_pct")
    row = (length, mu, alloc.u_alpha, alloc.n_total, alloc.n_signal,
           alloc.n_decoy1, alloc.n_decoy2, eta, res.nu, fb.key_bits_lower,
           100 * fb.beta_y0, 100 * fb.beta_y1, 100 * fb.beta_e1, 100 * fb.beta_r)
    with _csv_out(out) as w:
        _emit(w, header, [row])
    print(f"nu_opt = {res.nu:.4f}")
    print(f"N_S/N = {alloc.n_signal / alloc.n_total:.4f}")
    print(f"B_bits = {fb.key_bits_lower:.4e}")
    print(f"beta_y1 = {100 * fb.beta_y1:.2f}%")


# every `reproduce` target, in the order the parser lists them
_REPRODUCE = {
    "fig1": _reproduce_fig1,
    "fig2": _reproduce_fig2,
    "fig3": _reproduce_fig3,
    "fig4": lambda out: _fluct_figure(GYS, PULSES_DEFAULT, _grid(5.0, 121.0, 30), None, out),
    "fig5": lambda out: _fluct_figure(GYS, PULSES_LARGE, _grid(5.0, 129.0, 30),
                                      CURVE_WANG_MU_GYS, out),
    "fig6": lambda out: _fluct_figure(KTH, PULSES_LARGE, _grid(2.0, 66.0, 30),
                                      CURVE_WANG_MU_KTH, out),
    "table2": _reproduce_table2,
}


if __name__ == "__main__":
    sys.exit(main())
