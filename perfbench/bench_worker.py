"""One benchmark process: set up, run one workload, report one JSON line.

``run.py`` starts this file in a fresh interpreter for every sample so
that set-up time includes interpreter start and ``import decoyqkd``.
The roles are

    setup   import, generate inputs, warm up, report the set-up time
    run     setup, then the untraced closed loop, checks and canaries
    trace   setup, then each block of queries untraced and again with
            spans around every library call
    counts  run a fixed list of queries under the tracer and report
            how many calls each library function received

The last line of standard output is the JSON report.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
T_IMPORT = time.clock_gettime(time.CLOCK_MONOTONIC)
import decoyqkd  # noqa: E402  (timed: the import is part of set-up)

IMPORT_S = time.clock_gettime(time.CLOCK_MONOTONIC) - T_IMPORT
SCIPY_ON_IMPORT = "scipy.optimize" in sys.modules

import bench_workloads as bw  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from decoyqkd import bounds, fluct, model, numerics, rate  # noqa: E402

# Every binding a caller looks up, with the span name it is recorded as.
TRACE_TARGETS = (
    [(m, "simulate_observations", "model.simulate_observations") for m in (model, fluct, rate)]
    + [(bounds, f, f"bounds.{f}") for f in (
        "vacuum_weak_bounds", "one_decoy_trial", "one_decoy_simple", "two_decoy_bounds",
        "asymptotic_bounds", "deviation_report", "adversary_oracle", "linprog")]
    + [(m, "key_rate_strong", "rate.key_rate_strong") for m in (rate, fluct)]
    + [(rate, "max_secure_distance", "rate.max_secure_distance")]
    + [(fluct, f, f"fluct.{f}") for f in (
        "fluctuated_bounds", "perturb_observations", "optimize_allocation",
        "scan_distance_fluct", "max_distance_fluct")]
    + [(m, "maximize_scalar", "numerics.maximize_scalar") for m in (numerics, fluct, rate)]
    + [(m, "find_zero_crossing", "numerics.find_zero_crossing") for m in (numerics, rate)]
)
TRACE_FLAGS = {"numerics.maximize_scalar": lambda r: None if r.converged else "unconverged"}
ESTIMATORS = (
    "bounds.vacuum_weak_bounds", "bounds.one_decoy_trial", "bounds.one_decoy_simple",
    "bounds.two_decoy_bounds", "bounds.asymptotic_bounds",
)
# how many of the seed's first queries --check-counts runs after the reference probes
COUNT_QUERIES = {"finite_scan": 2, "asymptotic_sweep": 24, "oracle_certify": 4}


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the launcher's spawn time compares
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _check_source() -> None:
    src = (ROOT / "src").resolve()
    if not Path(decoyqkd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"decoyqkd imported from {decoyqkd.__file__}, not from {src}")


def _setup(args):
    _check_source()
    wl = bw.WORKLOADS[args.workload]
    items = wl.generate(args.seed)
    wl.warm_up(items)
    setup_s = _now() - args.spawned_at
    return wl, items, setup_s


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Loop:
    """Closed-loop client: the next query starts when the previous one returns.

    Queries go in whole blocks of ``block`` consecutive inputs, cycling
    through the input list, so every run sends the same mix.
    """

    def __init__(self, wl, items):
        self.wl = wl
        self.items = items
        self.block = wl.block or len(items)
        self.order = []  # item index of every completed query
        self.first = {}  # item index -> first output
        self.failures = []  # (item index, message)

    def blocks_until(self, seconds: float):
        """Index lists of whole blocks, started while ``seconds`` have not passed."""
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            yield [(i + j) % len(self.items) for j in range(self.block)]
            i += self.block

    def query(self, idx, span=None) -> float:
        """Run one query, record its output or failure; returns its latency."""
        error = out = None
        t0 = time.perf_counter()
        try:
            if span is None:
                out = self.wl.run(self.items[idx])
            else:
                with span():
                    out = self.wl.run(self.items[idx])
        except Exception as exc:  # noqa: BLE001 - a raising query is a failed query
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        self.order.append(idx)
        if error is not None:
            self.failures.append((idx, error))
        elif idx not in self.first:
            self.first[idx] = out
        elif out != self.first[idx]:
            self.failures.append((idx, "output differs from the first run of the same input"))
        return latency

    def check(self) -> list:
        """Failed queries as (item index, message), one per failed query."""
        bad = {}
        for idx, out in self.first.items():
            try:
                msg = self.wl.check(self.items[idx], out)
            except Exception as exc:  # noqa: BLE001 - a raising check fails the query
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg is not None:
                bad[idx] = msg
        failures = list(self.failures)
        failures += [(idx, bad[idx]) for idx in self.order if idx in bad]
        return failures


def _canaries(wl) -> list:
    failures = []
    for name, canary in wl.canaries:
        try:
            msg = canary()
        except Exception as exc:  # noqa: BLE001 - a raising canary fails
            msg = f"raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append((name, msg))
    return failures


def _correctness(loop, wl) -> dict:
    failures = loop.check()
    canary_failures = _canaries(wl)
    return {
        "queries": len(loop.order),
        "canaries": len(wl.canaries),
        "attempted": len(loop.order) + len(wl.canaries),
        "failed": len(failures) + len(canary_failures),
        "failures": [f"query {i}: {m}" for i, m in failures[:5]]
        + [f"canary {n}: {m}" for n, m in canary_failures],
        "findings": _findings(loop, wl),
    }


def _findings(loop, wl) -> dict:
    """Inputs where a known looseness shows, counted so it stays visible."""
    found = {
        name: sum(holds(loop.items[i], out) for i, out in loop.first.items())
        for name, holds in wl.findings
    }
    if found:
        found["distinct_inputs"] = len(loop.first)
    return found


def role_setup(args) -> dict:
    _, _, setup_s = _setup(args)
    return {"setup_s": setup_s}


def role_run(args) -> dict:
    wl, items, setup_s = _setup(args)
    loop = Loop(wl, items)
    latencies, walls = [], []
    for block in loop.blocks_until(args.seconds):
        start = time.perf_counter()
        latencies += [loop.query(idx) for idx in block]
        walls.append(time.perf_counter() - start)
    report = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "order": loop.order,
        "block_size": loop.block,
        "block_walls_s": walls,
    }
    report.update(_correctness(loop, wl))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = _environment()
    return report


def role_trace(args) -> dict:
    """Each block runs untraced, then again traced, so drift hits both alike."""
    wl, items, _ = _setup(args)
    loop = Loop(wl, items)
    tracer = Tracer()
    plain, traced, traced_idx = [], [], []
    for block in loop.blocks_until(args.seconds):
        plain += [loop.query(idx) for idx in block]
        tracer.install(TRACE_TARGETS, TRACE_FLAGS)
        try:
            traced += [loop.query(idx, tracer.span) for idx in block]
        finally:
            tracer.uninstall()
        traced_idx += block
    extra = {}
    for idx in traced_idx:
        if idx not in loop.first:  # the query failed; the failure is counted
            continue
        for key, n in wl.counts(loop.first[idx]).items():
            extra[key] = extra.get(key, 0) + n
    report = {
        "per_layer": layer_metrics(tracer, len(traced), extra, median(traced) / median(plain)),
        "spans": tracer.table(),
        "traced_queries": len(traced),
    }
    report.update(_correctness(loop, wl))
    report["env"] = _environment()
    return report


def layer_metrics(tracer: Tracer, k: int, extra: dict, overhead: float) -> dict:
    """Per-layer metrics of ``k`` traced queries.

    ``*.calls_per_query`` is calls / k; ``*.self_us`` and ``*.self_ms``
    are the mean self time per call; ``*.total_ms`` the mean inclusive
    time per call.  A function the workload never calls reads 0.
    """
    def per_call(st, attr, scale):
        return getattr(st, attr) / st.calls * scale if st.calls else 0.0

    def ratio(num, st):
        return num / st.calls if st.calls else 0.0

    est = [tracer.by_name(n) for n in ESTIMATORS]
    est_calls = sum(s.calls for s in est)
    sim = tracer.by_name("model.simulate_observations")
    oracle = tracer.by_name("bounds.adversary_oracle")
    lp = tracer.by_name("bounds.linprog")
    krs = tracer.by_name("rate.key_rate_strong")
    fb = tracer.by_name("fluct.fluctuated_bounds")
    pert = tracer.by_name("fluct.perturb_observations")
    opt = tracer.by_name("fluct.optimize_allocation")
    scan = tracer.by_name("fluct.scan_distance_fluct")
    reach = tracer.by_name("fluct.max_distance_fluct")
    ms = tracer.by_name("numerics.maximize_scalar")
    zc = tracer.by_name("numerics.find_zero_crossing")
    return {
        "cli.import_s": (IMPORT_S, "s"),
        "cli.scipy_on_import": (1.0 if SCIPY_ON_IMPORT else 0.0, "flag"),
        "model.simulate_observations.calls_per_query": (sim.calls / k, "count"),
        "model.simulate_observations.self_us": (per_call(sim, "self_s", 1e6), "us"),
        "bounds.estimators.calls_per_query": (est_calls / k, "count"),
        "bounds.estimators.self_us": (
            sum(s.self_s for s in est) / est_calls * 1e6 if est_calls else 0.0, "us"),
        "bounds.adversary_oracle.self_ms": (per_call(oracle, "self_s", 1e3), "ms"),
        "bounds.linprog.calls_per_query": (lp.calls / k, "count"),
        "bounds.linprog.self_ms": (per_call(lp, "self_s", 1e3), "ms"),
        "rate.key_rate_strong.calls_per_query": (krs.calls / k, "count"),
        "rate.key_rate_strong.self_us": (per_call(krs, "self_s", 1e6), "us"),
        "rate.max_secure_distance.rate_evals_per_query": (
            extra.get("rate.max_secure_distance.rate_evals", 0) / k, "count"),
        "fluct.fluctuated_bounds.calls_per_query": (fb.calls / k, "count"),
        "fluct.fluctuated_bounds.self_us": (per_call(fb, "self_s", 1e6), "us"),
        "fluct.fluctuated_bounds.insufficient_ratio": (
            ratio(fb.errors.get("InsufficientDataError", 0), fb), "ratio"),
        "fluct.perturb_observations.self_us": (per_call(pert, "self_s", 1e6), "us"),
        "fluct.optimize_allocation.calls_per_query": (opt.calls / k, "count"),
        "fluct.optimize_allocation.self_ms": (per_call(opt, "self_s", 1e3), "ms"),
        "fluct.scan_distance_fluct.self_ms": (per_call(scan, "self_s", 1e3), "ms"),
        "fluct.scan_distance_fluct.total_ms": (per_call(scan, "total_s", 1e3), "ms"),
        "fluct.max_distance_fluct.self_ms": (per_call(reach, "self_s", 1e3), "ms"),
        "fluct.max_distance_fluct.total_ms": (per_call(reach, "total_s", 1e3), "ms"),
        "numerics.maximize_scalar.calls_per_query": (ms.calls / k, "count"),
        "numerics.maximize_scalar.unconverged_ratio": (
            ratio(ms.flags.get("unconverged", 0), ms), "ratio"),
        "numerics.find_zero_crossing.calls_per_query": (zc.calls / k, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def _reference_probes():
    gys = model.GYS
    mu = rate.optimal_mu(gys)
    ints = bounds.ProtocolIntensities(mu=0.48, nu1=0.05, nu2=0.0)
    obs = model.simulate_observations(gys, model.transmittance(gys, 40.0).eta, ints)
    return (
        ("gys_6e9_reach_vacuum_weak", lambda: fluct.max_distance_fluct(gys, mu, 6.0e9)),
        ("table2", lambda: fluct.optimize_allocation(
            gys, model.transmittance(gys, 103.62).eta, mu, 6.0e9, u_alpha=10.0)),
        ("adversary_oracle", lambda: bounds.adversary_oracle(obs, ints)),
    )


def _counted(fn) -> dict:
    """Calls per span name while ``fn`` runs, plus unconverged line searches."""
    tracer = Tracer()
    tracer.install(TRACE_TARGETS, TRACE_FLAGS)
    try:
        fn()
    finally:
        tracer.uninstall()
    counts = tracer.call_counts()
    unconverged = tracer.by_name("numerics.maximize_scalar").flags.get("unconverged", 0)
    if unconverged:
        counts["numerics.maximize_scalar.unconverged"] = unconverged
    return dict(sorted(counts.items()))


def role_counts(args) -> dict:
    wl, items, _ = _setup(args)
    references = {name: _counted(fn) for name, fn in _reference_probes()}
    queries = []
    for q in items[:COUNT_QUERIES[wl.name]]:
        out = []
        counts = _counted(lambda: out.append(wl.run(q)))
        counts.update(wl.counts(out[0]))
        queries.append(counts)
    totals = {}
    for counts in queries:
        for name, n in counts.items():
            totals[name] = totals.get(name, 0) + n
    return {"references": references, "queries": queries, "totals": dict(sorted(totals.items()))}


ROLES = {"setup": role_setup, "run": role_run, "trace": role_trace, "counts": role_counts}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=sorted(ROLES))
    p.add_argument("--workload", required=True, choices=sorted(bw.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC reading taken just before this process was started")
    args = p.parse_args()
    report = ROLES[args.role](args)
    print(json.dumps(report, allow_nan=False))


if __name__ == "__main__":
    main()
