"""Benchmark of decoyqkd: three seeded workloads against the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite_scan --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload oracle_certify --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --check-counts --workload finite_scan --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every sample runs in a fresh interpreter
(``bench_worker.py``) with BLAS/OpenMP pinned to one thread; one client
sends queries in a closed loop.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--check-counts`` runs a fixed list of queries twice, each time in a
fresh interpreter, and exits 1 unless every library call count repeats
exactly.  See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was
from bench_stats import per_input_medians, tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("finite_scan", "asymptotic_sweep", "oracle_certify")
SETUP_SAMPLES = 5  # set-ups per untraced run; setup_s is their median
BUDGET_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Call counts measured at the seed commit (ROADMAP north star 1), as
# "probe:span name".  A change to an optimizer may move them on purpose;
# --check-counts reports the difference and fails only on a non-repeat.
SEED_COMMIT_COUNTS = {
    "gys_6e9_reach_vacuum_weak:fluct.fluctuated_bounds": 22412,
    "gys_6e9_reach_vacuum_weak:fluct.optimize_allocation": 25,
    "gys_6e9_reach_vacuum_weak:numerics.maximize_scalar": 865,
    "gys_6e9_reach_vacuum_weak:numerics.maximize_scalar.unconverged": 141,
    "table2:fluct.fluctuated_bounds": 1108,
    "adversary_oracle:bounds.linprog": 21,
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same way
    return env


def _worker(role: str, args, deadline: float, seconds: float = 0.0) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise BenchError(f"time budget spent before the {role} sample")
    cmd = [
        sys.executable, str(HERE / "bench_worker.py"), role,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
    ]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned)], env=_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} sample did not finish within the time budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} sample exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "decoyqkd").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _environment(args, worker_env: dict) -> dict:
    env = {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
        "client": "1 process, 1 thread, closed loop",
    }
    env.update(worker_env)
    return env


def _print_metrics(metrics: dict, notes: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}{'  ' + note if note else ''}")


def _correctness_lines(rep: dict) -> None:
    print(
        f"  error_rate  {rep['failed'] / rep['attempted']:.6g} ratio  "
        f"({rep['failed']} failed of {rep['attempted']} attempted: "
        f"{rep['queries']} queries, {rep['canaries']} canaries)"
    )
    for msg in rep["failures"]:
        print(f"  FAILED {msg}")
    for key, value in rep.get("findings", {}).items():
        print(f"  finding {key} = {value}")


def run_untraced(args, deadline: float) -> dict:
    setups = [_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    rep = _worker("run", args, deadline, args.seconds)
    setups.append(rep["setup_s"])
    lat_ms = per_input_medians(rep["order"], [1e3 * x for x in rep["latencies_s"]])
    t = tail(lat_ms)
    timed_s = sum(rep["block_walls_s"])
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "query_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "query_tail_ms": {"value": t.value, "unit": "ms"},
        "queries_per_s": {"value": len(rep["latencies_s"]) / timed_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
    }
    repeats = len(rep["latencies_s"]) / len(lat_ms)
    tail_note = (
        f"(p{t.percentile:.2f}: {t.beyond} of {t.n} inputs beyond)" if t.defined
        else f"(fewer than 11 inputs: maximum of {t.n})"
    )
    print(f"environment {json.dumps(_environment(args, rep['env']), sort_keys=True)}")
    print(f"{args.workload} end-to-end metrics:")
    _print_metrics(metrics, {
        "setup_s": f"(median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.4f}" for s in sorted(setups)) + ")",
        "query_p50_ms": f"(median over {len(lat_ms)} inputs of each input's median latency; "
                        f"{repeats:.1f} runs per input)",
        "query_tail_ms": tail_note,
        "queries_per_s": f"({len(rep['latencies_s'])} queries in {timed_s:.3f} s, "
                         f"{len(rep['block_walls_s'])} blocks of {rep['block_size']})",
    })
    _correctness_lines(rep)
    return _result(rep, metrics)


def run_traced(args, deadline: float) -> dict:
    rep = _worker("trace", args, deadline, args.seconds)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in rep["per_layer"].items()}
    print(f"environment {json.dumps(_environment(args, rep['env']), sort_keys=True)}")
    print(f"{args.workload} spans per (parent, name), {rep['traced_queries']} traced queries:")
    for row in rep["spans"]:
        print(
            f"  {str(row['parent']):<28} {row['name']:<30} calls={row['calls']:<9} "
            f"self_s={row['self_s']:.6f} total_s={row['total_s']:.6f}"
            + (f" errors={row['errors']}" if row["errors"] else "")
            + (f" flags={row['flags']}" if row["flags"] else "")
        )
    print(f"{args.workload} per-layer metrics:")
    _print_metrics(metrics, {})
    _correctness_lines(rep)
    return _result(rep, metrics)


def _result(rep: dict, metrics: dict) -> dict:
    return {
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }


def check_counts(args, deadline: float) -> int:
    """Run the count probes twice; 1 unless every count repeats exactly."""
    first = _worker("counts", args, deadline)
    second = _worker("counts", args, deadline)
    print(json.dumps(first, indent=1, sort_keys=True))
    for name, pinned in SEED_COMMIT_COUNTS.items():
        probe, counter = name.split(":")
        got = first["references"][probe].get(counter, 0)
        status = "same as" if got == pinned else "differs from"
        print(f"{probe} {counter} = {got} ({status} the seed commit's {pinned})")
    if first != second:
        print("FAILED: counts differ between two runs of one seed", file=sys.stderr)
        return 1
    print("counts repeat exactly across two runs")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="decoyqkd benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-counts", action="store_true",
                   help="run the deterministic-count probes twice and compare")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "decoyqkd" / "__init__.py").is_file():
        print(f"error: no decoyqkd source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.check_counts:
            return check_counts(args, deadline)
        result = run_traced(args, deadline) if args.trace else run_untraced(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
