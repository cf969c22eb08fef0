"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload finite_scan --seeds 1-10 --seconds 45

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints,
per metric, the median of the runs and the quartile spread
(Q3 - Q1) / median with the quartiles of ``statistics.quantiles``.
Exits 1 if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was
from bench_stats import quartile_spread  # noqa: E402

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=45.0)
    args = p.parse_args()
    values = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{proc.stdout}", file=sys.stderr)
            return 1
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.5g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    for name, xs in values.items():
        print(f"{name:<14} median {statistics.median(xs):.6g}  spread {quartile_spread(xs):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
