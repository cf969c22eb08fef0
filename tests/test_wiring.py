"""The estimator table is the one place that wires estimators in.

The CLI choices come from it, the `bounds` report agrees with the
public rate functions, the bounds functions are looked up through the
bounds module on every call (fluctuated_bounds calls none: its kernel
fuses them), and every binding perfbench's tracer wraps or its workloads
call still exists, and the tracer installs on the package.
"""

import re
import sys
from pathlib import Path

import pytest
from fluct_oracle import oracle_fluctuated_bounds

from decoyqkd import bounds, cli, fluct, rate
from decoyqkd.model import GYS, transmittance

ETA_40KM = transmittance(GYS, 40.0).eta


def estimator_choices(command):
    sub = next(a for a in cli._build_parser()._actions if a.choices and command in a.choices)
    action = next(a for a in sub.choices[command]._actions if a.dest == "estimator")
    return tuple(action.choices)


def test_table_names_and_cli_choices():
    assert tuple(rate.ESTIMATORS) == (
        "asymptotic", "vacuum-weak", "one-decoy-trial", "one-decoy-simple",
        "two-decoy", "wang", "one-decoy",
    )
    assert rate.FINITE_SIZE_ESTIMATORS == ("vacuum-weak", "one-decoy-trial", "one-decoy")
    assert rate.ESTIMATORS["one-decoy"] is rate.ESTIMATORS["one-decoy-trial"]
    assert estimator_choices("scan") == tuple(rate.ESTIMATORS)
    assert estimator_choices("fluct-optimize") == rate.FINITE_SIZE_ESTIMATORS


@pytest.mark.parametrize("efficient", [False, True])
def test_bounds_report_rates_match_rate_functions(capsys, efficient):
    mu, nu1, nu2 = 0.48, 0.12, 0.03
    argv = ["bounds", "--length", "40", "--mu", str(mu), "--nu1", str(nu1), "--nu2", str(nu2)]
    q = 1.0 if efficient else 0.5
    assert cli.main(argv + (["--efficient-bb84"] if efficient else [])) == 0
    printed = dict(re.findall(r"^(\S+)\s.* R=(\S+)", capsys.readouterr().out, re.M))
    expected = {
        "asymptotic": rate.asymptotic_rate(GYS, ETA_40KM, mu, q=q),
        "vacuum-weak": rate.vacuum_weak_rate(GYS, ETA_40KM, mu, nu1, q=q),
        "two-decoy": rate.two_decoy_rate(GYS, ETA_40KM, bounds.ProtocolIntensities(mu, nu1, nu2), q=q),
        "one-decoy-trial": rate.one_decoy_rate(GYS, ETA_40KM, mu, nu1, "trial", q=q),
        "one-decoy-simple": rate.one_decoy_rate(GYS, ETA_40KM, mu, nu1, "simple", q=q),
    }
    assert printed.keys() == expected.keys()
    for name, value in expected.items():
        assert float(printed[name]) == pytest.approx(value, rel=1e-6), name


@pytest.mark.parametrize("name", [n for n, e in rate.ESTIMATORS.items() if e.bounds])
def test_bounds_functions_are_looked_up_per_call(monkeypatch, name):
    row = rate.ESTIMATORS[name]
    calls = []
    original = getattr(bounds, row.bounds)
    monkeypatch.setattr(bounds, row.bounds, lambda *a: calls.append(a) or original(*a))
    rate.estimator_rate(name, GYS, ETA_40KM, 0.48, 0.12, 0.03)
    assert len(calls) == 1
    if row.finite_size:
        alloc = fluct.DataAllocation(6.0e9, 4.2e9, 1.5e9, 0.3e9)
        # fluctuated_bounds runs its fused kernel and calls no bounds function
        fluct.fluctuated_bounds(GYS, ETA_40KM, (0.48, 0.12, 0.0), alloc, name)
        assert len(calls) == 1
        # its oracle does: one per vacuum-gain direction, and one unshifted
        oracle_fluctuated_bounds(GYS, ETA_40KM, (0.48, 0.12, 0.0), alloc, name)
        assert len(calls) == (4 if row.observes == rate.VACUUM_WEAK else 3)


def test_one_decoy_alias_is_the_trial_variant():
    alloc = fluct.DataAllocation(6.0e9, 4.2e9, 1.8e9, 0.0)
    alias = fluct.fluctuated_bounds(GYS, ETA_40KM, (0.48, 0.12), alloc, "one-decoy")
    trial = fluct.fluctuated_bounds(GYS, ETA_40KM, (0.48, 0.12), alloc, "one-decoy-trial")
    assert alias == trial
    assert rate.estimator_rate("one-decoy", GYS, ETA_40KM, 0.48, 0.12) == rate.one_decoy_rate(
        GYS, ETA_40KM, 0.48, 0.12, "trial")


def test_trace_targets_resolve():
    # the tracer installs with a strict getattr, so a traced name that left
    # the package would fail only in the benchmark
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import bench_worker
        from bench_trace import Tracer
    finally:
        sys.path.pop(0)
    targets = bench_worker.TRACE_TARGETS
    for module, attr, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    originals = [getattr(module, attr) for module, attr, _ in targets]
    tracer = Tracer()
    tracer.install(targets, bench_worker.TRACE_FLAGS)
    try:
        assert [getattr(module, attr).__wrapped__ for module, attr, _ in targets] == originals
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _ in targets] == originals


def test_the_rates_the_benchmark_workloads_call_exist():
    for name in ("vacuum_weak_rate", "one_decoy_rate", "two_decoy_rate"):
        assert callable(getattr(rate, name, None)), f"rate.{name}"
