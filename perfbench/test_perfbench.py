"""Tests of the benchmark's own machinery (not of decoyqkd)."""

from __future__ import annotations

import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bench_workloads as bw  # noqa: E402
from bench_stats import per_input_medians, quartile_spread, tail  # noqa: E402
from bench_trace import Tracer  # noqa: E402


def _shape(name, items):
    if name == "finite_scan":
        kinds = [(q.preset, q.estimator, len(q.lengths_km)) for q in items]
        # the block pattern is fixed; only the one-decoy preset is seeded
        return len(items), [e for _, e, _ in kinds], Counter(kinds)
    if name == "asymptotic_sweep":
        return len(items), Counter((q.preset, q.estimator, len(q.lengths_km)) for q in items)
    return len(items), Counter((q.preset, q.intensities.nu2 == 0.0) for q in items)


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_generator_is_deterministic_and_seed_changes_values_not_shape(name):
    generate = bw.WORKLOADS[name].generate
    a, again, b = generate(1), generate(1), generate(2)
    assert a == again
    assert a != b
    assert _shape(name, a) == _shape(name, b)
    assert len(b) % (bw.WORKLOADS[name].block or len(b)) == 0


def test_finite_scan_inputs_stay_in_their_ranges():
    items = bw.generate_finite_scan(7)
    assert all(6.0e9 <= q.n_pulses <= 8.4e10 for q in items)
    assert all(5.0 <= q.u_alpha <= 10.0 for q in items)
    assert {q.estimator for q in items} == {"vacuum-weak", "one-decoy"}
    assert {q.preset for q in items if q.estimator == "one-decoy"} == {"GYS", "KTH"}


def test_oracle_inputs_follow_criterion_10a_domain():
    items = bw.generate_oracle_certify(3)
    for q in items:
        ints = q.intensities
        assert 0.3 <= ints.mu <= 0.7
        assert 0.1 <= ints.nu1 / ints.mu <= 0.3
        assert ints.nu2 <= 0.8 * ints.nu1
        assert 5.0 <= q.length_km <= (120.0 if q.preset == "GYS" else 60.0)
    vacuum = sum(q.intensities.nu2 == 0.0 for q in items)
    assert vacuum == bw.ORACLE_BLOCKS * 2 * round(bw.ORACLE_VACUUM_SHARE * bw.ORACLE_PER_PRESET)


@pytest.mark.parametrize(
    "n, rank, percentile",
    [(11, 1, 100.0 / 11), (25, 15, 60.0), (1000, 990, 99.0)],
)
def test_tail_is_the_value_with_ten_samples_beyond(n, rank, percentile):
    samples = [float(x) for x in range(n, 0, -1)]  # n..1, unsorted input
    t = tail(samples)
    assert t.defined
    assert t.value == float(rank)
    assert t.beyond == 10 == sum(x > t.value for x in samples)
    assert t.percentile == pytest.approx(percentile)


def test_tail_undefined_below_eleven_samples():
    t = tail([3.0, 1.0, 2.0] * 3 + [4.0])
    assert not t.defined
    assert (t.value, t.beyond, t.n) == (4.0, 0, 10)


def test_per_input_medians_count_each_input_once():
    inputs = ["a", "b", "a", "c", "a", "b"]
    samples = [1.0, 10.0, 50.0, 7.0, 2.0, 20.0]  # "a" stalled once
    assert per_input_medians(inputs, samples) == [2.0, 15.0, 7.0]
    with pytest.raises(ValueError):
        per_input_medians(inputs, samples[:-1])


def test_quartile_spread():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert quartile_spread([2.0] * 10) == 0.0


def test_self_time_on_a_hand_built_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    leaf_b = tracer.wrap("b", advance)
    leaf_d = tracer.wrap("d", advance)

    def c_body():
        advance(1.0)
        leaf_d(1.0)
        advance(1.0)

    node_c = tracer.wrap("c", c_body)
    #  a [0, 10]: b [1, 4], c [5, 8] with d [6, 7]
    with tracer.span("a"):
        advance(1.0)
        leaf_b(3.0)
        advance(1.0)
        node_c()
        advance(2.0)

    expect = {
        (None, "a"): (10.0, 4.0),
        ("a", "b"): (3.0, 3.0),
        ("a", "c"): (3.0, 2.0),
        ("c", "d"): (1.0, 1.0),
    }
    got = {key: (st.total_s, st.self_s) for key, st in tracer.spans.items()}
    assert got == expect
    assert sum(st.self_s for st in tracer.spans.values()) == 10.0


def test_wrapper_counts_errors_flags_and_restores_bindings():
    def solve(x):
        if x < 0:
            raise ValueError("negative")
        return types.SimpleNamespace(converged=x > 1)

    mod = types.SimpleNamespace(solve=solve)
    tracer = Tracer()
    tracer.install([(mod, "solve", "m.solve")], {"m.solve": lambda r: None if r.converged else "unconverged"})
    assert mod.solve is not solve
    mod.solve(0)
    mod.solve(2)
    with pytest.raises(ValueError):
        mod.solve(-1)
    tracer.uninstall()
    assert mod.solve is solve
    st = tracer.by_name("m.solve")
    assert (st.calls, st.errors, st.flags) == (3, {"ValueError": 1}, {"unconverged": 1})


def test_checks_fail_broken_outputs():
    q = bw.generate_oracle_certify(1)[0]
    y1, e1, feasible, y1_min, e1_max = good = bw.run_oracle_certify(q)
    assert bw.check_oracle_certify(q, good) is None
    assert "above oracle" in bw.check_oracle_certify(q, (y1_min * 1.01, e1, True, y1_min, e1_max))
    assert "below oracle" in bw.check_oracle_certify(q, (y1, e1_max * 0.99, True, y1_min, e1_max))
    assert "infeasible" in bw.check_oracle_certify(q, (y1, e1, False, None, None))

    s = bw.generate_finite_scan(1)[3]  # the one-decoy query of the first block
    row = (20.0, 1e-4, 0.1, 0.5 * s.n_pulses, 0.3 * s.n_pulses, 0.1 * s.n_pulses, 1.0)
    assert "sums to" in bw.check_finite_scan(s, ((row,), 50.0))


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    from bench_worker import layer_metrics

    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    got = layer_metrics(Tracer(), 1, {}, 1.0)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: u for k, (_, u) in got.items()}
