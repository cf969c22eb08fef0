"""Tests for the 1-d search helpers on functions with known answers."""

import math

import pytest
from helpers import finite_difference, flat_golden_section_probes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoyqkd import fluct
from decoyqkd.fluct import optimize_allocation
from decoyqkd.model import GYS, transmittance
from decoyqkd.numerics import find_zero_crossing, maximize_scalar
from decoyqkd.rate import REACH_LIMIT_KM, max_secure_distance, optimal_mu


def test_maximize_scalar_rejects_bad_input():
    with pytest.raises(ValueError):
        maximize_scalar(math.sin, 1.0, 1.0, 1e-10, 1e-9)
    with pytest.raises(ValueError):
        maximize_scalar(math.sin, 2.0, 1.0, 1e-10, 1e-9)
    with pytest.raises(ValueError):
        maximize_scalar(math.sin, 0.0, 1.0, 0.0, 1e-9)
    with pytest.raises(ValueError):
        maximize_scalar(math.sin, 0.0, 1.0, 1e-10, -1e-9)


def parabola_at_one(x):
    return -((x - 1.0) ** 2)


# an infinite end used to come back as converged: x=inf from (0, inf), x=nan from (-inf, 5)
@pytest.mark.parametrize("lo, hi", [
    (0.0, math.inf), (-math.inf, 5.0), (-math.inf, math.inf), (math.nan, 5.0), (0.0, math.nan),
])
def test_maximize_scalar_rejects_an_infinite_bracket(lo, hi):
    with pytest.raises(ValueError, match="lo < hi"):
        maximize_scalar(parabola_at_one, lo, hi, 1e-5, 1e-6)


# abs_tol = nan used to run all 200 iterations without a word
@pytest.mark.parametrize("name, abs_tol, rel_tol", [
    ("abs_tol", math.nan, 1e-6), ("abs_tol", math.inf, 1e-6), ("abs_tol", 0.0, 1e-6),
    ("rel_tol", 1e-5, math.nan), ("rel_tol", 1e-5, math.inf), ("rel_tol", 1e-5, -1e-6),
])
def test_maximize_scalar_rejects_a_tolerance_that_is_not_finite_and_positive(name, abs_tol,
                                                                             rel_tol):
    with pytest.raises(ValueError, match=name):
        maximize_scalar(parabola_at_one, 0.0, 5.0, abs_tol, rel_tol)


def test_find_zero_crossing_cosine():
    root = find_zero_crossing(math.cos, 1.0, 2.0, 1.0, x_tol=1e-9)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_find_zero_crossing_sqrt2():
    root = find_zero_crossing(lambda x: 2.0 - x * x, 0.0, 2.0, 1.0, x_tol=1e-9)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_maximize_scalar_parabola():
    res = maximize_scalar(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 1e-10, 1e-9)
    assert res.converged
    assert res.x == pytest.approx(0.3, abs=1e-7)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_maximize_scalar_boundary_maximum():
    res = maximize_scalar(lambda x: x, 0.0, 1.0, 1e-10, 1e-9)
    assert res.converged
    assert res.x == pytest.approx(1.0, abs=1e-6)


def test_maximize_scalar_flat_objective():
    res = maximize_scalar(lambda x: 7.0, 0.0, 4.0, 1e-10, 1e-9)
    assert not res.converged
    assert res.x == pytest.approx(2.0)
    assert res.value == 7.0


# repr of each result, recorded when the line search took Brent steps once it
# saw two unequal values; (f, lo, hi) at the allocation search's tolerances.
# Golden section alone gave x=0.5000011384231473 ("nan first"),
# 0.2000001074980999 ("ties") and -30.000001083721255 ("lo < 0")
MAXIMIZE_PINS = {
    # a NaN probe ties nothing, so Brent runs from the start, from the number
    "nan first": ((lambda x: math.nan if x < 0.5 else 1.0), 0.0, 1.0,
                  "MaximizeResult(x=0.9999967891390135, value=1.0, converged=True)"),
    "nan later": ((lambda x: math.nan if x > 0.6 else -((x - 0.3) ** 2)), 0.0, 1.0,
                  "MaximizeResult(x=0.3, value=-0.0, converged=True)"),
    # inf == inf: the probes tie, so the search is flat
    "inf": ((lambda x: math.inf), 0.0, 1.0, "MaximizeResult(x=0.5, value=inf, converged=False)"),
    "ties": ((lambda x: 1.0 if 0.2 < x < 0.8 else 0.0), 0.0, 1.0,
             "MaximizeResult(x=0.23607279993762892, value=1.0, converged=True)"),
    # the tolerance grows with max(|a|, |b|), which is |a| here; with b in its place
    # it would fall below 0 and the search would never converge.  A parabola is
    # its own parabolic fit
    "lo < 0": ((lambda x: -((x + 30.0) ** 2)), -100.0, 10.0,
               "MaximizeResult(x=-30.0, value=-0.0, converged=True)"),
    "flat": ((lambda x: 7.0), 0.0, 4.0, "MaximizeResult(x=2.0, value=7.0, converged=False)"),
    # the probes 0.382 and 0.618 leave the peak left of the midpoint, where a
    # point the search only thought it knew would cut it off
    "skewed": ((lambda x: -((x - 0.45) ** 2) * (1.0 if x < 0.45 else 0.1)), 0.0, 1.0,
               "MaximizeResult(x=0.44999999999999996, value=-3.0814879110195774e-33, "
               "converged=True)"),
}


@pytest.mark.parametrize("case", MAXIMIZE_PINS)
def test_maximize_scalar_pinned_bit_for_bit(case):
    f, lo, hi, expected = MAXIMIZE_PINS[case]
    assert repr(maximize_scalar(f, lo, hi, 1e-5, 1e-6)) == expected


# the allocation search's three line searches, and a bracket below 0
FLAT_BRACKETS = [(1e-3, 0.999 * 0.48), (1e-4, 0.98), (1e-6, 0.5), (-100.0, 10.0)]


@pytest.mark.parametrize("lo, hi", FLAT_BRACKETS)
def test_a_flat_line_search_probes_the_golden_section_points(lo, hi):
    # while every probe returns the same value, the search is plain golden
    # section: a reach probe, whose objective is 0 until its first positive
    # rate, walks these points, so its sign and count owe nothing to Brent's steps
    probes = []
    res = maximize_scalar(lambda x: probes.append(x) or 0.0, lo, hi, 1e-5, 1e-6)
    assert probes == flat_golden_section_probes(lo, hi, 1e-5, 1e-6)
    assert (res.x, res.value, res.converged) == (0.5 * (lo + hi), 0.0, False)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(bracket=st.sampled_from(FLAT_BRACKETS), first=st.integers(0, 40),
       value=st.sampled_from((1.0, -1.0, 5e-324, math.inf)))
def test_a_line_search_is_golden_section_until_its_first_unequal_probe(bracket, first, value):
    # 0 at every probe but the one numbered ``first``, which returns ``value``
    lo, hi = bracket
    probes = []

    def zero_until_first(x):
        probes.append(x)
        return value if len(probes) == first + 1 else 0.0

    maximize_scalar(zero_until_first, lo, hi, 1e-5, 1e-6)
    golden = flat_golden_section_probes(lo, hi, 1e-5, 1e-6)
    # c and d are both probed before any comparison
    same = max(first + 1, 2)
    assert probes[:same] == golden[:same]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    lo=st.floats(-100.0, 100.0),
    span=st.floats(1e-3, 10.0),
    where=st.floats(-1.0, 2.0),
    skew=st.floats(0.2, 5.0),
    abs_tol=st.floats(1e-4, 1e-2),
    rel_tol=st.floats(1e-9, 1e-3),
)
@example(lo=0.0, span=1.0, where=0.5, skew=1.0, abs_tol=1e-4, rel_tol=1e-6)
@example(lo=0.0, span=1.0, where=-1.0, skew=5.0, abs_tol=1e-4, rel_tol=1e-6)  # at lo
@example(lo=0.0, span=1.0, where=2.0, skew=0.2, abs_tol=1e-4, rel_tol=1e-6)  # at hi
def test_maximize_scalar_converges_on_a_smooth_concave_function(lo, span, where, skew,
                                                                abs_tol, rel_tol):
    # s z - e^(s z) with z = (x - t) / span peaks at x = t, and is steeper on
    # one side; a peak off the bracket is at its nearer end
    hi = lo + span
    t = lo + where * span
    res = maximize_scalar(lambda x: skew * (x - t) / span - math.exp(skew * (x - t) / span),
                          lo, hi, abs_tol, rel_tol)
    assert res.converged
    assert lo <= res.x <= hi
    peak = min(max(t, lo), hi)
    assert abs(res.x - peak) <= abs_tol + rel_tol * max(abs(lo), abs(hi))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    lo=st.floats(-100.0, 100.0),
    span=st.floats(1e-3, 10.0),
    where=st.floats(-1.0, 2.0),
    skew=st.floats(0.2, 5.0),
    start=st.floats(1e-6, 1.0 - 1e-6),  # x0 strictly inside (lo, hi)
    abs_tol=st.floats(1e-4, 1e-2),
    rel_tol=st.floats(1e-9, 1e-3),
)
@example(lo=0.0, span=1.0, where=0.5, skew=1.0, start=0.5, abs_tol=1e-4, rel_tol=1e-6)  # at peak
@example(lo=0.0, span=1.0, where=-1.0, skew=5.0, start=1e-6, abs_tol=1e-4, rel_tol=1e-6)  # lo
@example(lo=0.0, span=1.0, where=2.0, skew=0.2, start=1.0 - 1e-6, abs_tol=1e-4, rel_tol=1e-6)  # hi
def test_an_incumbent_inside_the_bracket_is_never_lost(lo, span, where, skew, start,
                                                       abs_tol, rel_tol):
    # the same concave family as above, with a known point (x0, f(x0)) handed in
    hi = lo + span
    t = lo + where * span

    def f(x):
        return skew * (x - t) / span - math.exp(skew * (x - t) / span)

    x0 = lo + start * span
    res = maximize_scalar(f, lo, hi, abs_tol, rel_tol, (x0, f(x0)))
    assert res.converged
    assert lo <= res.x <= hi
    assert res.value >= f(x0)
    peak = min(max(t, lo), hi)
    assert abs(res.x - peak) <= abs_tol + rel_tol * max(abs(lo), abs(hi))


@pytest.mark.parametrize("case", MAXIMIZE_PINS)
def test_an_incumbent_that_cannot_be_used_changes_nothing(case):
    # none, on or outside the bracket's ends, or with a NaN value: a value of
    # 1e300 would beat every probe if the search took it
    f, lo, hi, expected = MAXIMIZE_PINS[case]
    for incumbent in (None, (lo, 1e300), (hi, 1e300), (lo - 1.0, 1e300), (hi + 1.0, 1e300),
                      (0.5 * (lo + hi), math.nan)):
        assert repr(maximize_scalar(f, lo, hi, 1e-5, 1e-6, incumbent)) == expected


@pytest.mark.parametrize("lo, hi", FLAT_BRACKETS)
def test_a_flat_line_search_never_reads_the_incumbent(lo, hi):
    # a negative reach probe's line searches tie throughout, so its walk, and
    # every reach, owes nothing to the incumbent the descent hands in
    for where in (0.01, 0.3, 0.5, 0.99):
        for f0 in (1.0, 0.0, -1.0):
            probes = []
            res = maximize_scalar(lambda x: probes.append(x) or 0.0, lo, hi, 1e-5, 1e-6,
                                  (lo + where * (hi - lo), f0))
            assert probes == flat_golden_section_probes(lo, hi, 1e-5, 1e-6)
            assert (res.x, res.value, res.converged) == (0.5 * (lo + hi), 0.0, False)


def test_the_incumbent_saves_evaluations_at_table2(monkeypatch):
    # the allocation search hands each line search its current point and value

    def evaluations(keep_incumbent):
        calls = []

        def counted(f, lo, hi, abs_tol, rel_tol, incumbent=None):
            return maximize_scalar(lambda x: calls.append(x) or f(x), lo, hi, abs_tol, rel_tol,
                                   incumbent if keep_incumbent else None)

        monkeypatch.setattr(fluct, "maximize_scalar", counted)
        res = optimize_allocation(GYS, transmittance(GYS, 103.62).eta, optimal_mu(GYS), 6.0e9)
        return len(calls), res.result.rate_lower

    with_incumbent, without = evaluations(True), evaluations(False)
    assert with_incumbent[0] < without[0]
    assert with_incumbent[1] >= without[1] * (1.0 - 1e-6)


def test_finite_difference_sine():
    d = finite_difference(math.sin, 0.7, h=1e-6)
    assert d == pytest.approx(math.cos(0.7), abs=1e-9)


def test_finite_difference_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference(math.sin, 0.7, h=0.0)


def test_find_zero_crossing_linear():
    x = find_zero_crossing(lambda l: 100.0 - l, 0.0, 500.0, step=7.0)
    assert x == pytest.approx(100.0, abs=0.01)


def test_find_zero_crossing_edge_cases():
    assert find_zero_crossing(lambda l: 0.0, 0.0, 10.0, 1.0) is None
    assert find_zero_crossing(lambda l: -1.0, 0.0, 10.0, 1.0) is None
    assert find_zero_crossing(lambda l: 1.0, 0.0, 10.0, 1.0) == 10.0
    with pytest.raises(ValueError):
        find_zero_crossing(lambda l: 1.0 - l, 0.0, 10.0, step=0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    lo=st.floats(-100.0, 100.0),
    span=st.floats(0.5, 500.0),
    step=st.floats(0.1, 100.0),
    x_tol=st.floats(1e-4, 5.0),
    offset=st.floats(-50.0, 550.0),
)
@example(lo=0.0, span=10.0, step=1.0, x_tol=0.01, offset=0.0)  # c == lo
@example(lo=0.0, span=10.0, step=1.0, x_tol=0.01, offset=10.0)  # c == hi
@example(lo=0.0, span=10.0, step=3.0, x_tol=0.01, offset=10.0)  # c == hi, short last step
@example(lo=0.5, span=0.5, step=0.1, x_tol=1.0, offset=0.5)  # march ends one ulp below hi
def test_find_zero_crossing_none_crossing_or_censored(lo, span, step, x_tol, offset):
    hi = lo + span
    c = lo + offset
    x = find_zero_crossing(lambda l: c - l, lo, hi, step, x_tol=x_tol)
    assert (x is None) == (c <= lo)
    assert (x == hi) == (c > hi)
    if lo < c <= hi:
        assert x < hi
        assert abs(x - c) <= x_tol


def test_find_zero_crossing_stops_on_adjacent_floats():
    x = find_zero_crossing(lambda l: 1e6 - l, 0.0, 2e6, 1e5, x_tol=1e-300)
    assert x == pytest.approx(1e6, rel=1e-15)


def never_called(l):
    raise AssertionError(f"the curve was called at {l}")


@pytest.mark.parametrize("lo, hi", [
    (0.0, 0.0), (5.0, 1.0), (0.0, math.inf), (0.0, -math.inf), (0.0, math.nan),
    (math.nan, 10.0), (-math.inf, 10.0), (math.inf, math.inf),
])
def test_find_zero_crossing_rejects_a_limit_it_cannot_search(lo, hi):
    with pytest.raises(ValueError, match="lo < hi"):
        find_zero_crossing(never_called, lo, hi, 1.0)


def test_max_secure_distance_evaluates_zero_km_once():
    lengths = []

    def curve(l):
        lengths.append(l)
        return 90.0 - l

    assert max_secure_distance(curve) == pytest.approx(90.0, abs=0.01)
    assert lengths.count(0.0) == 1


@pytest.mark.parametrize("curve, reach", [
    (lambda l: 1.0, REACH_LIMIT_KM),
    (lambda l: 1e-12, REACH_LIMIT_KM),
    (lambda l: 2.0 * REACH_LIMIT_KM - l, REACH_LIMIT_KM),
    (lambda l: REACH_LIMIT_KM - 20.0 - l, REACH_LIMIT_KM - 20.0),
    (lambda l: 3.0 - l, 3.0),
], ids=["flat", "tiny", "past-the-limit", "below-the-limit", "short"])
def test_max_secure_distance_searches_up_to_the_reach_limit(curve, reach):
    # a rate still positive at the limit is censored there exactly, and no
    # length past it is evaluated
    lengths = []

    def traced(l):
        lengths.append(l)
        return curve(l)

    found = max_secure_distance(traced)
    assert found == pytest.approx(reach, abs=0.01)
    assert (found == REACH_LIMIT_KM) == (reach == REACH_LIMIT_KM)
    assert max(lengths) <= REACH_LIMIT_KM
