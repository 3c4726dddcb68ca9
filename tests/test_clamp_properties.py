"""Property tests of the exact clamp on random non-uniform grids, one or
two components, and boxes that include lo == hi.  Some nodal values sit
exactly on a bound, as rounded data would, or just off it, which puts a
crossing next to a node."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_clamp
from parapt.control import (INACTIVE, LOWER, UPPER, AdmissibleSet,
                            clamp_control)

values = st.floats(-3.0, 3.0, allow_subnormal=False)
bounds = st.floats(-2.0, 2.0, allow_subnormal=False)
near_bound = st.tuples(st.sampled_from("lu"),
                       st.sampled_from([0.0, 1e-15, -1e-15, 1e-11, -1e-11]))


@st.composite
def clamp_cases(draw):
    ks = draw(st.lists(st.floats(0.01, 0.4), min_size=1, max_size=8))
    times = np.concatenate([[0.0], np.cumsum(ks)])
    lower, upper, rows = [], [], []
    for _ in range(draw(st.integers(1, 2))):
        lo, hi = sorted(draw(st.tuples(bounds, bounds)))
        if draw(st.integers(0, 3)) == 0:
            hi = lo
        picks = draw(st.lists(st.one_of(values, near_bound),
                              min_size=len(times), max_size=len(times)))
        rows.append([x if isinstance(x, float)
                     else {"l": lo, "u": hi}[x[0]] + x[1] for x in picks])
        lower.append(lo)
        upper.append(hi)
    return times, np.array(rows), AdmissibleSet(lower, upper)


def max_slope(times, v):
    return float(np.max(np.abs(np.diff(v) / np.diff(times))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clamp_cases())
def test_clamp_matches_reference(case):
    """Against the reference clamp, with its own breakpoint merge and
    parent-piece interpolation: the same breaks bit for bit, values within
    2e-15*max(1, max|v|), and the same tags.  The one exception is a tie:
    a sub-piece whose midpoint value lies within 2 ulp of max(1, max|v|)
    of a bound, where np.interp and the reference's formula may round to
    opposite sides of it (a box one ulp wide, say)."""
    times, v, box = case
    u, ref = clamp_control(times, v, box), reference_clamp(times, v, box)
    for i in range(box.dim):
        lo, hi = box.lower[i], box.upper[i]
        scale = max(1.0, float(np.max(np.abs(v[i]))))
        br = u.breaks[i]
        np.testing.assert_array_equal(br, ref.breaks[i])
        np.testing.assert_allclose(u.vals[i], ref.vals[i], rtol=0,
                                   atol=2e-15 * scale)
        vmid = np.interp(0.5 * (br[:-1] + br[1:]), times, v[i])
        tie = (np.minimum(abs(vmid - lo), abs(vmid - hi))
               <= 2 * np.finfo(float).eps * scale)
        np.testing.assert_array_equal(u.tags[i][~tie], ref.tags[i][~tie])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clamp_cases(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_clamp_equals_clipped_line(case, fractions):
    """In the box, and np.clip of the line at any t.  A crossing within
    1e-13*T of a node is dropped by design, which moves the value by at
    most slope * 1e-13*T."""
    times, v, box = case
    u = clamp_control(times, v, box)
    T = times[-1]
    t = T * np.asarray(fractions)
    for i in range(box.dim):
        lo, hi = box.lower[i], box.upper[i]
        assert np.all((u.vals[i] >= lo) & (u.vals[i] <= hi))
        want = np.clip(np.interp(t, times, v[i]), lo, hi)
        atol = 1e-12 + 1e-13 * T * max_slope(times, v[i])
        np.testing.assert_allclose(u.value(i, t), want, rtol=0, atol=atol)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clamp_cases())
def test_clamp_crossings_sit_on_bounds(case):
    """Every interior break that is not a node lies within 1e-13*T of an
    exact (rational arithmetic) crossing of the line with a bound."""
    times, v, box = case
    u = clamp_control(times, v, box)
    tol = 1e-13 * times[-1]
    for i in range(box.dim):
        assert u.breaks[i][0] == times[0] and u.breaks[i][-1] == times[-1]
        for b in u.breaks[i][1:-1]:
            if b in times:
                continue
            m = int(np.searchsorted(times, b)) - 1
            t0, t1 = Fraction(times[m]), Fraction(times[m + 1])
            v0, v1 = Fraction(v[i, m]), Fraction(v[i, m + 1])
            assert v0 != v1
            exact = [t0 + (Fraction(c) - v0) * (t1 - t0) / (v1 - v0)
                     for c in (box.lower[i], box.upper[i])]
            assert min(abs(Fraction(b) - s) for s in exact) <= tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clamp_cases())
def test_clamp_tags_agree_with_values(case):
    """An UPPER or LOWER piece is constant at its bound.  The one exception
    is the node an active piece shares with a next piece pinned to the
    other bound: a node holds one value, the next piece's bound.  That
    needs the line to cross the whole box within 2e-13*T."""
    times, v, box = case
    u = clamp_control(times, v, box)
    for i in range(box.dim):
        lo, hi = box.lower[i], box.upper[i]
        br, va, tg = u.breaks[i], u.vals[i], u.tags[i]
        assert len(tg) == len(br) - 1 == len(va) - 1
        assert np.all(np.diff(br) > 0)
        assert set(tg) <= {LOWER, INACTIVE, UPPER}
        active = tg != INACTIVE
        pin = np.where(tg == UPPER, hi, lo)
        clash = np.append(active[:-1] & active[1:] & (tg[:-1] != tg[1:]),
                          False)
        assert np.all(va[:-1][active] == pin[active])
        assert np.all(va[1:][active & ~clash] == pin[active & ~clash])
        if clash.any():
            assert hi - lo <= 2e-13 * times[-1] * max_slope(times, v[i])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clamp_cases())
def test_clamp_is_idempotent(case):
    times, v, box = case
    u = clamp_control(times, v, box)
    for i in range(box.dim):
        one = AdmissibleSet(box.lower[i:i + 1], box.upper[i:i + 1])
        again = clamp_control(u.breaks[i], u.vals[i][None, :], one)
        np.testing.assert_array_equal(again.breaks[0], u.breaks[i])
        np.testing.assert_allclose(again.vals[0], u.vals[i], rtol=0,
                                   atol=1e-14)
