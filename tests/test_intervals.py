"""Flagged intervals, canonical box unions, and set metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcorr import BoxSet, FlaggedInterval, Grid
from boxcorr.intervals import canonical_boxes

I = FlaggedInterval

# dyadic endpoints keep every arithmetic comparison exact
dyadic = st.integers(min_value=-16, max_value=16).map(lambda k: k / 8)
flags = st.booleans()


@st.composite
def intervals(draw):
    lo = draw(dyadic)
    hi = draw(dyadic.filter(lambda h: h >= lo))
    if lo == hi:
        return I.point(lo)
    return I(lo, hi, draw(flags), draw(flags))


@st.composite
def boxsets(draw, dim=1, max_boxes=3):
    boxes = draw(st.lists(st.tuples(*[intervals()] * dim), max_size=max_boxes))
    return BoxSet.of(dim, boxes)


def test_interval_construction_rejects_empty():
    with pytest.raises(ValueError):
        I(1.0, 1.0, True, False)
    with pytest.raises(ValueError):
        I(2.0, 1.0, True, True)
    assert I.make(1.0, 1.0, True, False) is None
    assert I.make(1.0, 1.0, True, True) == I.point(1.0)


def test_interval_membership_flags():
    iv = I(0.0, 1.0, False, True)
    assert not iv.contains(0.0)
    assert iv.contains(1.0)
    assert iv.contains(0.5)
    assert iv.closure().contains(0.0)


def test_interval_intersection_flag_exact():
    a = I(0.0, 1.0, True, False)
    b = I(1.0, 2.0, True, True)
    assert a.intersect(b) is None
    assert I(0.0, 1.0, True, True).intersect(b) == I.point(1.0)


@given(intervals(), intervals())
def test_interval_intersection_matches_membership(a, b):
    got = a.intersect(b)
    for v in {a.lo, a.hi, b.lo, b.hi, (a.lo + b.hi) / 2}:
        both = a.contains(v) and b.contains(v)
        assert both == (got is not None and got.contains(v))


@given(boxsets())
def test_canonicalization_idempotent(s):
    assert canonical_boxes(s.dim, s.boxes) == s.boxes


@given(boxsets())
def test_canonical_boxes_pairwise_disjoint(s):
    boxes = list(s)
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            assert all(
                x.intersect(y) is None or x.intersect(y) is not None
                for x, y in zip(a, b)
            )
            # full-box intersection must be empty
            hit = all(x.intersect(y) is not None for x, y in zip(a, b))
            assert not hit


@given(boxsets(), dyadic.filter(lambda v: v > 0))
def test_dilate_contains_original(s, eps):
    assert s.subset_within(s.dilate(eps), 0.0)


def test_dilate_rejects_nonpositive_radius():
    s = BoxSet.of(1, [(I.closed(0.0, 1.0),)])
    with pytest.raises(ValueError):
        s.dilate(0.0)


@given(boxsets())
def test_closure_contains_and_is_idempotent(s):
    c = s.closure()
    assert s.subset_within(c, 0.0)
    assert c.closure() == c


@given(boxsets(), boxsets())
def test_hausdorff_upper_coheres_with_dilation(a, b):
    if b.is_empty and not a.is_empty:
        with pytest.raises(ValueError):
            a.hausdorff_upper(b)
        return
    r = a.hausdorff_upper(b)
    if a.is_empty:
        assert r == 0.0
        return
    if r == 0.0:
        assert a.closure().subset_within(b.closure(), 0.0)
        return
    assert a.subset_within(b.dilate(r).closure(), 0.0)
    assert not a.subset_within(b.dilate(r / 2).closure(), 0.0)


@given(boxsets(), boxsets())
def test_subset_within_zero_matches_difference(a, b):
    # closed sets: subset test agrees with set difference emptiness
    a, b = a.closure(), b.closure()
    assert a.subset_within(b, 0.0) == a.difference(b).is_empty


@given(boxsets(), boxsets())
def test_intersect_commutes(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(boxsets(), boxsets(), dyadic)
def test_intersection_membership(a, b, v):
    assert a.intersect(b).contains((v,)) == (a.contains((v,)) and b.contains((v,)))


@given(boxsets(dim=2, max_boxes=2), boxsets(dim=2, max_boxes=2), dyadic, dyadic)
def test_union_membership_2d(a, b, x, y):
    p = (x, y)
    assert a.union(b).contains(p) == (a.contains(p) or b.contains(p))


def test_grid_covers_boxset():
    g = Grid(1, (0.0,), (2.0,), 0.25)
    assert g.point_count() == 9


@pytest.mark.parametrize("lo,hi,step", [((0.0,), (2.0,), 0.25), ((0.0, 0.1), (1.0, 0.95), 0.125),
                                         ((-1.0, 0.0, 0.5), (1.0, 0.0, 1.75), 1 / 3)])
def test_grid_point_count_matches_its_points(lo, hi, step):
    g = Grid(len(lo), lo, hi, step)
    assert g.point_count() == len(list(g.points()))


def test_grid_point_count_builds_no_axis():
    g = Grid(2, (0.0, 0.0), (1e12, 1e12), 1 / 64)
    assert g.point_count() == (64 * 10**12 + 1) ** 2


def test_grid_axis_values_exact():
    g = Grid(1, (0.0,), (1.0,), 0.125)
    vals = g.axis_values(0)
    assert vals[0] == 0.0 and vals[-1] == 1.0 and len(vals) == 9


@pytest.mark.parametrize("lo,hi,step", [(-1e308, 1e308, 0.25), (0.0, 1e308, 1e-300)])
def test_grid_rejects_an_extent_that_overflows(lo, hi, step):
    with pytest.raises(ValueError, match="not finite"):
        Grid(1, (lo,), (hi,), step)
    with pytest.raises(ValueError, match="not finite"):
        Grid(2, (0.0, lo), (1.0, hi), step)
