"""Piecewise map evaluation and the dilate/clip/adhere operators."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxcorr import (BoxSet, FlaggedInterval, Grid, NonAxisAlignedSplitError,
                     Piece, PiecewiseMap, adherence, check_w_usc, closure_values,
                     constant_map, intersect_maps, restrict, select_by_region,
                     t_upper)
from boxcorr import maps
from boxcorr.affine import AffForm, AffineInterval
from boxcorr.gallery import ex2_1, ex2_2, ex4_1_selection
from boxcorr.maps import DomainError

I = FlaggedInterval


def const_value(lo, hi, lo_closed=True, hi_closed=True, dim=1):
    return ((AffineInterval(AffForm.constant(lo, dim), AffForm.constant(hi, dim),
                            lo_closed, hi_closed),),)


@pytest.fixture(scope="module")
def step_map():
    """Jump map on [0,2]: value [0,1] left of 1, {2} from 1 on."""
    dom = (I.closed(0, 2),)
    return PiecewiseMap(dom, 1, (
        Piece((I(0, 1, True, False),), const_value(0, 1)),
        Piece((I.closed(1, 2),), const_value(2, 2)),
    ))


def test_evaluate_picks_unique_piece(step_map):
    assert step_map.evaluate((0.5,)) == BoxSet.of(1, [(I.closed(0, 1),)])
    assert step_map.evaluate((1.0,)) == BoxSet.of(1, [(I.point(2),)])


def test_evaluate_outside_domain_raises(step_map):
    with pytest.raises(DomainError):
        step_map.evaluate((3.0,))


def test_partition_must_cover_domain():
    dom = (I.closed(0, 2),)
    with pytest.raises(ValueError):
        PiecewiseMap(dom, 1, (
            Piece((I(0, 1, True, False),), const_value(0, 1)),
            # gap: [1, 1.5) missing
            Piece((I.closed(1.5, 2),), const_value(2, 2)),
        ))


def test_partition_must_not_overlap():
    dom = (I.closed(0, 2),)
    with pytest.raises(ValueError):
        PiecewiseMap(dom, 1, (
            Piece((I.closed(0, 1),), const_value(0, 1)),
            Piece((I.closed(1, 2),), const_value(2, 2)),
        ))


def test_open_flag_requires_positive_width():
    dom = (I.closed(0, 1),)
    bad = ((AffineInterval(AffForm.coordinate(0, 1), AffForm.constant(0.5, 1),
                           False, True),),)
    with pytest.raises(ValueError):
        PiecewiseMap(dom, 1, (Piece(dom, bad),))


def test_closure_values_closes_flags(step_map):
    t = closure_values(step_map)
    assert t.evaluate((0.5,)) == BoxSet.of(1, [(I.closed(0, 1),)])


def test_adherence_contains_value_closure(step_map):
    bar = adherence(step_map)
    grid = Grid(1, (0.0,), (2.0,), 0.125)
    for x in grid.points():
        cl = step_map.evaluate(x).closure()
        assert cl.subset_within(bar.evaluate(x), 0.0)


def test_adherence_adds_graph_limits(step_map):
    # at the jump, limits from the left keep the old value alive
    bar = adherence(step_map)
    v = bar.evaluate((1.0,))
    assert v.contains((1.0,)) and v.contains((2.0,))
    assert not v.contains((1.5,))


def test_adherence_idempotent_on_grid(step_map):
    bar = adherence(step_map)
    bar2 = adherence(bar)
    grid = Grid(1, (0.0,), (2.0,), 0.125)
    for x in grid.points():
        assert bar.evaluate(x) == bar2.evaluate(x)


def test_t_upper_monotone_in_eps(step_map):
    d = BoxSet.of(1, [(I.closed(0, 2),)])
    grid = Grid(1, (0.0,), (2.0,), 0.25)
    small = t_upper(step_map, 0.25, d)
    big = t_upper(step_map, 0.5, d)
    for x in grid.points():
        assert small.evaluate(x).subset_within(big.evaluate(x), 0.0)


@pytest.mark.parametrize("eps", [0.0, -0.25, float("nan")])
def test_t_upper_rejects_an_eps_that_is_not_positive(eps):
    """A NaN eps is refused like a nonpositive one, before any rebuild
    compares NaN endpoints; so is it through check_w_usc."""
    t, d = ex2_1()
    with pytest.raises(ValueError, match="eps must be positive"):
        t_upper(t, eps, d)
    with pytest.raises(ValueError, match="eps must be positive"):
        check_w_usc(t, d, [eps], Grid(1, (0.0,), (2.0,), 0.25))


def test_t_upper_open_dilation_flags():
    dom = (I.closed(0, 1),)
    t = constant_map(dom, BoxSet.of(1, [(I.point(0.5),)]))
    d = BoxSet.of(1, [(I.closed(0, 1),)])
    v = t_upper(t, 0.25, d).evaluate((0.0,))
    # {0.5} + (-0.25, 0.25), clipped: open endpoints survive inside D
    assert v == BoxSet.of(1, [(I(0.25, 0.75, False, False),)])
    assert not v.contains((0.25,))


def test_t_upper_clip_is_exact_at_target_boundary():
    dom = (I.closed(0, 1),)
    t = constant_map(dom, BoxSet.of(1, [(I.point(0.5),)]))
    d = BoxSet.of(1, [(I.closed(0.75, 1),)])
    v = t_upper(t, 0.25, d).evaluate((0.0,))
    # dilation is open at 0.75 while D starts there: intersection empty
    assert v.is_empty


def test_t_upper_reads_compactness_of_the_union():
    # two touching closed boxes whose union is not one box: its canonical
    # form holds a half-open box, yet the union is compact
    split_left = BoxSet.of(2, [(I.closed(-1, 0.5), I.closed(-1, 0.5)),
                               (I.closed(0.5, 2), I.closed(-1, 1))])
    split_low = BoxSet.of(2, [(I.closed(-1, 2), I.closed(-1, 0.5)),
                              (I.closed(0.5, 2), I.closed(0.5, 1))])
    assert split_left == split_low
    assert not all(iv.lo_closed and iv.hi_closed for b in split_left.boxes for iv in b)
    dom = (I.closed(0, 1),)
    ramp = ((AffineInterval(AffForm(-1.0, (2.0,)), AffForm(-0.5, (2.0,))),
             AffineInterval(AffForm.constant(0.25, 1), AffForm.constant(0.75, 1))),)
    t = PiecewiseMap(dom, 2, (Piece(dom, ramp),))
    tu = t_upper(t, 0.25, split_left)
    assert tu == t_upper(t, 0.25, split_low)
    for x in Grid(1, (0.0,), (1.0,), 0.125).points():
        dilated = BoxSet.of(2, [(I(2 * x[0] - 1.25, 2 * x[0] - 0.25, False, False),
                                 I(0.0, 1.0, False, False))])
        assert tu.evaluate(x) == dilated.intersect(split_left)
    open_edge = BoxSet.of(2, [(I.closed(-1, 0.5), I.closed(-1, 0.5)),
                              (I(0.5, 2, True, False), I.closed(-1, 1))])
    with pytest.raises(ValueError, match="D must be compact"):
        t_upper(t, 0.25, open_edge)


def test_intersect_maps_pointwise(step_map):
    other = constant_map(step_map.domain, BoxSet.of(1, [(I.closed(0.5, 2),)]))
    both = intersect_maps(step_map, other)
    grid = Grid(1, (0.0,), (2.0,), 0.125)
    for x in grid.points():
        want = step_map.evaluate(x).intersect(other.evaluate(x))
        assert both.evaluate(x) == want


def test_intersect_maps_splits_on_affine_crossing():
    dom = (I.closed(0, 2),)
    ramp = PiecewiseMap(dom, 1, (Piece(dom, (
        (AffineInterval(AffForm.constant(0, 1), AffForm.coordinate(0, 1), True, True),),
    )),))
    flat = constant_map(dom, BoxSet.of(1, [(I.closed(1, 3),)]))
    got = intersect_maps(ramp, flat)
    assert got.evaluate((0.5,)).is_empty
    assert got.evaluate((1.0,)) == BoxSet.of(1, [(I.point(1),)])
    assert got.evaluate((2.0,)) == BoxSet.of(1, [(I.closed(1, 2),)])


def test_non_axis_aligned_split_refused(monkeypatch):
    dom = (I.closed(0, 1), I.closed(0, 1))
    diag = AffForm(0.0, (1.0, 1.0))  # x + y, crosses 1 diagonally
    tilted = PiecewiseMap(dom, 1, (Piece(dom, (
        (AffineInterval(AffForm.constant(0, 2), diag, True, True),),
    )),))
    flat = constant_map(dom, BoxSet.of(1, [(I.closed(1, 3),)]))
    regions = []
    sign = maps._effective_sign

    def recorded_sign(region, f):
        regions.append(region)
        return sign(region, f)

    monkeypatch.setattr(maps, "_effective_sign", recorded_sign)
    with pytest.raises(NonAxisAlignedSplitError, match="non-axis-aligned locus"):
        intersect_maps(tilted, flat)
    # an affine part is valued atom by atom in walk order: {0} x {0} passes,
    # and {0} x (0, 1), where x + y - 1 has bounds -1 and 0, raises
    assert regions[-1] == (I.point(0), I.open(0, 1))
    assert len(regions) == 6


def test_restrict_and_select_by_region(step_map):
    sub = (I.closed(0, 1),)
    r = restrict(step_map, sub)
    assert r.domain == sub
    assert r.evaluate((1.0,)) == step_map.evaluate((1.0,))
    with pytest.raises(DomainError):
        r.evaluate((1.5,))

    outer = constant_map(step_map.domain, BoxSet.of(1, [(I.point(0),)]))
    sel = select_by_region(step_map.domain, step_map, [(I(0, 1, True, False),)],
                           outer)
    assert sel.evaluate((0.5,)) == step_map.evaluate((0.5,))
    assert sel.evaluate((1.5,)) == BoxSet.of(1, [(I.point(0),)])


@given(st.integers(0, 16), st.sampled_from([0.125, 0.25, 0.5]))
def test_gallery_t_upper_constant_one(k, eps):
    # clipped dilations of the first bundled map collapse to the target
    t1, d = ex2_1()
    x = (0.0625 + k * 0.115,)
    tu = t_upper(t1, eps, d)
    assert tu.evaluate(x) == d


def test_gallery_ex2_2_composite_value():
    a, b, d = ex2_2()
    comp = intersect_maps(intersect_maps(a, b), constant_map(a.domain, d))
    assert comp.evaluate((1.0,)) == b.evaluate((1.0,)).intersect(
        a.evaluate((1.0,))).intersect(d)


def test_selection_is_constant_convex_on_grid():
    sel = ex4_1_selection(2)
    grid = Grid(2, (0.0, 0.0), (4.0, 4.0), 0.5)
    want = BoxSet.of(1, [(I.closed(1.5, 2),)])
    for x in grid.points():
        v = sel.evaluate(x)
        assert v == want
        assert len(v.boxes) == 1
