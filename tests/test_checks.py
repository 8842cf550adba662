"""Grid checkers: usc, the dilation families, and the selection property."""

from __future__ import annotations

import pytest

from boxcorr import (BoxSet, CheckReport, FlaggedInterval, Grid, Piece,
                     PiecewiseMap, Witness, adherence, check_dual_w_usc,
                     check_e_uscs, check_usc, check_w_usc, combine_reports,
                     constant_map)
from boxcorr.affine import AffForm, AffineInterval
from boxcorr.gallery import ex2_1, ex2_2

I = FlaggedInterval


def const_value(lo, hi, dim=1):
    return ((AffineInterval(AffForm.constant(lo, dim), AffForm.constant(hi, dim),
                            True, True),),)


def interval_grid(step=0.0625):
    return Grid(1, (step,), (2.0 - step,), step)


def test_check_usc_passes_on_constant():
    dom = (I.closed(0, 2),)
    t = constant_map(dom, BoxSet.of(1, [(I.closed(0.5, 1),)]))
    rep = check_usc(t, Grid(1, (0.0,), (2.0,), 0.25))
    assert rep.passed
    assert rep.parameters["points_checked"] == 9


def test_check_usc_fails_on_upward_jump():
    dom = (I.closed(0, 2),)
    t = PiecewiseMap(dom, 1, (
        Piece((I(0, 1, True, False),), const_value(0, 0)),
        Piece((I.closed(1, 2),), const_value(0, 1)),
    ))
    rep = check_usc(t, Grid(1, (0.0,), (2.0,), 0.25))
    assert not rep.passed
    assert rep.witnesses
    w = rep.witnesses[0]
    assert abs(w.point[0] - 1.0) <= 0.25
    assert w.excess == pytest.approx(1.0)


def test_check_usc_tolerates_downward_jump():
    # value shrinks moving right: still usc at the jump
    dom = (I.closed(0, 2),)
    t = PiecewiseMap(dom, 1, (
        Piece((I(0, 1, True, False),), const_value(0, 1)),
        Piece((I.closed(1, 2),), const_value(0, 0)),
    ))
    # usc needs the closed left value at 1 to swallow nearby right values;
    # here T(1)={0} and left neighbors map into [0,1]: the left point 0.75
    # has neighbor 1.0 with T(1) subset of T(0.75): fine, while x=1.0 with
    # neighbor 0.75 needs T(0.75) inside T(1) dilated: excess 1. The jump
    # direction that matters is the neighbor's value escaping x's value.
    rep = check_usc(t, Grid(1, (0.0,), (2.0,), 0.25))
    assert not rep.passed


def test_check_usc_slope_bound_scales_with_step():
    dom = (I.closed(0, 2),)
    ramp = PiecewiseMap(dom, 1, (Piece(dom, (
        (AffineInterval(AffForm.coordinate(0, 1), AffForm.coordinate(0, 1, shift=1.0),
                        True, True),),
    )),))
    rep = check_usc(ramp, Grid(1, (0.0,), (2.0,), 0.25))
    assert rep.passed
    assert rep.parameters["modulus_slope"] == 1.0
    assert rep.parameters["bound"] >= 0.25


def test_check_w_usc_family_structure():
    t1, d = ex2_1()
    rep = check_w_usc(t1, d, (0.1, 0.5), interval_grid())
    assert rep.passed
    names = [c.property_name for c in rep.children]
    assert names == ["w-usc@eps=0.1", "almost-w-usc@eps=0.1",
                     "w-usc@eps=0.5", "almost-w-usc@eps=0.5"]


def test_check_w_usc_flags_missing_adherence():
    # clipped dilation empty on part of the domain: the family records it
    dom = (I.closed(0, 2),)
    t = constant_map(dom, BoxSet.of(1, [(I.point(0.0),)]))
    d = BoxSet.of(1, [(I.closed(1.5, 2),)])
    rep = check_w_usc(t, d, (0.5,), Grid(1, (0.0,), (2.0,), 0.25))
    almost = rep.children[1]
    assert almost.parameters["adherence_nonempty_everywhere"] is False


def test_check_dual_w_usc_golden_pair():
    a, b, d = ex2_2()
    rep = check_dual_w_usc(a, b, d, (0.5, 2.5), interval_grid())
    assert rep.passed
    kids = {c.property_name: c for c in rep.children}
    assert "dual-w-usc@eps=0.5" in kids
    # the x=1 spike leaves a pre-adherence hole at the small radius only
    assert kids["dual-w-usc@eps=0.5"].parameters["pre_adherence_nonempty_everywhere"] is False
    assert kids["dual-w-usc@eps=2.5"].parameters["pre_adherence_nonempty_everywhere"] is True


def test_check_e_uscs_accepts_valid_candidate():
    # s(x) = {x/2}: continuous, inside every half-unit dilation of the
    # bundled map, and never equal to x on (0,2)
    t1, _ = ex2_1()
    half = AffForm.coordinate(0, 1, scale=0.5)
    cand = PiecewiseMap(t1.domain, 1, (
        Piece(t1.domain, ((AffineInterval(half, half, True, True),),)),
    ))
    rep = check_e_uscs(t1, t1.domain, cand, 0.5, interval_grid())
    assert rep.passed


def test_check_e_uscs_rejects_candidate_outside_dilation():
    t1, _ = ex2_1()
    cand = constant_map(t1.domain, BoxSet.of(1, [(I.point(1.9),)]))
    rep = check_e_uscs(t1, t1.domain, cand, 0.25, interval_grid())
    assert not rep.passed


def test_combine_reports_gating_and_informational():
    ok = CheckReport("a", "pass", (), {})
    bad = CheckReport("b", "fail", (Witness((0.0,), None, 1.0, "excess"),), {})
    info = CheckReport("c", "fail", (), {"informational": True})
    assert combine_reports("all", [ok, bad]).verdict == "fail"
    assert combine_reports("all", [ok, info]).verdict == "pass"
    assert combine_reports("all", [ok]).verdict == "pass"


def test_report_walk_visits_nested_children():
    leaf = CheckReport("leaf", "pass", (), {})
    mid = combine_reports("mid", [leaf])
    top = combine_reports("top", [mid])
    assert [r.property_name for r in top.walk()] == ["top", "mid", "leaf"]


def test_delta_larger_than_step_checks_wider_neighbors():
    dom = (I.closed(0, 2),)
    t = PiecewiseMap(dom, 1, (
        Piece((I(0, 1, True, False),), const_value(0, 0)),
        Piece((I.closed(1, 2),), const_value(0, 1)),
    ))
    grid = Grid(1, (0.0,), (2.0,), 0.25)
    near = check_usc(t, grid, delta=0.25)
    far = check_usc(t, grid, delta=0.75)
    assert not near.passed and not far.passed
    assert len(far.witnesses) >= len(near.witnesses)


@pytest.mark.parametrize("direction", ["usc", "lsc"])
def test_delta_whose_step_ratio_overflows_is_capped_at_the_grid(direction):
    """delta / step is inf at delta=1e308; the radius is capped at the grid
    as at delta=1e300, so the scans compare the same pairs."""
    t, _ = ex2_1()
    grid = Grid.over_box(t.domain, 1 / 16)
    wide = check_usc(t, grid, delta=1e300, direction=direction)
    huge = check_usc(t, grid, delta=1e308, direction=direction)
    assert huge.verdict == wide.verdict
    assert huge.witnesses == wide.witnesses
    assert huge.notes == wide.notes
    assert huge.parameters["points_checked"] == wide.parameters["points_checked"]
    assert huge.parameters["delta"] == 1e308
