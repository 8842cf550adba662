"""Abstract economies: certificates, search, and hypothesis checkers."""

from __future__ import annotations

import dataclasses

import pytest

from boxcorr import (AbstractEconomy, AgentSpec, BoxSet, FlaggedInterval, Grid,
                     PiecewiseMap, Piece, adherence, check_theorem_4_1_hypotheses,
                     check_theorem_4_2_hypotheses, check_theorem_4_3_hypotheses,
                     closure_values, constant_map, search_equilibria,
                     verify_equilibrium)
from boxcorr.affine import AffForm, AffineInterval
from boxcorr.gallery import ex2_2_economy, ex4_1, ex4_1_selection
from boxcorr.economy import _sets_condition
from boxcorr.maps import DomainError

I = FlaggedInterval


def test_replaced_economy_derives_its_own_maps():
    """An economy made by ``dataclasses.replace`` starts with no derived
    maps: agent 0's new A and P, both the whole choice box, give a conflict
    region that is the whole domain, not the original's."""
    e = ex4_1(2)
    before = e.conflict_region(0)
    ag = e.agents[0]
    whole = constant_map(e.domain, BoxSet.single(ag.x_box))
    moved = dataclasses.replace(e, agents=(dataclasses.replace(ag, a_map=whole, p_map=whole),
                                           *e.agents[1:]))
    assert moved.conflict_region(0) == BoxSet.single(e.domain) != before
    assert e.conflict_region(0) == before


def one_agent(b_map, a_map=None, p_map=None, x_hi=2.0):
    dom = (I.closed(0, x_hi),)
    empty = constant_map(dom, BoxSet.empty(1))
    return AbstractEconomy((AgentSpec(
        x_box=dom,
        d_set=BoxSet.of(1, [(I.closed(0, x_hi),)]),
        a_map=a_map or empty,
        p_map=p_map or empty,
        b_map=b_map,
    ),))


def test_economy_validates_map_domains():
    dom = (I.closed(0, 2),)
    foreign = constant_map((I.closed(0, 3),), BoxSet.of(1, [(I.point(1),)]))
    with pytest.raises(ValueError):
        one_agent(foreign)


def test_verify_equilibrium_at_known_point():
    e = ex4_1(2)
    cert = verify_equilibrium(e, (1.5, 1.5))
    assert cert.valid
    for ev in cert.evidence:
        assert ev.in_adherent_b and ev.conflict_empty
    doc = cert.to_doc()
    assert doc["point"] == [1.5, 1.5] and doc["valid"] is True


def test_verify_equilibrium_rejects_conflicted_point():
    e = ex4_1(2)
    cert = verify_equilibrium(e, (0.5, 0.5))
    assert not cert.valid
    assert any(not ev.conflict_empty for ev in cert.evidence)


def test_verify_equilibrium_outside_domain():
    with pytest.raises(DomainError):
        verify_equilibrium(ex4_1(2), (5.0, 0.0))


def test_search_region_and_exclusion():
    e = ex4_1(2)
    found = search_equilibria(e, Grid(2, (0.0, 0.0), (2.0, 2.0), 0.125))
    pts = {c.point for c in found}
    assert (1.5, 1.5) in pts
    assert not any(0 < a < 1 and 0 < b < 1 for a, b in pts)
    assert len(pts) == 240


def test_search_requires_target_coverage():
    e = ex4_1(2)
    with pytest.raises(ValueError):
        search_equilibria(e, Grid(2, (0.0, 0.0), (1.0, 1.0), 0.125))


def test_search_empty_when_b_never_contains_diagonal():
    # B(x) = {x/2 + 5/4}: its only fixed point would be 2.5, off the box
    dom = (I.closed(0, 2),)
    half = AffForm.coordinate(0, 1, scale=0.5, shift=1.25)
    b = PiecewiseMap(dom, 1, (
        Piece(dom, ((AffineInterval(half, half, True, True),),)),
    ))
    assert search_equilibria(one_agent(b), Grid(1, (0.0,), (2.0,), 0.125)) == []


def test_search_everything_when_preferences_empty():
    b = constant_map((I.closed(0, 2),), BoxSet.of(1, [(I.closed(0, 2),)]))
    found = search_equilibria(one_agent(b), Grid(1, (0.0,), (2.0,), 0.125))
    assert len(found) == 17


def test_hypotheses_4_1_pass_on_bundled_economy():
    e = ex4_1(2)
    rep = check_theorem_4_1_hypotheses(e, (0.5, 2.0, 4.0),
                                       Grid(2, (0.0, 0.0), (4.0, 4.0), 0.25))
    assert rep.passed
    # every agent reports all six condition groups
    for ag in rep.children:
        assert len(ag.children) == 6


def test_hypotheses_4_1_detect_irreflexive_violation():
    rep = check_theorem_4_1_hypotheses(ex2_2_economy(), (0.5, 2.5),
                                       Grid(1, (0.0,), (2.0,), 0.125))
    assert not rep.passed
    bad = {c.property_name.split(".")[-1]
           for ag in rep.children for c in ag.children if not c.passed}
    assert bad == {"cond6-irreflexive"}


def test_hypotheses_4_2_pattern_on_dual_pair_economy():
    rep = check_theorem_4_2_hypotheses(ex2_2_economy(), (0.5, 2.5),
                                       Grid(1, (0.0,), (2.0,), 0.125))
    assert not rep.passed
    by_name = {c.property_name.split(".")[-1]: c.passed
               for ag in rep.children for c in ag.children}
    assert by_name["cond4-dual-and-b"] is True
    assert by_name["cond2-values"] is False
    assert by_name["cond6-irreflexive"] is False


def open_edge_economy():
    """One agent choosing in (0,2] whose conflict region (0,1) reaches the open edge."""
    x = (I(0, 2, False, True),)
    a = PiecewiseMap(x, 1, (
        Piece((I.open(0, 1),), ((AffineInterval(AffForm.constant(1.5, 1),
                                                AffForm.constant(2.0, 1)),),)),
        Piece((I.closed(1, 2),), ((AffineInterval(AffForm.constant(0.0, 1),
                                                  AffForm.constant(0.5, 1)),),)),
    ))
    return AbstractEconomy((AgentSpec(
        x_box=x,
        d_set=BoxSet.of(1, [(I.closed(1, 2),)]),
        a_map=a,
        p_map=constant_map(x, BoxSet.of(1, [(I.closed(1.75, 2),)])),
        b_map=constant_map(x, BoxSet.of(1, [(I.closed(0, 2),)])),
    ),))


def test_hypotheses_4_2_close_the_conflict_region_within_the_choice_box():
    e = open_edge_economy()
    grid = Grid(1, (0.125,), (2.0,), 0.125)
    assert check_theorem_4_1_hypotheses(e, (0.5,), grid).verdict == "pass"
    rep = check_theorem_4_2_hypotheses(e, (0.5,), grid)
    cond4 = next(c for c in rep.children[0].children
                 if c.property_name == "agent0.cond4-dual-and-b")
    dual = next(c for c in cond4.children if c.property_name == "agent0.dual@clW0")
    # the closure of W = (0,1) within X = (0,2] is (0,1]: no grid point left of 0
    assert [c.parameters["points_checked"] for c in dual.children] == [8, 8]


def test_hypotheses_4_3_pass_with_interior_grid_and_selection():
    e = ex4_1(2)
    sel = ex4_1_selection(2)
    step = 1 / 16
    grid = Grid(2, (step, step), (1 - step, 1 - step), step)
    rep = check_theorem_4_3_hypotheses(e, (0.5, 2.0), [sel, sel], grid)
    assert rep.passed


def test_hypotheses_4_3_fail_honestly_at_zero():
    # the constraint map's isolated {3,4} value at the origin breaks the
    # closed-B condition once the grid reaches 0
    e = ex4_1(2)
    sel = ex4_1_selection(2)
    grid = Grid(2, (0.0, 0.0), (1.0, 1.0), 0.125)
    rep = check_theorem_4_3_hypotheses(e, (0.5, 2.0), [sel, sel], grid)
    assert not rep.passed
    bad = {c.property_name.split(".")[-1]
           for ag in rep.children for c in ag.children if not c.passed}
    assert "cond2-cl-b" in bad


def test_constant_b_graph_already_closed():
    # a constant second constraint: graph adherence adds nothing
    e = ex2_2_economy()
    b = e.agents[0].b_map
    bar, cl = adherence(b), closure_values(b)
    for x in Grid(1, (0.0,), (2.0,), 0.125).points():
        assert bar.evaluate(x) == cl.evaluate(x)


def test_jumpy_b_graph_closure_is_strictly_larger():
    e = ex4_1(1)
    b = e.agents[0].b_map
    bar, cl = adherence(b), closure_values(b)
    v_bar, v_cl = bar.evaluate((0.0,)), cl.evaluate((0.0,))
    assert v_cl.subset_within(v_bar, 0.0)
    assert v_bar != v_cl


def test_dual_pair_economy_unique_equilibrium():
    found = search_equilibria(ex2_2_economy(), Grid(1, (0.0,), (2.0,), 0.125))
    assert [c.point for c in found] == [(1.0,)]


def test_hypotheses_4_2_build_each_b_approximation_once(monkeypatch):
    from boxcorr import economy

    calls = {"t_upper": 0, "adherence": 0}
    for name in calls:
        def counted(*args, _f=getattr(economy, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(economy, name, counted)
    check_theorem_4_2_hypotheses(ex4_1(2), (0.5, 2.0, 4.0), Grid(2, (0.0, 0.0), (4.0, 4.0), 0.25))
    # per agent and eps: one B approximation shared by cond4 and cond5, one for A cap P
    assert calls["t_upper"] == 2 * 3 * 2
    assert calls["adherence"] == 2 * (3 * 2 + 1)


def test_sets_condition_reads_closedness_of_the_union():
    x_box = (I.closed(-1, 2), I.closed(-1, 1))

    def problems(d):
        m = constant_map(x_box, d)
        rep = _sets_condition(AbstractEconomy((AgentSpec(x_box, d, m, m, m),)), 0, "sets")
        return [w.detail for w in rep.witnesses]

    touching = BoxSet.of(2, [(I.closed(-1, 0.5), I.closed(-1, 0.5)),
                             (I.closed(0.5, 2), I.closed(-1, 1))])
    open_edge = BoxSet.of(2, [(I(-1, 2, True, False), I.closed(-1, 1))])
    assert problems(touching) == ["target set is not a single box"]
    assert problems(open_edge) == ["target set is not closed"]
    assert problems(BoxSet.single(x_box)) == []
