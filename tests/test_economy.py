"""Abstract economies: certificates, search, and hypothesis checkers."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest

from boxcorr import (AbstractEconomy, AgentSpec, BoxSet, FlaggedInterval, Grid,
                     PiecewiseMap, Piece, adherence, check_theorem_4_1_hypotheses,
                     check_theorem_4_2_hypotheses, check_theorem_4_3_hypotheses,
                     closure_values, constant_map, search_equilibria,
                     verify_equilibrium)
from boxcorr.affine import AffForm, AffineInterval
from boxcorr.checks import (check_dual_w_usc, check_e_uscs, check_usc, combine_reports,
                            scan_values)
from boxcorr.gallery import ex2_2_economy, ex4_1, ex4_1_selection
from boxcorr.economy import (_approximations, _irreflexive, _openness_condition,
                             _sets_condition, _vacuous, _value_shape, _values_condition_4_1)
from boxcorr.intervals import box_closure, box_intersect
from boxcorr.maps import DomainError, intersect_maps, restrict, t_upper

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
    # per eps, one B approximation shared by both agents' cond4 and cond5; per
    # agent and eps one for A cap P, and per agent the adherent preference map
    assert calls["t_upper"] == 3 + 2 * 3
    assert calls["adherence"] == 3 + 2 * (3 + 1)


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


# ---------------------------------------------------------------------------
# Frozen per-agent checkers: every agent builds its own maps and runs its own scans
# ---------------------------------------------------------------------------

def seed_almost_w_usc_children(bars, eps_list, grid, delta, tol, label, require_nonempty_convex):
    children = []
    for eps, bar in zip(eps_list, bars):
        children.append(check_usc(bar, grid, delta, tol,
                                  property_name=f"{label}.almost-w-usc@eps={eps:g}"))
        if require_nonempty_convex:
            children.append(scan_values(f"{label}.values@eps={eps:g}", (bar,), grid,
                                        _value_shape, {"eps": eps}))
    return children


def seed_check_theorem_4_1_hypotheses(e, eps_list, grid, delta=None, tol=1e-9):
    agent_reports = []
    for i in range(len(e.agents)):
        ag = e.agents[i]
        conds = [
            _sets_condition(e, i, f"agent{i}.cond1-sets"),
            _values_condition_4_1(e, i, grid, f"agent{i}.cond2-values"),
            _openness_condition(e, i, f"agent{i}.cond3-open-conflict-region"),
        ]
        w = e.conflict_region(i)
        c4_children = []
        for k, w_box in enumerate(w.boxes):
            h_w = restrict(e.conflict_map(i), w_box)
            c4_children.extend(seed_almost_w_usc_children(
                _approximations(h_w, ag.d_set, eps_list), eps_list, grid, delta, tol,
                f"agent{i}.conflict@W{k}", require_nonempty_convex=True))
        conds.append(combine_reports(f"agent{i}.cond4-conflict-almost-w-usc",
                                     c4_children or [_vacuous(i)]))
        conds.append(combine_reports(
            f"agent{i}.cond5-b-almost-w-usc",
            seed_almost_w_usc_children(_approximations(ag.b_map, ag.d_set, eps_list), eps_list,
                                       grid, delta, tol, f"agent{i}.b",
                                       require_nonempty_convex=True)))
        conds.append(_irreflexive(e, i, e.adherent_conflict(i), grid, "conflict"))
        agent_reports.append(combine_reports(f"agent{i}", conds))
    return combine_reports(
        "hypotheses-4.1", agent_reports,
        {"eps_list": list(eps_list), "grid_step": grid.step, "delta": delta, "tol": tol})


def seed_check_theorem_4_2_hypotheses(e, eps_list, grid, delta=None, tol=1e-9):
    agent_reports = []
    for i in range(len(e.agents)):
        ag = e.agents[i]
        conds = [_sets_condition(e, i, f"agent{i}.cond1-sets")]

        def values(pval, bval, hval):
            if not pval.subset_within(ag.d_set, 0.0):
                yield 0.0, "inclusion", "preference value escapes target set"
            if bval.is_empty:
                yield math.inf, "empty value", "B empty"
            if not hval.subset_within(bval, 0.0):
                yield 0.0, "inclusion", "conflict value escapes B"

        conds.append(scan_values(f"agent{i}.cond2-values",
                                 (ag.p_map, ag.b_map, e.conflict_map(i)), grid, values))
        conds.append(_openness_condition(e, i, f"agent{i}.cond3-open-conflict-region"))
        cl_boxes = [box_intersect(box_closure(w_box), e.domain)
                    for w_box in e.conflict_region(i).boxes]
        c4_children = [
            check_dual_w_usc(restrict(ag.a_map, cl_box), restrict(ag.p_map, cl_box), ag.d_set,
                             eps_list, grid, delta, tol, property_name=f"agent{i}.dual@clW{k}")
            for k, cl_box in enumerate(cl_boxes)
        ] or [_vacuous(i)]
        b_bars = _approximations(ag.b_map, ag.d_set, eps_list)
        c4_children.extend(seed_almost_w_usc_children(
            b_bars, eps_list, grid, delta, tol, f"agent{i}.b", require_nonempty_convex=False))
        conds.append(combine_reports(f"agent{i}.cond4-dual-and-b", c4_children))
        c5_children = []
        for eps, b_bar in zip(eps_list, b_bars):
            t_iv = intersect_maps(t_upper(ag.a_map, eps, ag.d_set), ag.p_map)
            pairs = ((f"agent{i}.t-iv", adherence(t_iv)), (f"agent{i}.b-v", b_bar))
            c5_children += [scan_values(f"{label}@eps={eps:g}", (bar,), grid, _value_shape,
                                        {"eps": eps})
                            for label, bar in pairs]
        conds.append(combine_reports(f"agent{i}.cond5-approx-values", c5_children))
        conds.append(_irreflexive(e, i, adherence(ag.p_map), grid, "preference"))
        agent_reports.append(combine_reports(f"agent{i}", conds))
    return combine_reports(
        "hypotheses-4.2", agent_reports,
        {"eps_list": list(eps_list), "grid_step": grid.step, "delta": delta, "tol": tol})


def seed_check_theorem_4_3_hypotheses(e, eps_list, candidates, grid, delta=None, tol=1e-9):
    if candidates is None:
        candidates = [None] * len(e.agents)
    agent_reports = []
    for i in range(len(e.agents)):
        ag = e.agents[i]
        conds = [_sets_condition(e, i, f"agent{i}.cond1-sets", require_compact_x=True)]
        b_closed = closure_values(ag.b_map)
        conds.append(combine_reports(f"agent{i}.cond2-cl-b", [
            check_usc(b_closed, grid, delta, tol, property_name=f"agent{i}.cl-b-usc"),
            scan_values(f"agent{i}.cl-b-values", (b_closed,), grid, _value_shape),
        ]))
        conds.append(_openness_condition(e, i, f"agent{i}.cond3-open-conflict-region"))
        h_closed = closure_values(e.conflict_map(i))
        w = e.conflict_region(i)
        c4_children = [
            check_e_uscs(h_closed, w_box, candidates[i], eps, grid, delta, tol,
                         block=e.blocks[i], property_name=f"agent{i}.e-uscs@W{k}@eps={eps:g}")
            for eps in eps_list for k, w_box in enumerate(w.boxes)]
        conds.append(combine_reports(f"agent{i}.cond4-e-uscs", c4_children or [_vacuous(i)]))
        agent_reports.append(combine_reports(f"agent{i}", conds))
    return combine_reports(
        "hypotheses-4.3", agent_reports,
        {"eps_list": list(eps_list), "grid_step": grid.step, "delta": delta, "tol": tol})


def twin_agents(lo, hi, slope):
    """Two agents on [0, 2]^2 with equal A, P and D. Agent 0's B is [0, 1] left
    of x0 = 1 and [0, 1.5 + x0/4] from there on; agent 1's has the endpoint
    ``lo``, the constant ``hi`` and the x0 coefficient ``slope`` instead, which
    ``==`` equates with agent 0's when they equal 0, 1.5 and 1/4."""
    dom = (I.closed(0, 2), I.closed(0, 2))
    left, right = (I(0, 1, True, False), I.closed(0, 2)), (I.closed(1, 2), I.closed(0, 2))

    def b_map(lo, hi, slope):
        zero = type(slope)(0)
        return PiecewiseMap(dom, 1, (
            Piece(left, ((AffineInterval(AffForm(lo, (zero, zero)), AffForm(1.0, (zero, zero))),),)),
            Piece(right, ((AffineInterval(AffForm(lo, (zero, zero)), AffForm(hi, (slope, zero))),),)),
        ))

    x = (I.closed(0, 2),)
    a = PiecewiseMap(dom, 1, (
        Piece(left, ((AffineInterval(AffForm.constant(0.0, 2), AffForm.constant(2.0, 2)),),)),
        Piece(right, ()),
    ))
    p = constant_map(dom, BoxSet.of(1, [(I.closed(1.5, 2),)]))
    agent = AgentSpec(x, BoxSet.single(x), a, p, b_map(0.0, 1.5, 0.25))
    twin = dataclasses.replace(agent, b_map=b_map(lo, hi, slope))
    assert twin == agent
    return AbstractEconomy((agent, twin))


SHARED_CASES = {
    "ex4_1(2)": (lambda: ex4_1(2), 0.25),
    "ex4_1(3)": (lambda: ex4_1(3), 0.5),
    "ex2_2": (ex2_2_economy, 0.125),
    "negative-zero-endpoint": (lambda: twin_agents(-0.0, 1.5, 0.25), 0.25),
    "fraction-endpoint": (lambda: twin_agents(0.0, Fraction(3, 2), Fraction(1, 4)), 0.25),
}


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_checkers_match_the_frozen_per_agent_checkers(case):
    """Sharing across agents leaves every report tree as the per-agent
    checkers build it: names, verdicts, witnesses, notes and parameters."""
    build, step = SHARED_CASES[case]
    eps = (0.5, 2.0, 4.0)
    e = build()
    grid = Grid.over_box(e.domain, step)
    for check, seed in ((check_theorem_4_1_hypotheses, seed_check_theorem_4_1_hypotheses),
                        (check_theorem_4_2_hypotheses, seed_check_theorem_4_2_hypotheses)):
        assert repr(check(e, eps, grid)) == repr(seed(build(), eps, grid))
    got = check_theorem_4_3_hypotheses(e, eps, None, grid)
    assert repr(got) == repr(seed_check_theorem_4_3_hypotheses(build(), eps, None, grid))


def test_a_fraction_endpoint_is_not_shared_with_its_float():
    """The twins' B maps are equal, but the Fraction slope prints in agent 1's
    reports, so agent 0's reports must not be handed to agent 1."""
    e = twin_agents(0.0, Fraction(3, 2), Fraction(1, 4))
    rep = check_theorem_4_3_hypotheses(e, (0.5,), None, Grid.over_box(e.domain, 0.25))
    slopes = [r.parameters["modulus_slope"] for r in rep.walk()
              if r.property_name.endswith(".cl-b-usc")]
    assert slopes == [0.25, Fraction(1, 4)]
    assert [type(s) for s in slopes] == [float, Fraction]


def test_theorem_4_1_builds_each_distinct_approximation_once(monkeypatch):
    """On ex4_1(2) both agents have the same restricted conflict map and B:
    two ``_approximations`` calls instead of one per agent and map."""
    from boxcorr import economy

    calls = []
    real = economy._approximations
    monkeypatch.setattr(economy, "_approximations",
                        lambda *args: calls.append(args) or real(*args))
    rep = check_theorem_4_1_hypotheses(ex4_1(2), (0.5, 2.0, 4.0),
                                       Grid(2, (0.0, 0.0), (4.0, 4.0), 0.25))
    assert rep.passed
    assert len(calls) == 2
    # each agent's copy of a shared report holds a parameters dict of its own
    usc = [r for r in rep.walk() if r.property_name.endswith(".b.almost-w-usc@eps=2")]
    assert [r.property_name for r in usc] == ["agent0.b.almost-w-usc@eps=2",
                                              "agent1.b.almost-w-usc@eps=2"]
    assert usc[0].parameters == usc[1].parameters
    assert usc[0].parameters is not usc[1].parameters
