"""The witness scans against frozen copies of the per-point loops they replaced.

``seed_scan_points`` is the frozen per-point scan: it walks the grid
points ``seed_grid_values`` reads off the maps' pieces, in order, collects the
witnesses a probe yields from the point and the maps' values there,
stops once ``_MAX_WITNESSES`` are found and keeps the first
``_MAX_WITNESSES``. The other ``seed_*`` functions below are the
hand-written loops the hypothesis checkers and ``check_e_uscs`` used
before, each finding a point's value with ``evaluate``; they stay here as
the oracle, and every report must equal theirs, witness for witness,
parameters included.

The scans decide per cell of a ``GridCells`` table first. Probes that
read only values run on ``scan_values``, once per tuple of constant
pieces; the block-point test runs on ``scan_block_points``, which probes
only the points of affine cells and of cells whose value can hold the
block point. Both are checked against ``seed_scan_points`` running the
same probe at every point, and ``GridCells``' cells and points against
``seed_grid_values``, the per-point slot fill the class replaced. Every
reader of the walk is also checked against ``seed_witnesses``, the walk
that probed every point of a failing piece tuple.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random

import pytest

from boxcorr import (AffForm, AffineInterval, BoxSet, DomainError, FlaggedInterval, Grid,
                     Piece, PiecewiseMap, adherence, check_dual_w_usc, check_theorem_4_1_hypotheses,
                     check_theorem_4_2_hypotheses, check_theorem_4_3_hypotheses,
                     check_w_usc, closure_values, constant_map, intersect_maps, restrict,
                     t_upper)
from boxcorr import checks as _checks
from boxcorr import economy as _economy
from boxcorr import suites
from boxcorr.checks import (FAIL, PASS, UNVERIFIED, CheckReport, GridCells, Witness,
                            scan_block_points, scan_values)
from boxcorr.economy import (AbstractEconomy, AgentEvidence, AgentSpec, EquilibriumCertificate,
                             search_equilibria, verify_equilibrium)
from boxcorr.fixedpoint import check_grid_covers_targets
from boxcorr.gallery import ex2_2_economy, ex4_1, ex4_1_selection
from boxcorr.intervals import DimensionMismatchError, box_closure, box_contains

from test_scan_oracle import indexed_points

I = FlaggedInterval
CAP = _checks._MAX_WITNESSES


# ---------------------------------------------------------------------------
# Frozen per-point loops
# ---------------------------------------------------------------------------
# Each returns the witness list as the loop built it, before any slicing,
# so a test can see where the cap fell.

def seed_grid_values(maps, grid, within=None):
    """``(index, point, pieces)`` for the grid points in ``maps[0]``'s domain
    and in the box ``within``, if given, in lexicographic order;
    ``pieces[k]`` is the piece of ``maps[k]`` holding the point, and a point
    outside a later map's domain raises ``DomainError``.

    Each map's pieces are walked once: per axis, a piece's grid indices are
    the axis values its region's interval contains. The piece index goes
    into one list slot per grid point, in row-major order.
    """
    axes = [grid.axis_values(d) for d in range(grid.dim)]
    strides = [math.prod(map(len, axes[d + 1:])) for d in range(grid.dim)]
    slots = []
    for t in maps:
        if t.domain_dim != len(axes):
            raise DimensionMismatchError(f"point of dim {len(axes)} vs box of dim {t.domain_dim}")
        slot = [None] * math.prod(map(len, axes))
        for i, ranges in enumerate(_checks._index_ranges(p.region, axes) for p in t.pieces):
            own = [[k * stride for k in r] for r, stride in zip(ranges, strides)]
            for offsets in itertools.product(*own):
                slot[sum(offsets)] = i
        slots.append(slot)
    indices = itertools.product(*(range(len(ax)) for ax in axes))
    for idx, x, pieces in zip(indices, itertools.product(*axes), zip(*slots)):
        if pieces[0] is None or (within is not None and not box_contains(within, x)):
            continue
        if None in pieces:
            raise DomainError(f"point {x} outside map domain")
        yield idx, x, pieces


def seed_scan_points(name, maps, grid, probe, parameters=None, within=None):
    """Fail iff ``probe(x, *values)`` yields a witness at some point of
    ``seed_grid_values(maps, grid, within)``, where ``values[k]`` is the value
    of ``maps[k]`` at ``x``; stops at ``CAP`` witnesses."""
    found = (probe(x, *(m.value_on(i, x) for m, i in zip(maps, pieces)))
             for _, x, pieces in seed_grid_values(maps, grid, within))
    witnesses = tuple(itertools.islice(itertools.chain.from_iterable(found), CAP))
    return CheckReport(name, FAIL if witnesses else PASS, witnesses, parameters or {})


def table_cells(cells):
    """``(cell, pieces)`` for the cells of the ``GridCells`` table ``cells`` on
    ``maps[0]``'s domain, in the order of their rows, read off ``segments``
    and ``rows``; raises ``DomainError`` at the first point of the first cell
    outside a later map's domain. The cell walk the class used to offer."""
    for cell, pieces in zip(itertools.product(*cells.segments), cells.rows):
        if pieces[0] is None:
            continue
        if None in pieces:
            raise DomainError(f"point {cells.first_point(cell)} outside map domain")
        yield cell, pieces


def seed_points(cells):
    """The full-table point walk of ``GridCells`` before it took a cell set:
    ``(index, point, pieces)`` for every point of the table, in lexicographic
    order, with the row found as the sum of segment number times stride."""
    indices = [[k for seg in segs for k in seg] for segs in cells.segments]
    offsets = [[s * stride for s, seg in enumerate(segs) for _ in seg]
               for segs, stride in zip(cells.segments, cells.strides)]
    values = [[ax[k] for k in ks] for ax, ks in zip(cells.axes, indices)]
    for idx, x, offs in zip(itertools.product(*indices), itertools.product(*values),
                            itertools.product(*offsets)):
        pieces = cells.rows[sum(offs)]
        if pieces[0] is None:
            continue
        if None in pieces:
            raise DomainError(f"point {x} outside map domain")
        yield idx, x, pieces


def seed_witnesses(cells, passes, probe):
    """The per-tuple ``GridCells.witnesses`` walk: the rule decides the cells
    until their piece tuple fails, and the probe runs at every point of
    ``seed_points`` whose tuple failed."""
    failed = set()
    for cell, pieces in zip(itertools.product(*cells.segments), cells.rows):
        if pieces[0] is not None and pieces not in failed and not passes(cell, pieces):
            failed.add(pieces)
    if failed:
        for idx, x, pieces in seed_points(cells):
            if pieces in failed:
                yield from probe(idx, x, pieces)


def _convex(bs):
    return len(bs.boxes) <= 1


def seed_grid_points(e, grid):
    for x in grid.points():
        if box_contains(e.domain, x):
            yield x


def seed_values_4_1(e, i, grid):
    ag = e.agents[i]
    h = e.conflict_map(i)
    wit = []
    for x in seed_grid_points(e, grid):
        aval = ag.a_map.evaluate(x)
        pval = ag.p_map.evaluate(x)
        bval = ag.b_map.evaluate(x)
        if not _convex(aval):
            wit.append(Witness(x, None, 0.0, "nonconvex", "constraint map value"))
        if not _convex(pval):
            wit.append(Witness(x, None, 0.0, "nonconvex", "preference map value"))
        if bval.is_empty or not _convex(bval):
            wit.append(Witness(x, None, 0.0, "bad value", "second constraint map value"))
        if not h.evaluate(x).subset_within(bval, 0.0):
            wit.append(Witness(x, None, 0.0, "inclusion", "conflict value escapes B"))
        if len(wit) >= CAP:
            break
    return wit


def seed_values_4_2(e, i, grid):
    ag = e.agents[i]
    h = e.conflict_map(i)
    wit = []
    for x in seed_grid_points(e, grid):
        pval = ag.p_map.evaluate(x)
        bval = ag.b_map.evaluate(x)
        if not pval.subset_within(ag.d_set, 0.0):
            wit.append(Witness(x, None, 0.0, "inclusion",
                               "preference value escapes target set"))
        if bval.is_empty:
            wit.append(Witness(x, None, math.inf, "empty value", "B empty"))
        if not h.evaluate(x).subset_within(bval, 0.0):
            wit.append(Witness(x, None, 0.0, "inclusion", "conflict value escapes B"))
        if len(wit) >= CAP:
            break
    return wit


def seed_value_shape(bar, points):
    """The empty-or-nonconvex loop of 4.1 cond4/cond5, 4.2 cond5 and 4.3 cl-b-values."""
    wit = []
    for x in points:
        val = bar.evaluate(x)
        if val.is_empty:
            wit.append(Witness(x, None, math.inf, "empty value"))
        elif not _convex(val):
            wit.append(Witness(x, None, 0.0, "nonconvex"))
        if len(wit) >= CAP:
            break
    return wit


def seed_map_points(t, grid):
    """The point walk of the almost-w-usc value scans: the map's own domain."""
    for _, p in indexed_points(grid):
        if box_contains(t.domain, p):
            yield p


def seed_irreflexive(e, i, bar, grid, what):
    blk = e.blocks[i]
    wit = []
    for x in seed_grid_points(e, grid):
        xb = tuple(x[j] for j in blk)
        if bar.evaluate(x).contains(xb):
            wit.append(Witness(x, None, 0.0, "reflexive",
                               f"block point inside adherent {what} value"))
            if len(wit) >= CAP:
                break
    return wit


def seed_nonempty_everywhere(t, grid, point_filter=None):
    holes = []
    for _, p in indexed_points(grid):
        if not box_contains(t.domain, p) or (point_filter is not None and not point_filter(p)):
            continue
        if t.evaluate(p).is_empty:
            holes.append(p)
    return (not holes), holes


def _largest_box(s):
    best = None
    best_key = None
    for b in s.boxes:
        key = (min(iv.hi - iv.lo for iv in b), sum(iv.hi - iv.lo for iv in b))
        if best is None or key > best_key:
            best, best_key = b, key
    return best


def seed_propose_constant_selection(t, k_region, eps, grid):
    inter = None
    for _, p in indexed_points(grid):
        if not box_contains(t.domain, p) or not box_contains(k_region, p):
            continue
        val = t.evaluate(p)
        if val.is_empty:
            return None
        dil = val.dilate(eps)
        inter = dil if inter is None else inter.intersect(dil)
        if inter.is_empty:
            return None
    if inter is None or inter.is_empty:
        return None
    return constant_map(t.domain, BoxSet.single(_largest_box(inter)))


def seed_e_uscs_lists(t, k_region, candidate, eps, grid, tol, block):
    convex_wit = []
    inside_wit = []
    avoid_wit = []
    for _, p in indexed_points(grid):
        if not box_contains(t.domain, p) or not box_contains(k_region, p):
            continue
        cand_val = candidate.evaluate(p)
        if len(cand_val.boxes) != 1:
            convex_wit.append(Witness(p, None, math.inf, "nonconvex",
                                      f"{len(cand_val.boxes)} canonical boxes"))
        target = t.evaluate(p)
        if target.is_empty or not cand_val.subset_within(target.dilate(eps), tol):
            inside_wit.append(Witness(p, None, math.inf, "escapes dilation"))
        xb = tuple(p[j] for j in block)
        if cand_val.closure().contains(xb):
            avoid_wit.append(Witness(p, None, 0.0, "contains base point"))
    return convex_wit, inside_wit, avoid_wit


# ---------------------------------------------------------------------------
# Comparison against whole hypothesis reports
# ---------------------------------------------------------------------------

def index_reports(rep, path=()):
    here = path + (rep.property_name,)
    out = {"/".join(here): rep}
    for c in rep.children:
        out.update(index_reports(c, here))
    return out


def assert_scan_equals(rep, raw, parameters=None):
    want = tuple(raw[:CAP])
    assert rep.verdict == (FAIL if raw else PASS)
    assert rep.witnesses == want
    assert repr(rep.witnesses) == repr(want)
    assert rep.parameters == (parameters or {})
    assert rep.notes == ()
    assert rep.children == ()


def compare_with_oracle(e, grid, eps_list, candidates=None, tol=1e-9):
    """Every per-point report of the three checkers against its frozen loop.

    Returns the raw witness lists, so callers can assert what was exercised.
    """
    raws = []

    def check(rep, raw, parameters=None):
        assert_scan_equals(rep, raw, parameters)
        raws.append(raw)

    r41 = index_reports(check_theorem_4_1_hypotheses(e, eps_list, grid, tol=tol))
    r42 = index_reports(check_theorem_4_2_hypotheses(e, eps_list, grid, tol=tol))
    r43 = index_reports(check_theorem_4_3_hypotheses(e, eps_list, candidates, grid, tol=tol))
    for i, ag in enumerate(e.agents):
        a = f"agent{i}"
        w_boxes = e.conflict_region(i).boxes

        base = f"hypotheses-4.1/{a}/"
        check(r41[base + f"{a}.cond2-values"], seed_values_4_1(e, i, grid),
              {"points_checked": grid.point_count()})
        for k, w_box in enumerate(w_boxes):
            h_w = restrict(e.conflict_map(i), w_box)
            for eps in eps_list:
                bar = adherence(t_upper(h_w, eps, ag.d_set))
                check(r41[base + f"{a}.cond4-conflict-almost-w-usc/"
                          f"{a}.conflict@W{k}.values@eps={eps:g}"],
                      seed_value_shape(bar, seed_map_points(h_w, grid)), {"eps": eps})
        for eps in eps_list:
            bar = adherence(t_upper(ag.b_map, eps, ag.d_set))
            check(r41[base + f"{a}.cond5-b-almost-w-usc/{a}.b.values@eps={eps:g}"],
                  seed_value_shape(bar, seed_map_points(ag.b_map, grid)), {"eps": eps})
        check(r41[base + f"{a}.cond6-irreflexive"],
              seed_irreflexive(e, i, e.adherent_conflict(i), grid, "conflict"))

        base = f"hypotheses-4.2/{a}/"
        check(r42[base + f"{a}.cond2-values"], seed_values_4_2(e, i, grid))
        for k, w_box in enumerate(w_boxes):
            cl_box = box_closure(w_box)
            a_r, p_r = restrict(ag.a_map, cl_box), restrict(ag.p_map, cl_box)
            for eps in eps_list:
                composite = intersect_maps(t_upper(a_r, eps, ag.d_set), p_r)
                ne, holes = seed_nonempty_everywhere(composite, grid)
                params = r42[base + f"{a}.cond4-dual-and-b/{a}.dual@clW{k}/"
                             f"dual-w-usc@eps={eps:g}"].parameters
                assert params["pre_adherence_empty_points"] == holes[:8]
                assert params["pre_adherence_nonempty_everywhere"] is ne
        for eps in eps_list:
            t_iv = intersect_maps(t_upper(ag.a_map, eps, ag.d_set), ag.p_map)
            bars = ((f"{a}.t-iv", adherence(t_iv)),
                    (f"{a}.b-v", adherence(t_upper(ag.b_map, eps, ag.d_set))))
            for label, bar in bars:
                check(r42[base + f"{a}.cond5-approx-values/{label}@eps={eps:g}"],
                      seed_value_shape(bar, seed_grid_points(e, grid)), {"eps": eps})
        check(r42[base + f"{a}.cond6-irreflexive"],
              seed_irreflexive(e, i, adherence(ag.p_map), grid, "preference"))

        base = f"hypotheses-4.3/{a}/"
        check(r43[base + f"{a}.cond2-cl-b/{a}.cl-b-values"],
              seed_value_shape(closure_values(ag.b_map), seed_grid_points(e, grid)))
        h_closed = closure_values(e.conflict_map(i))
        for eps in eps_list:
            for k, w_box in enumerate(w_boxes):
                path = base + f"{a}.cond4-e-uscs/{a}.e-uscs@W{k}@eps={eps:g}"
                candidate = None if candidates is None else candidates[i]
                if candidate is None:
                    candidate = seed_propose_constant_selection(h_closed, w_box, eps, grid)
                    if candidate is None:
                        assert r43[path].verdict == UNVERIFIED
                        assert r43[path].children == ()
                        continue
                convex, inside, avoid = seed_e_uscs_lists(
                    h_closed, w_box, candidate, eps, grid, tol, e.blocks[i])
                check(r43[path + "/selection-convex"], convex)
                check(r43[path + "/selection-inside-dilation"], inside,
                      {"eps": eps, "tol": tol})
                check(r43[path + "/selection-avoids-base-point"], avoid,
                      {"block": list(e.blocks[i])})
    return raws


def _capped_mid_point(raw):
    """The frozen loop found more than the cap and the cap splits one point."""
    return len(raw) > CAP and raw[CAP - 1].point == raw[CAP].point


# ---------------------------------------------------------------------------
# seed_scan_points and GridCells.points
# ---------------------------------------------------------------------------

def _line(n):
    """A one-piece map on [0, n - 1], as a one-map tuple, and the grid of its
    integer points."""
    t = constant_map((I.closed(0, n - 1),), BoxSet.single((I.closed(0, 1),)))
    return (t,), Grid(1, (0.0,), (float(n - 1),), 1.0)


def _counting(probe):
    calls = []

    def wrapped(x, *values):
        calls.append(x)
        return probe(x, *values)
    return wrapped, calls


def _const(v, dd):
    return ((AffineInterval(AffForm.constant(v, dd), AffForm.constant(v, dd)),),)


def _two_rows():
    """[0, 2]^2 split at x1 = 1, the upper piece listed first."""
    dom = (I.closed(0, 2), I.closed(0, 2))
    return PiecewiseMap(dom, 1, (Piece((I.closed(0, 2), I(1, 2, False, True)), _const(1.0, 2)),
                                 Piece((I.closed(0, 2), I.closed(0, 1)), _const(0.0, 2))))


def test_witnesses_come_in_point_order():
    t = _two_rows()
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 1.0)
    rep = seed_scan_points("order", (t,), grid,
                      lambda x, v: [Witness(x, None, v.boxes[0][0].lo, "hit")])
    assert [w.point for w in rep.witnesses] == list(grid.points())
    assert [w.excess for w in rep.witnesses] == [float(x[1] > 1) for x in grid.points()]
    assert rep.verdict == FAIL
    assert rep.property_name == "order"


def test_probe_gets_one_value_per_map():
    t = _two_rows()
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 1.0)
    seen = []
    seed_scan_points("values", (t, adherence(t), t), grid, lambda x, *v: seen.append((x, v)) or ())
    assert [x for x, _ in seen] == list(grid.points())
    for x, values in seen:
        assert values == (t.evaluate(x), adherence(t).evaluate(x), t.evaluate(x))


def test_cap_keeps_the_first_witnesses_and_stops_early():
    maps, grid = _line(100)
    points = list(grid.points())
    probe, calls = _counting(lambda x, v: [Witness(x, None, 0.0, "hit")] if x[0] >= 10 else [])
    rep = seed_scan_points("cap", maps, grid, probe)
    assert len(rep.witnesses) == CAP
    assert [w.point for w in rep.witnesses] == points[10:10 + CAP]
    # the scan stops at the point that brings the count to the cap
    assert calls == points[:10 + CAP]


def test_cap_can_fall_inside_one_point():
    maps, grid = _line(20)
    points = list(grid.points())
    probe, calls = _counting(
        lambda x, v: [Witness(x, None, float(j), "hit") for j in range(3)])
    rep = seed_scan_points("mid", maps, grid, probe)
    full, rest = divmod(CAP, 3)
    assert rest, "the cap must not be a multiple of the per-point count"
    assert len(rep.witnesses) == CAP
    assert calls == points[:full + 1]
    assert [w.excess for w in rep.witnesses[-rest:]] == [float(j) for j in range(rest)]
    assert {w.point for w in rep.witnesses[-rest:]} == {points[full]}


def test_generator_probe_is_not_run_past_the_cap():
    seen = []

    def probe(x, v):
        for j in range(3):
            seen.append((x, j))
            yield Witness(x, None, float(j), "hit")

    seed_scan_points("lazy", *_line(20), probe)
    assert len(seen) == CAP


def test_empty_scan_passes_with_its_parameters():
    params = {"eps": 0.5, "tol": 1e-9}
    rep = seed_scan_points("clean", *_line(2), lambda x, v: (), params)
    assert rep.verdict == PASS
    assert rep.witnesses == ()
    assert rep.parameters == params
    none = seed_scan_points("none", *_line(2), lambda x, v: [Witness(x, None, 0.0, "hit")],
                       within=(I.closed(5, 6),))
    assert none.parameters == {}
    assert none.verdict == PASS


def _open_edged_square():
    """(0, 1] x [0, 1] in two pieces, split at x1 = 1/2."""
    dom = (I(0, 1, False, True), I.closed(0, 1))
    return PiecewiseMap(dom, 1, (Piece((dom[0], I(0.5, 1, False, True)), _const(1.0, 2)),
                                 Piece((dom[0], I.closed(0, 0.5)), _const(0.0, 2))))


def test_grid_values_in_lexicographic_order_inside_the_domain():
    t = _open_edged_square()
    grid = Grid(2, (0.0, 0.0), (1.0, 1.0), 0.5)
    got = list(GridCells((t,), grid).points())
    pts = [x for _, x, _ in got]
    assert pts == [(a, b) for a in (0.5, 1.0) for b in (0.0, 0.5, 1.0)]
    assert pts == sorted(pts)
    assert [idx for idx, _, _ in got] == [(a, b) for a in (1, 2) for b in (0, 1, 2)]
    assert [pieces for _, _, pieces in got] == [(1,), (1,), (0,)] * 2


def test_grid_values_keeps_the_points_within_the_box():
    t = _open_edged_square()
    grid = Grid(2, (0.0, 0.0), (1.0, 1.0), 0.5)
    above = (I.closed(0, 1), I(0, 1, False, True))
    assert [x for _, x, _ in GridCells((t,), grid, above).points()] == [
        (0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)]
    # the box holds no point of piece 0
    got = list(GridCells((t,), grid, (I.closed(0, 1), I.closed(0, 0.5))).points())
    assert {pieces for _, _, pieces in got} == {(1,)}


def test_grid_values_raises_outside_a_later_domain():
    t = _open_edged_square()
    grid = Grid(2, (0.0, 0.0), (1.0, 1.0), 0.5)
    lower = restrict(t, (I(0, 1, False, True), I.closed(0, 0.5)))
    assert [p for _, _, p in GridCells((lower, t), grid).points()] == [(0, 1), (0, 1)] * 2
    with pytest.raises(DomainError, match=r"\(0\.5, 1\.0\)"):
        list(GridCells((t, lower), grid).points())
    assert len(list(GridCells((t, lower), grid, (I.closed(0, 1), I.closed(0, 0.5))).points())) == 4


def test_grid_values_rejects_a_grid_of_another_dimension():
    t = _open_edged_square()
    line = Grid(1, (0.0,), (1.0,), 0.5)
    with pytest.raises(DimensionMismatchError):
        list(GridCells((t,), line).points())
    with pytest.raises(DimensionMismatchError):
        list(GridCells((t, *_line(2)[0]), Grid(2, (0.0, 0.0), (1.0, 1.0), 0.5)).points())


# ---------------------------------------------------------------------------
# GridCells against seed_grid_values, and scan_values against seed_scan_points
# ---------------------------------------------------------------------------

def cell_points(maps, grid, within=None):
    """The ``(index, pieces)`` pairs of every cell of ``GridCells``, cell by
    cell, after checking that the cells come in the order of their first
    points and that none is empty."""
    out, firsts = [], []
    for cell, pieces in table_cells(GridCells(maps, grid, within)):
        assert all(len(r) for r in cell)
        firsts.append(tuple(r.start for r in cell))
        out += [(idx, pieces) for idx in itertools.product(*cell)]
    assert firsts == sorted(firsts)
    return out


def assert_cells_partition(maps, grid, within=None):
    """The points are those of ``seed_grid_values``, in its order, and the
    cells hold each of them once, on the same pieces."""
    seed = list(seed_grid_values(maps, grid, within))
    assert list(GridCells(maps, grid, within).points()) == seed
    got = cell_points(maps, grid, within)
    assert len(got) == len({idx for idx, _ in got})
    assert sorted(got) == [(idx, pieces) for idx, _, pieces in seed]
    return got


def _until_error(walk):
    """The items of ``walk`` before its ``DomainError``, if any, and the
    error's message, ``None`` when it ends without one."""
    items = []
    try:
        for item in walk:
            items.append(item)
    except DomainError as exc:
        return items, str(exc)
    return items, None


def _lower_half(t):
    """``t`` restricted to the lower closed half of its domain's first axis."""
    iv = t.domain[0]
    return restrict(t, (I(iv.lo, (iv.lo + iv.hi) / 2, iv.lo_closed, True),) + t.domain[1:])


def _scan_maps():
    """Map tuples of constant, empty and affine pieces, with the grids they
    are scanned on: every agent's three maps and its conflict map."""
    out = []
    for e in [random_economy(seed) for seed in range(6)] + \
             [mixed_economy(seed) for seed in range(6)]:
        for i, ag in enumerate(e.agents):
            out.append(((ag.a_map, ag.p_map, ag.b_map, e.conflict_map(i)), _grid_for(e)))
    t = _two_rows()
    out.append(((t, adherence(t)), Grid(2, (0.0, 0.0), (2.0, 2.0), 0.5)))
    return out


def _withins(dim):
    """No box, a box of part of the domain, and a box holding no grid point."""
    return (None, (I(0.25, 1.5, False, True),) + (I.closed(0.5, 2),) * (dim - 1),
            (I(0.3, 0.4, True, True),) * dim)


def test_grid_cells_match_the_frozen_slot_fill_up_to_its_domain_error():
    """Over the scan maps with the last map cut to half its domain, the
    points walk yields ``seed_grid_values``' items up to the same
    ``DomainError``, and the cells walk raises that error too; with the
    first map cut instead, or a box inside the cut, neither raises and both
    walks match the seed (the uncut maps and boxes are checked below)."""
    raised = 0
    for maps, grid in _scan_maps():
        cut = (*maps[:-1], _lower_half(maps[-1]))
        want = _until_error(seed_grid_values(cut, grid))
        assert _until_error(GridCells(cut, grid).points()) == want
        assert _until_error(table_cells(GridCells(cut, grid)))[1] == want[1]
        raised += want[1] is not None
        assert_cells_partition((_lower_half(maps[0]), *maps[1:]), grid)
        assert_cells_partition(cut, grid, _lower_half(maps[-1]).domain)
    assert raised == len(_scan_maps())


def test_grid_cells_partition_the_points_of_grid_values():
    """Over the scan maps and boxes, the points walk is ``seed_grid_values``
    item for item, and the cells partition its points."""
    for maps, grid in _scan_maps():
        for within in _withins(grid.dim):
            assert_cells_partition(maps, grid, within)
    t = _open_edged_square()
    grid = Grid(2, (0.0, 0.0), (1.0, 1.0), 0.5)
    assert_cells_partition((t,), grid)
    assert list(table_cells(GridCells((t,), grid))) == [((range(1, 3), range(0, 2)), (1,)),
                                                       ((range(1, 3), range(2, 3)), (0,))]


def test_grid_cells_refine_every_map_and_the_box():
    """A cell per common piece range: two maps cut on different axes give
    four cells, and a box cuts them again."""
    rows = _two_rows()
    dom = rows.domain
    cols = PiecewiseMap(dom, 1, (Piece((I(1, 2, False, True), I.closed(0, 2)), _const(1.0, 2)),
                                 Piece((I.closed(0, 1), I.closed(0, 2)), _const(0.0, 2))))
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.5)
    cells = list(table_cells(GridCells((rows, cols), grid)))
    assert cells == [((range(0, 3), range(0, 3)), (1, 1)), ((range(0, 3), range(3, 5)), (0, 1)),
                     ((range(3, 5), range(0, 3)), (1, 0)), ((range(3, 5), range(3, 5)), (0, 0))]
    within = (I.closed(0, 2), I(0.5, 2, False, True))
    assert [cell for cell, _ in table_cells(GridCells((rows, cols), grid, within))] == [
        (range(0, 3), range(2, 3)), (range(0, 3), range(3, 5)),
        (range(3, 5), range(2, 3)), (range(3, 5), range(3, 5))]
    assert_cells_partition((rows, cols), grid, within)


def test_grid_cells_raise_at_the_first_point_outside_a_later_domain():
    t = _open_edged_square()
    grid = Grid(2, (0.0, 0.0), (1.0, 1.0), 0.5)
    lower = restrict(t, (I(0, 1, False, True), I.closed(0, 0.5)))
    assert_cells_partition((lower, t), grid)
    with pytest.raises(DomainError, match=r"\(0\.5, 1\.0\)"):
        list(table_cells(GridCells((t, lower), grid)))
    assert_cells_partition((t, lower), grid, (I.closed(0, 1), I.closed(0, 0.5)))
    with pytest.raises(DimensionMismatchError):
        list(table_cells(GridCells((t,), Grid(1, (0.0,), (1.0,), 0.5))))


def _as_point_probe(value_probe):
    """The ``seed_scan_points`` probe that yields ``value_probe``'s triples as witnesses."""
    def probe(x, *values):
        return (Witness(x, None, *w) for w in value_probe(*values))
    return probe


def _shape(*values):
    for k, v in enumerate(values):
        if v.is_empty:
            yield math.inf, "empty value", f"map {k}"
        elif len(v.boxes) > 1:
            yield 0.0, "nonconvex", f"map {k}"


def _escapes_last(*values):
    if not values[0].subset_within(values[-1], 0.0):
        yield 0.0, "inclusion", "first value escapes the last"


def _never(*values):
    return ()


def assert_same_value_scan(maps, grid, value_probe, within=None, parameters=None):
    got = scan_values("scan", maps, grid, value_probe, parameters, within)
    want = seed_scan_points("scan", maps, grid, _as_point_probe(value_probe), parameters, within)
    assert got == want
    assert repr(got.witnesses) == repr(want.witnesses)
    assert got.parameters == want.parameters
    return got


def test_scan_values_matches_scan_points():
    verdicts = set()
    capped = False
    for maps, grid in _scan_maps():
        for within in _withins(grid.dim):
            for probe in (_shape, _escapes_last, _never):
                rep = assert_same_value_scan(maps, grid, probe, within, {"eps": 0.5})
                verdicts.add(rep.verdict)
                capped |= len(rep.witnesses) == CAP
    assert verdicts == {PASS, FAIL}
    assert capped


def test_scan_values_cap_can_fall_inside_one_point():
    maps, grid = _line(20)
    points = list(grid.points())

    def three(v):
        return [(float(j), "hit", "") for j in range(3)]

    rep = assert_same_value_scan(maps, grid, three)
    full, rest = divmod(CAP, 3)
    assert rest
    assert [w.excess for w in rep.witnesses[-rest:]] == [float(j) for j in range(rest)]
    assert {w.point for w in rep.witnesses[-rest:]} == {points[full]}


def test_scan_values_runs_a_generator_probe_lazily():
    """One triple decides the piece tuple; the walk then reads up to the cap."""
    seen = []

    def probe(v):
        for j in range(3):
            seen.append(j)
            yield float(j), "hit", ""

    rep = scan_values("lazy", *_line(20), probe)
    assert len(rep.witnesses) == CAP
    assert len(seen) == 1 + CAP


def test_scan_values_passes_constant_tuples_without_a_point_walk(monkeypatch):
    t = _two_rows()
    maps = (t, adherence(t), t)
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.25)
    calls = []

    def probe(*values):
        calls.append(values)
        return ()

    def no_walk(*args, **kwargs):
        raise AssertionError("points walked")

    monkeypatch.setattr(_checks.GridCells, "points", no_walk)
    rep = scan_values("clean", maps, grid, probe, {"eps": 1.0})
    assert (rep.verdict, rep.witnesses, rep.parameters) == (PASS, (), {"eps": 1.0})
    # the adherence adds the closed line x1 = 1 as a third piece
    tuples = {pieces for _, pieces in table_cells(GridCells(maps, grid))}
    assert len(calls) == len(tuples) == 3
    assert set(calls) == {(t.evaluate(x), adherence(t).evaluate(x), t.evaluate(x))
                          for x in grid.points()}


def test_each_scan_builds_one_cell_table(monkeypatch):
    """Each ``check_usc``, ``scan_values`` and ``scan_block_points`` call
    builds one ``GridCells`` table and reads both its cell decisions and
    any point walk off it: over the scan maps, with constant and affine
    pieces, scans that pass and scans that fail after walking points."""
    built, walked = [], []

    class Counted(GridCells):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

        def points(self, cells=None):
            walked.append(self)
            return super().points(cells)

    monkeypatch.setattr(_checks, "GridCells", Counted)
    scans = {
        "usc": lambda maps, grid: _checks.check_usc(maps[0], grid),
        "values": lambda maps, grid: scan_values("values", maps, grid, _escapes_last),
        "block": lambda maps, grid: scan_block_points(
            "block", maps, grid, tuple(range(maps[-1].codomain_dim)), "hit", closure=True),
    }
    seen = {kind: set() for kind in scans}
    for maps, grid in _scan_maps():
        affine = not all(p.is_constant for m in maps for p in m.pieces)
        for kind, scan in scans.items():
            before = len(built)
            walks = len(walked)
            rep = scan(maps, grid)
            assert len(built) == before + 1
            assert all(cells is built[-1] for cells in walked[walks:])
            seen[kind].add((rep.verdict, affine, len(walked) > walks))
    for kind, outcomes in seen.items():
        assert {verdict for verdict, _, _ in outcomes} == {PASS, FAIL}, kind
        assert any(affine for _, affine, _ in outcomes), kind
        assert any(walk for _, _, walk in outcomes), kind


def test_scan_values_raises_outside_a_later_domain():
    """The DomainError at the first point outside a later map's domain is
    raised with or without 32 witnesses before that point; ``seed_scan_points``
    raises it only when its cap does not stop the walk first."""
    t = constant_map((I.closed(0, 99),), BoxSet.single((I.closed(0, 1),)))
    lower = restrict(t, (I.closed(0, 50),))
    grid = Grid(1, (0.0,), (99.0,), 1.0)
    hit = lambda *v: [(0.0, "hit", "")]
    for probe in (_never, hit):
        with pytest.raises(DomainError, match=r"\(51\.0,\)"):
            scan_values("late", (t, lower), grid, probe)
    with pytest.raises(DomainError, match=r"\(51\.0,\)"):
        seed_scan_points("late", (t, lower), grid, _as_point_probe(_never))
    assert len(seed_scan_points("late", (t, lower), grid, _as_point_probe(hit)).witnesses) == CAP
    # a box that keeps every point inside the later domain raises nothing
    assert_same_value_scan((t, lower), grid, hit, (I.closed(0, 50),))
    assert_same_value_scan((lower, t), grid, hit)


def test_theorem_4_1_value_probes_run_once_per_constant_tuple(monkeypatch):
    """On ex4_1(2) at step 1/16, each value-only probe of the 4.1 check runs
    once per distinct tuple of decided pieces, and at each point of a cell
    whose tuple holds an undecided piece. A piece is decided when it is
    constant, or one-box at a position the scan reads only for convexity:
    the A and P maps of the cond2 scans, whose affine pieces are one box.
    Agent 1's value scans on the conflict and B approximations are agent
    0's, shared: 8 scans run, where one per agent made 14."""
    e = ex4_1(2)
    grid = Grid.over_box(e.domain, 1 / 16)
    counts = {"calls": 0, "decided_tuples": 0, "undecided_points": 0, "scans": 0,
              "points": 0, "convex_only_scans": 0}
    real = _economy.scan_values

    def counted(name, maps, grid, probe, parameters=None, within=None, convex_only=()):
        calls = []

        def wrapped(*values):
            calls.append(values)
            return probe(*values)

        rep = real(name, maps, grid, wrapped, parameters, within, convex_only)
        tuples, undecided = set(), 0
        for cell, pieces in table_cells(GridCells(maps, grid, within)):
            counts["points"] += math.prod(map(len, cell))
            if all(p.is_constant or k in convex_only and len(p.value) <= 1
                   for k, p in enumerate(m.pieces[i] for m, i in zip(maps, pieces))):
                tuples.add(pieces)
            else:
                undecided += math.prod(map(len, cell))
        assert rep.verdict == PASS
        assert len(calls) == len(tuples) + undecided
        counts["calls"] += len(calls)
        counts["decided_tuples"] += len(tuples)
        counts["undecided_points"] += undecided
        counts["scans"] += 1
        counts["convex_only_scans"] += bool(convex_only)
        return rep

    monkeypatch.setattr(_economy, "scan_values", counted)
    rep = check_theorem_4_1_hypotheses(e, (0.5, 2.0, 4.0), grid)
    assert rep.verdict == PASS
    # a probe at every point, as seed_scan_points runs it, makes 35,150 calls;
    # with constant tuples alone decided, the affine A/P cells took 512 of 534;
    # one scan per agent made 36 calls over 35,150 points
    assert counts == {"calls": 30, "decided_tuples": 30, "undecided_points": 0, "scans": 8,
                      "points": 21800, "convex_only_scans": 2}


# ---------------------------------------------------------------------------
# scan_values with convexity-only positions against seed_scan_points
# ---------------------------------------------------------------------------

def _convexity_at(positions):
    """A value probe that reads the values at ``positions`` only through
    ``len(value.boxes) <= 1``, and the others for emptiness and shape."""
    def probe(*values):
        for k, v in enumerate(values):
            if k not in positions and v.is_empty:
                yield math.inf, "empty value", f"map {k}"
            elif len(v.boxes) > 1:
                yield 0.0, "nonconvex", f"map {k}"
    return probe


def assert_same_convex_only_scan(maps, grid, positions, within=None, parameters=None):
    """The report of ``scan_values`` with ``convex_only=positions`` equals the
    per-point scan's; returns it with the number of probe calls."""
    probe = _convexity_at(positions)
    calls = []

    def counted(*values):
        calls.append(values)
        return probe(*values)

    got = scan_values("scan", maps, grid, counted, parameters, within, positions)
    want = seed_scan_points("scan", maps, grid, _as_point_probe(probe), parameters, within)
    assert got == want
    assert repr(got.witnesses) == repr(want.witnesses)
    assert got.parameters == want.parameters
    return got, len(calls)


def _affine(lo, hi, dd, slope=0.5, axis=0):
    """The one-box value ``[lo + slope * x_axis, hi + slope * x_axis]``."""
    form = AffForm.coordinate(axis, dd, slope)
    return (AffineInterval(AffForm(lo, form.coeffs), AffForm(hi, form.coeffs), True, True),)


def test_convex_only_scans_match_scan_points():
    """Every scan-map tuple, box and choice of convexity-only positions."""
    verdicts, capped, decided = set(), False, False
    for maps, grid in _scan_maps():
        points = sum(1 for _ in GridCells(maps, grid).points())
        for within in _withins(grid.dim):
            for positions in ((0,), (0, 1), tuple(range(len(maps)))):
                rep, calls = assert_same_convex_only_scan(maps, grid, positions, within,
                                                          {"eps": 0.5})
                verdicts.add(rep.verdict)
                capped |= len(rep.witnesses) == CAP
                decided |= within is None and calls < points and any(
                    not p.is_constant for m in maps for p in m.pieces)
    assert verdicts == {PASS, FAIL}
    assert capped and decided


@pytest.mark.parametrize("position", [0, 1])
def test_two_box_affine_piece_stays_per_point(position):
    """An A or P piece of two affine boxes is one box where they meet and
    two elsewhere, so it is probed at every point of its cells."""
    dom = (I.closed(0, 2),)
    split = PiecewiseMap(dom, 1, (Piece(dom, (_const_box(0.0, 0.5, 1),
                                              _affine(0.0, 0.5, 1, slope=1.0))),))
    other = constant_map(dom, BoxSet.single((I.closed(0, 1),)))
    maps = (split, other) if position == 0 else (other, split)
    grid = Grid(1, (0.0,), (2.0,), 1 / 16)
    rep, calls = assert_same_convex_only_scan(maps, grid, (0, 1))
    assert calls == grid.point_count() == 33
    assert [w.point[0] for w in rep.witnesses] == [k / 16 for k in range(9, 33)]
    assert {w.detail for w in rep.witnesses} == {f"map {position}"}


def _affine_a_economy():
    """Two agents on [0, 2]^2. Agent 0's A is affine and one box on each of
    its two pieces, wide enough that A cap P is P's constant [0, 1]; its B,
    cut along axis 1, is [0, 2], then empty, then [0, 0.5]. Agent 1's A is
    the affine box [x1 / 2, x1 / 2 + 1/2] inside its P, so its conflict
    value is that affine box, and it escapes B = [0, 1] where x1 > 1."""
    dd = 2
    x_box = (I.closed(0.0, 2.0),)
    dom = x_box * dd
    low, high = (I.closed(0, 2), I(0, 1, True, False)), (I.closed(0, 2), I.closed(1, 2))
    a0 = PiecewiseMap(dom, 1, (Piece(low, (_affine(-2.0, 3.0, dd),)),
                               Piece(high, (_affine(-2.0, 3.0, dd, slope=0.25, axis=1),))))
    b0 = PiecewiseMap(dom, 1, (
        Piece((I.closed(0, 2), I(0, 0.25, True, False)), (_const_box(0.0, 2.0, dd),)),
        Piece((I.closed(0, 2), I(0.25, 1.25, True, False)), ()),
        Piece((I.closed(0, 2), I.closed(1.25, 2)), (_const_box(0.0, 0.5, dd),))))
    a1 = PiecewiseMap(dom, 1, (Piece(dom, (_affine(0.0, 0.5, dd, axis=1),)),))
    d = BoxSet.single((I.closed(0.5, 1.5),))
    return AbstractEconomy((
        AgentSpec(x_box, d, a0, constant_map(dom, BoxSet.single((I.closed(0, 1),))), b0),
        AgentSpec(x_box, d, a1, constant_map(dom, BoxSet.single((I.closed(0, 2),))),
                  constant_map(dom, BoxSet.single((I.closed(0, 1),))))))


def _rounding_b_economy():
    """One agent on [0, 2] whose A is an affine box and whose P is empty, so
    its conflict value is empty; its B, ``[0.1 + 0.15x, 0.7 - 0.15x]``, is
    one closed box whose float instance at x = 2 is empty."""
    x_box = (I.closed(0.0, 2.0),)
    b = PiecewiseMap(x_box, 1, (Piece(x_box, ((AffineInterval(
        AffForm(0.1, (0.15,)), AffForm(0.7, (-0.15,)), True, True),),)),))
    a = PiecewiseMap(x_box, 1, (Piece(x_box, (_affine(0.0, 0.5, 1),)),))
    empty = PiecewiseMap(x_box, 1, (Piece(x_box, ()),))
    return AbstractEconomy((AgentSpec(x_box, BoxSet.single(x_box), a, empty, b),))


def test_failing_b_and_conflict_clauses_on_a_one_box_affine_a_piece(monkeypatch):
    """The B and conflict clauses fail on tuples whose A piece is affine and
    one box: those tuples are probed once, then walked point by point, so
    the witnesses, their order and the cap split inside one point equal the
    frozen per-point loop's. B and the conflict map are read for emptiness
    and inclusion, so their affine pieces stay per point."""
    raws = []
    for e in (_affine_a_economy(), _rounding_b_economy()):
        grid = Grid.over_box(e.domain, 0.125)
        for i in range(len(e.agents)):
            raws.append(seed_values_4_1(e, i, grid))
            assert_scan_equals(_economy._values_condition_4_1(e, i, grid, "cond2"), raws[-1],
                               {"points_checked": grid.point_count()})
    e = _affine_a_economy()
    assert all(not p.is_constant and len(p.value) == 1 for p in e.agents[0].a_map.pieces)
    assert all(p.is_constant for p in e.conflict_map(0).pieces)
    assert not any(p.is_constant for p in e.conflict_map(1).pieces)
    raw = raws[0]
    # 23 witnesses in the column x0 = 0, then two at each empty-B point
    assert [w.category for w in raw[:3]] == ["bad value", "inclusion", "bad value"]
    assert {w.category for w in raw} == {"bad value", "inclusion"}
    assert _capped_mid_point(raw)
    assert raw[CAP - 1].point == (0.125, 0.75)
    assert [w.point for w in raws[1][:9]] == [(0.0, 1.125 + k / 8) for k in range(8)] + \
        [(0.125, 1.125)]
    assert [(w.point, w.category) for w in raws[2]] == [((2.0,), "bad value")]
    # with B passing everywhere, agent 0's A walks no point
    passing = AbstractEconomy((dataclasses.replace(e.agents[0], b_map=e.agents[1].p_map),
                               e.agents[1]))

    def no_walk(*args, **kwargs):
        raise AssertionError("points walked")

    monkeypatch.setattr(_checks.GridCells, "points", no_walk)
    rep = _economy._values_condition_4_1(passing, 0, Grid.over_box(e.domain, 0.125), "cond2")
    assert (rep.verdict, rep.witnesses) == (PASS, ())


def test_rounding_empty_value_at_a_convexity_only_position():
    """``[0.1 + 0.3x, 0.7 - 0.3x]`` on [0, 1] is one closed box whose float
    instance at x = 1 is empty. Read for convexity only it is decided and
    probed once; read for emptiness it is walked and the empty point found."""
    dom = (I.closed(0, 1),)
    t = PiecewiseMap(dom, 1, (Piece(dom, ((AffineInterval(
        AffForm(0.1, (0.3,)), AffForm(0.7, (-0.3,)), True, True),),)),))
    other = constant_map(dom, BoxSet.single((I.closed(0, 1),)))
    grid = Grid(1, (0.0,), (1.0,), 0.125)
    assert t.evaluate((1.0,)).is_empty and not t.evaluate((0.875,)).is_empty
    rep, calls = assert_same_convex_only_scan((t, other), grid, (0,))
    assert (rep.verdict, calls) == (PASS, 1)
    rep, calls = assert_same_convex_only_scan((t, other), grid, (1,))
    assert [(w.point, w.category) for w in rep.witnesses] == [((1.0,), "empty value")]
    assert calls == 9


def test_convex_only_scan_raises_outside_a_later_domain():
    """A later map's ``DomainError`` names the point the per-point scan
    raises at, whether the first map is decided for convexity or not."""
    dd = 2
    dom = (I.closed(0, 2),) * dd
    a = PiecewiseMap(dom, 1, (Piece(dom, (_affine(0.0, 1.0, dd),)),))
    lower = restrict(constant_map(dom, BoxSet.single((I.closed(0, 1),))),
                     (I.closed(0, 2), I.closed(0, 1)))
    grid = Grid.over_box(dom, 0.25)
    for positions in ((0,), ()):
        probe = _convexity_at(positions)
        with pytest.raises(DomainError) as got:
            scan_values("late", (a, lower), grid, probe, None, None, positions)
        with pytest.raises(DomainError) as want:
            seed_scan_points("late", (a, lower), grid, _as_point_probe(probe))
        assert str(got.value) == str(want.value) == "point (0.0, 1.25) outside map domain"
    # a box that keeps every point inside the later domain raises nothing
    assert_same_convex_only_scan((a, lower), grid, (0,), (I.closed(0, 2), I.closed(0, 1)))


# ---------------------------------------------------------------------------
# scan_block_points against seed_scan_points
# ---------------------------------------------------------------------------

def seed_block_probe(block, closure):
    """The per-point probe of ``_irreflexive`` (``closure`` unset) and of
    ``check_e_uscs``' ``contains_base`` (set), with the witness of both."""
    def probe(x, *values):
        value = values[-1].closure() if closure else values[-1]
        if value.contains(tuple(x[j] for j in block)):
            yield Witness(x, None, 0.0, "hit", "block point inside")
    return probe


def _outcome(scan):
    try:
        return scan()
    except Exception as exc:  # the two scans must raise alike
        return type(exc), str(exc)


def assert_same_block_scan(maps, grid, block, closure=False, within=None):
    """The block scan equals the frozen per-point scan, witness for witness,
    or raises the same error type with the same message."""
    params = {"block": list(block)}
    got = _outcome(lambda: scan_block_points("blk", maps, grid, block, "hit",
                                             "block point inside", closure, params, within))
    want = _outcome(lambda: seed_scan_points("blk", maps, grid, seed_block_probe(block, closure),
                                             params, within))
    assert got == want
    if isinstance(want, CheckReport):
        assert repr(got.witnesses) == repr(want.witnesses)
        assert got.parameters == want.parameters
    return got


def _box_map(dom, *boxes):
    """A one-piece constant map on ``dom`` whose value is the union of the
    given one-axis flagged intervals."""
    dd = len(dom)
    value = tuple((AffineInterval(AffForm.constant(iv.lo, dd), AffForm.constant(iv.hi, dd),
                                  iv.lo_closed, iv.hi_closed),) for iv in boxes)
    return PiecewiseMap(dom, 1, (Piece(dom, value),))


_CELL_WALK = GridCells.witnesses


def _count_walk(monkeypatch, walk):
    """Run ``walk`` as ``GridCells.witnesses``, counting the points it probes."""
    probed = [0]

    def counted(cells, passes, probe):
        def wrapped(*args):
            probed[0] += 1
            return probe(*args)
        return walk(cells, passes, wrapped)

    monkeypatch.setattr(GridCells, "witnesses", counted)
    return probed


def _count_block_probes(monkeypatch):
    """Count the points the ``GridCells.witnesses`` walk probes, block scans
    and value scans alike."""
    return _count_walk(monkeypatch, _CELL_WALK)


def test_block_scan_matches_seed_scan_on_the_scan_maps():
    """Empty, constant and affine last values, blocks on either axis, with
    and without closure and within boxes, over the seeded economies' maps."""
    verdicts, capped = set(), False
    for maps, grid in _scan_maps():
        for within in _withins(grid.dim):
            for block in {(0,), (grid.dim - 1,)}:
                for closure in (False, True):
                    rep = assert_same_block_scan(maps, grid, block, closure, within)
                    verdicts.add(rep.verdict)
                    capped |= len(rep.witnesses) == CAP
    assert verdicts == {PASS, FAIL}
    assert capped


def test_block_scan_on_a_value_that_meets_part_of_a_cell(monkeypatch):
    """[0.5, 1.25] holds the block points of part of the one cell, on
    either block axis; [3, 4] holds none and no point is probed."""
    dom = (I.closed(0, 2), I.closed(0, 2))
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.25)
    probed = _count_block_probes(monkeypatch)
    for block in ((0,), (1,)):
        rep = assert_same_block_scan((_box_map(dom, I.closed(0.5, 1.25)),), grid, block)
        axis = [x[block[0]] for x in grid.points()]
        assert [w.point for w in rep.witnesses] == [
            x for x, v in zip(grid.points(), axis) if 0.5 <= v <= 1.25][:CAP]
    probed[0] = 0
    rep = assert_same_block_scan((_box_map(dom, I.closed(3, 4)),), grid, (0,))
    assert (rep.verdict, probed[0]) == (PASS, 0)


@pytest.mark.parametrize("closed", [False, True])
def test_block_scan_reads_a_face_on_a_grid_line(closed, monkeypatch):
    """(0.5, 1] and [0.5, 1] with their face on the grid line 0.5, read with
    and without closure; a value that touches the grid only through an open
    face is decided from the cells alone."""
    dom = (I.closed(0, 2),)
    grid = Grid(1, (0.0,), (2.0,), 0.25)
    t = _box_map(dom, I(0.5, 1, closed, True))
    for closure in (False, True):
        rep = assert_same_block_scan((t,), grid, (0,), closure)
        first = rep.witnesses[0].point
        assert first == ((0.5,) if closed or closure else (0.75,))
    probed = _count_block_probes(monkeypatch)
    between = _box_map(dom, I(0.5, 0.75, False, False))
    assert assert_same_block_scan((between,), grid, (0,)).verdict == PASS
    assert probed[0] == 0
    assert assert_same_block_scan((between,), grid, (0,), closure=True).verdict == FAIL


def test_block_scan_on_empty_and_affine_values(monkeypatch):
    """An empty value passes without a probe; an affine piece is probed at
    each of its points."""
    dom = (I.closed(0, 2),)
    grid = Grid(1, (0.0,), (2.0,), 0.25)
    ramp = AffForm(0.0, (1.0,))
    t = PiecewiseMap(dom, 1, (Piece((I(0, 1, True, False),), ()),
                              Piece((I.closed(1, 2),), ((AffineInterval(ramp.shift(-0.25),
                                                                        ramp),),))))
    probed = _count_block_probes(monkeypatch)
    rep = assert_same_block_scan((t,), grid, (0,))
    assert [w.point for w in rep.witnesses] == [(1.0,), (1.25,), (1.5,), (1.75,), (2.0,)]
    assert probed[0] == 5
    probed[0] = 0
    assert assert_same_block_scan((restrict(t, (I(0, 1, True, False),)),), grid,
                                  (0,)).verdict == PASS
    assert probed[0] == 0


def test_block_scan_within_boxes():
    dom = (I.closed(0, 2), I.closed(0, 2))
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.25)
    t = _box_map(dom, I.closed(0.5, 1.25), I(1.5, 2, False, True))
    for within in _withins(2) + ((I.closed(0, 0.25), I.closed(0, 2)),):
        for closure in (False, True):
            assert_same_block_scan((t, t), grid, (0,), closure, within)


def test_block_scan_cap_falls_mid_walk():
    maps, grid = _line(100)
    t = _box_map(maps[0].domain, I.closed(10, 99))
    rep = assert_same_block_scan((t,), grid, (0,))
    assert [w.point for w in rep.witnesses] == [(float(v),) for v in range(10, 10 + CAP)]


def test_block_scan_raises_outside_a_later_domain():
    """A later map with a smaller domain raises the DomainError at its first
    point outside it, unless the cap stops the walk first, as the frozen
    scan does."""
    grid = Grid(1, (0.0,), (99.0,), 1.0)
    t = _box_map((I.closed(0, 99),), I.closed(200, 300))
    for value, raised in ((I.closed(200, 300), True), (I.closed(0, 99), False)):
        lower = restrict(_box_map((I.closed(0, 99),), value), (I.closed(0, 50),))
        got = assert_same_block_scan((t, lower), grid, (0,))
        if raised:
            assert got == (DomainError, "point (51.0,) outside map domain")
        else:
            assert len(got.witnesses) == CAP


def test_block_scan_raises_on_a_block_of_the_wrong_length():
    """A block longer than the value's dimension raises the frozen scan's
    DimensionMismatchError at the first nonempty value, and passes where
    every value is empty; an index outside the point raises its IndexError."""
    dom = (I.closed(0, 2), I.closed(0, 2))
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.5)
    t = _box_map(dom, I.closed(5, 6))
    got = assert_same_block_scan((t,), grid, (0, 1))
    assert got == (DimensionMismatchError, "point of dim 2 vs box of dim 1")
    assert assert_same_block_scan((t,), grid, (0, 1), closure=True) == got
    assert assert_same_block_scan((_box_map(dom),), grid, (0, 1)).verdict == PASS
    assert assert_same_block_scan((t,), grid, (2,))[0] is IndexError


def test_check_counts_on_ex4_1(monkeypatch):
    """On ex4_1(2) at step 1/16 with eps (0.5, 2, 4), the 4.1 check's 3
    USC scans build no point record, and its block scans probe no point.
    The 4.2 check's reflexive witnesses and unsafe USC pieces take the
    point walks. Both agents' approximations of B and of the restricted
    conflict map are equal, and so are B's at all three eps: each distinct
    map is scanned once, where one scan per agent and eps made 12 and 18."""
    e = ex4_1(2)
    grid = Grid.over_box(e.domain, 1 / 16)
    counts = {}
    real_usc, real_record = _checks.check_usc, _checks._point_record

    def usc(*args, **kwargs):
        counts["usc"] += 1
        rep = real_usc(*args, **kwargs)
        counts["points"] += rep.parameters["points_checked"]
        return rep

    def record(*args):
        built = real_record(*args)
        counts["records"] += built is not None
        return built

    monkeypatch.setattr(_checks, "check_usc", usc)
    monkeypatch.setattr(_economy, "check_usc", usc)
    monkeypatch.setattr(_checks, "_point_record", record)
    probed = _count_block_probes(monkeypatch)
    real_block = _economy.scan_block_points

    def block(*args, **kwargs):
        before = probed[0]
        rep = real_block(*args, **kwargs)
        counts["block_probes"] += probed[0] - before
        counts["reflexive"] += len(rep.witnesses)
        return rep

    monkeypatch.setattr(_economy, "scan_block_points", block)
    got = {}
    for name, check in (("4.1", check_theorem_4_1_hypotheses),
                        ("4.2", check_theorem_4_2_hypotheses)):
        counts.update(usc=0, points=0, records=0, block_probes=0, reflexive=0)
        rep = check(e, (0.5, 2.0, 4.0), grid)
        got[name] = (rep.verdict, dict(counts))
    # one scan per agent and eps checked 26,700 and 28,818 points, and built a
    # record at each of them before check_usc read the cells. The walk builds
    # only the records its centres read, up to the 33rd witness, where
    # building every record near the unsafe pieces made 1,412. The block scans
    # probe the points of their failing cells only: 400, where probing every
    # point of a failing piece tuple made 1,168
    assert got == {"4.1": (PASS, {"usc": 3, "points": 4675, "records": 0, "block_probes": 0,
                                  "reflexive": 0}),
                   "4.2": (FAIL, {"usc": 13, "points": 7693, "records": 976,
                                  "block_probes": 400, "reflexive": 64})}


# ---------------------------------------------------------------------------
# Reports equal the frozen loops'
# ---------------------------------------------------------------------------

def test_ex4_1_reports_match_oracle():
    e = ex4_1(2)
    grid = Grid.over_box(e.domain, 0.125)
    raws = compare_with_oracle(e, grid, (0.5, 2.0, 4.0))
    # 4.2 and 4.3 stop at the cap on this grid
    assert sum(len(r) >= CAP for r in raws) >= 4


def test_ex4_1_with_curated_selection_matches_oracle():
    e = ex4_1(2)
    sel = ex4_1_selection(2)
    compare_with_oracle(e, Grid.over_box(e.domain, 0.25), (0.5, 2.0), [sel, sel])


def test_ex4_1_with_a_bad_selection_matches_oracle():
    """A supplied selection that is nonconvex, escapes and holds base points."""
    e = ex4_1(2)
    sel = constant_map(e.domain, BoxSet.of(1, [(I.closed(0, 0.25),), (I.closed(3, 4),)]))
    raws = compare_with_oracle(e, Grid.over_box(e.domain, 0.25), (0.5,), [sel, None])
    assert sum(len(r) >= CAP for r in raws) >= 3


def test_ex2_2_economy_reports_match_oracle():
    e = ex2_2_economy()
    raws = compare_with_oracle(e, Grid.over_box(e.domain, 0.0625), (0.5, 2.5))
    assert any(raws)


def _const_box(lo, width, dd):
    return (AffineInterval(AffForm.constant(lo, dd), AffForm.constant(lo + width, dd),
                           True, True),)


def _random_map(rng, domain):
    """A piecewise-constant map on ``domain`` into [0, 2], cut along axis 0.

    Piece values are empty, one box or two disjoint boxes, so the value
    scans see empty, convex and nonconvex values side by side.
    """
    dd = len(domain)
    cuts = sorted(rng.sample((0.5, 1.0, 1.5), rng.choice((1, 2))))
    edges = [0.0, *cuts, 2.0]
    pieces = []
    for k in range(len(edges) - 1):
        region = (I(edges[k], edges[k + 1], k == 0, True),) + domain[1:]
        kind = rng.choice(("empty", "one", "two", "two"))
        if kind == "empty":
            value = ()
        elif kind == "one":
            value = (_const_box(rng.choice((0.0, 0.5, 1.0)), rng.choice((0.5, 1.0)), dd),)
        else:
            value = (_const_box(0.0, 0.5, dd), _const_box(rng.choice((1.0, 1.5)), 0.5, dd))
        pieces.append(Piece(region, value))
    return PiecewiseMap(domain, 1, tuple(pieces))


def random_economy(seed: int) -> AbstractEconomy:
    """One or two agents, each choosing in [0, 2]."""
    rng = random.Random(seed)
    x_box = (I.closed(0.0, 2.0),)
    n = rng.choice((1, 2))
    domain = x_box * n
    agents = []
    for _ in range(n):
        lo = rng.choice((0.5, 1.0))
        d = BoxSet.of(1, [(I.closed(lo, lo + 1.0),)])
        agents.append(AgentSpec(x_box, d, _random_map(rng, domain), _random_map(rng, domain),
                                _random_map(rng, domain)))
    return AbstractEconomy(tuple(agents))


def _grid_for(e):
    """A grid that also samples points left of the domain, which every scan skips."""
    return Grid(e.dim, (-0.25,) * e.dim, (2.0,) * e.dim, 0.0625 if e.dim == 1 else 0.25)


@pytest.mark.parametrize("seed", range(12))
def test_seeded_economies_match_oracle(seed):
    e = random_economy(seed)
    compare_with_oracle(e, _grid_for(e), (0.25, 1.0))


def test_seeded_economy_splits_a_point_at_the_cap():
    """A seeded report keeps only part of one point's witnesses, as the oracle does."""
    e = random_economy(0)
    raws = compare_with_oracle(e, _grid_for(e), (0.25, 1.0))
    assert any(_capped_mid_point(r) for r in raws)


def _affine_box(lo, slope, width, dd):
    coeffs = (slope,) + (0.0,) * (dd - 1)
    return (AffineInterval(AffForm(lo, coeffs), AffForm(lo + width, coeffs), True, True),)


# piece kinds along axis 0: the empty piece sits at one end, so it borders a
# nonempty piece and the affine and constant pieces border each other
_KIND_ORDERS = (("empty", "constant", "affine"), ("affine", "constant", "empty"),
                ("constant", "affine", "empty"), ("empty", "affine", "constant"))


def _mixed_map(rng, domain):
    """Empty, constant and affine pieces side by side along axis 0.

    Affine values move with x0 at slope +-1/2 and stay inside [0, 2.5];
    constant values are one box or two disjoint boxes.
    """
    dd = len(domain)
    edges = [0.0, *sorted(rng.sample((0.5, 1.0, 1.5), 2)), 2.0]
    pieces = []
    for k, kind in enumerate(rng.choice(_KIND_ORDERS)):
        region = (I(edges[k], edges[k + 1], k == 0, True),) + domain[1:]
        if kind == "empty":
            value = ()
        elif kind == "constant":
            value = rng.choice(((_const_box(rng.choice((0.0, 0.5, 1.0)), 1.0, dd),),
                                (_const_box(0.0, 0.5, dd), _const_box(1.5, 0.5, dd))))
        else:
            slope = rng.choice((0.5, -0.5))
            lo = rng.choice((0.0, 0.5)) if slope > 0 else rng.choice((1.0, 1.5))
            value = (_affine_box(lo, slope, rng.choice((0.5, 1.0)), dd),)
        pieces.append(Piece(region, value))
    return PiecewiseMap(domain, 1, tuple(pieces))


def mixed_economy(seed: int) -> AbstractEconomy:
    """One or two agents choosing in [0, 2], every map built by ``_mixed_map``."""
    rng = random.Random(seed)
    x_box = (I.closed(0.0, 2.0),)
    n = rng.choice((1, 2))
    domain = x_box * n
    agents = []
    for _ in range(n):
        lo = rng.choice((0.5, 1.0))
        d = BoxSet.of(1, [(I.closed(lo, lo + 1.0),)])
        agents.append(AgentSpec(x_box, d, _mixed_map(rng, domain), _mixed_map(rng, domain),
                                _mixed_map(rng, domain)))
    return AbstractEconomy(tuple(agents))


def _filters_out_a_piece(t, box, grid):
    """Some piece of ``t`` has grid points, none of them inside ``box``."""
    for p in t.pieces:
        pts = [x for x in grid.points() if box_contains(p.region, x)]
        if pts and not any(box_contains(box, x) for x in pts):
            return True
    return False


@pytest.mark.parametrize("seed", range(8))
def test_mixed_economies_match_oracle(seed):
    e = mixed_economy(seed)
    compare_with_oracle(e, _grid_for(e), (0.25, 1.0))


def test_mixed_economies_cover_the_three_map_shapes():
    """Empty next to nonempty and affine next to constant pieces, and an
    e-uscs region whose filter removes every grid point of one piece."""
    filtered = False
    for seed in range(8):
        e = mixed_economy(seed)
        for i in range(len(e.agents)):
            h_closed = closure_values(e.conflict_map(i))
            filtered |= any(_filters_out_a_piece(h_closed, w_box, _grid_for(e))
                            for w_box in e.conflict_region(i).boxes)
    assert filtered
    for m in (mixed_economy(0).agents[0].a_map, mixed_economy(1).agents[0].b_map):
        kinds = ["empty" if not p.value else
                 "constant" if all(ai.is_constant for b in p.value for ai in b) else "affine"
                 for p in m.pieces]
        assert len(set(kinds)) == 3


# ---------------------------------------------------------------------------
# The equilibrium search equals the frozen per-point search
# ---------------------------------------------------------------------------

def seed_verify_equilibrium(e, x):
    """The certificate at an in-domain ``x``, each map's piece found with ``piece_at``."""
    evidence = []
    for i, blk in enumerate(e.blocks):
        xb = tuple(x[j] for j in blk)
        bbar = e.adherent_b(i)
        piece_idx, _ = bbar.piece_at(x)
        bval = bbar.value_on(piece_idx, x)
        hval = e.conflict_map(i).evaluate(x)
        evidence.append(AgentEvidence(
            agent=i,
            block_point=xb,
            in_adherent_b=bval.contains(xb),
            b_piece=piece_idx,
            b_value=bval,
            conflict_empty=hval.is_empty,
            conflict_value=hval,
        ))
    return EquilibriumCertificate(x, tuple(evidence), all(ev.ok for ev in evidence))


def seed_search_equilibria(e, grid):
    """The valid certificates at the grid points inside X, one point at a time."""
    check_grid_covers_targets(grid, e.dim, tuple(ag.d_set for ag in e.agents), e.blocks)
    certs = (seed_verify_equilibrium(e, x) for x in grid.points() if box_contains(e.domain, x))
    return [c for c in certs if c.valid]


def assert_same_search(e, grid):
    """The search and ``verify_equilibrium`` at every grid point inside X
    give the frozen certificates."""
    got = search_equilibria(e, grid)
    want = seed_search_equilibria(e, grid)
    assert got == want
    assert [c.to_doc() for c in got] == [c.to_doc() for c in want]
    for x in grid.points():
        if box_contains(e.domain, x):
            assert verify_equilibrium(e, x).to_doc() == seed_verify_equilibrium(e, x).to_doc()
    return got


@pytest.mark.parametrize("n,step", [(1, 0.0625), (2, 0.125), (3, 0.25)])
def test_ex4_1_search_matches_oracle(n, step):
    e = ex4_1(n)
    assert assert_same_search(e, Grid.over_box(e.domain, step))


def test_ex2_2_economy_search_matches_oracle():
    e = ex2_2_economy()
    assert assert_same_search(e, Grid.over_box(e.domain, 0.0625))


def test_seeded_economy_searches_match_oracle():
    """The grids also sample points left of X, which both searches skip."""
    found = 0
    for e in [random_economy(seed) for seed in range(12)] + \
             [mixed_economy(seed) for seed in range(8)]:
        found += len(assert_same_search(e, _grid_for(e)))
    assert found


# ---------------------------------------------------------------------------
# The first empty points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_empty_points_are_the_first_eight_holes(seed):
    e = random_economy(seed)
    grid = _grid_for(e)
    for ag in e.agents:
        for t in (ag.a_map, ag.b_map, intersect_maps(ag.a_map, ag.p_map)):
            ne, holes = seed_nonempty_everywhere(t, grid)
            got = _checks._empty_points(t, grid)
            assert got == holes[:8]
            assert (not got) is ne


def test_empty_points_walk_only_empty_and_affine_pieces(monkeypatch):
    """Constant nonempty, affine and constant empty pieces along axis 0, in
    the kind orders of the mixed economies: the first eight holes are the
    frozen loop's, and the walk probes only the points of the affine and
    empty pieces up to the eighth hole. A map of constant nonempty pieces
    visits no grid point."""
    dd = 2
    dom = (I.closed(0, 2),) * dd
    grid = Grid.over_box(dom, 0.25)
    bands = [(I(a, a + 0.5, True, False),) + dom[1:] for a in (0.0, 0.5, 1.0)]
    bands.append((I.closed(1.5, 2),) + dom[1:])
    values = {"empty": (), "constant": (_const_box(0.0, 1.0, dd),),
              "affine": (_affine_box(0.0, 0.5, 1.0, dd),)}
    probed = _count_block_probes(monkeypatch)
    for kinds in _KIND_ORDERS:
        kinds += ("constant",)
        t = PiecewiseMap(dom, 1, tuple(Piece(r, values[k]) for r, k in zip(bands, kinds)))
        probed[0] = 0
        got = _checks._empty_points(t, grid)
        ne, holes = seed_nonempty_everywhere(t, grid)
        assert got == holes[:8] and len(got) == 8 and not ne
        walked = itertools.takewhile(lambda x: x <= got[-1], grid.points())
        assert probed[0] == sum(kinds[min(int(x[0] / 0.5), 3)] != "constant" for x in walked)
    t = PiecewiseMap(dom, 1, tuple(Piece(r, values["constant"]) for r in bands))

    def no_walk(*args, **kwargs):
        raise AssertionError("points walked")

    monkeypatch.setattr(_checks.GridCells, "points", no_walk)
    assert _checks._empty_points(t, grid) == []
    assert seed_nonempty_everywhere(t, grid) == (True, [])


def test_family_reports_record_the_same_holes():
    e = random_economy(3)
    ag = e.agents[0]
    grid = _grid_for(e)
    eps_list = (0.25, 1.0)
    rep = check_w_usc(ag.b_map, ag.d_set, eps_list, grid)
    for eps in eps_list:
        ne, holes = seed_nonempty_everywhere(adherence(t_upper(ag.b_map, eps, ag.d_set)), grid)
        params = index_reports(rep)[f"w-usc-family/almost-w-usc@eps={eps:g}"].parameters
        assert params["adherence_nonempty_everywhere"] is ne
        assert params.get("adherence_empty_points", []) == holes[:8]
    dual = check_dual_w_usc(ag.a_map, ag.p_map, ag.d_set, eps_list, grid,
                            property_name="renamed")
    assert dual.property_name == "renamed"
    for eps in eps_list:
        ne, holes = seed_nonempty_everywhere(
            intersect_maps(t_upper(ag.a_map, eps, ag.d_set), ag.p_map), grid)
        params = index_reports(dual)[f"renamed/dual-w-usc@eps={eps:g}"].parameters
        assert params["pre_adherence_empty_points"] == holes[:8]
        assert params["pre_adherence_nonempty_everywhere"] is ne


# ---------------------------------------------------------------------------
# The cell walk against seed_witnesses
# ---------------------------------------------------------------------------

def assert_same_walk(monkeypatch, run):
    """``run()`` on the cell walk gives ``seed_witnesses``' outcome: a report
    equal witness for witness, in order, up to the same cap, with the same
    parameters and notes, or the same exception type and message. The cell
    walk probes no more points. Returns the outcome and both probe counts,
    the seed's first."""
    outcomes, probed = [], []
    for walk in (seed_witnesses, _CELL_WALK):
        count = _count_walk(monkeypatch, walk)
        outcomes.append(_outcome(run))
        probed.append(count[0])
    monkeypatch.setattr(GridCells, "witnesses", _CELL_WALK)
    want, got = outcomes
    assert repr(got) == repr(want)
    assert probed[1] <= probed[0]
    return got, probed


def _guillotine_map(rng):
    """A constant map on [0, 2]^2 cut along axis 0, each side then cut along
    axis 1 at its own place, so a piece spans cells that the other side's
    cut makes."""
    c0, pieces = rng.choice((0.5, 1.0, 1.5)), []
    for a in (I(0, c0, True, False), I.closed(c0, 2)):
        c1 = rng.choice((0.5, 1.0, 1.5))
        for b in (I(0, c1, True, False), I.closed(c1, 2)):
            pieces.append(Piece((a, b), (_const_box(rng.choice((0.0, 0.5, 1.0)), 0.5, 2),)))
    return PiecewiseMap((I.closed(0, 2),) * 2, 1, tuple(pieces))


def _reader_runs(maps, grid, within):
    """Every reader of the walk on one map tuple and box, by name."""
    last, block_axes = maps[-1], {(0,), (grid.dim - 1,)}
    clip = BoxSet.single((I.closed(0.5, 1.5),))
    runs = {
        "values-shape": lambda: scan_values("v", maps, grid, _shape, None, within),
        "values-inclusion": lambda: scan_values("v", maps, grid, _escapes_last, None, within),
        "values-convex-only": lambda: scan_values("v", maps, grid, _convexity_at((0,)), None,
                                                  within, (0,)),
        "empty-points": lambda: _checks._empty_points(last, grid),
    }
    for block in block_axes:
        for closure in (False, True):
            runs[f"block{block}-{closure}"] = functools.partial(
                scan_block_points, "b", maps, grid, block, "hit", "", closure, None, within)
    for direction in ("usc", "lsc"):
        for delta in (None, 2 * grid.step):
            runs[f"{direction}-{delta}"] = functools.partial(
                _checks.check_usc, last, grid, delta, within=within, direction=direction)
    for target in (None, clip):
        for radius in (0.0, 0.25):
            runs[f"chain-{target is None}-{radius}"] = functools.partial(
                suites._chain_containment, "c", maps[:-1], last, target, grid, radius)
    return runs


READERS = ("values", "block", "usc", "lsc", "empty-points", "chain")


@pytest.mark.parametrize("reader", READERS)
def test_cell_walk_matches_the_seed_walk_for_every_reader(reader, monkeypatch):
    """Over the scan maps and pairs of guillotine maps, uncut and with the
    last map cut to half its domain, and the boxes of ``_withins``: each
    reader gives the seed walk's outcome, probing no more points. Some runs
    fail at the cap and some raise the later map's ``DomainError``; the
    block scans probe fewer points where a piece tuple spans cells that
    their rule decides apart."""
    rng = random.Random(7)
    guillotines = [((_guillotine_map(rng), _guillotine_map(rng)),
                    Grid(2, (-0.25, -0.25), (2.0, 2.0), 0.25)) for _ in range(4)]
    cap = 8 if reader in ("chain", "empty-points") else CAP
    verdicts, raised, fewer = set(), 0, 0
    for maps, grid in _scan_maps() + guillotines:
        for cut in (maps, (*maps[:-1], _lower_half(maps[-1]))):
            for within in _withins(grid.dim):
                for name, run in _reader_runs(cut, grid, within).items():
                    if not name.startswith(reader) or name.startswith("empty") and within:
                        continue
                    got, (want_probes, probes) = assert_same_walk(monkeypatch, run)
                    if isinstance(got, CheckReport):
                        verdicts.add((got.verdict, len(got.witnesses) == cap))
                    elif isinstance(got, list):
                        verdicts.add((FAIL if got else PASS, len(got) == cap))
                    else:
                        assert got[0] is DomainError
                        raised += 1
                    fewer += probes < want_probes
    assert {verdict for verdict, _ in verdicts} == {PASS, FAIL}
    assert (FAIL, True) in verdicts
    if reader not in ("usc", "lsc", "empty-points"):
        assert raised
    if reader == "block":
        assert fewer


def test_cell_walk_matches_the_seed_walk_on_seeded_chains(monkeypatch):
    """The suite's seeded random chains, at radius 0 and at the suite's
    radius, with and without a target set."""
    rng = random.Random(2029)
    failed = 0
    for k in range(40):
        t, d, grid = suites._random_piecewise(rng)
        dilated = [adherence(t_upper(t, e, d)) for e in (1.0, 0.5, 0.25, 0.125)]
        for radius in (0.0, 0.125 + grid.step):
            got, _ = assert_same_walk(monkeypatch, functools.partial(
                suites._chain_containment, f"seeded{k}", dilated, t, d if k % 4 else None,
                grid, radius))
            failed += got.verdict == FAIL
    assert failed


def _product_map(rng, dim):
    """A constant map on [0, 2]^dim whose pieces are the products of random
    cuts per axis, each cut point closed on a random side."""
    axes = []
    for _ in range(dim):
        cuts = sorted(rng.sample((0.5, 0.75, 1.0, 1.5), rng.randint(0, 3)))
        lower = [rng.random() < 0.5 for _ in cuts]
        edges = [0.0, *cuts, 2.0]
        axes.append([I(a, b, k == 0 or not lower[k - 1], k == len(cuts) or lower[k])
                     for k, (a, b) in enumerate(itertools.pairwise(edges))])
    return PiecewiseMap((I.closed(0, 2),) * dim, 1, tuple(
        Piece(region, _const(float(rng.randint(0, 3)), dim))
        for region in itertools.product(*axes)))


def _row_numbers(cells):
    """Each grid index tuple of the table mapped to its row number, found by
    enumerating the cells' points in row order."""
    return {idx: n for n, cell in enumerate(itertools.product(*cells.segments))
            for idx in itertools.product(*cell)}


def _rows_walk(cells, row_of, asked):
    """``(index, point, pieces)`` at the points of the rows numbered ``asked``,
    in lexicographic order; raises ``DomainError`` at the first point outside
    a later map's domain."""
    for idx in sorted(row_of):
        pieces = cells.rows[row_of[idx]]
        if row_of[idx] in asked and pieces[0] is not None:
            x = tuple(ax[k] for ax, k in zip(cells.axes, idx))
            if None in pieces:
                raise DomainError(f"point {x} outside map domain")
            yield idx, x, pieces


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_points_of_a_cell_set_are_the_full_walk_filtered_to_their_rows(dim):
    """On random cell subsets of two maps of product pieces, on a grid that
    starts outside the domain: ``points(cells)`` is the full walk filtered
    to those rows, and with the last map cut, it raises at the first point
    of those rows outside the cut."""
    rng = random.Random(dim)
    grid = Grid(dim, (-0.25,) * dim, (2.0,) * dim, 0.25)
    raised = skipped = 0
    for _ in range(6):
        first, second = _product_map(rng, dim), _product_map(rng, dim)
        for within in _withins(dim):
            for maps in ((first, second), (first, _lower_half(second))):
                cells = GridCells(maps, grid, within)
                row_of, numbers = _row_numbers(cells), range(len(cells.rows))
                subsets = [set(), set(numbers)] + [
                    set(rng.sample(numbers, rng.randint(1, len(numbers))))
                    for _ in range(4 if numbers else 0)]
                for asked in subsets:
                    want = _until_error(_rows_walk(cells, row_of, asked))
                    assert _until_error(cells.points(asked)) == want
                    raised += want[1] is not None
                    if maps[1] is second:
                        full = list(cells.points())
                        assert want[0] == [p for p in full if row_of[p[0]] in asked]
                        skipped += len(want[0]) < len(full)
                assert _until_error(cells.points()) == \
                    _until_error(_rows_walk(cells, row_of, numbers))
    assert raised and skipped


def test_irreflexive_scans_probe_only_failing_cells_on_ex4_1(monkeypatch):
    """On ex4_1(3) at step 1/8, the 4.2 check's cond6-irreflexive scans probe
    680, 104 and 112 points, where probing every point of a failing piece
    tuple made 8,744, 296 and 112; the reports are the seed walk's."""
    e = ex4_1(3)
    grid = Grid.over_box(e.domain, 0.125)
    real_block = _economy.scan_block_points
    reports, counts = [], []
    for walk in (seed_witnesses, _CELL_WALK):
        probed, scans = _count_walk(monkeypatch, walk), []

        def block(name, *args, **kwargs):
            before = probed[0]
            rep = real_block(name, *args, **kwargs)
            scans.append((name, probed[0] - before))
            return rep

        monkeypatch.setattr(_economy, "scan_block_points", block)
        reports.append(repr(check_theorem_4_2_hypotheses(e, (0.5, 2.0, 4.0), grid)))
        counts.append(scans)
    assert reports[0] == reports[1]
    names = [f"agent{k}.cond6-irreflexive" for k in range(3)]
    assert counts == [list(zip(names, (8744, 296, 112))), list(zip(names, (680, 104, 112)))]
