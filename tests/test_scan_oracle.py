"""The piece-aware USC scan and the interval fast paths against frozen point-pair copies.

``seed_closure``, ``seed_hausdorff_upper`` and ``seed_check_usc`` are the
straightforward implementations the fast paths replaced: every value is
evaluated and closed at every grid point, and every neighbor pair pays a
full excess computation that closes and canonicalizes both operands
again. They stay here as the oracle; every report must come out equal,
witness for witness.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcorr import (AffForm, AffineInterval, BoxSet, FlaggedInterval, Grid, Piece,
                     PiecewiseMap, adherence, check_usc, check_w_usc, constant_map, intersect_maps,
                     t_upper)
from boxcorr.affine import agree_on, computes_nonempty
from boxcorr import checks as _checks
from boxcorr.cli import main
from boxcorr.gallery import ex2_1, ex4_1
from boxcorr import intervals as _intervals
from boxcorr.intervals import EmptyExcessError, box_closure, box_contains, box_is_all_closed

I = FlaggedInterval


# ---------------------------------------------------------------------------
# Frozen point-pair implementations
# ---------------------------------------------------------------------------

def indexed_points(grid):
    """Every grid point with its index per axis, in lexicographic order: the
    enumeration the frozen scans here and in the other oracle modules use."""
    axes = [grid.axis_values(d) for d in range(grid.dim)]
    ranges = [range(len(ax)) for ax in axes]
    for idx in itertools.product(*ranges):
        yield idx, tuple(axes[d][i] for d, i in enumerate(idx))


def seed_closure(s: BoxSet) -> BoxSet:
    return BoxSet.of(s.dim, [box_closure(b) for b in s.boxes])


def seed_hausdorff_upper(self: BoxSet, other: BoxSet) -> float:
    if self.dim != other.dim:
        raise ValueError(f"dims {self.dim} and {other.dim}")
    if self.is_empty:
        return 0.0
    if other.is_empty:
        raise EmptyExcessError("undefined excess: target set is empty")
    a = seed_closure(self)
    b = seed_closure(other)
    if a.subset_within(b, 0.0):
        return 0.0
    if len(b.boxes) == 1:
        tgt = b.boxes[0]
        worst = 0.0
        for bx in a.boxes:
            for d in range(self.dim):
                lo_gap = tgt[d].lo - bx[d].lo
                hi_gap = bx[d].hi - tgt[d].hi
                worst = max(worst, lo_gap, hi_gap)
        return worst
    candidates = {0.0}
    for d in range(self.dim):
        a_ends = {iv_end for bx in a.boxes for iv_end in (bx[d].lo, bx[d].hi)}
        b_ends = sorted({iv_end for bx in b.boxes for iv_end in (bx[d].lo, bx[d].hi)})
        for ae in a_ends:
            for be in b_ends:
                candidates.add(abs(ae - be))
        for i, be in enumerate(b_ends):
            for be2 in b_ends[i + 1:]:
                candidates.add((be2 - be) / 2.0)
    ordered = sorted(candidates)

    def covered(r: float) -> bool:
        if r == 0.0:
            return a.subset_within(b, 0.0)
        grown = BoxSet.of(
            b.dim,
            [tuple(I(iv.lo - r, iv.hi + r, True, True) for iv in bx) for bx in b.boxes],
        )
        return a.intersect(grown) == a

    lo, hi = 0, len(ordered) - 1
    assert covered(ordered[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if covered(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


def _seed_excess_scan(values, pts, offsets, bound, direction):
    witnesses = []
    truncated = False
    for idx in sorted(pts):
        x = pts[idx]
        center = values[idx]
        for off in offsets:
            nidx = tuple(i + o for i, o in zip(idx, off))
            if nidx not in pts:
                continue
            xn = pts[nidx]
            other = values[nidx]
            if direction == "usc":
                a, b = other, center
            else:
                a, b = center, other
            if a.is_empty:
                continue
            if b.is_empty:
                if len(witnesses) < _checks._MAX_WITNESSES:
                    witnesses.append(_checks.Witness(x, xn, math.inf, "empty value",
                                                     "nonempty value jumps against an empty one"))
                else:
                    truncated = True
                continue
            h = seed_hausdorff_upper(a, b)
            if h > bound:
                if len(witnesses) < _checks._MAX_WITNESSES:
                    witnesses.append(_checks.Witness(x, xn, h, "excess"))
                else:
                    truncated = True
    return witnesses, truncated


def seed_check_usc(t, grid, delta=None, tol=1e-9, point_filter=None,
                   property_name="usc", direction="usc"):
    if delta is None:
        delta = grid.step
    radius = max(1, int(math.floor(delta / grid.step + 1e-9)))
    pts = {idx: p for idx, p in indexed_points(grid)
           if box_contains(t.domain, p) and (point_filter is None or point_filter(p))}
    values = {idx: seed_closure(t.evaluate(p)) for idx, p in pts.items()}
    slope = t.max_slope()
    bound = tol + slope * delta
    offsets = _checks._neighbor_offsets(grid.dim, radius)
    witnesses, truncated = _seed_excess_scan(values, pts, offsets, bound, direction)
    notes = ["values closed before comparison"]
    if truncated:
        notes.append("witness list truncated")
    return _checks.CheckReport(
        property_name, _checks.PASS if not witnesses else _checks.FAIL, tuple(witnesses),
        {"grid_step": grid.step, "delta": delta, "tol": tol, "modulus_slope": slope,
         "bound": bound, "points_checked": len(pts), "direction": direction},
        tuple(notes),
    )


def assert_same_report(t, grid, **kwargs):
    """``check_usc`` equals the oracle, which reads a ``within`` box as the
    point filter ``box_contains(within, p)``."""
    got = check_usc(t, grid, **kwargs)
    within = kwargs.pop("within", None)
    if within is not None:
        kwargs["point_filter"] = lambda p: box_contains(within, p)
    want = seed_check_usc(t, grid, **kwargs)
    assert got.property_name == want.property_name
    assert got.verdict == want.verdict
    assert got.witnesses == want.witnesses
    assert repr(got.witnesses) == repr(want.witnesses)
    assert got.notes == want.notes
    assert got.parameters == want.parameters
    assert repr(got.parameters) == repr(want.parameters)
    return got


def _variants(grid):
    """Both directions at one, two and three grid steps of delta, tol=0, and
    the ``within`` box (0, 1.5] on every axis, which drops the grid points
    at 0 and beyond 1.5."""
    return [{}, {"direction": "lsc"}, {"delta": 2 * grid.step},
            {"direction": "lsc", "delta": 2 * grid.step}, {"delta": 3 * grid.step},
            {"tol": 0.0}, {"within": (FlaggedInterval(0.0, 1.5, False, True),) * grid.dim}]


# ---------------------------------------------------------------------------
# Reports equal the oracle's
# ---------------------------------------------------------------------------

def _ex2_1_maps():
    t1, d = ex2_1()
    out = [("t1", t1)]
    for eps in (0.5, 0.25):
        tv = t_upper(t1, eps, d)
        out += [(f"t_upper@{eps}", tv), (f"adherence@{eps}", adherence(tv))]
    return out


@pytest.mark.parametrize("name,t", _ex2_1_maps(), ids=lambda v: v if isinstance(v, str) else "")
def test_ex2_1_scans_match_oracle(name, t):
    grid = Grid(1, (0.0625,), (1.9375,), 0.0625)
    for opts in _variants(grid):
        assert_same_report(t, grid, **opts)


def _ex4_1_maps():
    e = ex4_1(2)
    out = []
    for i, ag in enumerate(e.agents):
        for label, m in ((f"conflict{i}", e.conflict_map(i)), (f"b{i}", ag.b_map)):
            out.append((label, m))
            for eps in (0.5, 2.0):
                out.append((f"{label}-bar@{eps}", adherence(t_upper(m, eps, ag.d_set))))
    return out


@pytest.mark.parametrize("name,t", _ex4_1_maps(), ids=lambda v: v if isinstance(v, str) else "")
def test_ex4_1_scans_match_oracle(name, t):
    grid = Grid(2, (0.0, 0.0), (4.0, 4.0), 0.25)
    for opts in _variants(grid):
        assert_same_report(t, grid, **opts)


def _random_interval(rng: random.Random) -> FlaggedInterval:
    lo = rng.choice((-1.0, -0.5, 0.0, 0.25, 0.5, 1.0))
    width = rng.choice((0.0, 0.25, 0.5, 1.0))
    if width == 0.0:
        return I.point(lo)
    return I(lo, lo + width, rng.random() < 0.5, rng.random() < 0.5)


def _random_value(rng: random.Random, ddim: int, cdim: int):
    kind = rng.choice(("empty", "constant", "constant", "affine", "affine"))
    if kind == "empty":
        return ()
    value = []
    for _ in range(rng.choice((1, 2))):
        box = []
        for _ in range(cdim):
            iv = _random_interval(rng)
            coeffs = [0.0] * ddim
            if kind == "affine" and rng.random() < 0.7:
                coeffs[rng.randrange(ddim)] = rng.choice((-1.0, -0.5, 0.5, 1.0))
            box.append(AffineInterval(AffForm(iv.lo, tuple(coeffs)),
                                      AffForm(iv.hi, tuple(coeffs)),
                                      iv.lo_closed, iv.hi_closed))
        value.append(tuple(box))
    return tuple(value)


def random_piecewise_map(seed: int) -> PiecewiseMap:
    """A map on [0, 2]^ddim cut along axis 0 into two or three pieces.

    Each piece carries the empty value, a union of constant boxes or a
    union of affine boxes (constant width, so flags stay valid).
    """
    rng = random.Random(seed)
    ddim, cdim = rng.choice((1, 2)), rng.choice((1, 2))
    domain = tuple(I.closed(0.0, 2.0) for _ in range(ddim))
    cuts = sorted(rng.sample((0.5, 1.0, 1.5), rng.choice((1, 2))))
    edges = [0.0, *cuts, 2.0]
    closed_left = [rng.random() < 0.5 for _ in cuts]
    pieces = []
    for k in range(len(edges) - 1):
        lo_closed = k == 0 or not closed_left[k - 1]
        hi_closed = k == len(edges) - 2 or closed_left[k]
        region = (I(edges[k], edges[k + 1], lo_closed, hi_closed),) + domain[1:]
        pieces.append(Piece(region, _random_value(rng, ddim, cdim)))
    return PiecewiseMap(domain, cdim, tuple(pieces))


@pytest.mark.parametrize("seed", range(20))
def test_seeded_affine_maps_match_oracle(seed):
    t = random_piecewise_map(seed)
    dim = t.domain_dim
    # multi-box affine values make every oracle excess a candidate search,
    # so the 2-D grids stay coarse
    grid = Grid(dim, (0.0,) * dim, (2.0,) * dim, 0.25 if dim == 1 else 0.5)
    for opts in _variants(grid):
        assert_same_report(t, grid, **opts)


def _tol_0_variants(grid):
    """tol=0 in both directions at one to three grid steps of delta, on the
    whole grid and in the ``within`` box (0, 1.5] on every axis."""
    within = (FlaggedInterval(0.0, 1.5, False, True),) * grid.dim
    return [{"tol": 0.0, "delta": r * grid.step, "direction": d, **w}
            for r in (1, 2, 3) for d in ("usc", "lsc") for w in ({}, {"within": within})]


@pytest.mark.parametrize("seed", range(20))
def test_seeded_affine_maps_at_tol_0_match_oracle(seed):
    t = random_piecewise_map(seed)
    dim = t.domain_dim
    grid = Grid(dim, (0.0,) * dim, (2.0,) * dim, 0.25 if dim == 1 else 0.5)
    for opts in _tol_0_variants(grid):
        assert_same_report(t, grid, **opts)


def test_seeded_affine_maps_have_pieces_decided_each_way():
    """The seeded maps hold one-box affine pieces that ``computes_nonempty``
    decides nonempty at their span's axis values, some through the width
    margin and some, with a point interval, through exact evaluation; and
    pieces of two boxes, which no whole-map decision takes, so they stay
    with the point scan."""
    seen = set()
    for seed in range(20):
        t = random_piecewise_map(seed)
        dim = t.domain_dim
        grid = Grid(dim, (0.0,) * dim, (2.0,) * dim, 0.25 if dim == 1 else 0.5)
        cells = _checks.GridCells((t,), grid)
        spans, _ = _checks._piece_spans(cells)
        for i, (lo, hi, value) in spans.items():
            boxes = t.pieces[i].value
            if value is not None:
                continue
            if len(boxes) > 1:
                seen.add("undecided")
                continue
            coords = [ax[l:h + 1] for ax, l, h in zip(cells.axes, lo, hi)]
            assert computes_nonempty(boxes[0], coords)
            seen.add("exact" if any(ai.lo == ai.hi for ai in boxes[0]) else "margin")
    assert seen == {"undecided", "exact", "margin"}


def test_truncated_witness_list_matches_oracle():
    dom = (I.closed(0, 4), I.closed(0, 4))
    t = PiecewiseMap(dom, 1, (
        Piece((I(0, 2, True, False), I.closed(0, 4)), ()),
        Piece((I.closed(2, 4), I.closed(0, 4)),
              ((AffineInterval(AffForm.constant(0.0, 2), AffForm.constant(1.0, 2)),),)),
    ))
    grid = Grid(2, (0.0, 0.0), (4.0, 4.0), 0.0625)
    for opts in ({}, {"direction": "lsc"}, {"delta": 3 * grid.step}):
        rep = assert_same_report(t, grid, **opts)
        assert "witness list truncated" in rep.notes
        assert len(rep.witnesses) == _checks._MAX_WITNESSES


# ---------------------------------------------------------------------------
# Work done: one excess per constant piece pair
# ---------------------------------------------------------------------------

def _count_excess(monkeypatch):
    calls = [0]
    original = BoxSet.hausdorff_upper

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(BoxSet, "hausdorff_upper", counted)
    return calls


def test_excess_calls_bounded_by_piece_pairs(monkeypatch):
    dom = (I.closed(0, 2),)

    def const(lo, hi):
        return ((AffineInterval(AffForm.constant(lo, 1), AffForm.constant(hi, 1)),),)

    t = PiecewiseMap(dom, 1, (
        Piece((I(0, 0.5, True, False),), const(0, 1)),
        Piece((I.closed(0.5, 1),), const(0.5, 2)),
        Piece((I(1, 1.5, False, False),), const(0, 0.25)),
        Piece((I.closed(1.5, 2),), const(1, 3)),
    ))
    k = len(t.pieces)
    calls = _count_excess(monkeypatch)
    counts = []
    for step in (1 / 8, 1 / 64):
        calls[0] = 0
        check_usc(t, Grid(1, (0.0,), (2.0,), step))
        counts.append(calls[0])
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= k * k


# ---------------------------------------------------------------------------
# Constant pieces decided before the point scan
# ---------------------------------------------------------------------------

def _const(lo, hi, ddim=1):
    return ((AffineInterval(AffForm.constant(lo, ddim), AffForm.constant(hi, ddim)),),)


# pairwise excesses of 0, 1/16, 1/2 and 1, most of them in one orientation only
_CONSTANTS = ((0.0, 1.0), (0.0, 1.0625), (0.5, 1.0), (0.0, 2.0))


def _axis_cells(rng: random.Random):
    """[0, 2] cut at two or three points; each cut closes the cell on its
    left, or on its right, or is a one-point cell of its own."""
    cuts = sorted(rng.sample((0.5, 0.75, 1.0, 1.25, 1.5), rng.choice((2, 3))))
    cells, lo, lo_closed = [], 0.0, True
    for c in cuts:
        side = rng.choice(("left", "right", "point"))
        cells.append(I(lo, c, lo_closed, side == "left"))
        if side == "point":
            cells.append(I.point(c))
        lo, lo_closed = c, side == "right"
    cells.append(I(lo, 2.0, lo_closed, True))
    return cells


def piece_pair_map(seed: int) -> PiecewiseMap:
    """A map on [0, 2]^2 over a product of axis cells; each cell carries the
    empty value, one of ``_CONSTANTS`` or an affine value of slope 1/2."""
    rng = random.Random(seed)
    ramp = AffForm(0.0, (0.5, 0.0))
    pieces = []
    for region in itertools.product(_axis_cells(rng), _axis_cells(rng)):
        kind = rng.choice(("empty", "constant", "constant", "constant", "affine"))
        if kind == "empty":
            value = ()
        elif kind == "constant":
            value = _const(*rng.choice(_CONSTANTS), ddim=2)
        else:
            value = ((AffineInterval(ramp, ramp.shift(1.0)),),)
        pieces.append(Piece(region, value))
    return PiecewiseMap((I.closed(0, 2), I.closed(0, 2)), 1, tuple(pieces))


PIECE_PAIR_GRID = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.25)


def _held_pieces(t, grid):
    return [p for p in t.pieces if any(box_contains(p.region, x) for x in grid.points())]


def _box_without(region):
    """A box in [0, 2]^2 that holds no point of ``region``: the longer side
    of [0, 2] beyond the region's first interval, times [0, 2]."""
    iv = region[0]
    if iv.lo >= 2.0 - iv.hi:
        return (FlaggedInterval(0.0, iv.lo, True, not iv.lo_closed), FlaggedInterval.closed(0, 2))
    return (FlaggedInterval(iv.hi, 2.0, not iv.hi_closed, True), FlaggedInterval.closed(0, 2))


@pytest.mark.parametrize("seed", range(12))
def test_piece_pair_maps_match_oracle(seed):
    t = piece_pair_map(seed)
    grid = PIECE_PAIR_GRID
    for opts in _variants(grid) + [{"direction": "lsc", "delta": 3 * grid.step, "tol": 0.0}]:
        assert_same_report(t, grid, **opts)
    # every grid point of one nonempty piece left outside the box
    region = next(p.region for p in _held_pieces(t, grid) if p.value)
    within = _box_without(region)
    kept = [x for x in grid.points() if box_contains(within, x)]
    assert kept and not any(box_contains(region, x) for x in kept)
    for direction in ("usc", "lsc"):
        assert_same_report(t, grid, direction=direction, within=within)


def test_piece_pair_maps_cover_every_piece_level_case():
    """Across the seeds, both directions find safe and unsafe constant
    pieces, and the maps put empty next to nonempty and affine next to
    constant pieces."""
    grid = PIECE_PAIR_GRID
    seen = set()
    for seed in range(12):
        t = piece_pair_map(seed)
        cells = _checks.GridCells((t,), grid)
        pieces, _ = _checks._piece_spans(cells)
        points = {idx: _checks._point_record(cells, pieces, idx) for idx, _, _ in cells.points()}
        bound = 1e-9 + t.max_slope() * grid.step
        for direction in ("usc", "lsc"):
            safe = _checks._safe_pieces(pieces, 1, bound, direction, {})
            constant = {i for i, (_, _, v) in pieces.items() if v is not None}
            if safe:
                seen.add((direction, "safe"))
            if constant - safe:
                seen.add((direction, "unsafe"))
        for idx, (_, value, piece) in points.items():
            for off in _checks._neighbor_offsets(2, 1):
                near = points.get(tuple(i + o for i, o in zip(idx, off)))
                if near is not None:
                    _, near_value, near_piece = near
                    if value.is_empty and not near_value.is_empty:
                        seen.add("empty next to nonempty")
                    if piece is not None and near_piece is None:
                        seen.add("affine next to constant")
    assert seen == {("usc", "safe"), ("usc", "unsafe"), ("lsc", "safe"), ("lsc", "unsafe"),
                    "empty next to nonempty", "affine next to constant"}


def _line_map(*values):
    """[0, 2] cut into [0, 1), {1} and (1, 2] with the given values."""
    regions = ((I(0, 1, True, False),), (I.point(1),), (I(1, 2, False, True),))
    return PiecewiseMap((I.closed(0, 2),), 1, tuple(
        Piece(r, v) for r, v in zip(regions, values)))


@pytest.mark.parametrize("t", [
    # the outer pieces are two grid steps apart across the one-point piece
    _line_map(_const(0, 1), _const(0, 1), _const(0, 2)),
    _line_map(_const(0, 2), _const(0, 2), _const(0, 1)),
    # excess 1 one way and 0 the other
    _line_map(_const(0, 2), _const(0, 2), _const(0, 2)),
    _line_map(_const(0, 2), _const(0, 1), _const(0, 1)),
    # an empty value next to, and two grid steps from, a nonempty one
    _line_map((), _const(0, 1), _const(0, 1)),
    _line_map(_const(0, 1), (), _const(0, 1)),
], ids=["thin-grows", "thin-shrinks", "flat", "one-way", "empty-left", "empty-middle"])
def test_piece_level_cases_match_oracle(t):
    grid = Grid(1, (0.0,), (2.0,), 0.25)
    for opts in _variants(grid):
        assert_same_report(t, grid, **opts)


def _count_centers(monkeypatch):
    """Count the scan centres: each centre walks the neighbor offsets once."""
    centers = [0]
    offsets = _checks._neighbor_offsets

    class CountedOffsets(list):
        def __iter__(self):
            centers[0] += 1
            return super().__iter__()

    monkeypatch.setattr(_checks, "_neighbor_offsets",
                        lambda dim, radius: CountedOffsets(offsets(dim, radius)))
    return centers


def test_safe_pieces_cost_one_excess_per_piece_pair_and_no_point_pair(monkeypatch):
    """Four constant pieces in a row whose values are within tol of each
    other: every center is skipped, and each oriented pair of neighbouring
    pieces, a piece and itself included, costs one excess."""
    dom = (I.closed(0, 2),)
    t = PiecewiseMap(dom, 1, (
        Piece((I(0, 0.5, True, False),), _const(0, 1)),
        Piece((I.closed(0.5, 1),), _const(0, 1.0625)),
        Piece((I(1, 1.5, False, False),), _const(0.5, 1)),
        Piece((I.closed(1.5, 2),), _const(0, 1)),
    ))
    grid = Grid(1, (0.0,), (2.0,), 1 / 8)
    calls = _count_excess(monkeypatch)
    centers = _count_centers(monkeypatch)
    for direction in ("usc", "lsc"):
        calls[0] = 0
        assert check_usc(t, grid, tol=0.5, direction=direction).passed
        assert calls[0] == 4 + 2 * 3
        assert centers[0] == 0


def test_failing_scan_stops_at_the_witness_past_the_cap(monkeypatch):
    """ex2_1 at delta 1/4 has more witnesses than the cap: the report equals
    the oracle's, and the scan visits fewer centres than the full scan."""
    t, _ = ex2_1()
    step = 1 / 64
    grid = Grid(1, (step,), (2.0 - step,), step)
    rep = assert_same_report(t, grid, delta=0.25)
    assert len(rep.witnesses) == _checks._MAX_WITNESSES
    assert "witness list truncated" in rep.notes

    centers = _count_centers(monkeypatch)
    check_usc(t, grid, delta=0.25)
    capped = centers[0]
    centers[0] = 0
    cells = _checks.GridCells((t,), grid)
    pieces, _ = _checks._piece_spans(cells)
    bound = rep.parameters["bound"]
    piece_excess = {}
    safe = _checks._safe_pieces(pieces, 16, bound, "usc", piece_excess)
    full = list(_checks._excess_witnesses(cells, pieces, safe, _checks._neighbor_offsets(1, 16),
                                          bound, "usc", piece_excess))
    assert len(full) > _checks._MAX_WITNESSES
    assert full[:_checks._MAX_WITNESSES] == list(rep.witnesses)
    assert 0 < capped < centers[0]


# ---------------------------------------------------------------------------
# Neighbours at the table's edges
# ---------------------------------------------------------------------------

def _banded_map(dim):
    """[0, 2]^dim cut at 0.5 and 1.5 on every axis. A piece in the middle
    band of some axis has the value [0, 4]; another has [0, 1 + k/2], where
    k counts its axes in the last band. In the usc direction the pieces off
    the middle bands are unsafe, and in the lsc direction those on them.
    Values at the first and last index of an axis differ, so a lookup that
    wrapped index -1 around to the last index would report a jump across
    the grid."""
    bands = (I(0, 0.5, True, False), I(0.5, 1.5, True, False), I.closed(1.5, 2))
    return PiecewiseMap((I.closed(0, 2),) * dim, 1, tuple(
        Piece(tuple(bands[b] for b in ks), _const(0.0, 4.0 if 1 in ks else 1.0 + ks.count(2) / 2, dim))
        for ks in itertools.product(range(3), repeat=dim)))


@pytest.mark.parametrize("dim,step", [(1, 0.25), (2, 0.25), (3, 0.25)])
def test_neighbours_at_the_table_edges_match_oracle(dim, step, monkeypatch):
    """Centres at index 0 and at the last index of every axis, on the whole
    grid and in ``within`` boxes that cut the unsafe pieces of the first or
    last bands, or hold only the last index of axis 0: the reports equal the
    oracle's in both directions, so a neighbour index below 0, past the last
    index or outside the box is no neighbour."""
    t = _banded_map(dim)
    grid = Grid(dim, (0.0,) * dim, (2.0,) * dim, step)
    last = len(grid.axis_values(0)) - 1
    centres = []
    real = _checks.GridCells.witnesses

    def witnesses(cells, passes, probe):
        def recorded(idx, x, pieces):
            centres.append(idx)
            return probe(idx, x, pieces)
        return real(cells, passes, recorded)

    monkeypatch.setattr(_checks.GridCells, "witnesses", witnesses)
    for within in (None, (I.closed(step, 2 - step),) * dim, (I.closed(1.25, 2),) * dim,
                   (I.point(2.0),) + (I.closed(1.25, 2),) * (dim - 1)):
        for direction in ("usc", "lsc"):
            for delta in (step, 2 * step):
                assert_same_report(t, grid, within=within, direction=direction, delta=delta)
    edges = {(d, idx[d]) for idx in centres for d in range(dim) if idx[d] in (0, last)}
    assert edges == {(d, k) for d in range(dim) for k in (0, last)}


# ---------------------------------------------------------------------------
# Same-piece affine pairs decided by the modulus bound
# ---------------------------------------------------------------------------

def _unit_ramp(num):
    """x -> [x, x + 1] on [0, 1], with its numbers made by ``num``."""
    dom = (I.closed(num(0), num(1)),)
    lo, hi = AffForm(num(0), (num(1),)), AffForm(num(1), (num(1),))
    return PiecewiseMap(dom, 1, (Piece(dom, ((AffineInterval(lo, hi),),)),))


@pytest.mark.parametrize("step,count,first", [
    (0.125, 0, None),
    (0.1, 8, _checks.Witness((0.0,), (0.1,), 0.10000000000000009, "excess")),
    (0.3, 2, _checks.Witness((0.0,), (0.3,), 0.30000000000000004, "excess")),
])
@pytest.mark.parametrize("data", ["float", "fraction-map", "fraction"])
def test_one_piece_ramp_at_tol_0_keeps_its_rounding_witnesses(step, count, first, data):
    """Between neighbours of x -> [x, x + 1] the exact excess is the step,
    which is the bound at tol=0. At step 0.125 nothing rounds and the scan
    passes. At steps 0.1 and 0.3 the rounded axis values and the rounded
    x + 1 push some computed excesses past the bound, and the scan keeps
    those witnesses. A map of ``Fraction`` numbers on a float grid rounds
    as the float map does; on a ``Fraction`` grid nothing rounds."""
    if data == "fraction":
        grid = Grid(1, (Fraction(0),), (Fraction(1),), Fraction(str(step)))
        rep = assert_same_report(_unit_ramp(Fraction), grid, tol=Fraction(0))
        assert rep.passed
        return
    grid = Grid(1, (0.0,), (1.0,), step)
    rep = assert_same_report(_unit_ramp(Fraction if data == "fraction-map" else float), grid,
                             tol=0.0)
    assert len(rep.witnesses) == count
    assert rep.witnesses[:1] == ((first,) if first else ())


def _rounds_empty_near_one():
    """[0.1 + 0.3x, 0.7 - 0.3x] on [0, 1] has width 0 at x = 1 by the float
    bounds the map validates with, but computes as [0.4000000000000001,
    0.39999999999999997] there."""
    dom = (I.closed(0, 1),)
    value = ((AffineInterval(AffForm(0.1, (0.3,)), AffForm(0.7, (-0.3,))),),)
    return PiecewiseMap(dom, 1, (Piece(dom, value),)), Grid(1, (0.0,), (1.0,), 0.1), 1e-9


def _rounds_empty_at_2_52():
    """Dyadic data whose sums pass 2**52, where floats are 1 apart: the
    exact width 1.5 - 1.5 x1 is 0 at x1 = 1, and at (1, 1) the value
    computes as [-4503599627370495.5, -4503599627370496]. A tol of 1000
    covers every rounding of the excess, so only the empty value fails."""
    dom = (I.closed(0, 1), I.closed(0, 1))
    c = -(2.0 ** 52 + 1)
    value = ((AffineInterval(AffForm(0.5, (c, 0.5)), AffForm(2.0, (c, -1.0))),),)
    return PiecewiseMap(dom, 1, (Piece(dom, value),)), Grid(2, (0.0, 0.0), (1.0, 1.0), 0.25), 1000.0


@pytest.mark.parametrize("case", [_rounds_empty_near_one, _rounds_empty_at_2_52],
                         ids=["decimal", "dyadic"])
def test_interval_that_rounds_empty_keeps_its_empty_value_witnesses(case):
    """A value that computes empty at a grid point where its exact width is
    0, next to nonempty values: the piece stays with the point scan."""
    t, grid, tol = case()
    corner = (1.0,) * grid.dim
    assert t.evaluate(corner).is_empty
    assert not computes_nonempty(t.pieces[0].value[0], _checks.GridCells((t,), grid).axes)
    for opts in ({}, {"direction": "lsc"}, {"delta": 3 * grid.step}):
        rep = assert_same_report(t, grid, tol=tol, **opts)
        assert "empty value" in {w.category for w in rep.witnesses}


def test_one_piece_affine_map_with_margin_makes_no_excess_call_and_no_record(monkeypatch):
    """A 2-D one-piece affine map at the default tol: every neighbour pair
    lies on the one piece, which the modulus bound decides, so the scan
    walks no point and computes no excess, at a dyadic and a rounding step."""
    calls = _count_excess(monkeypatch)

    def no_walk(*args, **kwargs):
        raise AssertionError("points walked")

    monkeypatch.setattr(_checks.GridCells, "points", no_walk)
    dom = (I.closed(0, 2), I.closed(0, 1))
    slant = AffForm(0.5, (0.25, -1.0))
    x0 = AffForm.coordinate(0, 2)
    value = ((AffineInterval(slant, slant.shift(0.5)), AffineInterval(x0, x0.shift(2.0))),)
    t = PiecewiseMap(dom, 2, (Piece(dom, value),))
    for step in (0.1, 0.125):
        grid = Grid.over_box(dom, step)
        for opts in ({}, {"direction": "lsc"}, {"delta": 3 * step}):
            rep = check_usc(t, grid, **opts)
            assert rep.passed
            assert rep.parameters["points_checked"] == grid.point_count()
    assert calls[0] == 0


def test_two_axis_clipped_map_makes_no_excess_call_and_no_record(monkeypatch):
    """(S + C) cap K for a one-box affine S + C whose coordinates move along
    different axes, as the benchmark's clipped maps do: K cuts the domain
    along both axes into pieces that meet continuously, so the scan decides
    the map whole, walks no point and computes no excess."""
    calls = _count_excess(monkeypatch)

    def no_walk(*args, **kwargs):
        raise AssertionError("points walked")

    monkeypatch.setattr(_checks.GridCells, "points", no_walk)
    dom = (I.closed(0, 2), I.closed(0, 2))
    x0, x1 = AffForm(0.0, (0.5, 0.0)), AffForm(0.0, (0.0, -1.0))
    sc = ((AffineInterval(x0.shift(-0.25), x0.shift(1.0)),
           AffineInterval(x1.shift(0.5), x1.shift(1.5))),)
    k = BoxSet.of(2, [(I.closed(0, 1), I.closed(-1, 0.75))])
    t = intersect_maps(PiecewiseMap(dom, 2, (Piece(dom, sc),)), constant_map(dom, k))
    assert {p.region[0].lo for p in t.pieces} == {0, 0.5}
    assert {p.region[1].lo for p in t.pieces} == {0, 0.75, 1.5}
    for step in (0.1, 0.125):
        grid = Grid.over_box(dom, step)
        for opts in ({}, {"direction": "lsc"}, {"delta": 3 * step}):
            rep = check_usc(t, grid, **opts)
            assert rep.passed
            assert rep.parameters["points_checked"] == grid.point_count()
    assert calls[0] == 0


def test_check_usc_rejects_an_unknown_direction():
    grid = Grid(1, (0.0,), (1.0,), 0.25)
    for direction in ("USC", "upper", ""):
        with pytest.raises(ValueError, match="'usc' or 'lsc'"):
            check_usc(_unit_ramp(float), grid, direction=direction)


@pytest.mark.parametrize("option", ["tol", "delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_check_usc_rejects_a_non_finite_tol_or_delta(option, value):
    """A nan or infinite ``tol`` or ``delta`` would make the bound nan, or
    the radius unreadable, and pass every scan: ``check_usc`` refuses it by
    name, directly and through ``check_w_usc``."""
    t, d = ex2_1()
    grid = Grid(1, (1 / 64,), (2 - 1 / 64,), 1 / 64)
    assert not check_usc(t, grid).passed
    with pytest.raises(ValueError, match=option):
        check_usc(t, grid, **{option: value})
    with pytest.raises(ValueError, match=option):
        check_w_usc(t, d, [0.5], grid, **{option: value})


# ---------------------------------------------------------------------------
# Continuous one-box maps decided whole
# ---------------------------------------------------------------------------

def _decided_whole(t, grid, tol=1e-9, delta=None, within=None, direction="usc"):
    """Whether ``check_usc`` decides ``t`` whole at these options."""
    cells = _checks.GridCells((t,), grid, within)
    spans, _ = _checks._piece_spans(cells)
    delta = grid.step if delta is None else delta
    radius = int(delta / grid.step + 1e-9)
    bound = tol + t.max_slope() * delta
    return _checks._decided_whole(t, spans, cells.axes, radius, bound)


def _whole_variants(grid):
    """Both directions, tol 0 and 1e-9, delta of one and two grid steps, on
    the whole grid and in the open box (lo, hi - step) on every axis, which
    drops each axis's first grid line and its last two."""
    within = tuple(I(lo, hi - grid.step, False, False) for lo, hi in zip(grid.lo, grid.hi))
    return [{"direction": d, "tol": tol, "delta": r * grid.step, **w}
            for d in ("usc", "lsc") for tol in (0.0, 1e-9) for r in (1, 2)
            for w in ({}, {"within": within})]


def assert_whole_variants(t, grid, variants=None):
    """Every variant's report equals the oracle's, for ``variants`` or else
    all of ``_whole_variants(grid)``. Returns the reports and the number of
    variants ``check_usc`` decided whole."""
    reports, whole = [], 0
    for opts in variants or _whole_variants(grid):
        reports.append(assert_same_report(t, grid, **opts))
        whole += _decided_whole(t, grid, **opts)
    return reports, whole


def _one_box_map(end, *pieces):
    """A map on [0, end] of one-box pieces ``(region, lo, hi)``, each
    endpoint ``(constant, slope)``."""
    return PiecewiseMap((I.closed(0, end),), 1, tuple(
        Piece(region, ((AffineInterval(AffForm(a, (s,)), AffForm(b, (u,))),),))
        for region, (a, s), (b, u) in pieces))


def test_jump_across_a_face_keeps_its_witnesses():
    """x -> [x, x + 1] on [0, 1) and [x + 1/2, x + 3/2] on [1, 2]: the forms
    disagree at 1, so no variant is decided whole and every one keeps the
    jump's witnesses."""
    t = _one_box_map(2, ((I(0, 1, True, False),), (0.0, 1.0), (1.0, 1.0)),
                     ((I.closed(1, 2),), (0.5, 1.0), (1.5, 1.0)))
    reports, whole = assert_whole_variants(t, Grid(1, (0.0,), (2.0,), 0.125))
    assert whole == 0
    assert all(rep.witnesses for rep in reports)


def test_kink_whose_excess_equals_the_bound_matches_oracle():
    """x -> [x, x + 1] on [0, 1] and [2 - x, 3 - x] on (1, 2] meet at 1. The
    exact excess between neighbours is the bound itself: at tol 0 no piece
    is decided, at tol 1e-9 the map is decided whole, and every scan
    passes."""
    t = _one_box_map(2, ((I.closed(0, 1),), (0.0, 1.0), (1.0, 1.0)),
                     ((I(1, 2, False, True),), (2.0, -1.0), (3.0, -1.0)))
    grid = Grid(1, (0.0,), (2.0,), 0.125)
    reports, whole = assert_whole_variants(t, grid)
    assert all(rep.passed for rep in reports)
    assert whole == 8
    assert all(_decided_whole(t, grid, **opts) == (opts["tol"] > 0)
               for opts in _whole_variants(grid))


def test_cut_ramp_at_tol_0_keeps_its_rounding_witnesses():
    """x -> [x, x + 1] cut at 1/2 keeps, at step 0.1 and tol 0, the 8
    rounding witnesses of the uncut ramp; at tol 1e-9 it is decided whole."""
    t = _one_box_map(1, ((I(0, 0.5, True, False),), (0.0, 1.0), (1.0, 1.0)),
                     ((I.closed(0.5, 1),), (0.0, 1.0), (1.0, 1.0)))
    grid = Grid(1, (0.0,), (1.0,), 0.1)
    rep = assert_same_report(t, grid, tol=0.0)
    assert rep.witnesses == check_usc(_unit_ramp(float), grid, tol=0.0).witnesses
    assert len(rep.witnesses) == 8
    assert not _decided_whole(t, grid, tol=0.0)
    assert _decided_whole(t, grid)
    assert_whole_variants(t, grid)


@pytest.mark.parametrize("outer_hi", [1.0, 2.0], ids=["jump", "continuous-outside"])
def test_sliver_piece_without_grid_points_is_read(outer_hi):
    """A sliver [1.1, 1.2) between the grid points 1 and 1.25 has a form
    that disagrees with both neighbours. Whether the outer pieces jump
    across it or agree, the map is not decided whole, and the jump keeps
    its witnesses."""
    t = _one_box_map(2, ((I(0, 1.1, True, False),), (0.0, 1.0), (1.0, 1.0)),
                     ((I(1.1, 1.2, True, False),), (0.5, 1.0), (1.5, 1.0)),
                     ((I.closed(1.2, 2),), (outer_hi - 1.0, 1.0), (outer_hi, 1.0)))
    grid = Grid(1, (0.0,), (2.0,), 0.25)
    assert len(_held_pieces(t, grid)) == 2
    reports, whole = assert_whole_variants(t, grid)
    assert whole == 0
    assert all(bool(rep.witnesses) == (outer_hi == 2.0) for rep in reports)


def test_point_piece_between_constants_matches_oracle():
    """{0} on [0, 1), [0, 1] at 1 and {1} on (1, 2]: the point piece's hi
    form disagrees with its left neighbour's, so nothing is decided whole."""
    t = _line_map(_const(0, 0), _const(0, 1), _const(1, 1))
    reports, whole = assert_whole_variants(t, Grid(1, (0.0,), (2.0,), 0.25))
    assert whole == 0
    assert any(rep.witnesses for rep in reports)


def test_non_dyadic_root_cut_decides_nothing():
    """[3x - 1, 3x] clipped to [0, 3/2] is cut at the float nearest 1/3,
    where 3x - 1 computes 0 but is not 0 exactly: the exact face test
    fails, and the scans take the point path."""
    dom = (I.closed(0, 1),)
    s = _one_box_map(1, (dom, (-1.0, 3.0), (0.0, 3.0)))
    t = intersect_maps(s, constant_map(dom, BoxSet.of(1, [(I.closed(0, 1.5),)])))
    third = 1 / 3
    assert any(p.region[0].lo == third for p in t.pieces)
    form = AffForm(-1.0, (3.0,))
    assert form((third,)) == 0.0
    assert not agree_on(form, AffForm.constant(0.0, 1), (I.point(third),))
    _, whole = assert_whole_variants(t, Grid(1, (0.0,), (1.0,), 0.0625))
    assert whole == 0


def clipped_map(seed: int):
    """``intersect_maps`` of a one-box affine map S on [a, a + w]^dim, dim
    1 or 2, with the constant map of a closed box K, and a grid over the
    domain. Each output coordinate's endpoints move along one domain axis,
    so every crossing with K is axis-aligned; some slopes are not dyadic,
    and some K miss S(x) on part of the domain."""
    rng = random.Random(seed)
    dim, cdim = rng.choice((1, 2)), rng.choice((1, 2))
    a, w = rng.choice((-1.0, -0.5, 0.0, 0.5)), rng.choice((1.0, 2.0))
    domain = tuple(I.closed(a, a + w) for _ in range(dim))
    box, k = [], []
    for _ in range(cdim):
        axis = rng.randrange(dim)
        slope = rng.choice((-1.0, -0.5, 0.25, 0.5, 1.0, 2.0, 0.3, -1 / 3))
        coeffs = tuple(slope if j == axis else 0.0 for j in range(dim))
        c, width = rng.choice((-1.0, -0.5, 0.0, 0.5)), rng.choice((0.0, 0.25, 0.5, 1.0))
        box.append(AffineInterval(AffForm(c, coeffs), AffForm(c + width, coeffs)))
        lo = rng.choice((-2.0, -1.0, -0.5, 0.0, 0.25, 0.5))
        k.append(I.closed(lo, lo + rng.choice((0.5, 1.0, 2.0, 4.0))))
    s = PiecewiseMap(domain, cdim, (Piece(domain, (tuple(box),)),))
    t = intersect_maps(s, constant_map(domain, BoxSet.of(cdim, [tuple(k)])))
    return t, Grid.over_box(domain, w / (8 if dim == 1 else 4))


def test_seeded_clipped_maps_match_oracle(monkeypatch):
    """2,000 seeded clipped maps against the oracle, each in both directions
    at tol 0 and 1e-9; the delta and the ``within`` box take turns over the
    seeds, so each of the 16 variants runs on 500 maps. The oracle's excess
    is memoized on the operands' values, which is all it reads. Some maps
    of several pieces are decided whole, and some are not, failing or
    passing."""
    monkeypatch.setattr(sys.modules[__name__], "seed_hausdorff_upper",
                        functools.cache(seed_hausdorff_upper))
    seen = set()
    for seed in range(2000):
        t, grid = clipped_map(seed)
        variants = _whole_variants(grid)[seed % 4::4]
        reports, whole = assert_whole_variants(t, grid, variants)
        seen.add((len(t.pieces) > 1, whole > 0, all(rep.passed for rep in reports)))
    assert {(True, True, True), (True, False, True), (True, False, False)} <= seen


# ---------------------------------------------------------------------------
# delta below the grid step
# ---------------------------------------------------------------------------

def _ramp():
    dom = (I.closed(0, 1),)
    x = AffForm.coordinate(0, 1)
    return PiecewiseMap(dom, 1, (Piece(dom, ((AffineInterval(x, x.shift(1.0)),),)),))


def test_delta_below_step_is_rejected():
    grid = Grid(1, (0.0,), (1.0,), 0.25)
    with pytest.raises(ValueError, match="below the grid step"):
        check_usc(_ramp(), grid, delta=0.1)
    assert check_usc(_ramp(), grid, delta=0.25).passed
    assert check_usc(_ramp(), grid).passed


def test_cli_delta_below_step_exits_with_input_error():
    r = CliRunner().invoke(main, ["check-map", "ex2_1.map", "--property", "usc",
                                  "--delta", "0.001"])
    assert r.exit_code == 2
    assert "below the grid step" in r.output
    assert "Traceback" not in r.output
    assert isinstance(r.exception, SystemExit)


# ---------------------------------------------------------------------------
# delta wider than the grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,t", [
    ("ex2_1", ex2_1()[0]),
    ("thin-grows", _line_map(_const(0, 1), _const(0, 1), _const(0, 2))),
    ("empty-middle", _line_map(_const(0, 1), (), _const(0, 1))),
    ("ramp", PiecewiseMap((I.closed(0, 2),), 1, (Piece((I.closed(0, 2),), (
        (AffineInterval(AffForm.coordinate(0, 1), AffForm.constant(2.0, 1)),),)),))),
], ids=lambda v: v if isinstance(v, str) else "")
def test_delta_many_grid_widths_wide_matches_oracle(name, t):
    """The oracle's uncapped offset list stays small on a 1-D grid."""
    grid = Grid(1, (0.0,), (2.0,), 0.125)
    for direction in ("usc", "lsc"):
        for delta in (2.0, 64.0):
            assert_same_report(t, grid, delta=delta, direction=direction)


def test_neighbor_radius_is_capped_at_the_widest_axis(monkeypatch):
    radii = []
    offsets = _checks._neighbor_offsets
    monkeypatch.setattr(_checks, "_neighbor_offsets",
                        lambda dim, radius: radii.append(radius) or offsets(dim, radius))
    grid = Grid(2, (0.0, 0.0), (2.0, 1.0), 0.25)  # 9 and 5 points per axis
    for delta in (0.25, 1.0, 2.0, 3.0, 1e9):
        check_usc(piece_pair_map(0), grid, delta=delta)
    assert radii == [1, 4, 8, 8, 8]


def test_delta_of_1e9_on_a_33_by_33_grid_returns():
    t = ex4_1(2).conflict_map(0)
    grid = Grid(2, (0.0, 0.0), (4.0, 4.0), 0.125)
    wide = check_usc(t, grid, delta=1e9)
    whole = check_usc(t, grid, delta=4.0)
    assert t.max_slope() == 0
    assert (wide.verdict, wide.witnesses, wide.notes) == \
        (whole.verdict, whole.witnesses, whole.notes)


# ---------------------------------------------------------------------------
# closure and hausdorff_upper against the frozen copies
# ---------------------------------------------------------------------------

# few distinct endpoints keep 4-D canonicalization cheap
dyadic = st.integers(min_value=0, max_value=4).map(lambda k: k / 2)


@st.composite
def flagged_intervals(draw, closed_only=False):
    lo = draw(dyadic)
    hi = draw(dyadic.filter(lambda h: h >= lo))
    if lo == hi or closed_only:
        return I.closed(lo, hi)
    return I(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def flagged_unions(draw, dim=None, min_boxes=1, max_boxes=5):
    if dim is None:
        dim = draw(st.integers(min_value=1, max_value=4))
    closed_only = draw(st.booleans())
    n = draw(st.integers(min_value=min_boxes, max_value=max_boxes))
    boxes = [tuple(draw(flagged_intervals(closed_only)) for _ in range(dim)) for _ in range(n)]
    return BoxSet.of(dim, boxes)


@settings(max_examples=150, deadline=None)
@given(flagged_unions())
def test_closure_matches_frozen_copy(s):
    got = s.closure()
    assert got == seed_closure(s)
    assert got.closure() == got
    if all(box_is_all_closed(b) for b in s.boxes):
        assert got is s


def test_closing_a_closure_canonicalizes_nothing(monkeypatch):
    """The canonical form of this closed union holds the half-open box
    {0}x(0,0.5]; the set ``closure`` returns is closed again for free."""
    s = BoxSet.of(2, [(I.point(0), I.closed(0, 0.5)), (I.closed(0, 0.5), I.point(0))])
    assert not all(box_is_all_closed(b) for b in s.boxes)
    want = seed_closure(s)
    calls = [0]
    original = _intervals.canonical_boxes

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(_intervals, "canonical_boxes", counted)
    c = s.closure()
    assert calls[0] == 1
    assert c == s == want
    assert c.closure() is c
    assert c.closure().closure() is c
    assert calls[0] == 1


@st.composite
def excess_operands(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    a = draw(flagged_unions(dim=dim))
    one_box = draw(st.booleans())
    b = draw(flagged_unions(dim=dim, max_boxes=1 if one_box else 5))
    return a, b


@settings(max_examples=150, deadline=None)
@given(excess_operands())
def test_hausdorff_upper_matches_frozen_copy(operands):
    a, b = operands
    got = a.hausdorff_upper(b)
    want = seed_hausdorff_upper(a, b)
    assert (got, type(got)) == (want, type(want))
