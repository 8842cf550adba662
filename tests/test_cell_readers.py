"""The readers that collect their hits cell by cell, against the per-point loops.

``fixed_points_of_approximation``, ``certify_fixed_points``,
``search_equilibria`` and ``propose_constant_selection`` read one
``GridCells`` table cell by cell: a cell of constant pieces is decided from
the index ranges of its values, and only the points of other cells are
tested one by one. Each is compared here with the per-point loop it
replaced: ``seed_fixed_points_of_approximation`` below, frozen from the
level walk over every grid point, and ``seed_certify_fixed_points``,
``seed_search_equilibria`` and ``seed_propose_constant_selection`` from the
other oracle modules. Outputs must be equal in value and ``repr``, or the
two must raise the same error type with the same message.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from boxcorr import (AffForm, AffineInterval, BoxSet, FlaggedInterval, Grid, ProductMap,
                     certify_fixed_points, fixedpoint, intersect_qv_chain)
from boxcorr import checks as _checks
from boxcorr.checks import GridCells, check_e_uscs, propose_constant_selection
from boxcorr.economy import _equilibrium_maps, search_equilibria
from boxcorr.fixedpoint import (QvSet, approximation_maps, check_grid_covers_targets,
                                fixed_points_of_approximation)
from boxcorr.gallery import ex4_1, theorem_4_1_construction
from boxcorr.maps import Piece, PiecewiseMap, closure_values

from test_fixedpoint import seed_certify_fixed_points
from test_witness_scan import (_grid_for, _outcome, mixed_economy, random_economy,
                               seed_points, seed_propose_constant_selection,
                               seed_search_equilibria)

I = FlaggedInterval
LADDER = [(2, 0.125), (2, 0.25), (3, 0.125), (3, 0.25), (4, 0.25)]
CHAIN = (0.5, 0.25, 0.125)


def seed_fixed_points_of_approximation(pm, eps, grid):
    """The level walk over every grid point: each point's pieces come from
    the full ``GridCells`` point walk, and each block is tested against its
    approximate value at the point."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    check_grid_covers_targets(grid, pm.dim, pm.d_sets, pm.blocks)
    approx = approximation_maps(pm, eps)
    kept = (x for _, x, pieces in seed_points(GridCells(approx, grid))
            if all(m.value_on(i, x).contains(tuple(x[j] for j in blk))
                   for m, i, blk in zip(approx, pieces, pm.blocks)))
    return QvSet(eps, tuple(kept))


def seed_chain(monkeypatch, pm, grid, eps_chain, radius=0.0):
    with monkeypatch.context() as m:
        m.setattr(fixedpoint, "fixed_points_of_approximation", seed_fixed_points_of_approximation)
        m.setattr(fixedpoint, "certify_fixed_points", seed_certify_fixed_points)
        return _outcome(lambda: intersect_qv_chain(pm, grid, eps_chain, radius))


def assert_same_chain(monkeypatch, pm, grid, eps_chain=CHAIN, radius=0.0):
    """Every level and the certified chain equal the per-point oracle's."""
    for eps in eps_chain:
        got = _outcome(lambda: fixed_points_of_approximation(pm, eps, grid))
        want = _outcome(lambda: seed_fixed_points_of_approximation(pm, eps, grid))
        assert repr(got) == repr(want)
    got = _outcome(lambda: intersect_qv_chain(pm, grid, eps_chain, radius))
    want = seed_chain(monkeypatch, pm, grid, eps_chain, radius)
    assert got == want and repr(got) == repr(want)
    return got


# ---------------------------------------------------------------------------
# Seeded product maps
# ---------------------------------------------------------------------------

BLOCKS = {2: (((0,), (1,)), ((1,), (0,)), ((0, 1),)),
          3: (((0, 2), (1,)), ((2,), (0, 1)), ((1,), (2,), (0,)), ((0,), (1,), (2,)))}
ENDS = (0.3, 0.5, 0.625, 0.8, 1.0, 1.2, 1.375, 1.6)


def _value_box(rng, dd, k, affine):
    """A value box of ``k`` output coordinates; its first coordinate moves
    with a random domain axis at slope +-1/2 when ``affine`` is set."""
    box = []
    for c in range(k):
        lo, hi = sorted(rng.sample(ENDS, 2))
        flags = (rng.random() < 0.7, rng.random() < 0.7)
        if affine and c == 0:
            slope, axis = rng.choice((0.5, -0.5)), rng.randrange(dd)
            coeffs = tuple(slope if j == axis else 0.0 for j in range(dd))
            shift = -0.5 if slope > 0 else 0.5
            box.append(AffineInterval(AffForm(lo + shift, coeffs), AffForm(hi + shift, coeffs),
                                      *flags))
        else:
            box.append(AffineInterval(AffForm.constant(lo, dd), AffForm.constant(hi, dd), *flags))
    return tuple(box)


def _factor(rng, domain, k, affine_share):
    """A map of ``domain`` into ``k`` coordinates whose pieces are the
    products of random cuts per axis. A piece's value is empty, one box or
    two boxes, affine with probability ``affine_share``."""
    dd, axes = len(domain), []
    for iv in domain:
        cuts = sorted(rng.sample((0.5, 0.75, 1.0, 1.5), rng.randint(0, 2)))
        lower = [rng.random() < 0.5 for _ in cuts]
        edges = [iv.lo, *cuts, iv.hi]
        axes.append([I(a, b, iv.lo_closed if n == 0 else not lower[n - 1],
                       iv.hi_closed if n == len(cuts) else lower[n])
                     for n, (a, b) in enumerate(itertools.pairwise(edges))])
    pieces = []
    for region in itertools.product(*axes):
        kind = rng.choice(("empty", "one", "one", "two"))
        affine = rng.random() < affine_share
        boxes = {"empty": 0, "one": 1, "two": 2}[kind]
        pieces.append(Piece(region, tuple(_value_box(rng, dd, k, affine) for _ in range(boxes))))
    return PiecewiseMap(domain, k, tuple(pieces))


def random_product(seed, affine_share=0.0, open_edge=False):
    """A product map on [0, 2]^dim, dim 2 or 3 by the seed's parity, with
    blocks in or out of coordinate order, taken in turn, and a closed
    target box per block; with ``open_edge`` the domain's first axis is
    open at 2."""
    rng = random.Random(seed)
    dim = 2 + seed % 2
    blocks = BLOCKS[dim][seed // 2 % len(BLOCKS[dim])]
    domain = (I(0.0, 2.0, True, not open_edge),) + (I.closed(0.0, 2.0),) * (dim - 1)
    factors, d_sets = [], []
    for blk in blocks:
        factors.append(_factor(rng, domain, len(blk), affine_share))
        d_sets.append(BoxSet.of(len(blk), [tuple(I.closed(rng.choice((0.0, 0.25, 0.5)),
                                                          rng.choice((1.5, 1.75, 2.0)))
                                                 for _ in blk)]))
    return ProductMap(tuple(factors), tuple(d_sets), blocks)


def _grid(pm):
    return Grid(pm.dim, (0.0,) * pm.dim, (2.0,) * pm.dim, 0.25 if pm.dim == 2 else 0.5)


def _level_cells(pm, eps, grid, points):
    """Per cell of the level's table: ``'partial'`` for a cell of constant
    pieces holding kept and dropped points, ``'affine'`` for a cell with an
    affine piece that holds a kept point, else ``None``."""
    approx = approximation_maps(pm, eps)
    cells, kept = GridCells(approx, grid), set(points)
    for cell, pieces in zip(itertools.product(*cells.segments), cells.rows):
        if pieces[0] is None:
            continue
        here = sum(tuple(ax[k] for ax, k in zip(cells.axes, idx)) in kept
                   for idx in itertools.product(*cell))
        constant = all(m.pieces[i].is_constant for m, i in zip(approx, pieces))
        if constant and 0 < here < math.prod(map(len, cell)):
            yield "partial"
        elif not constant and here:
            yield "affine"


@pytest.mark.parametrize("affine_share", [0.0, 0.3])
def test_levels_and_chains_match_oracle_on_seeded_products(affine_share, monkeypatch):
    """Block points that meet a constant value in part of a cell, blocks out
    of coordinate order, affine cells that take the per-point fallback, and
    certification at radius 0 and 1/16."""
    seen = set()
    for seed in range(16):
        pm = random_product(seed, affine_share)
        grid = _grid(pm)
        for radius in (0.0, 0.0625):
            res = assert_same_chain(monkeypatch, pm, grid, radius=radius)
        seen.add(pm.blocks)
        for q in res.qv_sets:
            seen.update(_level_cells(pm, q.eps, grid, q.points))
    assert "partial" in seen and {((1,), (0,)), ((0, 2), (1,))} <= seen
    if affine_share:
        assert "affine" in seen


@pytest.mark.parametrize("n, step", LADDER)
def test_ex4_1_chains_match_oracle(n, step, monkeypatch):
    pm = theorem_4_1_construction(ex4_1(n))
    res = assert_same_chain(monkeypatch, pm, Grid(n, (0.0,) * n, (2.0,) * n, step))
    assert res.certified and not res.failures


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def _candidates(rng, pm, grid, count):
    """Grid points and points off the grid, inside the domain's closure, in
    random order, with repeats."""
    pts = list(grid.points())
    out = [rng.choice(pts) for _ in range(count)]
    out += [tuple(rng.choice((0.1, 0.7, 1.3, 1.9, 2.0)) for _ in range(pm.dim))
            for _ in range(count // 4)]
    rng.shuffle(out)
    return tuple(out)


@pytest.mark.parametrize("radius", [0.0, 0.0625, 0.5])
def test_certification_matches_oracle_on_seeded_products(radius):
    """Constant and affine pieces, candidates on and off the grid; a domain
    open at 2 puts some candidates outside it, where both raise the same
    ``DomainError`` at the same first candidate."""
    rng = random.Random(11)
    outcomes = set()
    for seed in range(24):
        pm = random_product(seed, 0.3, open_edge=seed % 3 == 0)
        points = _candidates(rng, pm, _grid(pm), 40)
        got = _outcome(lambda: certify_fixed_points(pm, points, radius))
        want = _outcome(lambda: seed_certify_fixed_points(pm, points, radius))
        assert got == want and repr(got) == repr(want)
        if isinstance(want[0], type):
            outcomes.add(want[0].__name__)
            assert want[1].endswith(" outside map domain")
        else:
            outcomes.update(name for name, found in zip(("certified", "failed"), want) if found)
    assert outcomes == {"DomainError", "certified", "failed"}


def test_certification_raises_at_the_first_candidate_outside_the_domain():
    pm = random_product(0, 0.3, open_edge=True)
    inside = (1.0,) * pm.dim
    outside = (2.0,) + (1.0,) * (pm.dim - 1)
    for points in ((inside, outside), (outside, inside), (inside, outside, (2.0,) * pm.dim)):
        got = _outcome(lambda: certify_fixed_points(pm, points))
        assert got == _outcome(lambda: seed_certify_fixed_points(pm, points))
        assert got[1] == f"point {outside} outside map domain"


# ---------------------------------------------------------------------------
# Equilibrium search
# ---------------------------------------------------------------------------

def _search_cells(e, grid):
    """The kinds of cell the search meets: among cells of constant pieces,
    ``'conflict'`` where some agent's conflict value is nonempty and
    ``'partial'`` where equilibria and other points lie; ``'affine'`` for a
    cell with an affine piece."""
    maps = _equilibrium_maps(e)
    cells = GridCells(maps, grid)
    found = {c.point for c in seed_search_equilibria(e, grid)}
    for cell, pieces in zip(itertools.product(*cells.segments), cells.rows):
        if pieces[0] is None:
            continue
        x = cells.first_point(cell)
        if not all(m.pieces[i].is_constant for m, i in zip(maps, pieces)):
            yield "affine"
        elif any(not maps[k].value_on(pieces[k], x).is_empty for k in range(1, len(maps), 2)):
            yield "conflict"
        elif 0 < sum(tuple(ax[k] for ax, k in zip(cells.axes, idx)) in found
                     for idx in itertools.product(*cell)) < math.prod(map(len, cell)):
            yield "partial"


def test_seeded_searches_meet_every_kind_of_cell():
    seen = set()
    for e in [random_economy(seed) for seed in range(12)] + \
             [mixed_economy(seed) for seed in range(8)]:
        grid = _grid_for(e)
        assert search_equilibria(e, grid) == seed_search_equilibria(e, grid)
        seen.update(_search_cells(e, grid))
    assert seen == {"conflict", "partial", "affine"}


@pytest.mark.parametrize("n, step", LADDER)
def test_ex4_1_searches_match_oracle(n, step):
    e = ex4_1(n)
    grid = Grid.over_box(e.domain, step)
    got, want = search_equilibria(e, grid), seed_search_equilibria(e, grid)
    assert got == want and got
    assert [c.to_doc() for c in got] == [c.to_doc() for c in want]


# ---------------------------------------------------------------------------
# The constant selection
# ---------------------------------------------------------------------------

def test_constant_selection_matches_oracle():
    """The closed conflict and B maps of the seeded economies, over the
    whole domain, part of it and a box holding no grid point; some maps have
    affine pieces, and some proposals are made."""
    proposed = affine = 0
    for e in [random_economy(seed) for seed in range(12)] + \
             [mixed_economy(seed) for seed in range(8)]:
        grid = _grid_for(e)
        for i, ag in enumerate(e.agents):
            for t in (closure_values(e.conflict_map(i)), ag.b_map):
                for k_region in (e.domain, (I(0.25, 1.5, False, True),) * e.dim,
                                 (I(0.3, 0.4, True, True),) * e.dim):
                    for eps in (0.25, 1.0):
                        got = propose_constant_selection(t, k_region, eps, grid)
                        want = seed_propose_constant_selection(t, k_region, eps, grid)
                        assert repr(got) == repr(want)
                        proposed += got is not None
                        affine += got is not None and not all(p.is_constant for p in t.pieces)
    assert proposed and affine


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("k_region", ["holds grid points", "holds none"])
def test_selection_rejects_an_eps_that_is_not_positive_and_finite(eps, k_region, monkeypatch):
    """On ex4_1(2)'s B map at step 1/2, before any cell table is built,
    whether or not K holds a grid point."""
    e = ex4_1(2)
    t, grid = e.agents[0].b_map, Grid.over_box(e.domain, 0.5)
    k = e.domain if k_region == "holds grid points" else (I.closed(0.3, 0.4),) * 2

    def no_table(*args, **kwargs):
        raise AssertionError("a cell table was built")

    monkeypatch.setattr(_checks, "GridCells", no_table)
    with pytest.raises(ValueError, match="eps must be a positive finite number"):
        propose_constant_selection(t, k, eps, grid)
    for candidate in (None, closure_values(t)):
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            check_e_uscs(t, k, candidate, eps, grid)
