"""Approximation fixed-point chains and their certification.

The heart of this file is an oracle that recomputes every approximate
fixed-point set from the serialized documents by direct piece
enumeration, bypassing the t_upper/adherence pipeline entirely.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from boxcorr import (BoxSet, FlaggedInterval, Grid, ProductMap,
                     certify_fixed_points, constant_map, fixedpoint, intersect_qv_chain)
from boxcorr import io
from boxcorr.affine import AffForm, AffineInterval
from boxcorr.fixedpoint import approximation_maps, fixed_points_of_approximation
from boxcorr.maps import Piece, PiecewiseMap, adherence, t_upper
from boxcorr.gallery import (ex2_1, ex2_2_composite, ex4_1,
                             theorem_4_1_construction)
from boxcorr.intervals import box_contains

I = FlaggedInterval


# ---------------------------------------------------------------------------
# Oracle: brute-force Q membership from a serialized product document
# ---------------------------------------------------------------------------

def _limit_boxes_at(t, x):
    """Closed value boxes of every piece whose closed region contains x.

    For piecewise-affine values the union of these boxes is exactly the
    graph adherence at x: endpoints vary continuously inside each piece,
    so piece-interior limits land in the closed instantiation at x.
    """
    out = []
    for piece in t.pieces:
        if not all(iv.lo <= xi <= iv.hi for iv, xi in zip(piece.region, x)):
            continue
        for affbox in piece.value:
            closed = []
            for ai in affbox:
                lo, hi = ai.lo(x), ai.hi(x)
                if lo > hi:
                    break
                closed.append((lo, hi))
            else:
                out.append(tuple(closed))
    return out


def _brute_member(t, d, x, xb, eps):
    """xb in closure((T(x) + (-eps,eps)^k) intersect D), limits included."""
    for closed_box in _limit_boxes_at(t, x):
        for target_box in d.boxes:
            per_axis_ok = True
            for (lo, hi), tgt, v in zip(closed_box, target_box, xb):
                dil = I(lo - eps, hi + eps, False, False)
                cut = dil.intersect(tgt)
                if cut is None or not cut.closure().contains(v):
                    per_axis_ok = False
                    break
            if per_axis_ok:
                return True
    return False


def brute_qv(doc, eps, grid):
    """Approximate fixed points recomputed from the serialized document."""
    factors, d_sets, blocks = io.product_from_doc(doc)
    domain = factors[0].domain
    kept = set()
    for x in grid.points():
        if not box_contains(domain, x):
            continue
        if all(_brute_member(t, d, x, tuple(x[j] for j in blk), eps)
               for t, d, blk in zip(factors, d_sets, blocks)):
            kept.add(x)
    return kept


def single_doc(t, d):
    return ProductMap.single(t, d).to_doc()


# ---------------------------------------------------------------------------
# ProductMap construction
# ---------------------------------------------------------------------------

def test_product_map_validates_alignment():
    t1, d = ex2_1()
    with pytest.raises(ValueError):
        ProductMap((t1,), (d, d), (((0,),) * 2))
    with pytest.raises(ValueError):
        ProductMap((t1,), (d,), ((),))  # blocks must cover the domain


def test_product_map_single():
    t1, d = ex2_1()
    pm = ProductMap.single(t1, d)
    assert pm.blocks == ((0,),)
    assert pm.domain == t1.domain


def test_grid_must_cover_targets():
    t1, d = ex2_1()
    pm = ProductMap.single(t1, d)
    with pytest.raises(ValueError):
        intersect_qv_chain(pm, Grid(1, (0.125,), (0.875,), 0.125))


# ---------------------------------------------------------------------------
# Chains on the bundled instances
# ---------------------------------------------------------------------------

def interval_grid(step):
    return Grid(1, (step,), (2.0 - step,), step)


def test_single_factor_chain_certifies_target_point():
    t1, d = ex2_1()
    res = intersect_qv_chain(ProductMap.single(t1, d), interval_grid(0.125))
    assert res.nested
    assert res.intersection == ((1.0,),)
    assert res.certified == ((1.0,),)
    assert res.uncertified == ()


def test_chain_handles_fat_diagonal_values():
    # the left piece value (0,1) contains every x below 1, so any
    # singleton target inside it is a fixed point of each approximation
    t1, _ = ex2_1()
    d = BoxSet.of(1, [(I.point(0.5),)])
    res = intersect_qv_chain(ProductMap.single(t1, d), interval_grid(0.125))
    assert res.intersection == ((0.5,),)
    assert res.certified == ((0.5,),)


def test_chain_empty_when_no_diagonal_overlap():
    dom = (I.closed(0, 2),)
    t = constant_map(dom, BoxSet.of(1, [(I.closed(0, 0.25),)]))
    d = BoxSet.of(1, [(I.point(1),)])
    res = intersect_qv_chain(ProductMap.single(t, d), Grid(1, (0.0,), (2.0,), 0.125))
    assert res.nested
    assert res.intersection == ()
    assert not res.found


def test_uncertified_survivors_and_radius():
    # constant value {0.5}: the eps-ball keeps grid neighbors of 0.5 in
    # every Q, but only 0.5 itself lies in the raw adherence
    dom = (I.closed(0, 2),)
    t = constant_map(dom, BoxSet.of(1, [(I.point(0.5),)]))
    d = BoxSet.of(1, [(I.closed(0, 2),)])
    grid = Grid(1, (0.0,), (2.0,), 0.0625)
    res = intersect_qv_chain(ProductMap.single(t, d), grid)
    assert set(res.intersection) == {(0.4375,), (0.5,), (0.5625,)}
    assert res.certified == ((0.5,),)
    assert set(res.uncertified) == {(0.4375,), (0.5625,)}
    assert all(i == 0 for _, i in res.failures)

    relaxed = intersect_qv_chain(ProductMap.single(t, d), grid,
                                 certification_radius=0.0625)
    assert set(relaxed.certified) == set(relaxed.intersection)


def test_certification_reads_serialized_maps():
    t1, d = ex2_1()
    pm = ProductMap.single(t1, d)
    cert, fail = certify_fixed_points(pm, ((1.0,), (0.25,)))
    assert cert == [(1.0,)]
    assert fail == [((0.25,), 0)]


def test_construction_chain_near_equilibrium():
    pm = theorem_4_1_construction(ex4_1(2))
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.125)
    res = intersect_qv_chain(pm, grid, (0.5, 0.25, 0.125))
    assert res.nested
    assert any(max(abs(a - 1.5), abs(b - 1.5)) <= 0.125 + 1e-12
               for a, b in res.certified)


def test_chain_result_doc_is_json_clean():
    t1, d = ex2_1()
    res = intersect_qv_chain(ProductMap.single(t1, d), interval_grid(0.125))
    doc = io.loads(io.dumps({"kind": "chain-wrap", **_strip(res)}))
    assert doc["intersection"] == [[1.0]]


def _strip(res):
    from boxcorr.fixedpoint import chain_result_to_doc
    return chain_result_to_doc(res)


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125, 0.0625])
def test_oracle_matches_single_factor(eps):
    t1, d = ex2_1()
    grid = interval_grid(0.125)
    doc = single_doc(t1, d)
    impl = fixed_points_of_approximation(ProductMap.from_doc(doc), eps, grid)
    assert brute_qv(doc, eps, grid) == set(impl.points)


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_oracle_matches_composite(eps):
    comp = ex2_2_composite()
    d = BoxSet.of(1, [(I.closed(1.0, 2.0 - 1 / 64),)])
    grid = interval_grid(1 / 64)
    doc = single_doc(comp, d)
    impl = fixed_points_of_approximation(ProductMap.from_doc(doc), eps, grid)
    assert brute_qv(doc, eps, grid) == set(impl.points)


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_oracle_matches_construction(eps):
    doc = theorem_4_1_construction(ex4_1(2)).to_doc()
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.125)
    impl = fixed_points_of_approximation(ProductMap.from_doc(doc), eps, grid)
    got = brute_qv(doc, eps, grid)
    assert got == set(impl.points)
    if eps == 0.25:
        assert (1.5, 1.5) in got


# ---------------------------------------------------------------------------
# Shared approximations against the per-factor seed
# ---------------------------------------------------------------------------

def seed_approximation_maps(pm, eps):
    """One approximation per factor, built for each factor on its own."""
    return tuple(adherence(t_upper(f, eps, d)) for f, d in zip(pm.factors, pm.d_sets))


def seed_certify_fixed_points(pm, points, radius=0.0):
    """One adherence per reparsed factor, valued per factor and candidate."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    factors = tuple(io.roundtrip_map(f) for f in pm.factors)
    d_sets = tuple(io.boxset_from_doc(io.loads(io.dumps(io.boxset_to_doc(d))))
                   for d in pm.d_sets)
    bars = tuple(adherence(f) for f in factors)
    certified = []
    failures = []
    for x in points:
        bad = -1
        for i, (bar, d, blk) in enumerate(zip(bars, d_sets, pm.blocks)):
            xb = tuple(x[j] for j in blk)
            val = bar.evaluate(x)
            if radius > 0:
                val = val.dilate(radius).closure()
            if not (d.contains(xb) and val.contains(xb)):
                bad = i
                break
        if bad < 0:
            certified.append(x)
        else:
            failures.append((x, bad))
    return certified, failures


def seed_chain(monkeypatch, pm, grid, eps_chain, radius=0.0):
    with monkeypatch.context() as m:
        m.setattr(fixedpoint, "approximation_maps", seed_approximation_maps)
        m.setattr(fixedpoint, "certify_fixed_points", seed_certify_fixed_points)
        return intersect_qv_chain(pm, grid, eps_chain, radius)


def assert_matches_seed(monkeypatch, pm, grid, eps_chain, radius=0.0):
    """Equal approximations per eps, shared exactly between equal
    (factor, target) pairs, and the seed's chain result."""
    for eps in eps_chain:
        got = approximation_maps(pm, eps)
        assert got == seed_approximation_maps(pm, eps)
        pairs = list(zip(pm.factors, pm.d_sets))
        for i, j in itertools.combinations(range(len(pairs)), 2):
            assert (got[i] is got[j]) == (pairs[i] == pairs[j])
    res = intersect_qv_chain(pm, grid, eps_chain, radius)
    assert res == seed_chain(monkeypatch, pm, grid, eps_chain, radius)
    return res


SQUARE = (I.closed(0, 2), I.closed(0, 2))
SQUARE_GRID = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.125)
FULL = BoxSet.of(1, [(I.closed(0, 2),)])


def follower(lo, hi, coeffs):
    """x -> [lo + c.x, hi + c.x] on [0, 2]^2, one output coordinate."""
    value = ((AffineInterval(AffForm(lo, coeffs), AffForm(hi, coeffs)),),)
    return PiecewiseMap(SQUARE, 1, (Piece(SQUARE, value),))


@pytest.mark.parametrize("n, step", [(2, 0.125), (3, 0.25), (4, 0.5)])
def test_shared_approximations_match_seed_on_construction(monkeypatch, n, step):
    pm = theorem_4_1_construction(ex4_1(n))
    assert len(set(zip(pm.factors, pm.d_sets))) == 1
    grid = Grid(n, (0.0,) * n, (2.0,) * n, step)
    res = assert_matches_seed(monkeypatch, pm, grid, (0.5, 0.25, 0.125))
    assert res.certified and not res.failures


def test_equal_factors_with_different_targets_do_not_share(monkeypatch):
    pm = theorem_4_1_construction(ex4_1(2))
    narrow = BoxSet.of(1, [(I.closed(0.5, 1.75),)])
    pm = ProductMap(pm.factors, (pm.d_sets[0], narrow), pm.blocks)
    assert pm.factors[0] == pm.factors[1]
    res = assert_matches_seed(monkeypatch, pm, SQUARE_GRID, (0.5, 0.25, 0.125))
    assert res.certified


def test_distinct_factors_match_seed(monkeypatch):
    lagging = follower(-0.25, 0.25, (0.0, 1.0))
    leading = follower(0.0, 0.5, (1.0, 0.0))
    for factors in ((lagging, leading), (leading, lagging)):
        res = assert_matches_seed(monkeypatch, ProductMap(factors, (FULL, FULL), ((0,), (1,))),
                                  SQUARE_GRID, (0.5, 0.25, 0.125))
        assert res.certified


@pytest.mark.parametrize("first, second", [
    (follower(-0.0, 0.25, (-0.0, 1.0)), follower(0.0, 0.25, (0.0, 1.0))),
    (follower(0.0, 0.25, (0.0, 1.0)), follower(-0.0, 0.25, (-0.0, 1.0))),
])
def test_signed_zero_factors_share_and_match_seed(monkeypatch, first, second):
    assert first == second
    assert repr(first) != repr(second)
    pm = ProductMap((first, second), (FULL, FULL), ((0,), (1,)))
    res = assert_matches_seed(monkeypatch, pm, SQUARE_GRID, (0.5, 0.25, 0.125))
    assert res.certified


@pytest.mark.parametrize("first, second", [
    (follower(Fraction(-1, 4), Fraction(1, 4), (Fraction(0), Fraction(1))),
     follower(-0.25, 0.25, (0.0, 1.0))),
    (follower(-0.25, 0.25, (0.0, 1.0)),
     follower(Fraction(-1, 4), Fraction(1, 4), (Fraction(0), Fraction(1)))),
])
def test_fraction_factors_share_and_match_seed(first, second):
    assert first == second
    pm = ProductMap((first, second), (FULL, FULL), ((0,), (1,)))
    for eps in (0.5, 0.25, 0.125):
        got = approximation_maps(pm, eps)
        assert got[0] is got[1]
        assert got == seed_approximation_maps(pm, eps)
        level = fixed_points_of_approximation(pm, eps, SQUARE_GRID)
        assert level.points
        with pytest.MonkeyPatch.context() as m:
            m.setattr(fixedpoint, "approximation_maps", seed_approximation_maps)
            assert level == fixed_points_of_approximation(pm, eps, SQUARE_GRID)
    # certification serializes every factor, and io.dumps writes each of
    # these Fractions as the float it equals: the whole chain is the float one
    floats = follower(-0.25, 0.25, (0.0, 1.0))
    want = intersect_qv_chain(ProductMap((floats, floats), (FULL, FULL), ((0,), (1,))),
                              SQUARE_GRID, (0.5, 0.25, 0.125))
    assert want.certified and want.failures
    assert intersect_qv_chain(pm, SQUARE_GRID, (0.5, 0.25, 0.125)) == want


def test_positive_radius_failures_match_seed(monkeypatch):
    # both factors are the constant {0.5}: the grid neighbours of (0.5, 0.5)
    # survive every approximation, and a radius below the step certifies
    # none of them, failing at factor 0 off x0 = 0.5 and at factor 1 on it
    half = constant_map(SQUARE, BoxSet.of(1, [(I.point(0.5),)]))
    pm = ProductMap((half, half), (FULL, FULL), ((0,), (1,)))
    grid = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.0625)
    res = assert_matches_seed(monkeypatch, pm, grid, (0.5, 0.25, 0.125), radius=1 / 32)
    assert res.certified == ((0.5, 0.5),)
    assert {i for _, i in res.failures} == {0, 1}
    assert all(i == (0 if x[0] != 0.5 else 1) for x, i in res.failures)
    narrow = BoxSet.of(1, [(I.closed(0.25, 1.75),)])
    pm = ProductMap((half, half), (narrow, FULL), ((0,), (1,)))
    points = tuple(grid.points())
    for radius in (0.0, 1 / 32, 1 / 8, 1.0):
        got = certify_fixed_points(pm, points, radius)
        assert got == seed_certify_fixed_points(pm, points, radius)
        assert got[0] and got[1]


def test_nan_certification_radius_is_rejected():
    t1, d = ex2_1()
    pm = ProductMap.single(t1, d)
    with pytest.raises(ValueError, match="radius"):
        certify_fixed_points(pm, ((1.0,),), float("nan"))
    with pytest.raises(ValueError, match="radius"):
        intersect_qv_chain(theorem_4_1_construction(ex4_1(2)), SQUARE_GRID,
                           (0.5,), certification_radius=float("nan"))


@pytest.mark.parametrize("radius", [float("nan"), -1.0])
def test_chain_rejects_a_bad_radius_before_any_level(monkeypatch, radius):
    def no_level(*args):
        raise AssertionError("a chain level was built")

    monkeypatch.setattr(fixedpoint, "fixed_points_of_approximation", no_level)
    with pytest.raises(ValueError, match="radius"):
        intersect_qv_chain(theorem_4_1_construction(ex4_1(2)), SQUARE_GRID,
                           (0.5, 0.25, 0.125), certification_radius=radius)


def test_symbolic_n4_chain_builds_each_map_once(monkeypatch):
    """The ex4_1(4) chain of the symbolic-n4 benchmark has four equal
    factors and four equal targets: it builds one t_upper per eps, one
    adherence per eps and one for the reparsed factor. The levels and the
    certification read their pieces per cell, so no map is evaluated or
    searched for the piece at a point; the certification decides each
    (factor, piece, block point) once, with one target and one value
    membership test, 109 decisions for the 624 candidates. One build per
    factor made 12 t_upper, 16 adherence and 2,496 evaluate calls, and one
    value per candidate 624 evaluate calls."""
    counts = {"t_upper": 0, "adherence": 0, "evaluate": 0, "piece_at": 0, "contains": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(fixedpoint, "t_upper", counted("t_upper", t_upper))
    monkeypatch.setattr(fixedpoint, "adherence", counted("adherence", adherence))
    monkeypatch.setattr(PiecewiseMap, "evaluate", counted("evaluate", PiecewiseMap.evaluate))
    monkeypatch.setattr(PiecewiseMap, "piece_at", counted("piece_at", PiecewiseMap.piece_at))
    monkeypatch.setattr(BoxSet, "contains", counted("contains", BoxSet.contains))
    pm = theorem_4_1_construction(ex4_1(4))
    res = intersect_qv_chain(pm, Grid(4, (0.0,) * 4, (2.0,) * 4, 0.5), (0.5, 0.25, 0.125))
    assert counts == {"t_upper": 3, "adherence": 4, "evaluate": 0, "piece_at": 0,
                      "contains": 2 * 109}
    assert len(res.certified) == 624
