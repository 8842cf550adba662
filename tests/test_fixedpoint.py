"""Approximation fixed-point chains and their certification.

The heart of this file is an oracle that recomputes every approximate
fixed-point set from the serialized documents by direct piece
enumeration, bypassing the t_upper/adherence pipeline entirely.
"""

from __future__ import annotations

import pytest

from boxcorr import (BoxSet, FlaggedInterval, Grid, ProductMap,
                     certify_fixed_points, constant_map, intersect_qv_chain)
from boxcorr import io
from boxcorr.fixedpoint import fixed_points_of_approximation
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
