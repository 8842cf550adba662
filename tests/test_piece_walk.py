"""Piece walks against frozen copies of the per-point lookups they replaced.

Map rebuilds, canonicalization and the USC scan now walk each piece's own
atoms (``intervals.AtomGrid.cells``) or grid points, and a constant piece's value
is built once per map (``PiecewiseMap.value_on``); a rebuild values each
atom signature once. The ``seed_*`` functions below are the implementations
these replaced: the rebuild values every atom of the full cut product and
finds its piece with ``piece_at`` at a representative point (``adherence``
tests each atom against each closed piece region with
``_atom_in_closed_box``), and the scan collects the in-domain grid points and
looks up each point's piece. ``seed_t_upper`` is also the rebuild loop
``t_upper`` had before it became ``intersect_maps`` of the dilated map with
D, and ``seed_intersect_affine_intervals`` picks each endpoint by its own
rule. They stay here as the oracle; every map and every report must come
out equal.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcorr import (AffForm, AffineInterval, BoxSet, FlaggedInterval, Grid,
                     NonAxisAlignedSplitError, Piece, PiecewiseMap, adherence, check_usc,
                     constant_map, intersect_maps, intersect_qv_chain, restrict, t_upper)
from boxcorr import checks as _checks
from boxcorr import fixedpoint
from boxcorr import maps
from boxcorr import suites
from boxcorr.affine import affine_box_closure, affine_box_constant
from boxcorr.gallery import (ex2_1, ex2_1_variant, ex2_2, ex2_2_composite, ex2_2_economy,
                             ex4_1, ex4_1_selection, theorem_4_1_construction)
from boxcorr.intervals import (Box, box_closure, box_contains, box_intersect, box_sort_key,
                               canonical_boxes)
from boxcorr.maps import (_add_root_cut, _dilate_affine_box, _effective_sign,
                          _intersect_affine_boxes, _intersect_affine_intervals, _pair_cut_forms,
                          normalize_value)

from test_atom_grid import seed_merge_cells
import test_scan_oracle
from test_scan_oracle import assert_same_report, indexed_points

I = FlaggedInterval
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


# ---------------------------------------------------------------------------
# Frozen atomizers and rebuilds
# ---------------------------------------------------------------------------

def seed_axis_atoms(iv, cuts):
    inner = sorted(c for c in cuts if iv.contains(c))
    atoms = []
    lo, lc = iv.lo, iv.lo_closed
    for c in inner:
        seg = I.make(lo, c, lc, False)
        if seg is not None:
            atoms.append(seg)
        atoms.append(I.point(c))
        lo, lc = c, False
    seg = I.make(lo, iv.hi, lc, iv.hi_closed)
    if seg is not None:
        atoms.append(seg)
    return atoms


def seed_region_rep(region):
    return tuple(iv.lo if iv.is_point else (iv.lo + iv.hi) / 2.0 for iv in region)


def seed_rebuild(domain, codomain_dim, cuts, value_at):
    atom_lists = [seed_axis_atoms(domain[d], cuts.get(d, set())) for d in range(len(domain))]
    groups = {}
    for idx in itertools.product(*(range(len(al)) for al in atom_lists)):
        atom = tuple(atom_lists[d][i] for d, i in enumerate(idx))
        groups.setdefault(value_at(atom, seed_region_rep(atom)), []).append(idx)
    pieces = []
    for value, cells in groups.items():
        for box in seed_merge_cells(atom_lists, cells):
            pieces.append(Piece(box, value))
    pieces.sort(key=lambda p: box_sort_key(p.region))
    return PiecewiseMap(domain, codomain_dim, tuple(pieces))


def _seed_region_cuts(maps):
    cuts = {}
    for m in maps:
        for p in m.pieces:
            for d_ax in range(m.domain_dim):
                cuts.setdefault(d_ax, set()).update((p.region[d_ax].lo, p.region[d_ax].hi))
    return cuts


def seed_t_upper(t, eps, d):
    ddim = t.domain_dim
    d_affine = [affine_box_constant(b, ddim) for b in d.boxes]
    cuts = _seed_region_cuts([t])
    for p in t.pieces:
        for vb in p.value:
            dil = _dilate_affine_box(vb, eps)
            for db in d_affine:
                for k in range(t.codomain_dim):
                    for f in _pair_cut_forms(dil[k], db[k]):
                        _add_root_cut(cuts, p.region, f)

    def value_at(atom, rep):
        _, p = t.piece_at(rep)
        if not p.value:
            return ()
        out = []
        for vb in p.value:
            dil = _dilate_affine_box(vb, eps)
            for db in d_affine:
                r = _intersect_affine_boxes(atom, dil, db)
                if r is not None:
                    out.append(r)
        return normalize_value(out, ddim)

    return seed_rebuild(t.domain, t.codomain_dim, cuts, value_at)


def seed_sup_form(region, a, a_closed, b, b_closed):
    s = _effective_sign(region, a.sub(b))
    if s > 0:
        return a, a_closed
    if s < 0:
        return b, b_closed
    return a, (a_closed and b_closed)


def seed_intersect_affine_intervals(region, a, b):
    lo, lc = seed_sup_form(region, a.lo, a.lo_closed, b.lo, b.lo_closed)
    s = _effective_sign(region, a.hi.sub(b.hi))
    if s < 0:
        hi_form, hc = a.hi, a.hi_closed
    elif s > 0:
        hi_form, hc = b.hi, b.hi_closed
    else:
        hi_form, hc = a.hi, (a.hi_closed and b.hi_closed)
    w = hi_form.sub(lo)
    sw = _effective_sign(region, w)
    if sw < 0:
        return None
    if sw == 0 and not (lc and hc):
        return None
    return AffineInterval(lo, hi_form, lc, hc)


def _atom_in_closed_box(atom: Box, closed: Box) -> bool:
    for a, c in zip(atom, closed):
        if a.lo < c.lo or a.hi > c.hi:
            return False
    return True


def seed_adherence(t):
    ddim = t.domain_dim
    contributors = [(box_closure(p.region), tuple(affine_box_closure(b) for b in p.value))
                    for p in t.pieces if p.value]

    def value_at(atom, rep):
        out = []
        for creg, cval in contributors:
            if _atom_in_closed_box(atom, creg):
                out.extend(cval)
        return normalize_value(out, ddim)

    return seed_rebuild(t.domain, t.codomain_dim, _seed_region_cuts([t]), value_at)


def seed_intersect_maps(a, b):
    ddim = a.domain_dim
    cuts = _seed_region_cuts([a, b])
    for pa in a.pieces:
        for pb in b.pieces:
            overlap = box_intersect(pa.region, pb.region)
            if overlap is None:
                continue
            for ba in pa.value:
                for bb in pb.value:
                    for k in range(a.codomain_dim):
                        for f in _pair_cut_forms(ba[k], bb[k]):
                            _add_root_cut(cuts, overlap, f)

    def value_at(atom, rep):
        _, pa = a.piece_at(rep)
        _, pb = b.piece_at(rep)
        if not pa.value or not pb.value:
            return ()
        out = []
        for ba in pa.value:
            for bb in pb.value:
                r = _intersect_affine_boxes(atom, ba, bb)
                if r is not None:
                    out.append(r)
        return normalize_value(out, ddim)

    return seed_rebuild(a.domain, a.codomain_dim, cuts, value_at)


def seed_canonical_boxes(dim, boxes):
    boxes = list(boxes)
    if not boxes:
        return ()
    if len(boxes) == 1:
        return (boxes[0],)

    def atoms_of(cuts):
        atoms = []
        for i, v in enumerate(cuts):
            atoms.append(I.point(v))
            if i + 1 < len(cuts):
                atoms.append(I.open(v, cuts[i + 1]))
        return atoms

    def indices_in(atoms, iv):
        return [i for i, a in enumerate(atoms)
                if (iv.contains(a.lo) if a.is_point else iv.lo <= a.lo and a.hi <= iv.hi)]

    atom_lists, covers = [], []
    for d in range(dim):
        atoms = atoms_of(sorted({v for b in boxes for v in (b[d].lo, b[d].hi)}))
        atom_lists.append(atoms)
        covers.append([indices_in(atoms, b[d]) for b in boxes])
    cells = set()
    for bi in range(len(boxes)):
        cells.update(itertools.product(*(covers[d][bi] for d in range(dim))))
    return tuple(seed_merge_cells(atom_lists, cells))


# ---------------------------------------------------------------------------
# Frozen point lookup of the USC scan
# ---------------------------------------------------------------------------

def seed_closed_values(t, grid, point_filter=None):
    pts = {}
    for idx, p in indexed_points(grid):
        if box_contains(t.domain, p) and (point_filter is None or point_filter(p)):
            pts[idx] = p
    constant = [all(ai.is_constant for b in p.value for ai in b) for p in t.pieces]
    shared, values, const_piece = {}, {}, {}
    for idx, p in pts.items():
        i, _ = t.piece_at(p)
        if not constant[i]:
            values[idx] = t.evaluate(p).closure()
            const_piece[idx] = None
            continue
        if i not in shared:
            shared[i] = t.evaluate(p).closure()
        values[idx] = shared[i]
        const_piece[idx] = i
    return pts, values, const_piece


def seed_piece_spans(t, pts, values):
    """Each piece's least and greatest grid index per axis over ``pts``, and
    its closed value if it is constant, else ``None``."""
    constant = [all(ai.is_constant for b in p.value for ai in b) for p in t.pieces]
    spans = {}
    for idx, p in pts.items():
        i, _ = t.piece_at(p)
        lo, hi, value = spans.get(i, (idx, idx, values[idx] if constant[i] else None))
        spans[i] = (tuple(map(min, lo, idx)), tuple(map(max, hi, idx)), value)
    return spans


def read_records(records, spans, safe, radius):
    """The records a USC walk that runs to its end reads: those of the
    centres on a piece outside ``safe`` and of their neighbours within
    ``radius`` grid steps on every axis."""
    def piece_of(idx):
        return next(i for i, (lo, hi, _) in spans.items()
                    if all(l <= k <= h for k, l, h in zip(idx, lo, hi)))

    centres = [idx for idx in records if piece_of(idx) not in safe]
    read = {tuple(map(operator.add, idx, off)) for idx in centres
            for off in itertools.product(range(-radius, radius + 1), repeat=len(idx))}
    return {idx: r for idx, r in records.items() if idx in read}


def built_records(opts, t, grid, within):
    """``check_usc(t, grid, within=within, **opts)`` and the point records
    its walk built, ``{}`` when it built none; it builds none twice."""
    built = {}
    real = _checks._point_record

    def recorded(cells, spans, idx):
        assert idx not in built
        built[idx] = real(cells, spans, idx)
        return built[idx]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_checks, "_point_record", recorded)
        rep = check_usc(t, grid, within=within, **opts)
    return rep, {idx: r for idx, r in built.items() if r is not None}


def assert_same_scan(t, grid, within=None, variants=None):
    """The cell pass and the point records equal the frozen lookup, and
    every report equals the full point-pair scan over the lookup's values
    (no center skipped, no cap), in both directions, at one, two and three
    grid steps of delta and at tol=0, or at the given ``check_usc`` option
    ``variants``. The records a scan builds are the lookup's, those that
    ``read_records`` keeps when the scan runs to its end, and some of them
    when it stops at the cap. The lookup reads a ``within`` box as the
    filter ``box_contains(within, p)``.

    Returns ``(records built, points)`` per variant."""
    cells = _checks.GridCells((t,), grid, within)
    spans, count = _checks._piece_spans(cells)
    pts, values, const_piece = seed_closed_values(
        t, grid, None if within is None else lambda p: box_contains(within, p))
    records = {idx: (x, values[idx], const_piece[idx]) for idx, x in pts.items()}
    assert spans == seed_piece_spans(t, pts, values)
    assert count == len(pts)
    # every index of the grid and one step past it on each side: the
    # lookup's record at its points and none elsewhere, so no index wraps
    around = itertools.product(*(range(-1, len(ax) + 1) for ax in cells.axes))
    assert all(_checks._point_record(cells, spans, idx) == records.get(idx) for idx in around)
    walk = [(idx, x) for idx, x, _ in cells.points()]
    assert walk == sorted(pts.items())
    sizes = []
    # the oracle's excess reads only the two values, so it is memoized on them
    excess = functools.cache(test_scan_oracle.seed_hausdorff_upper)
    for opts in variants or ({}, {"direction": "lsc"}, {"delta": 2 * grid.step},
                             {"direction": "lsc", "delta": 2 * grid.step},
                             {"delta": 3 * grid.step}, {"tol": 0.0}):
        rep, built = built_records(opts, t, grid, within)
        delta = opts.get("delta", grid.step)
        radius = int(delta / grid.step + 1e-9)
        bound, direction = rep.parameters["bound"], opts.get("direction", "usc")
        safe = _checks._safe_pieces(seed_piece_spans(t, pts, values), radius, bound, direction,
                                    {})
        if _checks._decided_whole(t, spans, cells.axes, radius, bound):
            safe = set(spans)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(test_scan_oracle, "seed_hausdorff_upper", excess)
            witnesses, truncated = test_scan_oracle._seed_excess_scan(
                values, pts, _checks._neighbor_offsets(grid.dim, radius), bound, direction)
        want = read_records(records, spans, safe, radius)
        if truncated:
            assert all(want[idx] == r for idx, r in built.items())
        else:
            assert built == want
        assert rep.witnesses == tuple(witnesses)
        assert repr(rep.witnesses) == repr(tuple(witnesses))
        assert ("witness list truncated" in rep.notes) == truncated
        assert rep.parameters["points_checked"] == len(pts)
        sizes.append((len(built), len(pts)))
    return sizes


def assert_same_map(got, want):
    assert got == want
    assert [p.region for p in got.pieces] == [p.region for p in want.pieces]
    assert repr(got.pieces) == repr(want.pieces)


def assert_same_rebuilds(t, d, eps_list, other=None):
    """t_upper, adherence and intersect_maps of ``t`` equal the frozen rebuilds."""
    assert_same_map(adherence(t), seed_adherence(t))
    for eps in eps_list:
        tv = t_upper(t, eps, d)
        assert_same_map(tv, seed_t_upper(t, eps, d))
        assert_same_map(adherence(tv), seed_adherence(tv))
        assert_same_map(intersect_maps(tv, t), seed_intersect_maps(tv, t))
    if other is not None:
        assert_same_map(intersect_maps(t, other), seed_intersect_maps(t, other))
        assert_same_map(intersect_maps(other, t), seed_intersect_maps(other, t))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _gallery_cases():
    t1, d1 = ex2_1()
    tv, dv = ex2_1_variant()
    a, b, d2 = ex2_2()
    e = ex4_1(2)
    e22 = ex2_2_economy()
    cases = [("ex2_1", t1, d1, None), ("ex2_1_variant", tv, dv, t1),
             ("ex2_2_a", a, d2, b), ("ex2_2_b", b, d2, a),
             ("ex2_2_composite", ex2_2_composite(), d2, None),
             ("ex4_1_selection", ex4_1_selection(2), e.agents[0].d_set, None)]
    for econ, tag in ((e, "ex4_1"), (e22, "ex2_2_economy")):
        for i, ag in enumerate(econ.agents):
            cases += [(f"{tag}.a{i}", ag.a_map, ag.d_set, ag.p_map),
                      (f"{tag}.b{i}", ag.b_map, ag.d_set, None),
                      (f"{tag}.conflict{i}", econ.conflict_map(i), ag.d_set, ag.b_map)]
    return cases


GALLERY = _gallery_cases()


def _grid_over(t, step):
    return Grid(t.domain_dim, tuple(iv.lo for iv in t.domain), tuple(iv.hi for iv in t.domain),
                step)


def open_edged(t):
    """``t`` restricted to its domain with the lower end of axis 0 and the
    upper end of the last axis opened."""
    dom = list(t.domain)
    dom[0] = I(dom[0].lo, dom[0].hi, False, dom[0].hi_closed)
    dom[-1] = I(dom[-1].lo, dom[-1].hi, dom[-1].lo_closed, False)
    return restrict(t, tuple(dom))


def random_cases(seed):
    """A ``suites._random_piecewise`` map and its open-edged restriction."""
    t, d, grid = suites._random_piecewise(random.Random(seed))
    return [(t, d, grid), (open_edged(t), d, grid)]


# ---------------------------------------------------------------------------
# Rebuilds equal the frozen full-product rebuilds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,t,d,other", GALLERY, ids=[c[0] for c in GALLERY])
def test_gallery_rebuilds_match_oracle(name, t, d, other):
    assert_same_rebuilds(t, d, (0.5, 0.25), other)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theorem_4_1_construction_rebuilds_match_oracle(n):
    """n = 4 is the construction the symbolic-n4 benchmark rebuilds; one eps
    keeps its full-product oracle to a few seconds."""
    pm = theorem_4_1_construction(ex4_1(n))
    for f, d in zip(pm.factors, pm.d_sets):
        for eps in (0.5,) if n == 4 else (0.5, 0.125):
            tv = t_upper(f, eps, d)
            assert_same_map(tv, seed_t_upper(f, eps, d))
            assert_same_map(adherence(tv), seed_adherence(tv))
        assert_same_map(intersect_maps(f, pm.factors[0]), seed_intersect_maps(f, pm.factors[0]))


def count_calls(monkeypatch, names):
    """A dict of call counts, kept as ``maps`` calls the named functions."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(maps, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in names:
        monkeypatch.setattr(maps, name, counted(name))
    return calls


def test_symbolic_n4_chain_values_each_signature_once(monkeypatch):
    """The ex4_1(4) chain of the symbolic-n4 benchmark values each rebuild
    signature once, and each adherence normalizes each distinct set of
    contributor boxes once. Its four factors are equal, and so are their
    targets, so the chain builds one t_upper adherence per eps and one raw
    adherence; one build per factor made 428 normalize_value, 316
    _intersect_affine_boxes and 416 _intersect_affine_intervals calls.
    With one build per factor, valuing every atom would make 55,532
    normalize_value and 38,416 _intersect_affine_boxes calls, and valuing
    every adherence signature 4,152 normalize_value calls. intersect_maps
    clips a coordinate that reads axes once per index tuple on them, and
    clips the pairs of a part that reads none once, with
    _intersect_affine_boxes; valuing each atom of the parts that read axes
    made 1,340 _intersect_affine_boxes, 1,340 _intersect_affine_intervals
    and 1,404 normalize_value calls. Each of the 3 t_upper adherences
    normalizes at most 3 values and the raw-factor adherence at most 4.
    The counts are deterministic."""
    calls = count_calls(monkeypatch, ("normalize_value", "_intersect_affine_boxes",
                                      "_intersect_affine_intervals"))
    uppers = []
    per_adherence = {"raw": [], "t_upper": []}

    def kept_t_upper(*args):
        uppers.append(t_upper(*args))
        return uppers[-1]

    def counted_adherence(t):
        before = calls["normalize_value"]
        out = adherence(t)
        kind = "t_upper" if any(t is u for u in uppers) else "raw"
        per_adherence[kind].append(calls["normalize_value"] - before)
        return out

    monkeypatch.setattr(fixedpoint, "t_upper", kept_t_upper)
    monkeypatch.setattr(fixedpoint, "adherence", counted_adherence)
    pm = theorem_4_1_construction(ex4_1(4))
    res = intersect_qv_chain(pm, Grid(4, (0.0,) * 4, (2.0,) * 4, 0.5), (0.5, 0.25, 0.125))
    assert calls == {"normalize_value": 182, "_intersect_affine_boxes": 118,
                     "_intersect_affine_intervals": 218}
    assert len(per_adherence["t_upper"]) == 3 and max(per_adherence["t_upper"]) <= 3
    assert len(per_adherence["raw"]) == 1 and max(per_adherence["raw"]) <= 4
    assert res.nested
    assert len(res.intersection) == 624
    assert len(res.certified) == 624


def test_scan_affine_clips_each_coordinate_once_per_index_tuple(monkeypatch):
    """The 150 seed-1 cases of the scan-affine benchmark: each clip
    (S + C) cap K of a one-box affine map equals the frozen rebuild, and a
    coordinate that reads one axis is clipped once per atom on that axis.
    Clipping every coordinate of every atom made 2,226
    _intersect_affine_boxes, 4,452 _intersect_affine_intervals and 2,226
    normalize_value calls."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import affine_inputs

    pairs = []
    for case in affine_inputs.generate(1, 150):
        _, sc, k, _ = affine_inputs.build(case)
        pairs.append((sc, constant_map(case.domain, k)))
    calls = count_calls(monkeypatch, ("normalize_value", "_intersect_affine_boxes",
                                      "_intersect_affine_intervals"))
    clipped = [intersect_maps(sc, target) for sc, target in pairs]
    assert calls == {"normalize_value": 537, "_intersect_affine_boxes": 0,
                     "_intersect_affine_intervals": 1152}
    for (sc, target), m in zip(pairs, clipped):
        assert_same_map(m, seed_intersect_maps(sc, target))


def test_scan_affine_job_decides_296_of_300_usc_calls_whole(monkeypatch):
    """A seed-1 scan-affine job makes 300 check_usc calls, on its seeded
    one-box affine maps and their clips (S + C) cap K, and decides 296 of
    them whole, before any point is visited; every call passes."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    real = _checks._decided_whole
    verdicts = []

    def decided_whole(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(_checks, "_decided_whole", decided_whole)
    raw = workloads.ScanAffine(1).run_job()
    assert all(rep.passed for reps in raw for rep in reps)
    assert (len(verdicts), sum(verdicts)) == (300, 296)


@pytest.mark.parametrize("seed", range(16))
def test_random_rebuilds_match_oracle(seed):
    for t, d, _ in random_cases(seed):
        assert_same_rebuilds(t, d, (0.5, 0.125), constant_map(t.domain, d))


def test_open_domains_keep_their_open_ends():
    t, d, _ = random_cases(3)[1]
    for m in (adherence(t), t_upper(t, 0.5, d), intersect_maps(t, t)):
        assert m.domain == t.domain
        assert not m.domain[0].lo_closed


# ---------------------------------------------------------------------------
# Multi-box and missing targets, open-flag values
# ---------------------------------------------------------------------------

def opened(t, rng):
    """``t`` with every value interval's upper endpoint raised by 1/2 (so no
    slice degenerates) and both flags drawn at random."""
    def open_box(b):
        return tuple(AffineInterval(ai.lo, ai.hi.shift(0.5), rng.random() < 0.5,
                                    rng.random() < 0.5) for ai in b)
    return PiecewiseMap(t.domain, t.codomain_dim, tuple(
        Piece(p.region, normalize_value([open_box(b) for b in p.value], t.domain_dim))
        for p in t.pieces))


def _cube(cod, lo, hi):
    return tuple(I.closed(lo, hi) for _ in range(cod))


def extra_targets(cod):
    """Two disjoint boxes, two boxes a quarter apart (a dilated value meets
    both at eps 1/2), and a box that misses every value. Two touching closed
    boxes are no case of their own: their canonical union is one box in one
    dimension and holds a half-open box, which t_upper rejects, in two."""
    return {"disjoint": BoxSet.of(cod, [_cube(cod, -1.0, -0.25), _cube(cod, 0.5, 1.5)]),
            "near": BoxSet.of(cod, [_cube(cod, -1.0, 0.25), _cube(cod, 0.5, 2.0)]),
            "missing": BoxSet.of(cod, [_cube(cod, 1000.0, 1001.0)])}


@pytest.mark.parametrize("seed", range(16))
def test_multi_box_and_missing_targets_match_oracle(seed):
    rng = random.Random(seed)
    for t, _, _ in random_cases(seed):
        for m in (t, opened(t, rng)):
            for name, d in extra_targets(m.codomain_dim).items():
                assert_same_rebuilds(m, d, (0.5, 0.125), constant_map(m.domain, d))
                if name == "missing":
                    assert all(not p.value for p in t_upper(m, 0.5, d).pieces)
                else:
                    assert len(d.boxes) == 2


@st.composite
def interval_pairs(draw):
    """A flagged region in dims 1-4 and two affine intervals whose endpoints
    are constant or depend on one variable; endpoints tie often."""
    dim = draw(st.integers(min_value=1, max_value=4))
    ends = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))
    region = []
    for _ in range(dim):
        lo = draw(ends)
        hi = draw(ends.filter(lambda h: h >= lo))
        region.append(I.point(lo) if lo == hi else I(lo, hi, draw(st.booleans()),
                                                         draw(st.booleans())))

    def form():
        coeffs = [0.0] * dim
        if draw(st.booleans()):
            coeffs[draw(st.integers(min_value=0, max_value=dim - 1))] = \
                draw(st.sampled_from((-1.0, -0.5, 0.5, 1.0)))
        return AffForm(draw(ends), tuple(coeffs))

    a = AffineInterval(form(), form(), draw(st.booleans()), draw(st.booleans()))
    b_lo = a.lo if draw(st.booleans()) else form()
    b_hi = a.hi if draw(st.booleans()) else form()
    b = AffineInterval(b_lo, b_hi, draw(st.booleans()), draw(st.booleans()))
    return tuple(region), a, b


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the same exception type and message count as equal
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(interval_pairs())
def test_intersect_affine_intervals_matches_frozen_copy(case):
    region, a, b = case
    for x, y in ((a, b), (b, a)):
        assert _outcome(_intersect_affine_intervals, region, x, y) == \
            _outcome(seed_intersect_affine_intervals, region, x, y)


# ---------------------------------------------------------------------------
# intersect_maps clips each coordinate once per index tuple on the axes it
# reads; it must equal the frozen rebuild that values every atom
# ---------------------------------------------------------------------------

def assert_same_outcome(a, b):
    """``intersect_maps(a, b)`` equals the frozen rebuild, or both raise the
    same exception type with the same message."""
    got, want = _outcome(intersect_maps, a, b), _outcome(seed_intersect_maps, a, b)
    if isinstance(want, PiecewiseMap):
        assert isinstance(got, PiecewiseMap), got
        assert_same_map(got, want)
    else:
        assert got == want
    return want


def _one_piece(dom, *coords):
    return PiecewiseMap(dom, len(coords), (Piece(dom, (tuple(coords),)),))


_SQUARE = (I.closed(0, 1), I.closed(0, 1))


def _form(const, *coeffs):
    return AffForm(const, tuple(coeffs))


def _const_iv(lo, hi, dim=2):
    return AffineInterval(AffForm.constant(lo, dim), AffForm.constant(hi, dim))


def test_clip_stops_a_pair_at_its_first_empty_coordinate():
    """Coordinate 0 of a = ([0, 1/4], [x+y, x+y+1]) misses b = ([1/2, 1],
    [1, 3/2]), so the pair never compares x+y with 1, whose sign changes
    along a diagonal; an eager clip of every coordinate would raise. Once
    coordinate 0 meets, both rebuilds raise with the same message."""
    a = _one_piece(_SQUARE, _const_iv(0, 0.25),
                   AffineInterval(_form(0.0, 1.0, 1.0), _form(1.0, 1.0, 1.0)))
    b = _one_piece(_SQUARE, _const_iv(0.5, 1), _const_iv(1, 1.5))
    m = assert_same_outcome(a, b)
    assert [p.value for p in m.pieces] == [()]
    b_meets = _one_piece(_SQUARE, _const_iv(0.1, 1), _const_iv(1, 1.5))
    assert assert_same_outcome(a, b_meets)[0] is NonAxisAlignedSplitError


def test_clip_of_a_coordinate_on_two_axes_with_a_definite_sign():
    """Coordinate 0 of a reads x and y, and its forms keep one sign against
    both pieces of b; coordinate 1 reads x only, and its clip against b's
    first piece changes at x = 1/4. The clipped value keeps the two-axis
    forms."""
    a = _one_piece(_SQUARE, AffineInterval(_form(0.0, 1.0, 1.0), _form(0.5, 1.0, 1.0)),
                   AffineInterval(_form(0.0, 1.0, 0.0), _form(1.0, 1.0, 0.0)))
    b = PiecewiseMap(_SQUARE, 2, (
        Piece((I(0, 0.5, True, False), I.closed(0, 1)),
              ((_const_iv(-1, 5), _const_iv(0.25, 0.75)),)),
        Piece((I.closed(0.5, 1), I.closed(0, 1)),
              ((_const_iv(-1, 3), _const_iv(1.5, 2)),)),
    ))
    m = assert_same_outcome(a, b)
    assert len(m.pieces) == 3
    assert all(len(p.value) == 1 and p.value[0][0] == a.pieces[0].value[0][0]
               for p in m.pieces)
    assert m.evaluate((0.25, 0.5)) == BoxSet.of(2, [(I.closed(0.75, 1.25), I.closed(0.25, 0.75))])
    assert m.evaluate((0.75, 0.5)) == BoxSet.of(2, [(I.closed(1.25, 1.75), I.closed(1.5, 1.75))])


_CONSTS = (-0.5, 0.0, 0.25, 0.5, 1.0)
_SLOPES = (-1.0, -0.5, 0.5, 1.0)


def _random_cells(rng, iv):
    """``iv`` split at up to two of 1/4, 1/2, 3/4; each cut is held by the
    cell on its left or on its right."""
    cells, lo, lo_closed = [], iv.lo, iv.lo_closed
    for c in sorted(rng.sample((0.25, 0.5, 0.75), rng.randint(0, 2))):
        held_left = rng.random() < 0.5
        cells.append(I(lo, c, lo_closed, held_left))
        lo, lo_closed = c, not held_left
    return cells + [I(lo, iv.hi, lo_closed, iv.hi_closed)]


def _random_form(rng, dim, home):
    """Constant, or sloped on axis ``home``, or now and then on another
    axis or on two, where comparisons may change sign along a diagonal."""
    coeffs = [0.0] * dim
    kind = rng.choices(("constant", "home", "other", "two"), (4, 8, 1, 1))[0]
    if kind == "home":
        coeffs[home] = rng.choice(_SLOPES)
    elif kind != "constant":
        for j in rng.sample(range(dim), min(1 if kind == "other" else 2, dim)):
            coeffs[j] = rng.choice(_SLOPES)
    return AffForm(rng.choice(_CONSTS), tuple(coeffs))


def _random_interval(rng, dim, home):
    """Affine endpoints of width at least w0/2 on [0, 1]^dim, so every
    flag pattern is valid; the upper end may slope more on axis ``home``."""
    lo = _random_form(rng, dim, home)
    w0 = rng.choice((0.25, 0.5, 1.0))
    coeffs = list(lo.coeffs)
    if rng.random() < 0.3:
        coeffs[home] += rng.choice((-0.5, 0.5)) * w0
    return AffineInterval(lo, AffForm(lo.const + w0, tuple(coeffs)),
                          rng.random() < 0.5, rng.random() < 0.5)


def _random_affine_map(rng, dom, homes):
    """A map on a product partition of ``dom``: each piece carries the empty
    value or one or two random affine boxes, whose coordinate ``k`` slopes
    mostly on axis ``homes[k]``."""
    pieces = []
    for region in itertools.product(*(_random_cells(rng, iv) for iv in dom)):
        n = 0 if rng.random() < 0.2 else rng.randint(1, 2)
        value = [tuple(_random_interval(rng, len(dom), h) for h in homes) for _ in range(n)]
        pieces.append(Piece(region, normalize_value(value, len(dom))))
    return PiecewiseMap(dom, len(homes), tuple(pieces))


def _random_target(rng, dom, codim):
    """The constant map of one to three random flagged boxes."""
    boxes = []
    for _ in range(rng.randint(1, 3)):
        box = []
        for _ in range(codim):
            lo = rng.choice(_CONSTS)
            box.append(I(lo, lo + rng.choice((0.25, 0.5, 1.0)), rng.random() < 0.5,
                         rng.random() < 0.5))
        boxes.append(tuple(box))
    return constant_map(dom, BoxSet.of(codim, boxes))


def random_intersection_pairs(seed, count):
    """``count`` seeded map pairs in one, two and three dimensions: affine
    against affine, and affine against a multi-box constant target, either
    way round; domains have random end flags."""
    rng = random.Random(seed)
    for n in range(count):
        dim = 1 + n % 3
        dom = tuple(I(0, 1, rng.random() < 0.5, rng.random() < 0.5) for _ in range(dim))
        homes = [rng.randrange(dim) for _ in range(rng.randint(1, 2))]
        a = _random_affine_map(rng, dom, homes)
        kind = rng.randrange(3)
        b = (_random_affine_map(rng, dom, homes) if kind == 0
             else _random_target(rng, dom, len(homes)))
        yield (b, a) if kind == 2 else (a, b)


@pytest.mark.parametrize("seed", range(4))
def test_random_intersections_match_oracle(seed):
    """Each seed compares 500 pairs, so the four compare 2,000 maps or raises."""
    outcomes = [assert_same_outcome(a, b) for a, b in random_intersection_pairs(seed, 500)]
    raised = sum(not isinstance(o, PiecewiseMap) for o in outcomes)
    assert 0 < raised < len(outcomes) // 2


# ---------------------------------------------------------------------------
# The USC scan's piece walk equals the frozen point lookup
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,t,d,other", GALLERY, ids=[c[0] for c in GALLERY])
def test_gallery_scans_match_oracle(name, t, d, other):
    step = 0.25 if t.domain_dim > 1 else 0.0625
    for m in (t, adherence(t_upper(t, 0.5, d))):
        assert_same_scan(m, _grid_over(m, step))
        assert_same_scan(m, _grid_over(m, step), (I(0, 1.5, False, True),) * m.domain_dim)


@pytest.mark.parametrize("seed", range(16))
def test_random_scans_match_oracle(seed):
    for t, d, grid in random_cases(seed):
        lower = tuple(I.closed(iv.lo, (iv.lo + iv.hi) / 2) for iv in t.domain)
        for m in (t, adherence(t_upper(t, 0.5, d))):
            assert_same_scan(m, grid)
            assert_same_scan(m, grid, lower)


def test_scan_skips_grid_points_outside_the_domain():
    t, d, grid = random_cases(5)[1]
    wide = Grid(grid.dim, tuple(v - grid.step for v in grid.lo),
                tuple(v + grid.step for v in grid.hi), grid.step)
    assert_same_scan(t, wide)


def test_scan_rejects_a_grid_of_another_dimension():
    t, _ = ex2_1()
    with pytest.raises(ValueError):
        check_usc(t, Grid(2, (0.5, 0.5), (1.5, 1.5), 0.5))


# ---------------------------------------------------------------------------
# canonical_boxes equals the frozen copy
# ---------------------------------------------------------------------------

@st.composite
def flagged_boxes(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    # few distinct endpoints keep 5-D atomizations small
    ends = st.integers(min_value=0, max_value=4 if dim <= 3 else 2).map(lambda k: k / 2)
    n = draw(st.integers(min_value=0, max_value=5 if dim <= 3 else 3))
    boxes = []
    for _ in range(n):
        box = []
        for _ in range(dim):
            lo = draw(ends)
            hi = draw(ends.filter(lambda h: h >= lo))
            if lo == hi:
                box.append(I.point(lo))
            else:
                box.append(I(lo, hi, draw(st.booleans()), draw(st.booleans())))
        boxes.append(tuple(box))
    return dim, boxes


@settings(max_examples=200, deadline=None)
@given(flagged_boxes())
def test_canonical_boxes_match_frozen_copy(case):
    dim, boxes = case
    assert canonical_boxes(dim, boxes) == seed_canonical_boxes(dim, boxes)


# ---------------------------------------------------------------------------
# One value per constant piece
# ---------------------------------------------------------------------------

def _mixed_map():
    dom = (I.closed(0, 2),)
    ramp = ((AffineInterval(AffForm(0.0, (1.0,)), AffForm(1.0, (1.0,))),),)
    const = ((AffineInterval(AffForm.constant(0.5, 1), AffForm.constant(1.5, 1)),),)
    return PiecewiseMap(dom, 1, (
        Piece((I(0, 1, True, False),), const),
        Piece((I.closed(1, 1.5),), ramp),
        Piece((I(1.5, 2, False, True),), ()),
    ))


def test_constant_piece_value_is_built_once():
    t = _mixed_map()
    first = t.evaluate((0.25,))
    assert t.evaluate((0.75,)) is first
    assert first == BoxSet.of(1, [(I.closed(0.5, 1.5),)])
    assert t.evaluate((1.75,)) is t.evaluate((2.0,))
    assert t.evaluate((2.0,)).is_empty


def test_affine_pieces_are_valued_fresh_at_every_point():
    t = _mixed_map()
    for x in (1.0, 1.25, 1.5, 1.25):
        assert t.evaluate((x,)) == BoxSet.of(1, [(I.closed(x, x + 1),)])
    assert 1 not in t._constant_values
    assert t.value_on(1, (1.125,)) == BoxSet.of(1, [(I.closed(1.125, 2.125),)])


def test_value_memo_holds_at_most_one_value_per_piece():
    for t in (_mixed_map(), ex4_1(2).conflict_map(0),
              adherence(t_upper(ex4_1(2).agents[1].b_map, 0.5, ex4_1(2).agents[1].d_set))):
        grid = _grid_over(t, 0.125)
        check_usc(t, grid)
        for p in grid.points():
            if box_contains(t.domain, p):
                t.evaluate(p)
        assert 0 < len(t._constant_values) <= len(t.pieces)
        assert all(0 <= i < len(t.pieces) for i in t._constant_values)


def test_memo_is_not_part_of_map_equality():
    t = _mixed_map()
    t.evaluate((0.5,))
    assert t == _mixed_map()
    assert hash(t) == hash(_mixed_map())


def test_replaced_map_starts_with_an_empty_memo():
    """A copy made by ``dataclasses.replace`` values its own pieces: piece
    1's value [1, 2) put on piece 0 is what the copy has at 0.5, not the
    (0, 1) the original memoized there."""
    t, _ = ex2_1()
    assert t.evaluate((0.5,)) == BoxSet.of(1, [(I.open(0, 1),)])
    moved = dataclasses.replace(t, pieces=(Piece(t.pieces[0].region, t.pieces[1].value),
                                           t.pieces[1]))
    assert moved.evaluate((0.5,)) == BoxSet.of(1, [(I(1, 2, True, False),)])
    assert t.evaluate((0.5,)) == BoxSet.of(1, [(I.open(0, 1),)])


# ---------------------------------------------------------------------------
# Empty, affine and constant pieces side by side
# ---------------------------------------------------------------------------

def _square_map():
    """[0, 2]^2 with a constant, an affine and an empty piece side by side."""
    dom = (I.closed(0, 2), I.closed(0, 2))
    const = ((AffineInterval(AffForm.constant(0.5, 2), AffForm.constant(1.5, 2)),),)
    ramp = ((AffineInterval(AffForm(0.0, (0.0, 1.0)), AffForm(1.0, (0.0, 1.0))),),)
    return PiecewiseMap(dom, 1, (
        Piece((I(0, 1, True, False), I.closed(0, 2)), const),
        Piece((I.closed(1, 2), I.closed(0, 1)), ramp),
        Piece((I.closed(1, 2), I(1, 2, False, True)), ()),
    ))


def _thin_map():
    """[0, 2] with a one-point constant piece at 1 between a wider constant
    value and an empty piece, and an affine piece beyond."""
    dom = (I.closed(0, 2),)
    ramp = ((AffineInterval(AffForm(0.0, (1.0,)), AffForm(1.0, (1.0,))),),)

    def const(lo, hi):
        return ((AffineInterval(AffForm.constant(lo, 1), AffForm.constant(hi, 1)),),)

    return PiecewiseMap(dom, 1, (
        Piece((I(0, 1, True, False),), const(0, 2)),
        Piece((I.closed(1.5, 2),), ramp),
        Piece((I(1, 1.5, False, False),), ()),
        Piece((I.point(1),), const(0, 1)),
    ))


@pytest.mark.parametrize("t,step,drop_affine,drop_empty", [
    (_mixed_map(), 0.125, (I(0, 1, True, False),), (I.closed(0, 1.5),)),
    (_square_map(), 0.25, (I.closed(0, 2), I(1, 2, False, True)),
     (I.closed(0, 2), I.closed(0, 1))),
    (_thin_map(), 0.125, (I(0, 1.5, True, False),), (I.closed(0, 1),)),
], ids=["line", "square", "thin"])
def test_mixed_piece_scans_match_oracle(t, step, drop_affine, drop_empty):
    """Empty next to nonempty and affine next to constant pieces, a one-point
    piece whose two sides are two grid steps apart, and ``within`` boxes that
    hold no grid point of the affine or of the empty piece."""
    grid = _grid_over(t, step)
    for m in (t, adherence(t), adherence(t_upper(t, 0.5, BoxSet.single((I.closed(0, 2),))))):
        for within in (None, drop_affine, drop_empty):
            assert_same_scan(m, grid, within)
    for within, piece in ((drop_affine, 1), (drop_empty, 2)):
        kept = [x for x in grid.points() if box_contains(within, x)]
        assert not any(box_contains(t.pieces[piece].region, x) for x in kept)
        assert any(box_contains(t.pieces[piece].region, x) for x in grid.points())


# ---------------------------------------------------------------------------
# Point records only near unsafe and affine pieces
# ---------------------------------------------------------------------------

STRIP_GRID = Grid(2, (0.0, 0.0), (6.0, 1.0), 0.25)
_STRIP_REGIONS = (I(0, 1.5, True, False), I(1.5, 3, True, False), I.point(3),
                  I(3, 4.5, False, True), I(4.5, 6, False, True))


def _strip_value(kind):
    def const(lo, hi):
        return ((AffineInterval(AffForm.constant(lo, 2), AffForm.constant(hi, 2)),),)

    ramp = AffForm(0.0, (0.25, 0.0))
    return {"base": const(0, 1), "wider": const(0, 2), "narrower": const(0.25, 1), "empty": (),
            "ramp": ((AffineInterval(ramp, ramp.shift(1.0)),),)}[kind]


def strip_map(kind, k):
    """[0, 6] x [0, 1] in five strips along axis 0, the middle one the line
    x0 = 3. Every strip has the value [0, 1] but strip ``k``, whose value is
    of the given kind: wider, narrower, empty or an affine ramp."""
    return PiecewiseMap((I.closed(0, 6), I.closed(0, 1)), 1, tuple(
        Piece((r, I.closed(0, 1)), _strip_value(kind if j == k else "base"))
        for j, r in enumerate(_STRIP_REGIONS)))


def _strip_variants(step):
    return [{"delta": r * step, "direction": d, **tol}
            for r in (1, 2, 3) for d in ("usc", "lsc") for tol in ({}, {"tol": 0.0})]


@pytest.mark.parametrize("kind", ["wider", "narrower", "empty", "ramp"])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_records_near_one_unsafe_or_affine_strip_match_oracle(kind, k):
    """One unsafe constant or affine strip among safe ones, at radius 1 to
    3, in both directions, at tol=0 and within boxes: the reports equal the
    point-pair oracle's, and the records are the frozen lookup's near the
    unsafe and affine strips. A box without the odd strip leaves every
    strip safe, and the scan then builds no record."""
    t = strip_map(kind, k)
    grid = STRIP_GRID
    variants = _strip_variants(grid.step)
    odd = _STRIP_REGIONS[k]
    withins = [None, (I(0.5, 5, False, True), I.closed(0, 1)),
               (I(odd.hi, 6, False, True) if k < 4 else I(0, odd.lo, True, False),
                I.closed(0, 1))]
    sizes = []
    for within in withins:
        for opts in variants:
            assert_same_report(t, grid, within=within, **opts)
        sizes += assert_same_scan(t, grid, within, variants)
    assert any(0 < built < points for built, points in sizes)
    # the last box holds no point of the odd strip
    assert all(built == 0 < points for built, points in sizes[-len(variants):])


def test_all_safe_pieces_build_no_record_and_walk_no_point(monkeypatch):
    t = strip_map("base", 0)
    grid = STRIP_GRID

    def no_walk(*args, **kwargs):
        raise AssertionError("points walked")

    monkeypatch.setattr(_checks.GridCells, "points", no_walk)
    for opts in _strip_variants(grid.step):
        rep = check_usc(t, grid, **opts)
        assert rep.passed
        assert rep.parameters["points_checked"] == grid.point_count()


def _two_ramps():
    """[0, 2] x [0, 1] cut at x0 = 1 into two affine pieces that jump at the
    cut: the ramp [x0/2, x0/2 + 1] left of it and the ramp [x1/4 + 1,
    x1/4 + 2] right of it."""
    left, right = AffForm(0.0, (0.5, 0.0)), AffForm(1.0, (0.0, 0.25))
    return PiecewiseMap((I.closed(0, 2), I.closed(0, 1)), 1, (
        Piece((I(0, 1, True, False), I.closed(0, 1)), ((AffineInterval(left, left.shift(1.0)),),)),
        Piece((I.closed(1, 2), I.closed(0, 1)), ((AffineInterval(right, right.shift(1.0)),),)),
    ))


def test_two_affine_pieces_that_jump_at_a_face_take_the_point_scan():
    """The two ramps disagree at the cut, so the map is not decided whole,
    and neither piece is constant: at every radius, in both directions and
    at tol=0, every grid point is a centre, in lexicographic order, up to
    the 33rd witness, where the walk stops, and the scan builds the records
    of those centres and of the neighbours they read; the reports equal the
    point-pair oracle's."""
    t = _two_ramps()
    grid = Grid(2, (0.0, 0.0), (2.0, 1.0), 0.125)
    points = {(i, j) for i in range(17) for j in range(9)}
    variants = _strip_variants(grid.step)
    for opts in variants:
        rep = assert_same_report(t, grid, **opts)
        _, built = built_records(opts, t, grid, None)
        cells = _checks.GridCells((t,), grid)
        spans, _ = _checks._piece_spans(cells)
        radius = round(opts["delta"] / grid.step)
        full = list(_checks._excess_witnesses(
            cells, spans, set(), _checks._neighbor_offsets(2, radius),
            rep.parameters["bound"], opts["direction"], {}))
        stop = full[_checks._MAX_WITNESSES]
        last, near = (tuple(round(v / grid.step) for v in x) for x in (stop.point, stop.neighbor))
        offsets = list(itertools.product(range(-radius, radius + 1), repeat=2))
        read = {(i + a, j + b) for i, j in points if (i, j) < last for a, b in offsets}
        # the last centre reads its neighbours up to the 33rd witness's
        read.add(last)
        for off in _checks._neighbor_offsets(2, radius):
            idx = tuple(map(operator.add, last, off))
            read.add(idx)
            if idx == near:
                break
        assert set(built) == read & points
    assert_same_scan(t, grid, None, variants)
