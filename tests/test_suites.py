"""The documented example suites and the random property suites."""

from __future__ import annotations

import math
import random

import pytest

from boxcorr import suites
from boxcorr.affine import AffForm, AffineInterval
from boxcorr.checks import FAIL, PASS, CheckReport, GridCells, Witness
from boxcorr.intervals import BoxSet, FlaggedInterval, Grid
from boxcorr.maps import Piece, PiecewiseMap, adherence, constant_map, t_upper


def verdicts(rep):
    return {r.property_name: r.verdict for r in rep.walk()}


def test_golden_first_example_passes_and_refutes_base_usc():
    rep = suites.golden_example_2_1()
    assert rep.passed
    v = verdicts(rep)
    assert v["original-usc-refuted"] == "pass"
    assert v["t-upper-constant@eps=0.1"] == "pass"
    assert v["adherence-usc@eps=1"] == "pass"
    assert rep.parameters["eps"] == [0.1, 0.5, 1.0]


def test_golden_first_example_tracks_coarser_grid():
    rep = suites.golden_example_2_1(step=0.125)
    assert rep.passed
    assert rep.parameters["step"] == 0.125


def test_golden_second_example_pre_adherence_hole():
    rep = suites.golden_example_2_2()
    assert rep.passed
    v = verdicts(rep)
    assert v["pre-adherence-at-1@eps=0.5"] == "pass"
    assert v["pre-adherence-at-1@eps=2.5"] == "pass"
    assert rep.parameters["eps"] == [0.5, 2.5]


def test_golden_equilibrium_example():
    rep = suites.golden_example_4_1()
    assert rep.passed
    names = {r.property_name for r in rep.walk()}
    assert "equilibrium-at-known-point" in names
    assert "search-equilibria" in names
    assert rep.parameters["eps"] == [0.5, 2.0, 4.0]


def test_golden_selection_theorem():
    rep = suites.golden_theorem_4_3()
    assert rep.passed


def test_fixed_point_scheme_children():
    rep = suites.theorem_3_1_suite()
    assert rep.passed
    names = [c.property_name for c in rep.children]
    assert names == ["single-factor-chain", "composite-chain",
                     "construction-chain"]


def test_sum_intersection_suite_deterministic():
    a = suites.lemma_2_1_suite()
    b = suites.lemma_2_1_suite()
    assert a.passed and b.passed
    assert verdicts(a) == verdicts(b)
    assert [c.parameters for c in a.children] == [c.parameters for c in b.children]
    assert len(a.children) == 40  # base-usc plus sum-clip-usc per map
    assert (a.parameters["count"], a.parameters["seed"]) == (20, 20240815)


def test_chain_containment_suite():
    rep = suites.lemma_2_2_suite()
    assert rep.passed
    assert (rep.parameters["count"], rep.parameters["seed"]) == (50, 20240815)
    names = [c.property_name for c in rep.children]
    assert names[:3] == ["builtin-first", "builtin-variant", "builtin-composite"]
    assert len(names) == 53
    # built-ins run at radius zero, random instances at the surrogate radius
    for c in rep.children[:3]:
        assert c.parameters["radius"] == 0.0
    for c in rep.children[3:]:
        assert c.parameters["radius"] > 0.0


def seed_chain_containment(name, dilated, reference, clip, grid, radius):
    """The chain containment as a per-point loop: every map is valued with
    ``evaluate`` at every grid point."""
    bar = adherence(reference)
    pad = clip.dilate(radius).closure() if clip is not None and radius > 0 else clip
    wit = []
    nonempty = 0
    for x in grid.points():
        inter = dilated[0].evaluate(x)
        for tm in dilated[1:]:
            inter = inter.intersect(tm.evaluate(x))
        if inter.is_empty:
            continue
        nonempty += 1
        tv = bar.evaluate(x)
        if pad is not None:
            tv = tv.intersect(pad)
        if radius > 0:
            tv = tv.dilate(radius).closure()
        if not inter.subset_within(tv, 0.0):
            ex = math.inf if tv.is_empty else inter.hausdorff_upper(tv)
            wit.append(Witness(x, None, ex, "chain value escapes the reference"))
    return CheckReport(name, PASS if not wit else FAIL, tuple(wit[:8]),
                       {"radius": radius, "grid_points": grid.point_count(),
                        "nonempty_points": nonempty})


def test_chain_containment_matches_frozen_loop(monkeypatch):
    """Every containment of the suite, built-ins and seeded random maps,
    equals the per-point loop; the random maps are also compared at radius
    0, where the finite chain's fuzz yields witnesses."""
    walk = suites._chain_containment
    names, failed = [], 0

    def same(*args):
        got, want = walk(*args), seed_chain_containment(*args)
        assert got == want
        assert repr(got) == repr(want)
        return got

    def compared(name, dilated, reference, clip, grid, radius):
        nonlocal failed
        names.append(name)
        if radius:
            failed += same(name, dilated, reference, clip, grid, 0.0).verdict == FAIL
        return same(name, dilated, reference, clip, grid, radius)

    monkeypatch.setattr(suites, "_chain_containment", compared)
    assert suites.lemma_2_2_suite().passed
    assert names == ["builtin-first", "builtin-variant", "builtin-composite"] + \
        [f"random{k}" for k in range(50)]
    assert failed >= 5


SUITE_CHAIN = (1.0, 0.5, 0.25, 0.125)


def count_valued_points(monkeypatch) -> list:
    """The points ``_chain_containment`` values one by one: those at which
    the probe of its ``GridCells.witnesses`` walk reads a map's value."""
    valued, reads = [], []
    real_value_on, real_witnesses = PiecewiseMap.value_on, GridCells.witnesses

    def value_on(t, i, x):
        reads.append(x)
        return real_value_on(t, i, x)

    def witnesses(cells, passes, probe):
        def recorded(idx, x, pieces):
            before = len(reads)
            yield from probe(idx, x, pieces)
            if len(reads) > before:
                valued.append(x)
        return real_witnesses(cells, passes, recorded)

    monkeypatch.setattr(PiecewiseMap, "value_on", value_on)
    monkeypatch.setattr(GridCells, "witnesses", witnesses)
    return valued


def _constant(lo, hi, dim):
    """The piece value of the one closed box [lo, hi] in one coordinate."""
    return ((AffineInterval(AffForm.constant(lo, dim), AffForm.constant(hi, dim), True, True),),)


def _interval(lo, hi, hi_closed=True):
    return FlaggedInterval(lo, hi, True, hi_closed)


@pytest.mark.parametrize("clip,radius", [(None, 0.0), (0.25, 0.25)])
def test_constant_chain_escaping_on_several_cells(monkeypatch, clip, radius):
    """A tuple of constant pieces that escapes the reference spans two cells
    of the cell table, with a passing cell between them in point order; its
    36 failing points give the frozen loop's first 8 witnesses, in the same
    order and with the same excess, and no point is valued one by one."""
    dom = (_interval(0.0, 2.0), _interval(0.0, 2.0))
    first = PiecewiseMap(dom, 1, (
        Piece((_interval(0.0, 2.0), _interval(0.0, 1.0, False)), _constant(0.0, 1.0, 2)),
        Piece((_interval(0.0, 0.25, False), _interval(1.0, 2.0)), _constant(0.0, 0.5, 2)),
        Piece((_interval(0.25, 2.0), _interval(1.0, 2.0)), _constant(0.0, 0.5, 2))))
    wide = constant_map(dom, BoxSet.of(1, [(_interval(-1.0, 3.0),)]))
    reference = constant_map(dom, BoxSet.of(1, [(_interval(0.0, 0.5),)]))
    target = None if clip is None else BoxSet.of(1, [(_interval(0.0, clip),)])
    grid = Grid.over_box(dom, 0.25)
    args = ("constant", [first, wide], reference, target, grid, radius)
    valued = count_valued_points(monkeypatch)
    got = suites._chain_containment(*args)
    want = seed_chain_containment(*args)
    assert repr(got) == repr(want)
    assert valued == []
    assert got.verdict == FAIL and got.parameters["nonempty_points"] == 81
    assert [w.point for w in got.witnesses] == [(0.0, 0.0), (0.0, 0.25), (0.0, 0.5), (0.0, 0.75),
                                                (0.25, 0.0), (0.25, 0.25), (0.25, 0.5),
                                                (0.25, 0.75)]
    assert {w.excess for w in got.witnesses} == {0.5 - radius}


def test_empty_constant_chain_piece_next_to_affine_pieces(monkeypatch):
    """On [0, 1/2) a constant chain value is empty, and on [1/2, 1) two
    constant ones do not meet; an affine chain map and an affine reference
    cover both. Those cells count no nonempty point and value no point:
    only the 9 grid points of [1, 2] are valued one by one."""
    dom = (_interval(0.0, 2.0),)
    ramp = ((AffineInterval(AffForm(0.0, (1.0,)), AffForm(1.0, (1.0,)), True, True),),)
    first = PiecewiseMap(dom, 1, (Piece((_interval(0.0, 0.5, False),), ()),
                                  Piece((_interval(0.5, 1.0, False),), _constant(0.0, 1.0, 1)),
                                  Piece((_interval(1.0, 2.0),), _constant(0.0, 3.0, 1))))
    second = PiecewiseMap(dom, 1, (Piece((_interval(0.0, 1.0, False),), _constant(2.0, 3.0, 1)),
                                   Piece((_interval(1.0, 2.0),), _constant(0.0, 3.0, 1))))
    third = PiecewiseMap(dom, 1, (Piece(dom, ramp),))
    args = ("empty-piece", [first, second, third], third, None, Grid.over_box(dom, 0.125), 0.0)
    valued = count_valued_points(monkeypatch)
    got = suites._chain_containment(*args)
    assert repr(got) == repr(seed_chain_containment(*args))
    assert got.passed and got.parameters["nonempty_points"] == 9
    assert valued == [(1.0 + k / 8,) for k in range(9)]


def test_chain_containment_matches_frozen_loop_on_seeded_chains():
    """200 seeded random chains, some without a target set, at radius 0 and
    at the suite's radius: the reports equal the per-point loop's."""
    rng = random.Random(2029)
    failed = 0
    for k in range(200):
        t, d, grid = suites._random_piecewise(rng)
        dilated = [adherence(t_upper(t, e, d)) for e in SUITE_CHAIN]
        clip = d if k % 4 else None
        for radius in (0.0, min(SUITE_CHAIN) + grid.step):
            args = (f"seeded{k}", dilated, t, clip, grid, radius)
            got = suites._chain_containment(*args)
            assert repr(got) == repr(seed_chain_containment(*args)), (k, radius)
            failed += got.verdict == FAIL
    assert failed > 50


def test_suite_random_maps_at_radius_zero_fail_as_the_frozen_loop():
    """Negative control: without the surrogate radius, the finite chain's
    fuzz fails exactly 31 of the suite's 50 random maps, and each report
    equals the per-point loop's."""
    rng = random.Random(suites.DEFAULT_SEED)
    failing = []
    for k in range(50):
        t, d, grid = suites._random_piecewise(rng)
        args = (f"random{k}", [adherence(t_upper(t, e, d)) for e in SUITE_CHAIN], t, d, grid, 0.0)
        got = suites._chain_containment(*args)
        assert repr(got) == repr(seed_chain_containment(*args)), k
        failing += [k] if got.verdict == FAIL else []
    assert len(failing) == 31


def test_chain_containment_builds_only_the_witnesses_it_keeps(monkeypatch):
    """On the suite's 50 random maps at radius 0 the walk runs to its end,
    for the nonempty count, but builds at most the 8 witnesses it keeps
    per map; each report equals the per-point loop's."""
    rng = random.Random(suites.DEFAULT_SEED)
    cases = []
    for k in range(50):
        t, d, grid = suites._random_piecewise(rng)
        cases.append((f"random{k}", [adherence(t_upper(t, e, d)) for e in SUITE_CHAIN], t, d,
                      grid, 0.0))
    built = [0]

    def witness(*args):
        built[0] += 1
        return Witness(*args)

    monkeypatch.setattr(suites, "Witness", witness)
    for args in cases:
        before = built[0]
        got = suites._chain_containment(*args)
        assert built[0] - before == len(got.witnesses) <= 8
        assert repr(got) == repr(seed_chain_containment(*args))
    assert built[0] == 217


def test_chain_containment_values_only_undecided_points(monkeypatch):
    """Of the suite's 2,775 grid points, only the 351 on piece tuples that
    are neither all constant nor empty by their constant chain pieces are
    valued one by one; the counts the records show stay the same."""
    valued = count_valued_points(monkeypatch)
    rep = suites.lemma_2_2_suite()
    assert rep.passed
    assert len(valued) == 351
    assert sum(c.parameters["grid_points"] for c in rep.children) == 2775
    assert sum(c.parameters["nonempty_points"] for c in rep.children) == 1364


def test_radner_pipeline_suite():
    rep = suites.radner_suite()
    assert rep.passed
    names = [c.property_name for c in rep.children]
    assert names == ["constraint-inclusion", "certificates-clear",
                     "autarky-equilibrium"]
    assert rep.parameters["alloc_step"] == 0.125
    assert rep.parameters["simplex_resolution"] == 8


def test_reproduce_paper_step_guard():
    with pytest.raises(ValueError, match="divide"):
        suites.reproduce_paper(step=0.3)


@pytest.mark.parametrize("step", [0, -0.25, math.inf, math.nan])
def test_reproduce_paper_rejects_a_step_that_is_not_finite_and_positive(step):
    with pytest.raises(ValueError, match="step must divide 1/2"):
        suites.reproduce_paper(step=step)


def test_reproduce_paper_coarse_step():
    rep = suites.reproduce_paper(step=0.5)
    assert rep.passed
    names = [c.property_name for c in rep.children]
    assert names == ["example-2.1", "example-2.2", "example-4.1",
                     "hypotheses-4.3", "fixed-point-scheme",
                     "sum-intersection-usc", "chain-containment",
                     "info-economy-pipeline"]
