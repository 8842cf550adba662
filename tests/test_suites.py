"""The documented example suites and the random property suites."""

from __future__ import annotations

import math

import pytest

from boxcorr import suites
from boxcorr.checks import FAIL, PASS, CheckReport, Witness
from boxcorr.maps import adherence


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
