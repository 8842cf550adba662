"""Acceptance gate: one test and one printed verdict line per requirement.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import time

from boxcorr import Grid, ProductMap, intersect_qv_chain, suites
from boxcorr.fixedpoint import fixed_points_of_approximation
from boxcorr.gallery import ex2_1, ex4_1, theorem_4_1_construction

from test_fixedpoint import brute_qv, single_doc


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")


def test_first_example_golden_under_one_second():
    t0 = time.perf_counter()
    rep = suites.golden_example_2_1(step=1 / 64)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 1.0
    report("dilated-clip values and their usc on the first bundled map", ok)
    assert rep.passed, [r.property_name for r in rep.walk() if not r.passed]
    assert elapsed < 1.0, elapsed


def test_second_example_golden():
    rep = suites.golden_example_2_2(step=1 / 64)
    report("dual-pair composite collapses to the constant {2}", rep.passed)
    assert rep.passed, [r.property_name for r in rep.walk() if not r.passed]


def test_equilibrium_example_golden_under_ten_seconds():
    t0 = time.perf_counter()
    rep = suites.golden_example_4_1(step=0.125)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    report("hypothesis check, certificate, and search on the bundled economy", ok)
    assert rep.passed, [r.property_name for r in rep.walk() if not r.passed]
    assert elapsed < 10.0, elapsed


def test_chain_containment_suite():
    rep = suites.lemma_2_2_suite(chain=(1.0, 0.5, 0.25, 0.125))
    exact_builtins = all(c.parameters["radius"] == 0.0 for c in rep.children[:3])
    ok = rep.passed and exact_builtins
    report("chain intersections stay inside the adherent values (3 built-in "
           "+ 50 random maps)", ok)
    assert rep.passed, [r.property_name for r in rep.walk() if not r.passed]
    assert exact_builtins


def test_sum_intersection_usc_suite():
    rep = suites.lemma_2_1_suite()
    report("clipped sums of 20 random usc maps stay usc", rep.passed)
    assert rep.passed, [r.property_name for r in rep.walk() if not r.passed]


def test_fixed_point_scheme_with_independent_oracle():
    rep = suites.theorem_3_1_suite()
    scheme_ok = rep.passed

    # single factor: the chain certifies exactly the target point, and a
    # piece-enumeration oracle recomputes every approximate set from the
    # serialized document
    t1, d = ex2_1()
    grid1 = Grid(1, (0.125,), (1.875,), 0.125)
    doc1 = single_doc(t1, d)
    res1 = intersect_qv_chain(ProductMap.from_doc(doc1), grid1)
    single_ok = res1.certified == ((1.0,),) and res1.nested
    oracle1_ok = all(
        brute_qv(doc1, eps, grid1)
        == set(fixed_points_of_approximation(ProductMap.from_doc(doc1), eps,
                                             grid1).points)
        for eps in res1.eps_chain)

    # construction over the bundled economy: a certified point lands within
    # one grid step of (1.5, 1.5)
    doc2 = theorem_4_1_construction(ex4_1(2)).to_doc()
    grid2 = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.125)
    res2 = intersect_qv_chain(ProductMap.from_doc(doc2), grid2,
                              (0.5, 0.25, 0.125))
    near_ok = res2.nested and any(
        max(abs(a - 1.5), abs(b - 1.5)) <= 0.125 + 1e-12
        for a, b in res2.certified)
    oracle2_ok = all(
        brute_qv(doc2, eps, grid2)
        == set(fixed_points_of_approximation(ProductMap.from_doc(doc2), eps,
                                             grid2).points)
        for eps in res2.eps_chain)

    ok = scheme_ok and single_ok and near_ok and oracle1_ok and oracle2_ok
    report("approximation chains certify fixed points and match the "
           "brute-force oracle", ok)
    assert scheme_ok, [r.property_name for r in rep.walk() if not r.passed]
    assert single_ok and near_ok
    assert oracle1_ok and oracle2_ok


def test_radner_pipeline():
    rep = suites.radner_suite(tol=1e-9)
    names = {c.property_name: c.passed for c in rep.children}
    ok = rep.passed and names["constraint-inclusion"] and names["certificates-clear"]
    report("information economy conversion: constraint inclusion and "
           "market-clearing certificates", ok)
    assert rep.passed, [r.property_name for r in rep.walk() if not r.passed]


def test_reproduce_paper_under_sixty_seconds():
    t0 = time.perf_counter()
    rep = suites.reproduce_paper()
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 60.0
    report("full golden suite end to end", ok)
    assert rep.passed, [r.property_name for r in rep.walk() if not r.passed]
    assert elapsed < 60.0, elapsed
