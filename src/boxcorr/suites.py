"""Golden-value runners and randomized property suites.

Each runner recomputes a documented object from scratch and compares it
against its known exact value, returning a CheckReport tree. The random
suites draw dyadic-endpoint maps from seeded generators whose constraints
(single closed boxes where noted, nonempty intersections on the grid)
make the checked containments hold by construction, so a failure always
indicates an implementation bug rather than sampling noise.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import time
from typing import Sequence

from .affine import AffForm, AffineInterval
from .checks import (FAIL, PASS, CheckReport, GridCells, Witness, check_usc, combine_reports,
                     scan_values)
from .economy import (check_theorem_4_1_hypotheses, check_theorem_4_3_hypotheses,
                      search_equilibria, verify_equilibrium)
from .fixedpoint import ProductMap, intersect_qv_chain
from .gallery import (ex2_1, ex2_1_variant, ex2_2, ex2_2_composite, ex4_1,
                      ex4_1_selection, theorem_4_1_construction)
from .intervals import Box, BoxSet, FlaggedInterval, Grid
from .maps import (Piece, PiecewiseMap, adherence, constant_map, intersect_maps,
                   t_upper)
from .radner import (PriceSimplex, radner_toy, remark_4_3_inclusion,
                     to_abstract_economy, verify_market_clearing)

DEFAULT_SEED = 20240815

_DYADIC = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)


def _open_interval_grid(step: float) -> Grid:
    """Grid over the open interval (0,2) used by the one-dimensional examples."""
    return Grid(1, (step,), (2.0 - step,), step)


def _constant_target(v: float) -> BoxSet:
    return BoxSet.of(1, [(FlaggedInterval.point(v),)])


def _value_scan(t: PiecewiseMap, grid: Grid, target: BoxSet, name: str) -> CheckReport:
    def probe(got):
        if got != target:
            ex = math.inf if got.is_empty else got.hausdorff_upper(target)
            yield ex, "value differs from the stated one", ""

    rep = scan_values(name, (t,), grid, probe, {"grid_points": grid.point_count()})
    return dataclasses.replace(rep, witnesses=rep.witnesses[:8])


# ---------------------------------------------------------------------------
# Golden examples
# ---------------------------------------------------------------------------

def golden_example_2_1(step: float = 1 / 64, tol: float = 1e-9) -> CheckReport:
    """The dilated-and-clipped map is constantly {1} and its adherence is
    USC with zero excess, while the base map fails the grid check at the
    jump point."""
    t0 = time.perf_counter()
    t1, d = ex2_1()
    grid = _open_interval_grid(step)
    target = _constant_target(1.0)
    eps_list = (0.1, 0.5, 1.0)
    children = []
    for eps in eps_list:
        tv = t_upper(t1, eps, d)
        children.append(_value_scan(tv, grid, target,
                                    f"t-upper-constant@eps={eps:g}"))
        children.append(check_usc(adherence(tv), grid, tol=0.0,
                                  property_name=f"adherence-usc@eps={eps:g}"))
    inner = check_usc(t1, grid, tol=tol)
    near = tuple(w for w in inner.witnesses
                 if abs(w.point[0] - 1.0) <= step + tol)
    children.append(CheckReport(
        "original-usc-refuted",
        PASS if inner.verdict == FAIL and near else FAIL, near[:4],
        {"witness_count": len(inner.witnesses)},
        ("the base map must fail the grid check within one step of x=1",)))
    return combine_reports("example-2.1", children,
                           {"step": step, "eps": list(eps_list),
                            "runtime_s": time.perf_counter() - t0})


def golden_example_2_2(step: float = 1 / 64) -> CheckReport:
    """Adherence of the dilated composite is constantly {2}; the value at
    x=1 before adherence is empty exactly when the dilation is too small
    to reach the clipped band."""
    t0 = time.perf_counter()
    t1, t2, d = ex2_2()
    grid = _open_interval_grid(step)
    target = _constant_target(2.0)
    eps_list = (0.5, 2.5)
    children = []
    for eps in eps_list:
        comp = intersect_maps(t_upper(t1, eps, d), t2)
        children.append(_value_scan(adherence(comp), grid, target,
                                    f"adherence-constant@eps={eps:g}"))
        at_one = comp.evaluate((1.0,))
        expected_empty = 4.0 - eps >= 3.0
        ok = at_one.is_empty == expected_empty
        children.append(CheckReport(
            f"pre-adherence-at-1@eps={eps:g}", PASS if ok else FAIL,
            () if ok else (Witness((1.0,), None, math.inf,
                                   "emptiness differs from the stated one"),),
            {"empty": at_one.is_empty, "expected_empty": expected_empty}))
    return combine_reports("example-2.2", children,
                           {"step": step, "eps": list(eps_list),
                            "runtime_s": time.perf_counter() - t0})


def largest_grid(step: float) -> Grid:
    """The largest grid ``reproduce_paper(step)`` walks: the one of
    Example 4.1's hypothesis check, over [0, 4]^2."""
    return Grid(2, (0.0, 0.0), (4.0, 4.0), step)


def golden_example_4_1(step: float = 0.125, tol: float = 1e-9) -> CheckReport:
    """Full hypothesis check, the known equilibrium, and the grid search."""
    t0 = time.perf_counter()
    e = ex4_1(2)
    eps_list = (0.5, 2.0, 4.0)
    hyp = check_theorem_4_1_hypotheses(e, eps_list, largest_grid(step), tol=tol)
    cert = verify_equilibrium(e, (1.5, 1.5))
    eq = CheckReport("equilibrium-at-known-point",
                     PASS if cert.valid else FAIL, (),
                     {"point": [1.5, 1.5], "valid": cert.valid})
    found = search_equilibria(e, Grid(2, (0.0, 0.0), (2.0, 2.0), step))
    pts = [c.point for c in found]
    interior = [p for p in pts if 0 < p[0] < 1 and 0 < p[1] < 1]
    contains = (1.5, 1.5) in pts
    search = CheckReport(
        "search-equilibria", PASS if contains and not interior else FAIL,
        tuple(Witness(p, None, 0.0, "equilibrium inside the open unit square")
              for p in interior[:8]),
        {"found": len(pts), "contains_known_point": contains})
    return combine_reports("example-4.1", [hyp, eq, search],
                           {"step": step, "eps": list(eps_list),
                            "runtime_s": time.perf_counter() - t0})


def golden_theorem_4_3(step: float = 1 / 16, tol: float = 1e-9) -> CheckReport:
    """Selection-based hypotheses on the two-agent example at eps 0.5 and 2,
    checked on a grid interior to the conflict region (see the x=0 caveat
    in the economy module tests)."""
    e = ex4_1(2)
    sel = ex4_1_selection(2)
    grid = Grid(2, (step, step), (1.0 - step, 1.0 - step), step)
    return check_theorem_4_3_hypotheses(e, (0.5, 2.0), [sel, sel], grid, tol=tol)


# ---------------------------------------------------------------------------
# Fixed-point scheme on the built-ins
# ---------------------------------------------------------------------------

def theorem_3_1_suite() -> CheckReport:
    """Chain intersections on the built-ins: the single-factor instances
    collapse to the known fixed points and the two-agent construction
    keeps a certified point next to the known equilibrium; nesting is
    exact everywhere."""
    t0 = time.perf_counter()
    step = 1 / 64
    children = []

    t1, d = ex2_1()
    grid1 = _open_interval_grid(step)
    res = intersect_qv_chain(ProductMap.single(t1, d), grid1)
    ok = (res.intersection == ((1.0,),) and res.certified == ((1.0,),)
          and res.nested and not res.uncertified)
    children.append(CheckReport(
        "single-factor-chain", PASS if ok else FAIL, (),
        {"intersection": [list(p) for p in res.intersection],
         "nested": res.nested, "cardinalities": res.cardinalities,
         "uncertified": len(res.uncertified)}))

    # the composite's target set touches the open domain edge at 2, which
    # no grid point may reach: trim the target by one step and certify at
    # the surrogate radius, since the exact fixed point sits on the edge
    comp_step = 1 / 64
    gridc = _open_interval_grid(comp_step)
    dcomp = BoxSet.of(1, [(FlaggedInterval.closed(1.0, 2.0 - comp_step),)])
    radius = 1 / 16 + comp_step
    res2 = intersect_qv_chain(ProductMap.single(ex2_2_composite(), dcomp),
                              gridc, certification_radius=radius)
    ok2 = res2.nested and bool(res2.intersection) and not res2.uncertified
    children.append(CheckReport(
        "composite-chain", PASS if ok2 else FAIL, (),
        {"found": len(res2.intersection), "nested": res2.nested,
         "cardinalities": res2.cardinalities,
         "certification_radius": radius}))

    pm = theorem_4_1_construction(ex4_1(2))
    grid2 = Grid(2, (0.0, 0.0), (2.0, 2.0), 0.125)
    res3 = intersect_qv_chain(pm, grid2, (0.5, 0.25, 0.125))
    near = [p for p in res3.certified
            if max(abs(p[0] - 1.5), abs(p[1] - 1.5)) <= 0.125 + 1e-12]
    ok3 = res3.nested and bool(near) and not res3.uncertified
    children.append(CheckReport(
        "construction-chain", PASS if ok3 else FAIL, (),
        {"near_known_point": len(near), "nested": res3.nested,
         "cardinalities": res3.cardinalities,
         "uncertified": len(res3.uncertified)}))
    return combine_reports("fixed-point-scheme", children,
                           {"step": step, "runtime_s": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def _random_sum_intersection(rng: random.Random) -> tuple[PiecewiseMap, PiecewiseMap, Grid]:
    """A continuous affine box map S, one closed box C, and one closed box
    K chosen to meet S(x)+C over the whole domain; returns (S, (S+C) cap K,
    grid). Keeping K a single box rules out value jumps between distant
    components, which the grid check would flag."""
    dim = rng.choice((1, 2))
    cod = rng.choice((1, 2))
    a = rng.choice(_DYADIC)
    w = rng.choice((1.0, 2.0))
    domain: Box = tuple(FlaggedInterval.closed(a, a + w) for _ in range(dim))

    s_boxes, sc_boxes, k_box = [], [], []
    for _ in range(cod):
        # one tracked axis per output coordinate: endpoint comparisons in
        # the clipping step then split along axis-aligned loci only
        axis = rng.randrange(dim)
        coeffs = tuple(rng.choice(_DYADIC) if j == axis else 0.0
                       for j in range(dim))
        const = rng.choice(_DYADIC)
        width = rng.choice((0.25, 0.5, 1.0))
        c_lo = rng.choice(_DYADIC)
        c_hi = c_lo + rng.choice((0.0, 0.5, 1.0))
        lo = AffForm(const, coeffs)
        hi = AffForm(const + width, coeffs)
        s_boxes.append(AffineInterval(lo, hi, True, True))
        sc_lo = AffForm(const + c_lo, coeffs)
        sc_hi = AffForm(const + width + c_hi, coeffs)
        sc_boxes.append(AffineInterval(sc_lo, sc_hi, True, True))
        min_hi = sc_hi.bounds(domain)[0]
        max_lo = sc_lo.bounds(domain)[1]
        k_lo = min_hi - rng.choice((0.0, 0.5, 1.0))
        k_hi = max(max_lo + rng.choice((0.0, 0.5, 1.0)), k_lo)
        k_box.append(FlaggedInterval.closed(k_lo, k_hi))

    s = PiecewiseMap(domain, cod, (Piece(domain, (tuple(s_boxes),)),))
    sc = PiecewiseMap(domain, cod, (Piece(domain, (tuple(sc_boxes),)),))
    t = intersect_maps(sc, constant_map(domain, BoxSet.of(cod, [tuple(k_box)])))
    return s, t, Grid.over_box(domain, w / 8)


def _random_piecewise(rng: random.Random) -> tuple[PiecewiseMap, BoxSet, Grid]:
    """A piecewise map with at most 4 pieces, closed dyadic values (constant
    or affine), a closed target box, and a grid over the domain."""
    dim = rng.choice((1, 2))
    a = rng.choice(_DYADIC)
    w = rng.choice((1.0, 2.0))
    domain: Box = tuple(FlaggedInterval.closed(a, a + w) for _ in range(dim))
    cod = rng.choice((1, 2))

    cuts = sorted(rng.sample((0.25, 0.5, 0.75), rng.randint(0, 2)))
    edges = [a] + [a + c * w for c in cuts] + [a + w]
    regions = []
    for j in range(len(edges) - 1):
        first = FlaggedInterval(edges[j], edges[j + 1], j == 0, True)
        regions.append((first,) + domain[1:])

    def random_value():
        kind = rng.random()
        if kind < 0.25:
            return ()
        if kind < 0.75:
            boxes = []
            for _ in range(rng.choice((1, 2))):
                box = []
                for _ in range(cod):
                    lo = rng.choice(_DYADIC)
                    box.append(FlaggedInterval.closed(lo, lo + rng.choice((0.0, 0.5, 1.0))))
                boxes.append(tuple(AffineInterval(
                    AffForm.constant(iv.lo, dim), AffForm.constant(iv.hi, dim),
                    True, True) for iv in box))
            return tuple(boxes)
        box = []
        for _ in range(cod):
            axis = rng.randrange(dim)
            coeffs = tuple(rng.choice(_DYADIC) if j == axis else 0.0
                           for j in range(dim))
            const = rng.choice(_DYADIC)
            width = rng.choice((0.0, 0.5, 1.0))
            box.append(AffineInterval(AffForm(const, coeffs),
                                      AffForm(const + width, coeffs), True, True))
        return ((tuple(box)),)

    pieces = tuple(Piece(r, random_value()) for r in regions)
    t = PiecewiseMap(domain, cod, pieces)
    d_box = []
    for _ in range(cod):
        lo = rng.choice(_DYADIC)
        d_box.append(FlaggedInterval.closed(lo, lo + rng.choice((0.5, 1.0, 2.0))))
    return t, BoxSet.of(cod, [tuple(d_box)]), Grid.over_box(domain, w / 8)


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------

def lemma_2_1_suite(tol: float = 1e-9) -> CheckReport:
    """Sum-then-clip preserves the grid USC check: for continuous box maps
    S and closed boxes C, K, the map x -> (S(x)+C) cap K stays USC."""
    t0 = time.perf_counter()
    count, seed = 20, DEFAULT_SEED
    rng = random.Random(seed)
    children = []
    for k in range(count):
        s, t, grid = _random_sum_intersection(rng)
        children.append(check_usc(s, grid, tol=tol,
                                  property_name=f"map{k}.base-usc"))
        children.append(check_usc(t, grid, tol=tol,
                                  property_name=f"map{k}.sum-clip-usc"))
    return combine_reports("sum-intersection-usc", children,
                           {"count": count, "seed": seed, "tol": tol,
                            "runtime_s": time.perf_counter() - t0})


def _chain_containment(name: str, dilated: Sequence[PiecewiseMap],
                       reference: PiecewiseMap, clip: BoxSet | None,
                       grid: Grid, radius: float) -> CheckReport:
    """At every grid point, the intersection of the dilated-map values must
    land inside the (radius-padded) adherence of the reference clipped to
    the (radius-padded) target set; radius 0 demands exact containment.
    ``nonempty_points`` counts the points where the intersection is nonempty.

    One ``GridCells.witnesses`` walk reads the dilated maps and the
    adherence. Its rule decides each piece tuple once, at its first cell's
    first point: a tuple whose constant chain pieces do not meet is empty,
    whatever its affine pieces, and a tuple of constant pieces only has one
    value per map and one padding on its cells. A decided tuple inside the
    reference passes, counting its cells' sizes when nonempty. The probe
    values each point of an undecided tuple and gives each point of an
    escaping one its tuple's excess, so the first 8 failing points are those
    of a walk over every point. The walk runs to its end, for
    ``nonempty_points``, but builds a ``Witness`` for those 8 alone.
    """
    bar = adherence(reference)
    pad = clip.dilate(radius).closure() if clip is not None and radius > 0 else clip

    def excess(inter: BoxSet, tv: BoxSet) -> float | None:
        # the nonempty ``inter``'s excess over the padded adherence value
        # ``tv``, or None when it lies inside
        if pad is not None:
            tv = tv.intersect(pad)
        if radius > 0:
            tv = tv.dilate(radius).closure()
        if inter.subset_within(tv, 0.0):
            return None
        return math.inf if tv.is_empty else inter.hausdorff_upper(tv)

    def decide(x: tuple[float, ...], pieces: tuple[int, ...]) -> tuple[bool, float | None] | None:
        # (nonempty, excess) on the tuple's cells, or None when undecided
        constant = [m.value_on(i, x) for m, i in zip(dilated, pieces) if m.pieces[i].is_constant]
        inter = functools.reduce(BoxSet.intersect, constant) if constant else None
        if inter is not None and inter.is_empty:
            return False, None
        if len(constant) < len(dilated) or not bar.pieces[pieces[-1]].is_constant:
            return None
        return True, excess(inter, bar.value_on(pieces[-1], x))

    cells = GridCells((*dilated, bar), grid)
    decided: dict[tuple[int, ...], tuple[bool, float | None] | None] = {}
    nonempty = failed = 0

    def passes(cell, pieces):
        nonlocal nonempty
        if pieces not in decided:
            decided[pieces] = None if None in pieces else decide(cells.first_point(cell), pieces)
        d = decided[pieces]
        if d is None or d[1] is not None:
            return False
        nonempty += d[0] * math.prod(map(len, cell))
        return True

    def probe(_, x, pieces):
        nonlocal nonempty, failed
        d = decided[pieces]
        if d is None:
            inter = functools.reduce(BoxSet.intersect, (m.value_on(i, x)
                                                        for m, i in zip(dilated, pieces)))
            d = ((False, None) if inter.is_empty
                 else (True, excess(inter, bar.value_on(pieces[-1], x))))
        nonempty += d[0]
        if d[1] is not None:
            failed += 1
            if failed <= 8:
                yield Witness(x, None, d[1], "chain value escapes the reference")

    wit = tuple(cells.witnesses(passes, probe))
    return CheckReport(name, FAIL if failed else PASS, wit,
                       {"radius": radius, "grid_points": grid.point_count(),
                        "nonempty_points": nonempty})


def lemma_2_2_suite(chain: Sequence[float] = (1.0, 0.5, 0.25, 0.125)) -> CheckReport:
    """Chain containments: exact (radius 0) on the three built-ins, and at
    radius min(chain)+step on random maps, where the finite chain leaves a
    min-dilation fuzz that an infinite intersection would remove."""
    t0 = time.perf_counter()
    count, seed = 50, DEFAULT_SEED
    children = []

    t1, d1 = ex2_1()
    grid1 = _open_interval_grid(1 / 64)
    children.append(_chain_containment(
        "builtin-first", [adherence(t_upper(t1, e, d1)) for e in chain],
        t1, d1, grid1, 0.0))

    tv, dv = ex2_1_variant()
    children.append(_chain_containment(
        "builtin-variant", [adherence(t_upper(tv, e, dv)) for e in chain],
        tv, dv, grid1, 0.0))

    a, b, d22 = ex2_2()
    children.append(_chain_containment(
        "builtin-composite",
        [adherence(intersect_maps(t_upper(a, e, d22), b)) for e in chain],
        ex2_2_composite(), None, grid1, 0.0))

    rng = random.Random(seed)
    for k in range(count):
        t, d, grid = _random_piecewise(rng)
        radius = min(chain) + grid.step
        children.append(_chain_containment(
            f"random{k}", [adherence(t_upper(t, e, d)) for e in chain],
            t, d, grid, radius))
    return combine_reports("chain-containment", children,
                           {"count": count, "seed": seed, "chain": list(chain),
                            "runtime_s": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# Information-economy pipeline
# ---------------------------------------------------------------------------

def radner_suite(tol: float = 1e-9) -> CheckReport:
    """Constraint inclusion on sampled points, aggregate clearing of every
    certificate the coarse search (bundle axis 0, 0.5, ..., 2) produces,
    and market clearing of the autarky certificate."""
    t0 = time.perf_counter()
    alloc_step, simplex_resolution = 0.125, 8
    toy = radner_toy()
    assoc = to_abstract_economy(toy, PriceSimplex(toy.bundle_dim,
                                                  simplex_resolution))
    incl = remark_4_3_inclusion(assoc, alloc_step)

    certs = assoc.search((0.0, 0.5, 1.0, 1.5, 2.0))
    bad = []
    for c in certs:
        if max(assoc.excess(c.allocation)) > tol:
            bad.append(Witness(c.price, None, 0.0, "certificate fails clearing",
                               str(c.allocation)))
    clause1 = CheckReport("certificates-clear", PASS if not bad else FAIL,
                          tuple(bad[:8]), {"certificates": len(certs)})

    uniform = tuple(1.0 / toy.bundle_dim for _ in range(toy.bundle_dim))
    aut = assoc.verify(toy.endowments, uniform)
    aut_clear = verify_market_clearing(assoc, aut, tol=tol)
    autarky = CheckReport("autarky-equilibrium",
                          PASS if aut.valid and aut_clear.passed else FAIL, (),
                          {"valid": aut.valid, "clearing": aut_clear.verdict})
    return combine_reports("info-economy-pipeline", [incl, clause1, autarky],
                           {"alloc_step": alloc_step,
                            "simplex_resolution": simplex_resolution,
                            "runtime_s": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# The consolidated runner
# ---------------------------------------------------------------------------

def reproduce_paper(step: float | None = None, eps_chain: Sequence[float] | None = None,
                    tol: float = 1e-9) -> CheckReport:
    """Run every golden check and property suite in one report.

    ``step`` overrides the example grids (it must divide 1/2 so the
    documented breakpoints stay on the grid); the randomized suites keep
    their own domains. ``eps_chain`` overrides the chain of the
    containment suite only; the golden dilations are part of the stated
    results and stay fixed.
    """
    if step is not None:
        ratio = 0.5 / step if math.isfinite(step) and step > 0 else math.nan
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("step must divide 1/2")
    fine = step if step is not None else 1 / 64
    coarse = step if step is not None else 0.125
    wstep = step if step is not None else 1 / 16
    chain = tuple(eps_chain) if eps_chain is not None else (1.0, 0.5, 0.25, 0.125)
    t0 = time.perf_counter()
    parts = [
        golden_example_2_1(fine, tol=tol),
        golden_example_2_2(fine),
        golden_example_4_1(coarse, tol=tol),
        golden_theorem_4_3(wstep, tol=tol),
        theorem_3_1_suite(),
        lemma_2_1_suite(tol=tol),
        lemma_2_2_suite(chain=chain),
        radner_suite(tol=tol),
    ]
    return combine_reports("golden-suite", parts,
                           {"step": step, "tol": tol, "seed": DEFAULT_SEED,
                            "runtime_s": time.perf_counter() - t0})
