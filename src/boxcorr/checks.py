"""Grid surrogates for semicontinuity properties of piecewise maps.

A pass certifies the property at the stated resolution only; a fail carries
concrete witnesses.  Every report embeds the full parameterization (grid
step, delta, tol, the modulus slope) so results are reproducible.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .intervals import BoxSet, Grid, box_contains
from .maps import PiecewiseMap, adherence, constant_map, intersect_maps, t_upper

PASS = "pass"
FAIL = "fail"
UNVERIFIED = "unverified"

_MAX_WITNESSES = 32


@dataclass(frozen=True, slots=True)
class Witness:
    point: tuple[float, ...]
    neighbor: tuple[float, ...] | None
    excess: float
    category: str
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    property_name: str
    verdict: str
    witnesses: tuple[Witness, ...] = ()
    parameters: dict = field(default_factory=dict, compare=False)
    notes: tuple[str, ...] = ()
    children: "tuple[CheckReport, ...]" = ()

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def combine_reports(property_name: str, children: Sequence[CheckReport],
                    parameters: dict | None = None, notes: Sequence[str] = ()) -> CheckReport:
    """Aggregate child verdicts; children marked informational do not gate."""
    gating = [c for c in children if not c.parameters.get("informational")]
    if any(c.verdict == FAIL for c in gating):
        verdict = FAIL
    elif any(c.verdict == UNVERIFIED for c in gating):
        verdict = UNVERIFIED
    else:
        verdict = PASS
    return CheckReport(property_name, verdict, (), parameters or {}, tuple(notes), tuple(children))


# ---------------------------------------------------------------------------
# Grid scans
# ---------------------------------------------------------------------------

def _grid_points_in(t: PiecewiseMap, grid: Grid,
                    point_filter: Callable[[tuple[float, ...]], bool] | None):
    pts: dict[tuple[int, ...], tuple[float, ...]] = {}
    for idx, p in grid.indexed_points():
        if box_contains(t.domain, p) and (point_filter is None or point_filter(p)):
            pts[idx] = p
    return pts


def _neighbor_offsets(dim: int, radius: int):
    return [off for off in itertools.product(range(-radius, radius + 1), repeat=dim)
            if any(off)]


def _closed_values(t: PiecewiseMap, pts: dict):
    """Closed value of every point, and its piece index if that piece is constant.

    A piece whose affine endpoints are all constant (the empty value
    included) has one value, so it is evaluated and closed once, at its
    first point; points on affine pieces are evaluated one by one and get
    ``None`` as their constant piece.
    """
    constant = [all(ai.is_constant for b in p.value for ai in b) for p in t.pieces]
    shared: dict[int, BoxSet] = {}
    values: dict[tuple[int, ...], BoxSet] = {}
    const_piece: dict[tuple[int, ...], int | None] = {}
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
    return values, const_piece


def _excess_scan(values: dict, const_piece: dict, pts: dict, offsets, bound: float,
                 direction: str):
    """Ordered-pair excess scan; direction 'usc' compares T(x') against T(x).

    Pairs whose two points lie on constant pieces take their excess from a
    memo keyed by the oriented pair of piece indices, so each such piece
    pair costs one ``hausdorff_upper`` call however many grid pairs it has.
    """
    witnesses: list[Witness] = []
    truncated = False
    piece_excess: dict[tuple[int, int], float] = {}
    for idx in sorted(pts):
        x = pts[idx]
        for off in offsets:
            nidx = tuple(map(operator.add, idx, off))
            if nidx not in pts:
                continue
            xn = pts[nidx]
            ia, ib = (nidx, idx) if direction == "usc" else (idx, nidx)
            a, b = values[ia], values[ib]
            if a.is_empty:
                continue
            if b.is_empty:
                if len(witnesses) < _MAX_WITNESSES:
                    witnesses.append(Witness(x, xn, math.inf, "empty value",
                                             "nonempty value jumps against an empty one"))
                else:
                    truncated = True
                continue
            key = (const_piece[ia], const_piece[ib])
            if None in key:
                h = a.hausdorff_upper(b)
            else:
                h = piece_excess.get(key)
                if h is None:
                    h = piece_excess[key] = a.hausdorff_upper(b)
            if h > bound:
                if len(witnesses) < _MAX_WITNESSES:
                    witnesses.append(Witness(x, xn, h, "excess"))
                else:
                    truncated = True
    return witnesses, truncated


def check_usc(t: PiecewiseMap, grid: Grid, delta: float | None = None, tol: float = 1e-9,
              point_filter: Callable[[tuple[float, ...]], bool] | None = None,
              property_name: str = "usc", direction: str = "usc") -> CheckReport:
    """Discrete upper-semicontinuity surrogate.

    Passes iff for every in-domain grid point x and grid neighbor x' with
    ``||x' - x||_inf <= delta``, the one-sided excess of T(x') over T(x) is
    at most ``tol + L * delta`` where L is the map's own maximal endpoint
    slope.  Values are closed before comparison.  ``delta`` defaults to the
    grid step and must be at least that step, or no neighbor lies within
    it (``ValueError``).

    The scan works piece by piece: a constant piece's value is evaluated
    and closed once, and the excess between two constant pieces is
    computed once per oriented piece pair; only pairs that touch an affine
    piece are compared point by point.
    """
    if delta is None:
        delta = grid.step
    radius = int(math.floor(delta / grid.step + 1e-9))
    if radius < 1:
        raise ValueError(f"delta {delta} is below the grid step {grid.step}: "
                         "no grid neighbor lies within it")
    pts = _grid_points_in(t, grid, point_filter)
    values, const_piece = _closed_values(t, pts)
    slope = t.max_slope()
    bound = tol + slope * delta
    offsets = _neighbor_offsets(grid.dim, radius)
    witnesses, truncated = _excess_scan(values, const_piece, pts, offsets, bound, direction)
    notes = ["values closed before comparison"]
    if truncated:
        notes.append("witness list truncated")
    return CheckReport(
        property_name,
        PASS if not witnesses else FAIL,
        tuple(witnesses),
        {
            "grid_step": grid.step,
            "delta": delta,
            "tol": tol,
            "modulus_slope": slope,
            "bound": bound,
            "points_checked": len(pts),
            "direction": direction,
        },
        tuple(notes),
    )


def _nonempty_everywhere(t: PiecewiseMap, grid: Grid,
                         point_filter=None) -> tuple[bool, list[tuple[float, ...]]]:
    holes = []
    for _, p in grid.indexed_points():
        if not box_contains(t.domain, p) or (point_filter is not None and not point_filter(p)):
            continue
        if t.evaluate(p).is_empty:
            holes.append(p)
    return (not holes), holes


# ---------------------------------------------------------------------------
# Weak-dilation semicontinuity families
# ---------------------------------------------------------------------------

def check_w_usc(t: PiecewiseMap, d: BoxSet, eps_list: Sequence[float], grid: Grid,
                delta: float | None = None, tol: float = 1e-9,
                point_filter=None) -> CheckReport:
    """For each eps: USC surrogate of the clipped dilation and of its adherence.

    The first family of children carries the plain w-property, the second the
    "almost" variant; nonempty-valuedness of each adherence map on the grid
    is reported alongside without gating the verdict.
    """
    children = []
    for eps in eps_list:
        tv = t_upper(t, eps, d)
        children.append(check_usc(tv, grid, delta, tol, point_filter,
                                  property_name=f"w-usc@eps={eps:g}"))
        tv_bar = adherence(tv)
        rep = check_usc(tv_bar, grid, delta, tol, point_filter,
                        property_name=f"almost-w-usc@eps={eps:g}")
        ne, holes = _nonempty_everywhere(tv_bar, grid, point_filter)
        rep.parameters["adherence_nonempty_everywhere"] = ne
        if holes:
            rep.parameters["adherence_empty_points"] = holes[:8]
        children.append(rep)
    return combine_reports("w-usc-family", children,
                           {"eps_list": list(eps_list), "d_dim": d.dim})


def check_dual_w_usc(t1: PiecewiseMap, t2: PiecewiseMap, d: BoxSet,
                     eps_list: Sequence[float], grid: Grid,
                     delta: float | None = None, tol: float = 1e-9,
                     point_filter=None) -> CheckReport:
    """Dual variant: adherence of ``(T1 + V) cap T2 cap D`` checked per eps.

    The primary verdict follows the USC reading of the surrogate; an LSC
    surrogate verdict over the same pairs is recorded as an informational
    child with swapped witness orientation.
    """
    children = []
    for eps in eps_list:
        composite = intersect_maps(t_upper(t1, eps, d), t2)
        ne, holes = _nonempty_everywhere(composite, grid, point_filter)
        composite_bar = adherence(composite)
        rep = check_usc(composite_bar, grid, delta, tol, point_filter,
                        property_name=f"dual-w-usc@eps={eps:g}")
        rep.parameters["pre_adherence_empty_points"] = holes[:8]
        rep.parameters["pre_adherence_nonempty_everywhere"] = ne
        children.append(rep)
        lsc = check_usc(composite_bar, grid, delta, tol, point_filter,
                        property_name=f"dual-lsc-surrogate@eps={eps:g}", direction="lsc")
        lsc.parameters["informational"] = True
        children.append(lsc)
    return combine_reports("dual-w-usc-family", children,
                           {"eps_list": list(eps_list)},
                           ("primary verdict follows the usc reading; "
                            "lsc surrogate recorded informationally",))


# ---------------------------------------------------------------------------
# Existence of upper semicontinuous selections
# ---------------------------------------------------------------------------

def _largest_box(s: BoxSet):
    best = None
    best_key = None
    for b in s.boxes:
        key = (min(iv.hi - iv.lo for iv in b), sum(iv.hi - iv.lo for iv in b))
        if best is None or key > best_key:
            best, best_key = b, key
    return best


def propose_constant_selection(t: PiecewiseMap, k_region, eps: float, grid: Grid) -> PiecewiseMap | None:
    """Constant-selection heuristic: a box inside every dilated value over K."""
    inter: BoxSet | None = None
    for _, p in grid.indexed_points():
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
    box = _largest_box(inter)
    return constant_map(t.domain, BoxSet.single(box))


def check_e_uscs(t: PiecewiseMap, k_region, candidate: PiecewiseMap | None,
                 eps: float, grid: Grid, delta: float | None = None, tol: float = 1e-9,
                 block: tuple[int, ...] | None = None) -> CheckReport:
    """Selection property at radius eps over the sample region K.

    Three clauses: the candidate is a USC, convex-valued map on K; its values
    sit inside the eps-dilation of T; and the candidate avoids the base point
    (block coordinates of x) everywhere on K.  When no candidate is supplied
    a constant selection is proposed; if the heuristic cannot produce a
    passing candidate the verdict is "unverified", not "fail".
    """
    if block is None:
        block = tuple(range(t.codomain_dim))
    proposed = candidate is None
    if proposed:
        candidate = propose_constant_selection(t, k_region, eps, grid)
        if candidate is None:
            return CheckReport(
                "e-uscs", UNVERIFIED, (), {"eps": eps, "candidate": "heuristic"},
                ("no constant selection exists inside the dilated values at this resolution",),
            )

    in_k = lambda p: box_contains(k_region, p)
    usc_rep = check_usc(candidate, grid, delta, tol, in_k, property_name="selection-usc")

    convex_wit = []
    inside_wit = []
    avoid_wit = []
    for _, p in grid.indexed_points():
        if not box_contains(t.domain, p) or not in_k(p):
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
    children = [
        usc_rep,
        CheckReport("selection-convex", PASS if not convex_wit else FAIL,
                    tuple(convex_wit[:_MAX_WITNESSES])),
        CheckReport("selection-inside-dilation", PASS if not inside_wit else FAIL,
                    tuple(inside_wit[:_MAX_WITNESSES]), {"eps": eps, "tol": tol}),
        CheckReport("selection-avoids-base-point", PASS if not avoid_wit else FAIL,
                    tuple(avoid_wit[:_MAX_WITNESSES]), {"block": list(block)}),
    ]
    rep = combine_reports("e-uscs", children, {"eps": eps, "candidate":
                                               "heuristic" if proposed else "supplied"})
    if proposed and rep.verdict == FAIL:
        return CheckReport("e-uscs", UNVERIFIED, rep.witnesses, rep.parameters,
                           rep.notes + ("heuristic candidate failed; property undecided",),
                           rep.children)
    return rep
