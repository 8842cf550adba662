"""Grid surrogates for semicontinuity properties of piecewise maps.

A pass certifies the property at the stated resolution only; a fail carries
concrete witnesses.  Every report embeds the full parameterization (grid
step, delta, tol, the modulus slope) so results are reproducible.

The grid scans read the maps piece by piece, off one ``GridCells`` table
per scan: the cells of the grid on which each map keeps one piece. Every
per-point verdict is one ``GridCells.witnesses`` walk: a rule decides the
cells, and a probe runs only at the points of the piece tuples that fail,
in lexicographic order, so the witnesses are those of a probe at every
point. ``scan_values`` decides a tuple of constant pieces with one probe,
``scan_block_points`` a cell from the index ranges its constant value
holds, and ``_empty_points`` skips constant nonempty pieces. ``check_usc``
decides a map of one-box pieces that meet continuously whole, by the
modulus bound, and otherwise each constant piece against the pieces that
can hold its neighbours; its walk's centres lie on the pieces left open,
and it builds each point record when a centre or neighbour first reads it.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .affine import agree_on, computes_nonempty, move_bound
from .intervals import (Box, BoxSet, DimensionMismatchError, Grid, box_closure, box_contains,
                        box_intersect)
from .maps import (DomainError, PiecewiseMap, adherence, constant_map, intersect_maps,
                   t_upper)

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

def _index_ranges(box: Box, axes: Sequence[Sequence[float]]) -> list[range]:
    """Per axis, the grid indices whose axis value the box's interval contains.

    Axis values increase, so those indices are one contiguous range, found
    by bisection with the interval's flags deciding each end.
    """
    out = []
    for iv, ax in zip(box, axes):
        start = (bisect.bisect_left if iv.lo_closed else bisect.bisect_right)(ax, iv.lo)
        stop = (bisect.bisect_right if iv.hi_closed else bisect.bisect_left)(ax, iv.hi)
        out.append(range(start, max(start, stop)))
    return out


class GridCells:
    """The cells of ``grid`` on the pieces of ``maps``, and their one witness walk.

    A cell is a tuple of grid index ranges, one per axis. Per axis, each
    piece of each map holds a contiguous range of grid indices, and so does
    the box ``within``; the cells are the common refinement of those ranges,
    so every point of a cell lies on the same piece of each map. The table
    of those pieces, one row per cell, is built once; ``cells``,
    ``points`` and ``witnesses`` read it and skip what lies outside
    ``maps[0]``'s domain or ``within``. The first two raise ``DomainError``
    when they reach a point outside a later map's domain.
    """

    def __init__(self, maps: Sequence[PiecewiseMap], grid: Grid, within: Box | None = None):
        self.maps = tuple(maps)
        self.axes = axes = [grid.axis_values(d) for d in range(grid.dim)]
        for box in [t.domain for t in maps] + ([] if within is None else [within]):
            if len(box) != grid.dim:
                raise DimensionMismatchError(f"point of dim {grid.dim} vs box of dim {len(box)}")
        bounds = ([range(len(ax)) for ax in axes] if within is None
                  else _index_ranges(within, axes))
        # the pieces holding a grid point, with their piece indices
        held = [[(i, rs) for i, rs in enumerate(_index_ranges(p.region, axes) for p in t.pieces)
                 if all(rs)] for t in maps]
        self.segments = segments = []
        for d, bound in enumerate(bounds):
            cuts = {bound.start, bound.stop}
            cuts.update(e for ranges in held for _, rs in ranges for e in (rs[d].start, rs[d].stop)
                        if bound.start < e < bound.stop)
            segments.append([range(a, b) for a, b in itertools.pairwise(sorted(cuts))])
        starts = [[seg.start for seg in segs] for segs in segments]
        self.strides = [math.prod(map(len, segments[d + 1:])) for d in range(grid.dim)]
        slots = []
        for ranges in held:
            slot: list[int | None] = [None] * math.prod(map(len, segments))
            for i, rs in ranges:
                own = [[k * stride for k in range(bisect.bisect_left(st, r.start),
                                                  bisect.bisect_left(st, r.stop))]
                       for r, st, stride in zip(rs, starts, self.strides)]
                for offsets in itertools.product(*own):
                    slot[sum(offsets)] = i
            slots.append(slot)
        self.rows = list(zip(*slots))

    def first_point(self, cell: Sequence[range]) -> tuple[float, ...]:
        return tuple(ax[r.start] for ax, r in zip(self.axes, cell))

    def cells(self):
        """``(cell, pieces)`` in the lexicographic order of the cells' first
        points; ``pieces[k]`` is the piece of ``maps[k]`` holding the cell."""
        for cell, pieces in zip(itertools.product(*self.segments), self.rows):
            if pieces[0] is None:
                continue
            if None in pieces:
                raise DomainError(f"point {self.first_point(cell)} outside map domain")
            yield cell, pieces

    def points(self):
        """``(index, point, pieces)`` for the points of the cells, in
        lexicographic order; ``pieces`` is the row of the point's cell.

        Per axis, a point's grid index names its segment, so the row is the
        sum over the axes of segment number times stride."""
        indices = [[k for seg in segs for k in seg] for segs in self.segments]
        offsets = [[s * stride for s, seg in enumerate(segs) for _ in seg]
                   for segs, stride in zip(self.segments, self.strides)]
        values = [[ax[k] for k in ks] for ax, ks in zip(self.axes, indices)]
        rows = self.rows
        for idx, x, offs in zip(itertools.product(*indices), itertools.product(*values),
                                itertools.product(*offsets)):
            pieces = rows[sum(offs)]
            if pieces[0] is None:
                continue
            if None in pieces:
                raise DomainError(f"point {x} outside map domain")
            yield idx, x, pieces

    @functools.cached_property
    def _offsets(self) -> list[dict[int, int]]:
        return [{k: s * stride for s, seg in enumerate(segs) for k in seg}
                for segs, stride in zip(self.segments, self.strides)]

    def row_at(self, idx: Sequence[int]) -> tuple | None:
        """The row of the cell holding grid index tuple ``idx``, or ``None`` when
        an index lies below 0, past its axis or outside ``within``: per axis, a
        dict built on the first call maps each index of the table to its segment
        number times the stride, so no index wraps around."""
        offs = [offsets.get(k) for k, offsets in zip(idx, self._offsets)]
        return None if None in offs else self.rows[sum(offs)]

    def witnesses(self, passes: Callable[[tuple[range, ...], tuple], bool],
                  probe: Callable[..., Iterable[Witness]]):
        """The ``Witness`` records of ``probe(idx, x, pieces)`` at the points
        of ``points`` whose piece tuple fails, in that order, read lazily.

        First ``passes(cell, pieces)`` decides each cell on ``maps[0]``'s
        domain, in order, until its tuple fails; a tuple passes when all its
        cells do, and when every tuple passes no point is visited. On a cell
        outside a later map's domain that map's piece is ``None``: the rule
        raises there, or fails it so that ``points`` raises at its first point.
        """
        failed = set()
        for cell, pieces in zip(itertools.product(*self.segments), self.rows):
            if pieces[0] is not None and pieces not in failed and not passes(cell, pieces):
                failed.add(pieces)
        if failed:
            for idx, x, pieces in self.points():
                if pieces in failed:
                    yield from probe(idx, x, pieces)


def scan_values(name: str, maps: Sequence[PiecewiseMap], grid: Grid,
                probe: Callable[..., Iterable[tuple[float, str, str]]],
                parameters: dict | None = None, within: Box | None = None,
                convex_only: Sequence[int] = ()) -> CheckReport:
    """Per-point verdict for a probe that reads only the values: each
    ``(excess, category, detail)`` triple of ``probe(*values)`` at a point
    ``x`` of ``GridCells(maps, grid, within).points()`` is the witness
    ``Witness(x, None, excess, category, detail)``, up to ``_MAX_WITNESSES``.

    ``convex_only`` lists the positions of the maps whose values the probe
    reads only through ``len(value.boxes) <= 1``. A piece is decided when it
    is constant, or at such a position with at most one value box:
    ``value_on`` then gives one box or none (where float rounding empties
    it) at every point, so that read is true on the whole piece. The walk's
    rule passes a tuple of decided pieces when the probe, run once at its
    first cell's first point, yields no triple. A cell outside a later map's
    domain raises ``DomainError`` in the rule, before any witness is kept.
    """
    cells = GridCells(maps, grid, within)
    passed: dict[tuple[int, ...], bool] = {}

    def triples(x, pieces):
        return probe(*(m.value_on(i, x) for m, i in zip(maps, pieces)))

    def passes(cell, pieces):
        if None in pieces:
            raise DomainError(f"point {cells.first_point(cell)} outside map domain")
        if pieces not in passed:
            passed[pieces] = all(
                p.is_constant or k in convex_only and len(p.value) <= 1
                for k, p in enumerate(m.pieces[i] for m, i in zip(maps, pieces))
            ) and next(iter(triples(cells.first_point(cell), pieces)), None) is None
        return passed[pieces]

    found = cells.witnesses(passes, lambda _, x, pieces: (Witness(x, None, *w)
                                                          for w in triples(x, pieces)))
    witnesses = tuple(itertools.islice(found, _MAX_WITNESSES))
    return CheckReport(name, FAIL if witnesses else PASS, witnesses, parameters or {})


def scan_block_points(name: str, maps: Sequence[PiecewiseMap], grid: Grid,
                      block: Sequence[int], category: str, detail: str = "",
                      closure: bool = False, parameters: dict | None = None,
                      within: Box | None = None) -> CheckReport:
    """Per-point verdict: fail iff, at some point ``x`` of
    ``GridCells(maps, grid, within).points()``, the block point
    ``tuple(x[j] for j in block)`` lies in the value of ``maps[-1]`` at
    ``x``, or in its closure when ``closure`` is set; each such point is
    the witness ``Witness(x, None, 0.0, category, detail)``, up to
    ``_MAX_WITNESSES``.

    The walk's rule passes a cell of a constant last piece when no value box
    meets the cell's ranges on the block axes in its ``_index_ranges``, whose
    bisection reads the flags as ``FlaggedInterval.contains`` does. It fails
    a cell of an affine last piece, a box of another dimension than the
    block, a block index outside the point or a cell outside a later map's
    domain, so the probe raises where a probe at every point does, unless
    the cap comes first.
    """
    def boxes(value: BoxSet) -> list[Box]:
        # a union of closed boxes is the closure of the union: no canonical form needed
        return [box_closure(b) for b in value.boxes] if closure else list(value.boxes)

    cells = GridCells(maps, grid, within)
    last = cells.maps[-1]
    axes = [cells.axes[j] for j in block if -grid.dim <= j < grid.dim]

    def passes(cell, pieces):
        i = pieces[-1]
        if None in pieces or len(axes) < len(block) or not last.pieces[i].is_constant:
            return False
        own = [cell[j] for j in block]
        return not any(len(b) != len(block) or all(max(r.start, c.start) < min(r.stop, c.stop)
                                                   for r, c in zip(_index_ranges(b, axes), own))
                       for b in boxes(last.value_on(i, cells.first_point(cell))))

    def probe(_, x, pieces):
        point = tuple(x[j] for j in block)
        if any(box_contains(b, point) for b in boxes(last.value_on(pieces[-1], x))):
            yield Witness(x, None, 0.0, category, detail)

    witnesses = tuple(itertools.islice(cells.witnesses(passes, probe), _MAX_WITNESSES))
    return CheckReport(name, FAIL if witnesses else PASS, witnesses, parameters or {})


def _neighbor_offsets(dim: int, radius: int):
    return [off for off in itertools.product(range(-radius, radius + 1), repeat=dim)
            if any(off)]


def _piece_spans(cells: GridCells):
    """One pass over the cells of the one map ``t`` of ``cells``: each piece
    holding a point of the cells mapped to ``(lo, hi, value)``, the least
    and greatest grid index per axis over its points and its closed value
    if it is constant, else ``None``; and the number of those points.
    """
    (t,) = cells.maps
    spans, count = {}, 0
    for cell, (i,) in cells.cells():
        count += math.prod(map(len, cell))
        lo, hi = tuple(r.start for r in cell), tuple(r.stop - 1 for r in cell)
        if i in spans:
            plo, phi, value = spans[i]
            lo, hi = tuple(map(min, plo, lo)), tuple(map(max, phi, hi))
        elif t.pieces[i].is_constant:
            value = t.value_on(i, cells.first_point(cell)).closure()
        else:
            value = None
        spans[i] = (lo, hi, value)
    return spans, count


def _point_record(cells: GridCells, spans: dict, idx: tuple[int, ...]):
    """``(point, closed value, constant piece)`` at grid index tuple ``idx``
    of the one map of ``cells``, ``None`` off the table: the value ``spans``
    closed once on a constant piece, or the point's own, with piece ``None``."""
    row = cells.row_at(idx)
    if row is None or row[0] is None:
        return None
    (t,), (i,) = cells.maps, row
    x = tuple(map(operator.getitem, cells.axes, idx))
    value = spans[i][2]
    return (x, t.value_on(i, x).closure(), None) if value is None else (x, value, i)


def _decided_whole(t: PiecewiseMap, spans: dict, axes: Sequence[Sequence[float]],
                   radius: int, bound: float) -> bool:
    """Whether no neighbour pair of ``t``'s scanned grid points can yield a
    witness, decided on the pieces before any point is visited, when:

    - every piece of ``t``, those that hold no grid point included, has a
      value of one box: against a value of two or more boxes,
      ``hausdorff_upper``'s candidate search can round past the exact
      excess to a far larger candidate;
    - every piece in ``spans`` is affine or constant with a nonempty value,
      and some is affine: a map whose pieces in ``spans`` are all constant
      is left to ``_safe_pieces``, which passes every such piece when the
      other conditions hold;
    - ``move_bound`` over all of the map's forms, read off the full scan
      ``axes``, gives ``worst + slack <= bound``;
    - each affine piece in ``spans`` computes nonempty at each of its grid
      points, by ``computes_nonempty`` at its span's axis values: those
      points are the product of its region's and the scan box's index
      ranges per axis, so they fill its span;
    - every two pieces whose closed regions meet agree on that face, each
      ``lo`` form with the other's ``lo`` and each ``hi`` with its ``hi``,
      decided exactly by ``agree_on``.

    The domain and ``within`` are boxes, so the segment between two scanned
    points lies in the domain. Along it each endpoint is one piece's form
    per stretch, and continuous, since the pieces that meet at a break
    agree there. So it moves by at most the largest ``sum_j |c_j| |x'_j -
    x_j|`` over the forms, as on one piece, and by ``move_bound`` no
    computed excess passes ``bound``; no value is empty.
    """
    affine = [i for i, (_, _, value) in spans.items() if value is None]
    if not affine or not all(len(p.value) == 1 for p in t.pieces) or any(
            value is not None and value.is_empty for _, _, value in spans.values()):
        return False
    forms = [[f for ai in p.value[0] for f in (ai.lo, ai.hi)] for p in t.pieces]
    worst, _, slack = move_bound(itertools.chain.from_iterable(forms), axes, radius)
    if not worst + slack <= bound:
        return False
    if not all(computes_nonempty(t.pieces[i].value[0],
                                 [ax[l:h + 1] for ax, l, h in zip(axes, *spans[i][:2])])
               for i in affine):
        return False
    closed = [box_closure(p.region) for p in t.pieces]
    for (fa, a), (fb, b) in itertools.combinations(zip(forms, closed), 2):
        face = box_intersect(a, b)
        if face is not None and not all(map(agree_on, fa, fb, itertools.repeat(face))):
            return False
    return True


def _safe_pieces(pieces: dict, radius: int, bound: float, direction: str,
                 piece_excess: dict) -> set[int]:
    """The constant pieces on which no scan centre can yield a witness.

    Piece Q is a neighbour of piece P when P's index range, widened by
    ``radius`` on every axis, meets Q's: every grid neighbour of a point of
    P lies on such a Q, P itself included. P is safe when each neighbour Q
    passes the test of the scan's direction, where an affine Q never does:
    for 'usc', Q's value is empty, or P's is nonempty and the excess of Q's
    value over P's is at most ``bound``; for 'lsc', P's value is empty, or
    Q's is nonempty and the excess of P's value over Q's is at most
    ``bound``. Each excess is computed once into ``piece_excess``, keyed by
    the oriented pair of piece indices as in ``_excess_witnesses``.
    """
    def near(p, q):
        (plo, phi, _), (qlo, qhi, _) = pieces[p], pieces[q]
        return all(ql - ph <= radius and pl - qh <= radius
                   for pl, ph, ql, qh in zip(plo, phi, qlo, qhi))

    def within(ia, ib):
        h = piece_excess.get((ia, ib))
        if h is None:
            h = piece_excess[ia, ib] = pieces[ia][2].hausdorff_upper(pieces[ib][2])
        return h <= bound

    def passes(p, q):
        vp, vq = pieces[p][2], pieces[q][2]
        if direction == "usc":
            return vq is not None and (vq.is_empty or (not vp.is_empty and within(q, p)))
        return vp.is_empty or (vq is not None and not vq.is_empty and within(p, q))

    return {p for p, (_, _, value) in pieces.items()
            if value is not None and all(passes(p, q) for q in pieces if near(p, q))}


def _excess_witnesses(cells: GridCells, spans: dict, safe: set[int], offsets, bound: float,
                      direction: str, piece_excess: dict):
    """Ordered-pair excess scan over the one map of ``cells``, yielding
    witnesses lazily; direction 'usc' compares T(x') against T(x). The
    centres are those of a ``GridCells.witnesses`` walk whose rule passes
    the pieces in ``safe``, where by ``_safe_pieces`` or ``_decided_whole``
    no neighbour pair yields a witness, so the witnesses and their order are
    the full scan's. A point's ``_point_record`` is built when a centre or
    neighbour first needs it. A pair on two constant pieces takes its excess
    from ``piece_excess``, keyed by the oriented pair of piece indices.
    """
    record = functools.cache(functools.partial(_point_record, cells, spans))

    def probe(idx, x, _):
        center = record(idx)
        for off in offsets:
            near = record(tuple(map(operator.add, idx, off)))
            if near is None:
                continue
            xn = near[0]
            (_, a, ia), (_, b, ib) = (near, center) if direction == "usc" else (center, near)
            if a.is_empty:
                continue
            if b.is_empty:
                yield Witness(x, xn, math.inf, "empty value",
                              "nonempty value jumps against an empty one")
                continue
            if ia is None or ib is None:
                h = a.hausdorff_upper(b)
            else:
                h = piece_excess.get((ia, ib))
                if h is None:
                    h = piece_excess[ia, ib] = a.hausdorff_upper(b)
            if h > bound:
                yield Witness(x, xn, h, "excess")

    return cells.witnesses(lambda _, pieces: pieces[0] in safe, probe)


def check_usc(t: PiecewiseMap, grid: Grid, delta: float | None = None, tol: float = 1e-9,
              within: Box | None = None, property_name: str = "usc",
              direction: str = "usc") -> CheckReport:
    """Discrete upper-semicontinuity surrogate.

    Passes iff for every in-domain grid point x in the box ``within`` (every
    in-domain grid point when it is ``None``) and grid neighbor x' with
    ``||x' - x||_inf <= delta``, the one-sided excess of T(x') over T(x) is
    at most ``tol + L * delta`` where L is the map's own maximal endpoint
    slope.  Values are closed before comparison.  ``delta`` defaults to the
    grid step and must be at least that step, or no neighbor lies within
    it (``ValueError``). A delta wider than the grid compares every pair
    of grid points: the neighbor radius is capped at the widest axis's
    point count minus one.

    The scan works on one ``GridCells`` table, and each helper's docstring
    states its rule. ``_piece_spans`` reads the cells once for each piece's
    index span and closed constant value and for ``points_checked``. Before
    any point is visited, ``_decided_whole`` decides a continuous map of
    one-box pieces, whose pieces then all count as safe, and otherwise
    ``_safe_pieces`` each constant piece against the pieces that can hold
    its neighbours. ``_excess_witnesses`` walks the centres on the pieces
    left open, so the witnesses, their order and the truncation note are
    those of the full point-pair scan. ``direction`` is
    'usc' or 'lsc', ``tol`` a finite number at least 0 and ``delta`` finite
    (``ValueError`` otherwise). The scan keeps the first ``_MAX_WITNESSES``
    witnesses and stops at the next one, which adds the note "witness list
    truncated".
    """
    if direction not in ("usc", "lsc"):
        raise ValueError(f"direction must be 'usc' or 'lsc', got {direction!r}")
    if delta is None:
        delta = grid.step
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    steps = delta / grid.step + 1e-9
    if steps < 1:
        raise ValueError(f"delta {delta} is below the grid step {grid.step}: "
                         "no grid neighbor lies within it")
    # a longer offset reaches no grid point, and at this radius every piece pair is already
    # near in _safe_pieces, so the cap changes no result; it also bounds an infinite ratio
    radius = int(min(steps, max(len(grid.axis_values(d)) for d in range(grid.dim)) - 1))
    cells = GridCells((t,), grid, within)
    spans, points_checked = _piece_spans(cells)
    slope = t.max_slope()
    bound = tol + slope * delta
    piece_excess: dict[tuple[int, int], float] = {}
    safe = (set(spans) if _decided_whole(t, spans, cells.axes, radius, bound)
            else _safe_pieces(spans, radius, bound, direction, piece_excess))
    found = _excess_witnesses(cells, spans, safe, _neighbor_offsets(grid.dim, radius), bound,
                              direction, piece_excess)
    witnesses = tuple(itertools.islice(found, _MAX_WITNESSES + 1))
    notes = ["values closed before comparison"]
    if len(witnesses) > _MAX_WITNESSES:
        witnesses = witnesses[:_MAX_WITNESSES]
        notes.append("witness list truncated")
    return CheckReport(
        property_name,
        PASS if not witnesses else FAIL,
        witnesses,
        {
            "grid_step": grid.step,
            "delta": delta,
            "tol": tol,
            "modulus_slope": slope,
            "bound": bound,
            "points_checked": points_checked,
            "direction": direction,
        },
        tuple(notes),
    )


def _empty_points(t: PiecewiseMap, grid: Grid) -> list[tuple[float, ...]]:
    """The first eight in-domain grid points where ``t`` has the empty
    value; the walk skips the cells of constant nonempty pieces."""
    cells = GridCells((t,), grid)

    def passes(cell, pieces):
        (i,) = pieces
        return t.pieces[i].is_constant and not t.value_on(i, cells.first_point(cell)).is_empty

    def probe(_, x, pieces):
        if t.value_on(pieces[0], x).is_empty:
            yield Witness(x, None, math.inf, "empty value")

    return [w.point for w in itertools.islice(cells.witnesses(passes, probe), 8)]


# ---------------------------------------------------------------------------
# Weak-dilation semicontinuity families
# ---------------------------------------------------------------------------

def check_w_usc(t: PiecewiseMap, d: BoxSet, eps_list: Sequence[float], grid: Grid,
                delta: float | None = None, tol: float = 1e-9) -> CheckReport:
    """For each eps: USC surrogate of the clipped dilation and of its adherence.

    The first family of children carries the plain w-property, the second the
    "almost" variant; nonempty-valuedness of each adherence map on the grid
    is reported alongside without gating the verdict.
    """
    children = []
    for eps in eps_list:
        tv = t_upper(t, eps, d)
        children.append(check_usc(tv, grid, delta, tol, property_name=f"w-usc@eps={eps:g}"))
        tv_bar = adherence(tv)
        rep = check_usc(tv_bar, grid, delta, tol, property_name=f"almost-w-usc@eps={eps:g}")
        holes = _empty_points(tv_bar, grid)
        rep.parameters["adherence_nonempty_everywhere"] = not holes
        if holes:
            rep.parameters["adherence_empty_points"] = holes
        children.append(rep)
    return combine_reports("w-usc-family", children,
                           {"eps_list": list(eps_list), "d_dim": d.dim})


def check_dual_w_usc(t1: PiecewiseMap, t2: PiecewiseMap, d: BoxSet,
                     eps_list: Sequence[float], grid: Grid,
                     delta: float | None = None, tol: float = 1e-9,
                     property_name: str = "dual-w-usc-family") -> CheckReport:
    """Dual variant: adherence of ``(T1 + V) cap T2 cap D`` checked per eps.

    The primary verdict follows the USC reading of the surrogate; an LSC
    surrogate verdict over the same pairs is recorded as an informational
    child with swapped witness orientation. ``property_name`` names the
    family report.
    """
    children = []
    for eps in eps_list:
        composite = intersect_maps(t_upper(t1, eps, d), t2)
        holes = _empty_points(composite, grid)
        composite_bar = adherence(composite)
        rep = check_usc(composite_bar, grid, delta, tol, property_name=f"dual-w-usc@eps={eps:g}")
        rep.parameters["pre_adherence_empty_points"] = holes
        rep.parameters["pre_adherence_nonempty_everywhere"] = not holes
        children.append(rep)
        lsc = check_usc(composite_bar, grid, delta, tol,
                        property_name=f"dual-lsc-surrogate@eps={eps:g}", direction="lsc")
        lsc.parameters["informational"] = True
        children.append(lsc)
    return combine_reports(property_name, children,
                           {"eps_list": list(eps_list)},
                           ("primary verdict follows the usc reading; "
                            "lsc surrogate recorded informationally",))


# ---------------------------------------------------------------------------
# Existence of upper semicontinuous selections
# ---------------------------------------------------------------------------

def _largest_box(s: BoxSet):
    """The first box with the longest shortest side, then the longest side sum."""
    return max(s.boxes, key=lambda b: (min(iv.hi - iv.lo for iv in b),
                                       sum(iv.hi - iv.lo for iv in b)))


def propose_constant_selection(t: PiecewiseMap, k_region, eps: float, grid: Grid) -> PiecewiseMap | None:
    """Constant-selection heuristic: a box inside every dilated value over K."""
    inter: BoxSet | None = None
    for _, x, (i,) in GridCells((t,), grid, k_region).points():
        val = t.value_on(i, x)
        if val.is_empty:
            return None
        dil = val.dilate(eps)
        inter = dil if inter is None else inter.intersect(dil)
        if inter.is_empty:
            return None
    if inter is None:
        return None
    return constant_map(t.domain, BoxSet.single(_largest_box(inter)))


def check_e_uscs(t: PiecewiseMap, k_region: Box, candidate: PiecewiseMap | None,
                 eps: float, grid: Grid, delta: float | None = None, tol: float = 1e-9,
                 block: tuple[int, ...] | None = None,
                 property_name: str = "e-uscs") -> CheckReport:
    """Selection property at radius eps over the sample region K.

    Three clauses: the candidate is a USC, convex-valued map on K; its values
    sit inside the eps-dilation of T; and the candidate avoids the base point
    (block coordinates of x) everywhere on K.  When no candidate is supplied
    a constant selection is proposed; if the heuristic cannot produce a
    passing candidate the verdict is "unverified", not "fail".
    ``property_name`` names the returned report.
    """
    if block is None:
        block = tuple(range(t.codomain_dim))
    proposed = candidate is None
    if proposed:
        candidate = propose_constant_selection(t, k_region, eps, grid)
        if candidate is None:
            return CheckReport(
                property_name, UNVERIFIED, (), {"eps": eps, "candidate": "heuristic"},
                ("no constant selection exists inside the dilated values at this resolution",),
            )

    usc_rep = check_usc(candidate, grid, delta, tol, k_region, property_name="selection-usc")

    def nonconvex(_, value):
        n = len(value.boxes)
        if n != 1:
            yield math.inf, "nonconvex", f"{n} canonical boxes"

    def escapes(target, value):
        if target.is_empty or not value.subset_within(target.dilate(eps), tol):
            yield math.inf, "escapes dilation", ""

    maps = (t, candidate)
    children = [
        usc_rep,
        scan_values("selection-convex", maps, grid, nonconvex, None, k_region),
        scan_values("selection-inside-dilation", maps, grid, escapes, {"eps": eps, "tol": tol},
                    k_region),
        scan_block_points("selection-avoids-base-point", maps, grid, block,
                          "contains base point", closure=True,
                          parameters={"block": list(block)}, within=k_region),
    ]
    rep = combine_reports(property_name, children, {
        "eps": eps, "candidate": "heuristic" if proposed else "supplied"})
    if proposed and rep.verdict == FAIL:
        return CheckReport(property_name, UNVERIFIED, rep.witnesses, rep.parameters,
                           rep.notes + ("heuristic candidate failed; property undecided",),
                           rep.children)
    return rep
