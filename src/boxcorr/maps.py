"""Piecewise set-valued maps on flagged boxes.

A :class:`PiecewiseMap` partitions a flagged-box domain into regions, each
carrying a finite union of affine-endpoint interval boxes (possibly the
empty value).  The partition is validated symbolically at construction:
pieces are pairwise disjoint and cover the domain exactly, both decided on
the atom spans of an :class:`~boxcorr.intervals.AtomGrid` over every region
and domain endpoint.

Derived maps (`adherence`, `intersect_maps`) are computed exactly by refining
the domain at axis-aligned crossing loci of the affine endpoint forms;
`t_upper` is `intersect_maps` of the dilated map with the constant map D.
A rebuild values each atom signature once: for `adherence` the set of pieces
whose closed regions hold the atom, normalizing each distinct set of their
value boxes once; for `intersect_maps` one signature per part whose box pairs
read no axis (empty or constant values), and on any other part the atom's
nonempty clipped boxes, each output coordinate of each box pair clipped once
per distinct tuple of the atom's indices on the axes its endpoints read.
Crossings that are not axis-aligned (endpoint differences depending on two
or more variables with indefinite sign) raise
:class:`NonAxisAlignedSplitError`; boxes are the only region language here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence

from .affine import (
    AffForm,
    AffineBox,
    AffineInterval,
    PieceValue,
    affine_box_closure,
    affine_box_constant,
    affine_box_sort_key,
    constant_box_of,
    instantiate_box,
)
from .intervals import (
    AtomGrid,
    Box,
    BoxSet,
    DimensionMismatchError,
    box_contains,
    box_closure,
    box_intersect,
    box_sort_key,
    boxes_difference,
    canonical_boxes,
)


class DomainError(ValueError):
    """A point lies outside the map's domain."""


class NonAxisAlignedSplitError(ValueError):
    """An exact result would need a region boundary that is not axis-aligned."""


# ---------------------------------------------------------------------------
# Pieces and maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Piece:
    region: Box
    value: PieceValue

    @property
    def is_constant(self) -> bool:
        """Every endpoint of the value is constant (the empty value included),
        so the piece has one value on its whole region."""
        return all(ai.is_constant for b in self.value for ai in b)


def normalize_value(boxes: Iterable[AffineBox], domain_dim: int) -> PieceValue:
    """Dedupe and order a union of affine boxes; constant unions are canonicalized."""
    uniq = list(dict.fromkeys(boxes))
    if not uniq:
        return ()
    consts = [constant_box_of(b) for b in uniq]
    if all(c is not None for c in consts):
        dim = len(uniq[0])
        merged = canonical_boxes(dim, [c for c in consts if c is not None])
        return tuple(affine_box_constant(b, domain_dim) for b in merged)
    return tuple(sorted(uniq, key=affine_box_sort_key))


@dataclass(frozen=True)
class PiecewiseMap:
    """A set-valued map given by a finite flagged-box partition of its domain.

    Construction checks, in this order: each region has the domain's
    dimension and lies in the domain; regions are pairwise disjoint; they
    cover the domain; value boxes have the codomain's dimension and widths
    valid on their region. Overlap and cover are decided on the atom grid
    of every region and domain endpoint, where each region inside the
    domain is a union of atoms: two regions overlap exactly when their atom
    spans overlap on every axis, and disjoint regions cover the domain
    exactly when their atom counts add up to the domain's.
    """

    domain: Box
    codomain_dim: int
    pieces: tuple[Piece, ...]
    _constant_values: dict[int, BoxSet] = field(default_factory=dict, init=False, compare=False,
                                                repr=False)

    def __post_init__(self) -> None:
        ddim = len(self.domain)
        regions = [p.region for p in self.pieces]
        for r in regions:
            if len(r) != ddim:
                raise DimensionMismatchError("piece region dimension does not match domain")
            if box_intersect(r, self.domain) != r:
                raise ValueError("piece region escapes the domain")
        grid = AtomGrid([{e for b in (self.domain, *regions) for e in (b[d].lo, b[d].hi)}
                         for d in range(ddim)])
        spans = [grid.spans(r) for r in regions]
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                if all(a.start < b.stop and b.start < a.stop for a, b in zip(spans[i], spans[j])):
                    raise ValueError(f"pieces {i} and {j} overlap")
        if sum(grid.count(r) for r in regions) != grid.count(self.domain):
            raise ValueError("pieces do not cover the domain")
        for p in self.pieces:
            for b in p.value:
                if len(b) != self.codomain_dim:
                    raise DimensionMismatchError("value box dimension does not match codomain")
                for ai in b:
                    if ai.lo.domain_dim != ddim or ai.hi.domain_dim != ddim:
                        raise DimensionMismatchError("affine form dimension does not match domain")
                    _validate_width(p.region, ai)

    # -- basic queries --------------------------------------------------------

    @property
    def domain_dim(self) -> int:
        return len(self.domain)

    def piece_at(self, x: Sequence[float]) -> tuple[int, Piece]:
        for i, p in enumerate(self.pieces):
            if box_contains(p.region, x):
                return i, p
        raise DomainError(f"point {tuple(x)} outside map domain")

    def value_on(self, i: int, x: Sequence[float]) -> BoxSet:
        """The value of piece ``i`` at a point ``x`` of its region.

        A piece whose endpoints are all constant (the empty value included)
        has one value on its whole region; it is built once and kept, keyed
        by the piece index, so the map holds at most one value per piece.
        Affine pieces are instantiated at ``x`` on every call.
        """
        hit = self._constant_values.get(i)
        if hit is not None:
            return hit
        piece = self.pieces[i]
        out = BoxSet.of(self.codomain_dim,
                        [inst for b in piece.value if (inst := instantiate_box(b, x)) is not None])
        if piece.is_constant:
            self._constant_values[i] = out
        return out

    def evaluate(self, x: Sequence[float]) -> BoxSet:
        """The value at ``x``: the value of the piece whose region holds ``x``."""
        return self.value_on(self.piece_at(x)[0], x)

    def max_slope(self) -> float:
        worst = 0.0
        for p in self.pieces:
            for b in p.value:
                for ai in b:
                    worst = max(worst, ai.slope_l1())
        return worst

    def nonempty_region(self) -> BoxSet:
        """Union of piece regions carrying a nonempty value."""
        return BoxSet.of(self.domain_dim, [p.region for p in self.pieces if p.value])


def constant_map(domain: Box, value: BoxSet) -> PiecewiseMap:
    dd = len(domain)
    val = normalize_value([affine_box_constant(b, dd) for b in value.boxes], dd)
    return PiecewiseMap(domain, value.dim, (Piece(domain, val),))


# ---------------------------------------------------------------------------
# Sign analysis of affine forms over regions
# ---------------------------------------------------------------------------

def _effective_sign(region: Box, f: AffForm) -> int:
    """Sign of ``f`` on the region: +1, -1, or 0 (identically zero).

    Weak signs are sharpened when the zero locus misses the region (the
    single-variable root lies on an excluded boundary); the value at the
    region's midpoint, the mean of the extremes, then gives the sign.
    Raises when the sign genuinely changes inside the region.
    """
    mn, mx = f.bounds(region)
    if mn > 0:
        return 1
    if mx < 0:
        return -1
    if mn == 0 and mx == 0:
        return 0
    root = f.root()
    if root is None:
        raise NonAxisAlignedSplitError(
            "affine comparison changes sign inside a region along a non-axis-aligned locus"
        )
    if region[root[0]].contains(root[1]):
        raise AssertionError("single-variable crossing inside an unrefined region")
    return 1 if mn + mx > 0 else -1


def _validate_width(region: Box, ai: AffineInterval) -> None:
    w = ai.width_form()
    mn, mx = w.bounds(region)
    if mn < 0:
        raise ValueError("value endpoints out of order on the piece region")
    if ai.lo_closed and ai.hi_closed:
        return
    # open flags: the slice must be nonempty (positive width) on the region itself
    root = w.root()
    if (mn <= 0) if root is None else (mx <= 0 or region[root[0]].contains(root[1])):
        raise ValueError("open-flag value may degenerate inside its region; "
                         "encode the empty value instead")


# ---------------------------------------------------------------------------
# Domain refinement
# ---------------------------------------------------------------------------

def _region_cuts(*maps: PiecewiseMap) -> list[set[float]]:
    """Per axis, every piece region endpoint of the given maps."""
    return [{v for m in maps for p in m.pieces for v in (p.region[d].lo, p.region[d].hi)}
            for d in range(maps[0].domain_dim)]


def _add_root_cut(cuts: Sequence[set[float]], region: Box, f: AffForm) -> None:
    root = f.root()
    if root is not None and region[root[0]].contains(root[1]):
        cuts[root[0]].add(root[1])


def _rebuild(domain: Box, codomain_dim: int, grid: AtomGrid,
             parts: Iterable[tuple[Box, Any]],
             signature: Callable[[Any, tuple[int, ...]], Hashable],
             value_at: Callable[[Any, Hashable, Box], PieceValue]) -> PiecewiseMap:
    """Walk each part's atoms, value each signature once, merge atoms by value.

    ``grid`` is cut at every region endpoint of ``parts`` and every crossing
    root. ``parts`` is a list of ``(region, ctx)`` pairs whose regions
    partition the domain; each part walks only its own atoms, so a point
    atom at an open end of the domain is never valued.
    ``signature(ctx, idx)``, at an atom's indices, is what its value can
    depend on within its part (for ``intersect_maps``, the clipped boxes
    themselves, which it computes as it walks); ``value_at(ctx, sig, atom)``
    runs once per ``(part index, signature)``, at its first atom in walk
    order. Keys of equal value are joined before ``grid.merge``, a
    deterministic function of the cell set, so the pieces are those of
    valuing every atom.
    """
    keyed: dict[tuple[int, Hashable], tuple[PieceValue, list[tuple[int, ...]]]] = {}
    for k, (region, ctx) in enumerate(parts):
        for idx in grid.cells(region):
            key = (k, signature(ctx, idx))
            entry = keyed.get(key)
            if entry is None:
                entry = keyed[key] = (value_at(ctx, key[1], grid.atom(idx)), [])
            entry[1].append(idx)
    groups: dict[PieceValue, list[tuple[int, ...]]] = {}
    for value, cells in keyed.values():
        groups.setdefault(value, []).extend(cells)
    pieces: list[Piece] = []
    for value, cells in groups.items():
        for box in grid.merge(cells):
            pieces.append(Piece(box, value))
    pieces.sort(key=lambda p: box_sort_key(p.region))
    return PiecewiseMap(domain, codomain_dim, tuple(pieces))


# ---------------------------------------------------------------------------
# Affine interval intersection on a sign-stable region
# ---------------------------------------------------------------------------

def _tighter(region: Box, a: AffForm, a_closed: bool, b: AffForm, b_closed: bool,
             pick: int) -> tuple[AffForm, bool]:
    """The larger (pick=1) or smaller (pick=-1) endpoint; a tie is closed only if both are."""
    s = _effective_sign(region, a.sub(b)) * pick
    if s > 0:
        return a, a_closed
    if s < 0:
        return b, b_closed
    return a, (a_closed and b_closed)


def _intersect_affine_intervals(region: Box, a: AffineInterval, b: AffineInterval) -> AffineInterval | None:
    lo, lc = _tighter(region, a.lo, a.lo_closed, b.lo, b.lo_closed, 1)
    hi, hc = _tighter(region, a.hi, a.hi_closed, b.hi, b.hi_closed, -1)
    sw = _effective_sign(region, hi.sub(lo))
    if sw < 0:
        return None
    if sw == 0 and not (lc and hc):
        return None
    return AffineInterval(lo, hi, lc, hc)


def _intersect_affine_boxes(region: Box, a: AffineBox, b: AffineBox) -> AffineBox | None:
    out = []
    for ia, ib in zip(a, b):
        r = _intersect_affine_intervals(region, ia, ib)
        if r is None:
            return None
        out.append(r)
    return tuple(out)


def _pair_cut_forms(a: AffineInterval, b: AffineInterval) -> list[AffForm]:
    return [
        a.lo.sub(b.lo),
        a.hi.sub(b.hi),
        a.hi.sub(a.lo),
        a.hi.sub(b.lo),
        b.hi.sub(a.lo),
        b.hi.sub(b.lo),
    ]


# ---------------------------------------------------------------------------
# Dilation, clipping, and adherence operators
# ---------------------------------------------------------------------------

def _dilate_affine_box(b: AffineBox, eps: float) -> AffineBox:
    return tuple(
        AffineInterval(ai.lo.shift(-eps), ai.hi.shift(eps), False, False) for ai in b
    )


def t_upper(t: PiecewiseMap, eps: float, d: BoxSet) -> PiecewiseMap:
    """The compact-clipped dilation ``x -> (T(x) + (-eps, eps)^k) intersect D``.

    That is ``intersect_maps`` of ``t`` with each value box dilated (same
    regions) and the constant map ``D``. ``D`` must be closed (compact) as a
    union, whatever its boxes' flags; pieces whose clipped value comes out
    empty are kept with the empty value.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if d.dim != t.codomain_dim:
        raise DimensionMismatchError("D dimension does not match the codomain")
    if d.closure() != d:
        raise ValueError("D must be compact")
    dilated = PiecewiseMap(t.domain, t.codomain_dim, tuple(
        Piece(p.region, tuple(_dilate_affine_box(b, eps) for b in p.value)) for p in t.pieces))
    return intersect_maps(dilated, constant_map(t.domain, d))


def adherence(t: PiecewiseMap) -> PiecewiseMap:
    """The graph-adherence map: value at x is the slice of the closure of the graph.

    Exact for validated pieces: each piece's contribution at x in the closure
    of its region is its value with closed flags and closed region.  Satisfies
    ``closure(evaluate(t, x)) subseteq evaluate(adherence(t), x)`` pointwise.
    Atoms are keyed by the contributors whose closed regions hold them, and
    each distinct set of those contributors' value boxes is normalized once
    per call.
    """
    ddim = t.domain_dim
    contributors = [(box_closure(p.region), tuple(affine_box_closure(b) for b in p.value))
                    for p in t.pieces if p.value]
    grid = AtomGrid(_region_cuts(t))
    # bit c of masks[d][i]: contributor c's closed region holds atom i on axis d
    masks = [[0] * len(atoms) for atoms in grid.atoms]
    for c, (creg, _) in enumerate(contributors):
        for mask, span in zip(masks, grid.spans(creg)):
            for i in span:
                mask[i] |= 1 << c

    def signature(_: None, idx: tuple[int, ...]) -> int:
        held = -1
        for mask, i in zip(masks, idx):
            held &= mask[i]
        return held

    values: dict[frozenset[AffineBox], PieceValue] = {}

    def value_at(_: None, held: int, atom: Box) -> PieceValue:
        boxes = frozenset(b for c, (_, cval) in enumerate(contributors) if held >> c & 1
                          for b in cval)
        value = values.get(boxes)
        if value is None:
            value = values[boxes] = normalize_value(boxes, ddim)
        return value

    return _rebuild(t.domain, t.codomain_dim, grid, [(t.domain, None)], signature, value_at)


def intersect_maps(a: PiecewiseMap, b: PiecewiseMap) -> PiecewiseMap:
    """Pointwise intersection over the common refinement of two partitions.

    Coordinate ``k`` of a box pair reads the axes its four endpoints read,
    and so does its clip ``_intersect_affine_intervals``: a part clips it
    once per distinct tuple of atom indices on those axes, in walk order,
    and stops a pair at its first empty coordinate, so it raises where
    valuing every atom would. A part whose pairs read no axis is valued once.
    """
    if a.domain != b.domain:
        raise ValueError("maps must share a domain")
    if a.codomain_dim != b.codomain_dim:
        raise DimensionMismatchError("codomain dimensions differ")
    ddim = a.domain_dim
    cuts = _region_cuts(a, b)
    parts: list[tuple[Box, tuple[Piece, Piece, list | None]]] = []
    for pa in a.pieces:
        for pb in b.pieces:
            overlap = box_intersect(pa.region, pb.region)
            if overlap is None:
                continue
            # per box pair and output coordinate: the axes its endpoints read,
            # its two intervals and its clip per index tuple on those axes
            coords = []
            for ba in pa.value:
                for bb in pb.value:
                    coords.append([])
                    for ia, ib in zip(ba, bb):
                        for f in _pair_cut_forms(ia, ib):
                            _add_root_cut(cuts, overlap, f)
                        axes = sorted({j for f in (ia.lo, ia.hi, ib.lo, ib.hi)
                                       for j in f.active_vars()})
                        coords[-1].append((axes, ia, ib, {}))
            reads = any(axes for pair in coords for axes, *_ in pair)
            parts.append((overlap, (pa, pb, coords if reads else None)))
    grid = AtomGrid(cuts)

    def signature(part: tuple[Piece, Piece, list | None], idx: tuple[int, ...]) -> Hashable:
        """The part's nonempty clipped boxes at the atom, in pair order; each
        pair stops at its first empty coordinate, as in _intersect_affine_boxes."""
        coords = part[2]
        if coords is None:
            return None
        atom = None
        out = []
        for pair in coords:
            box = []
            for axes, ia, ib, memo in pair:
                key = tuple(idx[j] for j in axes)
                r = memo.get(key, memo)  # the memo itself marks a miss
                if r is memo:
                    if atom is None:
                        atom = grid.atom(idx)
                    r = memo[key] = _intersect_affine_intervals(atom, ia, ib)
                if r is None:
                    break
                box.append(r)
            else:
                out.append(tuple(box))
        return tuple(out)

    def value_at(part: tuple[Piece, Piece, list | None], sig: Hashable, atom: Box) -> PieceValue:
        if sig is None:
            pa, pb, _ = part
            sig = [r for ba in pa.value for bb in pb.value
                   if (r := _intersect_affine_boxes(atom, ba, bb)) is not None]
        return normalize_value(sig, ddim)

    return _rebuild(a.domain, a.codomain_dim, grid, parts, signature, value_at)


def restrict(t: PiecewiseMap, sub: Box) -> PiecewiseMap:
    """The same map over a sub-box of its domain."""
    if box_intersect(sub, t.domain) != sub:
        raise DomainError("restriction box escapes the domain")
    pieces = []
    for p in t.pieces:
        r = box_intersect(p.region, sub)
        if r is not None:
            pieces.append(Piece(r, p.value))
    pieces.sort(key=lambda p: box_sort_key(p.region))
    return PiecewiseMap(sub, t.codomain_dim, tuple(pieces))


def closure_values(t: PiecewiseMap) -> PiecewiseMap:
    """Pointwise closure of values (flags only; regions untouched)."""
    pieces = tuple(Piece(p.region, normalize_value([affine_box_closure(b) for b in p.value], t.domain_dim))
                   for p in t.pieces)
    return PiecewiseMap(t.domain, t.codomain_dim, pieces)


def select_by_region(domain: Box, inner: PiecewiseMap, inner_boxes: Iterable[Box],
                     outer: PiecewiseMap) -> PiecewiseMap:
    """Piece together ``inner`` on the given boxes and ``outer`` elsewhere."""
    inner_boxes = list(inner_boxes)
    pieces: list[Piece] = []
    for b in inner_boxes:
        pieces.extend(restrict(inner, b).pieces)
    for c in boxes_difference([domain], inner_boxes):
        pieces.extend(restrict(outer, c).pieces)
    pieces.sort(key=lambda p: box_sort_key(p.region))
    return PiecewiseMap(domain, inner.codomain_dim, tuple(pieces))
