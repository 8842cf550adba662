"""Exact arithmetic on finite unions of axis-aligned boxes with flagged endpoints.

Every set handled here is a finite union of boxes; each box is a product of
intervals that carry per-endpoint open/closed flags, so open sets, half-open
sets, and single points are all represented exactly.  The neighborhood basis
is fixed to open boxes ``(-eps, eps)^dim``, which makes the one-sided excess
(`hausdorff_upper`) the sup-norm excess and keeps it coherent with
``subset_within``: ``hausdorff_upper(a, b) <= tol`` iff
``subset_within(a, b, tol)``.

Equality of :class:`BoxSet` values is decidable: construction canonicalizes
the union on an :class:`AtomGrid` (cut every dimension at all endpoints,
take the atomic cells of each box, then merge runs dimension by dimension),
and the canonical form depends only on the point set, not on how the union
was written down.  The same grid serves map rebuilds and the partition
check of :class:`~boxcorr.maps.PiecewiseMap`.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class EmptyExcessError(ValueError):
    """Excess over an empty target set is undefined."""


# ---------------------------------------------------------------------------
# Flagged intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FlaggedInterval:
    """A nonempty real interval with open/closed endpoint flags.

    Invariants: ``lo <= hi``, and a singleton (``lo == hi``) is closed on
    both sides.  The empty set is *not* an interval; it is the empty union
    at the :class:`BoxSet` level (constructors return ``None`` instead).
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a singleton interval must be closed on both sides")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def make(lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> "FlaggedInterval | None":
        """Build an interval, or return ``None`` when the data denotes the empty set."""
        if lo > hi:
            return None
        if lo == hi and not (lo_closed and hi_closed):
            return None
        return FlaggedInterval(lo, hi, lo_closed, hi_closed)

    @staticmethod
    def closed(lo: float, hi: float) -> "FlaggedInterval":
        return FlaggedInterval(lo, hi, True, True)

    @staticmethod
    def open(lo: float, hi: float) -> "FlaggedInterval":
        return FlaggedInterval(lo, hi, False, False)

    @staticmethod
    def point(v: float) -> "FlaggedInterval":
        return FlaggedInterval(v, v, True, True)

    # -- queries -------------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, v: float) -> bool:
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.lo_closed:
            return False
        if v == self.hi and not self.hi_closed:
            return False
        return True

    def closure(self) -> "FlaggedInterval":
        return FlaggedInterval(self.lo, self.hi, True, True)

    def intersect(self, other: "FlaggedInterval") -> "FlaggedInterval | None":
        """Flag-exact intersection; shared endpoints are excluded iff either side excludes them."""
        if self.lo > other.lo:
            lo, lc = self.lo, self.lo_closed
        elif other.lo > self.lo:
            lo, lc = other.lo, other.lo_closed
        else:
            lo, lc = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hc = self.hi, self.hi_closed
        elif other.hi < self.hi:
            hi, hc = other.hi, other.hi_closed
        else:
            hi, hc = self.hi, self.hi_closed and other.hi_closed
        return FlaggedInterval.make(lo, hi, lc, hc)

    def difference(self, other: "FlaggedInterval") -> "list[FlaggedInterval]":
        """``self`` minus ``other`` as up to two flag-exact intervals."""
        if self.intersect(other) is None:
            return [self]
        out = []
        left = FlaggedInterval.make(self.lo, other.lo, self.lo_closed, not other.lo_closed)
        if left is not None:
            out.append(left)
        right = FlaggedInterval.make(other.hi, self.hi, not other.hi_closed, self.hi_closed)
        if right is not None:
            out.append(right)
        return out

    def sort_key(self) -> tuple:
        return (self.lo, self.hi, not self.lo_closed, not self.hi_closed)


# ---------------------------------------------------------------------------
# Boxes (products of flagged intervals)
# ---------------------------------------------------------------------------

Box = tuple[FlaggedInterval, ...]


def box_contains(box: Box, point: Sequence[float]) -> bool:
    if len(box) != len(point):
        raise DimensionMismatchError(f"point of dim {len(point)} vs box of dim {len(box)}")
    return all(iv.contains(v) for iv, v in zip(box, point))


def box_intersect(a: Box, b: Box) -> Box | None:
    if len(a) != len(b):
        raise DimensionMismatchError(f"boxes of dims {len(a)} and {len(b)}")
    out = []
    for ia, ib in zip(a, b):
        r = ia.intersect(ib)
        if r is None:
            return None
        out.append(r)
    return tuple(out)


def box_closure(box: Box) -> Box:
    return tuple(iv.closure() for iv in box)


def box_difference(a: Box, b: Box) -> list[Box]:
    """``a`` minus ``b`` as a list of pairwise-disjoint flagged boxes."""
    if box_intersect(a, b) is None:
        return [a]
    out: list[Box] = []
    current = list(a)
    for k in range(len(a)):
        ik = current[k]
        for part in ik.difference(b[k]):
            piece = tuple(current[:k]) + (part,) + tuple(a[k + 1:])
            out.append(piece)
        clipped = ik.intersect(b[k])
        assert clipped is not None
        current[k] = clipped
    return out


def boxes_difference(boxes: Iterable[Box], minus: Iterable[Box]) -> list[Box]:
    """Set difference of two unions of boxes, as disjoint boxes."""
    work = list(boxes)
    for b in minus:
        nxt: list[Box] = []
        for a in work:
            nxt.extend(box_difference(a, b))
        work = nxt
    return work


def box_is_all_closed(box: Box) -> bool:
    return all(iv.lo_closed and iv.hi_closed for iv in box)


def box_sort_key(box: Box) -> tuple:
    return tuple(iv.sort_key() for iv in box)


# ---------------------------------------------------------------------------
# Canonicalization machinery
# ---------------------------------------------------------------------------

class AtomGrid:
    """The atoms of a cut grid, numbered per axis.

    Built from per-axis cut values.  On each axis the point atom at the
    ``k``-th smallest cut is atom ``2k`` and the open gap after it is atom
    ``2k + 1``; a box whose endpoints are all cuts is the product of its
    per-axis atom spans.  The atoms themselves are built on first use.
    """

    def __init__(self, axes: Iterable[Iterable[float]]) -> None:
        self.cuts = [sorted(set(axis)) for axis in axes]
        self.rank = [{v: k for k, v in enumerate(cuts)} for cuts in self.cuts]

    @functools.cached_property
    def atoms(self) -> list[list[FlaggedInterval]]:
        out = []
        for cuts in self.cuts:
            atoms = []
            for v, w in zip(cuts, cuts[1:]):
                atoms += (FlaggedInterval.point(v), FlaggedInterval.open(v, w))
            out.append(atoms + [FlaggedInterval.point(v) for v in cuts[-1:]])
        return out

    def spans(self, box: Box) -> list[range]:
        """Per axis, the atoms that make up ``box``; its endpoints must be cuts."""
        return [range(2 * rank[iv.lo] + (not iv.lo_closed), 2 * rank[iv.hi] + iv.hi_closed)
                for rank, iv in zip(self.rank, box)]

    def cells(self, box: Box) -> Iterator[tuple[int, ...]]:
        """The atomic cells (tuples of atom indices) that make up ``box``."""
        return itertools.product(*self.spans(box))

    def count(self, box: Box) -> int:
        return math.prod(len(span) for span in self.spans(box))

    def atom(self, idx: tuple[int, ...]) -> Box:
        return tuple(atoms[i] for atoms, i in zip(self.atoms, idx))

    def merge(self, cells: Iterable[tuple[int, ...]]) -> list[Box]:
        """Merge a set of atomic cells back into boxes.

        Runs of consecutive atoms are joined dimension by dimension in fixed
        order; the output is a deterministic function of the cell set.
        """
        parts: list[tuple] = [tuple(c) for c in cells]
        for d, atoms in enumerate(self.atoms):
            groups: dict[tuple, list[tuple]] = {}
            for part in parts:
                key = part[:d] + part[d + 1:]
                groups.setdefault(key, []).append(part)
            nxt: list[tuple] = []
            for key, members in groups.items():
                idxs = sorted(p[d] for p in members)
                start = prev = idxs[0]
                runs: list[tuple[int, int]] = []
                for i in idxs[1:]:
                    if i == prev + 1:
                        prev = i
                    else:
                        runs.append((start, prev))
                        start = prev = i
                runs.append((start, prev))
                for i0, i1 in runs:
                    first, last = atoms[i0], atoms[i1]
                    iv = FlaggedInterval(first.lo, last.hi, first.lo_closed, last.hi_closed)
                    nxt.append(key[:d] + (iv,) + key[d:])
            parts = nxt
        return sorted((tuple(p) for p in parts), key=box_sort_key)


def canonical_boxes(dim: int, boxes: Iterable[Box]) -> tuple[Box, ...]:
    boxes = [b for b in boxes]
    for b in boxes:
        if len(b) != dim:
            raise DimensionMismatchError(f"box of dim {len(b)} in a dim-{dim} set")
    if not boxes:
        return ()
    if len(boxes) == 1:
        return (boxes[0],)
    grid = AtomGrid([{v for b in boxes for v in (b[d].lo, b[d].hi)} for d in range(dim)])
    cells: set[tuple[int, ...]] = set()
    for b in boxes:
        cells.update(grid.cells(b))
    return tuple(grid.merge(cells))


# ---------------------------------------------------------------------------
# BoxSet
# ---------------------------------------------------------------------------

class _ClosureBoxes(tuple):
    """The canonical boxes of a set that ``BoxSet.closure`` built. It equals,
    hashes and prints as the plain tuple of the same boxes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class BoxSet:
    """A finite union of flagged boxes in canonical form.

    Build through :meth:`BoxSet.of`; direct construction trusts the caller
    to pass a canonical tuple.
    """

    dim: int
    boxes: tuple[Box, ...]

    @staticmethod
    def of(dim: int, boxes: Iterable[Box]) -> "BoxSet":
        return BoxSet(dim, canonical_boxes(dim, boxes))

    @staticmethod
    def empty(dim: int) -> "BoxSet":
        return BoxSet(dim, ())

    @staticmethod
    def single(box: Box) -> "BoxSet":
        return BoxSet(len(box), (box,))

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def __iter__(self) -> Iterator[Box]:
        return iter(self.boxes)

    # -- core operations -----------------------------------------------------

    def dilate(self, eps: float) -> "BoxSet":
        """Open Minkowski dilation by ``(-eps, eps)^dim``; requires ``eps > 0``."""
        if eps <= 0:
            raise ValueError("dilation radius must be positive")
        boxes = [
            tuple(FlaggedInterval(iv.lo - eps, iv.hi + eps, False, False) for iv in b)
            for b in self.boxes
        ]
        return BoxSet.of(self.dim, boxes)

    def closure(self) -> "BoxSet":
        """The topological closure; ``self`` itself when it is already closed
        by construction: every box is closed, or ``closure`` built it.

        A union of closed boxes is closed, and every constructor yields the
        canonical form, which depends only on the point set; so such a set
        is returned as it is instead of being canonicalized again. The
        canonical form of a closed union can hold a box that is not closed,
        as ``[0,0.5]x{0} ∪ {0}x(0,0.5]`` for ``[0,0.5]x{0} ∪ {0}x[0,0.5]``;
        the closure keeps its boxes in a ``_ClosureBoxes`` tuple, which
        marks the set as closed without a field that every ``BoxSet`` would
        carry.
        """
        if type(self.boxes) is _ClosureBoxes or all(box_is_all_closed(b) for b in self.boxes):
            return self
        return BoxSet(self.dim, _ClosureBoxes(
            canonical_boxes(self.dim, [box_closure(b) for b in self.boxes])))

    def intersect(self, other: "BoxSet") -> "BoxSet":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim}")
        out = []
        for a in self.boxes:
            for b in other.boxes:
                r = box_intersect(a, b)
                if r is not None:
                    out.append(r)
        return BoxSet.of(self.dim, out)

    def union(self, other: "BoxSet") -> "BoxSet":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim}")
        return BoxSet.of(self.dim, self.boxes + other.boxes)

    def difference(self, other: "BoxSet") -> "BoxSet":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim}")
        return BoxSet.of(self.dim, boxes_difference(self.boxes, other.boxes))

    def contains(self, point: Sequence[float]) -> bool:
        return any(box_contains(b, point) for b in self.boxes)

    def subset_within(self, other: "BoxSet", tol: float = 0.0) -> bool:
        """``self subseteq closure(dilate(other, tol))``; ``tol == 0`` is exact flagged inclusion."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim}")
        if self.is_empty:
            return True
        if tol == 0.0:
            return self.intersect(other) == self
        if other.is_empty:
            return False
        target = BoxSet.of(
            other.dim,
            [tuple(FlaggedInterval(iv.lo - tol, iv.hi + tol, True, True) for iv in b) for b in other.boxes],
        )
        return self.closure().intersect(target) == self.closure()

    def bounding_box(self) -> Box | None:
        if self.is_empty:
            return None
        return tuple(
            FlaggedInterval.closed(
                min(b[d].lo for b in self.boxes),
                max(b[d].hi for b in self.boxes),
            )
            for d in range(self.dim)
        )

    def is_open_within(self, ambient: "BoxSet") -> bool:
        """Relative openness: no point of self lies in the closure of ambient minus self."""
        comp = ambient.difference(self)
        return self.intersect(comp.closure()).is_empty

    # -- one-sided excess ------------------------------------------------------

    def hausdorff_upper(self, other: "BoxSet") -> float:
        """Sup over self of sup-norm distance to other (excess of self over other).

        Both sets are closed first.  Against a one-box closed target the
        excess is the closed form ``max(0, tgt.lo - bx.lo, bx.hi - tgt.hi)``
        over every box ``bx`` of ``self`` and every dimension; it is 0
        exactly when closed ``self`` lies inside the target.  Otherwise the
        answer lies in a finite candidate set of endpoint differences and
        half-gaps; coverage is monotone in the radius and can change only at
        those candidates.
        """
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim}")
        if self.is_empty:
            return 0.0
        if other.is_empty:
            raise EmptyExcessError("undefined excess: target set is empty")
        a = self.closure()
        b = other.closure()
        if len(b.boxes) == 1:
            tgt = b.boxes[0]
            worst = 0.0
            for bx in a.boxes:
                for d in range(self.dim):
                    lo_gap = tgt[d].lo - bx[d].lo
                    hi_gap = bx[d].hi - tgt[d].hi
                    worst = max(worst, lo_gap, hi_gap)
            return worst
        if a.subset_within(b, 0.0):
            return 0.0
        candidates = {0.0}
        for d in range(self.dim):
            a_ends = {iv_end for bx in a.boxes for iv_end in (bx[d].lo, bx[d].hi)}
            b_ends = sorted({iv_end for bx in b.boxes for iv_end in (bx[d].lo, bx[d].hi)})
            for ae in a_ends:
                for be in b_ends:
                    candidates.add(abs(ae - be))
            for i, be in enumerate(b_ends):
                for be2 in b_ends[i + 1:]:
                    candidates.add((be2 - be) / 2.0)
        ordered = sorted(candidates)
        lo, hi = 0, len(ordered) - 1
        if not a.subset_within(b, ordered[hi]):  # pragma: no cover - candidate set is sufficient
            raise AssertionError("excess candidate search failed to cover")
        while lo < hi:
            mid = (lo + hi) // 2
            if a.subset_within(b, ordered[mid]):
                hi = mid
            else:
                lo = mid + 1
        return ordered[lo]


# ---------------------------------------------------------------------------
# Uniform grids
# ---------------------------------------------------------------------------

# The most points a grid, price simplex or sampled allocation axis may have:
# a scan visits each point, so a larger one would not finish.
MAX_GRID_POINTS = 10**8


@dataclass(frozen=True)
class Grid:
    """A uniform sample grid spanning ``[lo, hi]`` per dimension with a scalar step.

    Axis values are computed once (``lo + i*step``) so repeated traversals
    produce bit-identical floats.
    """

    dim: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    step: float

    def __post_init__(self) -> None:
        if len(self.lo) != self.dim or len(self.hi) != self.dim:
            raise DimensionMismatchError("grid bounds do not match dim")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        for l, h in zip(self.lo, self.hi):
            if l > h:
                raise ValueError("grid bounds out of order")
            if not math.isfinite((h - l) / self.step):
                raise ValueError(f"grid extent [{l}, {h}] at step {self.step} is not finite")

    @staticmethod
    def over_box(box: Box, step: float) -> "Grid":
        return Grid(len(box), tuple(iv.lo for iv in box), tuple(iv.hi for iv in box), step)

    def _axis_count(self, d: int) -> int:
        return int(math.floor((self.hi[d] - self.lo[d]) / self.step + 1e-9)) + 1

    def axis_values(self, d: int) -> list[float]:
        return [self.lo[d] + i * self.step for i in range(self._axis_count(d))]

    def points(self) -> Iterator[tuple[float, ...]]:
        axes = [self.axis_values(d) for d in range(self.dim)]
        return itertools.product(*axes)

    def point_count(self) -> int:
        return math.prod(self._axis_count(d) for d in range(self.dim))
