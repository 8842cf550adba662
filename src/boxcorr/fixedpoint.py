"""Grid search for fixed points of upper approximations.

A product map bundles one set-valued factor per coordinate block
together with a compact target set per block. For a tolerance ``eps``
each factor is replaced by the adherence of its clipped dilation; a
grid point is kept when every block of it lies in the corresponding
approximate value. Shrinking ``eps`` shrinks the approximation, so the
kept sets are nested and their intersection over an ``eps`` chain is
just the set at the smallest tolerance; the nesting is still verified
point for point rather than assumed.

Survivors are certified against an independently serialized and
reparsed copy of each factor, so a bug that corrupts in-memory piece
data after construction cannot silently confirm itself.

Within one call each derived map is built once per distinct input, and
equal inputs share it. Equal inputs give equal-valued maps and every read
of these maps is a membership test, so sharing changes no answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import io as _io
from .checks import GridCells
from .intervals import BoxSet, Grid
from .maps import PiecewiseMap, adherence, t_upper

DEFAULT_EPS_CHAIN: tuple[float, ...] = (1 / 2, 1 / 4, 1 / 8, 1 / 16)


@dataclass(frozen=True, slots=True)
class ProductMap:
    """Factors ``S_i``, compact targets ``D_i``, and coordinate blocks.

    All factors share one domain whose coordinates the blocks partition.
    Factor ``i`` maps the full domain into the block-``i`` coordinates,
    and ``d_sets[i]`` lives in that block's dimension.
    """

    factors: tuple[PiecewiseMap, ...]
    d_sets: tuple[BoxSet, ...]
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a product map needs at least one factor")
        if not (len(self.factors) == len(self.d_sets) == len(self.blocks)):
            raise ValueError("factors, d_sets, and blocks must align")
        domain = self.factors[0].domain
        dim = len(domain)
        seen: set[int] = set()
        for i, (f, d, blk) in enumerate(zip(self.factors, self.d_sets, self.blocks)):
            if f.domain != domain:
                raise ValueError(f"factor {i} has a different domain")
            if not blk:
                raise ValueError(f"block {i} is empty")
            if f.codomain_dim != len(blk) or d.dim != len(blk):
                raise ValueError(f"factor {i}: codomain, target, and block sizes differ")
            for j in blk:
                if j < 0 or j >= dim or j in seen:
                    raise ValueError(f"block {i}: coordinate {j} repeated or out of range")
                seen.add(j)
        if len(seen) != dim:
            raise ValueError("blocks must partition all domain coordinates")

    @property
    def domain(self):
        return self.factors[0].domain

    @property
    def dim(self) -> int:
        return len(self.domain)

    def to_doc(self) -> dict:
        return _io.product_to_doc(self.factors, self.d_sets, self.blocks)

    @staticmethod
    def from_doc(doc: dict) -> "ProductMap":
        factors, d_sets, blocks = _io.product_from_doc(doc)
        return ProductMap(factors, d_sets, blocks)

    @staticmethod
    def single(t: PiecewiseMap, d: BoxSet) -> "ProductMap":
        return ProductMap((t,), (d,), (tuple(range(len(t.domain))),))


@dataclass(frozen=True, slots=True)
class QvSet:
    """Grid points fixed under the eps-approximation, in lexicographic order."""

    eps: float
    points: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ChainResult:
    eps_chain: tuple[float, ...]
    qv_sets: tuple[QvSet, ...]
    nested: bool
    intersection: tuple[tuple[float, ...], ...]
    certified: tuple[tuple[float, ...], ...]
    uncertified: tuple[tuple[float, ...], ...]
    certification_radius: float
    # (point, factor index) pairs for survivors that failed certification
    failures: tuple[tuple[tuple[float, ...], int], ...] = field(default=())

    @property
    def cardinalities(self) -> dict[float, int]:
        return {q.eps: len(q.points) for q in self.qv_sets}

    @property
    def found(self) -> bool:
        return bool(self.intersection)


def approximation_maps(pm: ProductMap, eps: float) -> tuple[PiecewiseMap, ...]:
    """Adherence of the clipped eps-dilation, one map per factor, built
    once per distinct ``(factor, target)`` pair and shared by equal pairs."""
    built: dict[tuple[PiecewiseMap, BoxSet], PiecewiseMap] = {}
    for f, d in zip(pm.factors, pm.d_sets):
        if (f, d) not in built:
            built[f, d] = adherence(t_upper(f, eps, d))
    return tuple(built[f, d] for f, d in zip(pm.factors, pm.d_sets))


def check_grid_covers_targets(grid: Grid, dim: int, d_sets: tuple[BoxSet, ...],
                              blocks: tuple[tuple[int, ...], ...]) -> None:
    """Raise ``ValueError`` unless the grid spans every target set on its
    block's coordinates, so that no fixed point or equilibrium is missed."""
    if grid.dim != dim:
        raise ValueError(f"grid dimension {grid.dim} != domain dimension {dim}")
    for i, (d, blk) in enumerate(zip(d_sets, blocks)):
        bb = d.bounding_box()
        if bb is None:
            raise ValueError(f"target set {i} is empty")
        for k, j in enumerate(blk):
            if grid.lo[j] > bb[k].lo or grid.hi[j] < bb[k].hi:
                raise ValueError(f"grid does not cover target set {i} on coordinate {j}")


def fixed_points_of_approximation(pm: ProductMap, eps: float, grid: Grid) -> QvSet:
    """All grid points x with every block x_i inside the approximate value at x."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    check_grid_covers_targets(grid, pm.dim, pm.d_sets, pm.blocks)
    approx = approximation_maps(pm, eps)
    kept = (x for _, x, pieces in GridCells(approx, grid).points()
            if all(m.value_on(i, x).contains(tuple(x[j] for j in blk))
                   for m, i, blk in zip(approx, pieces, pm.blocks)))
    return QvSet(eps, tuple(kept))


def certify_fixed_points(
    pm: ProductMap,
    points: tuple[tuple[float, ...], ...],
    radius: float = 0.0,
) -> tuple[list[tuple[float, ...]], list[tuple[tuple[float, ...], int]]]:
    """Split candidates into certified points and (point, factor) failures.

    A point is certified when, for every factor, its block lies in the
    target set and in the adherence of the raw factor, the latter
    thickened by ``radius`` when positive. The factors and targets are
    serialized and reparsed first. The adherence is built once per
    distinct reparsed factor and valued once per candidate; the factors
    are still tested in order, so a failure names the first failing one.
    """
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    factors = tuple(_io.roundtrip_map(f) for f in pm.factors)
    d_sets = tuple(_io.boxset_from_doc(_io.loads(_io.dumps(_io.boxset_to_doc(d))))
                   for d in pm.d_sets)
    distinct: dict[PiecewiseMap, int] = {}
    which = tuple(distinct.setdefault(f, len(distinct)) for f in factors)
    bars = tuple(adherence(f) for f in distinct)
    certified: list[tuple[float, ...]] = []
    failures: list[tuple[tuple[float, ...], int]] = []
    for x in points:
        bad = -1
        values: list[BoxSet | None] = [None] * len(bars)
        for i, (k, d, blk) in enumerate(zip(which, d_sets, pm.blocks)):
            xb = tuple(x[j] for j in blk)
            val = values[k]
            if val is None:
                val = bars[k].evaluate(x)
                if radius > 0:
                    val = val.dilate(radius).closure()
                values[k] = val
            if not (d.contains(xb) and val.contains(xb)):
                bad = i
                break
        if bad < 0:
            certified.append(x)
        else:
            failures.append((x, bad))
    return certified, failures


def intersect_qv_chain(
    pm: ProductMap,
    grid: Grid,
    eps_chain: tuple[float, ...] = DEFAULT_EPS_CHAIN,
    certification_radius: float = 0.0,
) -> ChainResult:
    """Compute the fixed-point sets along an eps chain and intersect them.

    An empty intersection means no fixed point at this grid resolution,
    not an error. The chain is processed from the largest eps down, and
    ``nested`` records whether the grid point set of each level lies inside
    the previous level's: the nesting is compared on the grid points, not
    between the exact sets.
    """
    if not eps_chain:
        raise ValueError("eps chain must be nonempty")
    if not certification_radius >= 0:
        raise ValueError("radius must be nonnegative")
    chain = tuple(sorted(set(eps_chain), reverse=True))
    qv_sets = tuple(fixed_points_of_approximation(pm, eps, grid) for eps in chain)
    nested = all(
        set(small.points) <= set(large.points)
        for large, small in zip(qv_sets, qv_sets[1:])
    )
    common = set(qv_sets[0].points)
    for q in qv_sets[1:]:
        common &= set(q.points)
    intersection = tuple(sorted(common))
    certified, failures = certify_fixed_points(
        pm, intersection, radius=certification_radius)
    uncertified = tuple(x for x, _ in failures)
    return ChainResult(
        eps_chain=chain,
        qv_sets=qv_sets,
        nested=nested,
        intersection=intersection,
        certified=tuple(certified),
        uncertified=uncertified,
        certification_radius=certification_radius,
        failures=tuple(failures),
    )


def chain_result_to_doc(result: ChainResult) -> dict:
    return {
        "kind": "qv-chain",
        "eps_chain": list(result.eps_chain),
        "cardinalities": {repr(q.eps): len(q.points) for q in result.qv_sets},
        "nested": result.nested,
        "intersection": [list(x) for x in result.intersection],
        "certified": [list(x) for x in result.certified],
        "uncertified": [list(x) for x in result.uncertified],
        "certification_radius": result.certification_radius,
    }
