"""Seeded inputs for the ``scan-affine`` workload.

Each case is a continuous affine box map S on a closed 2-D square, a
closed box C and a closed box K, in the style of
``boxcorr.suites.lemma_2_1_suite``. The job checks S and the
sum-then-clip map (S + C) cap K for upper semicontinuity; by Lemma 2.1
both must pass.

Cases are plain values built from public constructors only. The job turns
them into fresh ``PiecewiseMap`` objects every time, so no evaluation
cache carries over from one job to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from boxcorr import AffForm, AffineInterval, BoxSet, FlaggedInterval, Grid, Piece, PiecewiseMap

_DYADIC = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
_SLOPES = (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0)
DIM = 2
CODIM = 2
GRID_DIVISIONS = 8


@dataclass(frozen=True)
class AffineCase:
    domain: tuple
    s_box: tuple  # AffineInterval per output coordinate: S
    sc_box: tuple  # AffineInterval per output coordinate: S + C
    k_box: tuple  # FlaggedInterval per output coordinate: K
    step: float


def _range(form: AffForm, domain) -> tuple[float, float]:
    lo = hi = form.const
    for c, iv in zip(form.coeffs, domain):
        lo += min(c * iv.lo, c * iv.hi)
        hi += max(c * iv.lo, c * iv.hi)
    return lo, hi


def _case(rng: random.Random) -> AffineCase:
    a = rng.choice(_DYADIC)
    w = rng.choice((1.0, 2.0))
    domain = tuple(FlaggedInterval.closed(a, a + w) for _ in range(DIM))
    # Each output coordinate tracks one domain axis, and the two coordinates
    # track different axes: values then move with the point in both
    # directions, while clipping against K only ever splits the domain along
    # axis-aligned lines (no NonAxisAlignedSplitError).
    axes = rng.sample(range(DIM), CODIM)
    s_box, sc_box, k_box = [], [], []
    for axis in axes:
        coeffs = tuple(rng.choice(_SLOPES) if j == axis else 0.0 for j in range(DIM))
        const = rng.choice(_DYADIC)
        width = rng.choice((0.25, 0.5, 1.0))
        c_lo = rng.choice(_DYADIC)
        c_hi = c_lo + rng.choice((0.0, 0.5, 1.0))
        s_box.append(AffineInterval(AffForm(const, coeffs), AffForm(const + width, coeffs),
                                    True, True))
        sc_lo = AffForm(const + c_lo, coeffs)
        sc_hi = AffForm(const + width + c_hi, coeffs)
        sc_box.append(AffineInterval(sc_lo, sc_hi, True, True))
        # K meets S(x) + C at every x: it reaches below the smallest upper
        # end and above the largest lower end.
        k_lo = _range(sc_hi, domain)[0] - rng.choice((0.0, 0.5, 1.0))
        k_hi = max(_range(sc_lo, domain)[1] + rng.choice((0.0, 0.5, 1.0)), k_lo)
        k_box.append(FlaggedInterval.closed(k_lo, k_hi))
    return AffineCase(domain, tuple(s_box), tuple(sc_box), tuple(k_box), w / GRID_DIVISIONS)


def generate(seed: int, count: int) -> list[AffineCase]:
    rng = random.Random(seed)
    return [_case(rng) for _ in range(count)]


def build(case: AffineCase) -> tuple[PiecewiseMap, PiecewiseMap, BoxSet, Grid]:
    """Fresh maps S and S + C, the clip set K, and the scan grid."""
    s = PiecewiseMap(case.domain, CODIM, (Piece(case.domain, (case.s_box,)),))
    sc = PiecewiseMap(case.domain, CODIM, (Piece(case.domain, (case.sc_box,)),))
    k = BoxSet.of(CODIM, [case.k_box])
    return s, sc, k, Grid.over_box(case.domain, case.step)
