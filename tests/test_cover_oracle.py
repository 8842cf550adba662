"""The map validator's cover test against a frozen copy of the one it replaced.

``PiecewiseMap`` decides overlap and cover on the atom grid of every region
and domain endpoint: two regions overlap when their atom spans overlap on
every axis, and pairwise-disjoint regions cover the domain when their atom
counts add up to the domain's. Before, it intersected every pair of regions
with ``box_intersect``, subtracted every region from the domain with
``boxes_difference`` and asked whether anything was left. ``seed_validate``
below is that validator, checks and messages in their order; on every region
list both must accept or reject alike, with the same first error.
"""

from __future__ import annotations

import random
import re
import sys

import pytest

from boxcorr import FlaggedInterval, Grid, Piece, PiecewiseMap, intersect_qv_chain, maps
from boxcorr.affine import affine_box_constant
from boxcorr.gallery import ex4_1, theorem_4_1_construction
from boxcorr.intervals import DimensionMismatchError, box_closure, box_intersect, boxes_difference
from boxcorr.maps import _validate_width

I = FlaggedInterval


def seed_validate(domain, codomain_dim, pieces):
    """``PiecewiseMap.__post_init__`` with the ``boxes_difference`` cover test."""
    ddim = len(domain)
    regions = [p.region for p in pieces]
    for r in regions:
        if len(r) != ddim:
            raise DimensionMismatchError("piece region dimension does not match domain")
        if box_intersect(r, domain) != r:
            raise ValueError("piece region escapes the domain")
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if box_intersect(regions[i], regions[j]) is not None:
                raise ValueError(f"pieces {i} and {j} overlap")
    if boxes_difference([domain], regions):
        raise ValueError("pieces do not cover the domain")
    for p in pieces:
        for b in p.value:
            if len(b) != codomain_dim:
                raise DimensionMismatchError("value box dimension does not match codomain")
            for ai in b:
                if ai.lo.domain_dim != ddim or ai.hi.domain_dim != ddim:
                    raise DimensionMismatchError("affine form dimension does not match domain")
                _validate_width(p.region, ai)


def _outcome(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return None


def _random_interval(rng):
    lo = rng.randrange(0, 9) / 2
    hi = lo + rng.choice((0, 0.5, 1, 1.5, 2, 3))
    if lo == hi:
        return I.point(lo)
    return I(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def _split(box, rng, depth):
    """A random guillotine partition of ``box``: a cut on one axis goes to the
    left part, to the right part, or to a point part of its own."""
    d = rng.randrange(len(box))
    iv = box[d]
    inner = [k / 2 for k in range(int(2 * iv.lo) + 1, int(2 * iv.hi) + 1) if iv.lo < k / 2 < iv.hi]
    if depth == 0 or not inner or rng.random() < 0.25:
        return [box]
    c = rng.choice(inner)
    mode = rng.randrange(3)
    parts = [I(iv.lo, c, iv.lo_closed, mode == 0), I(c, iv.hi, mode == 1, iv.hi_closed)]
    if mode == 2:
        parts.append(I.point(c))
    return [b for p in parts for b in _split(box[:d] + (p,) + box[d + 1:], rng, depth - 1)]


def _perturb(regions, domain, rng):
    kind = rng.randrange(6)
    k = rng.randrange(len(regions))
    r = regions[k]
    d = rng.randrange(len(r))
    iv = r[d]
    if kind == 0:  # a gap
        del regions[k]
    elif kind == 1:  # overlap at a closed edge, or an escape at an open domain edge
        regions[k] = box_closure(r)
    elif kind == 2:  # overlap or escape past one end
        regions[k] = r[:d] + (I(iv.lo, iv.hi + 0.5, iv.lo_closed, iv.hi_closed),) + r[d + 1:]
    elif kind == 3 and not iv.is_point:  # a point gap at a closed end
        regions[k] = r[:d] + (I(iv.lo, iv.hi, iv.lo_closed, False),) + r[d + 1:]
    elif kind == 4:  # a point region anywhere in the domain's closure
        regions.append(tuple(I.point(rng.choice((iv.lo, iv.hi))) for iv in domain))
    else:  # an unrelated region
        regions.append(tuple(_random_interval(rng) for _ in domain))


def random_region_lists(seed, count=40):
    """Region lists over 1-4 D domains with open and closed edges: exact
    partitions, and partitions with gaps, overlaps, escapes, point regions,
    stray regions, regions of the wrong dimension and values of the wrong
    dimension."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ddim = rng.randint(1, 4)
        domain = tuple(_random_interval(rng) for _ in range(ddim))
        regions = _split(domain, rng, rng.randint(0, 5))
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            if regions:
                _perturb(regions, domain, rng)
        if regions and rng.random() < 0.05:
            regions[rng.randrange(len(regions))] = tuple(_random_interval(rng)
                                                          for _ in range(ddim + 1))
        rng.shuffle(regions)
        const = affine_box_constant((I.closed(0, 1),), ddim)
        wide = affine_box_constant((I.closed(0, 1), I.closed(0, 1)), ddim)
        values = [rng.choice(((), (const,), (const,), (wide,))) for _ in regions]
        out.append((domain, tuple(Piece(r, v) for r, v in zip(regions, values))))
    return out


@pytest.mark.parametrize("seed", range(25))
def test_cover_test_matches_frozen_validator(seed):
    for domain, pieces in random_region_lists(seed):
        want = _outcome(seed_validate, domain, 1, pieces)
        assert _outcome(PiecewiseMap, domain, 1, pieces) == want, (domain, pieces)


def test_random_region_lists_reach_every_outcome():
    seen = {_outcome(seed_validate, domain, 1, pieces)
            for seed in range(25) for domain, pieces in random_region_lists(seed)}
    messages = {re.sub(r"\d+", "N", m[1]) if m else None for m in seen}
    assert messages >= {None, "pieces N and N overlap", "piece region escapes the domain",
                        "pieces do not cover the domain",
                        "value box dimension does not match codomain",
                        "piece region dimension does not match domain"}


def test_cover_counts_atoms_at_open_and_point_edges():
    domain = (I(0, 2, False, True),)
    square = (I.closed(0, 2), I.closed(0, 1))
    signed = (I.closed(-1, 1),)
    cases = [
        (domain, ((I(0, 1, False, False),), (I.point(1),), (I(1, 2, False, True),)), None),
        (domain, ((I(0, 1, False, False),), (I(1, 2, False, True),)),
         "pieces do not cover the domain"),
        (domain, ((I(0, 1, False, True),), (I(1, 2, True, True),)), "pieces 0 and 1 overlap"),
        (domain, ((I(0, 2, True, True),),), "piece region escapes the domain"),
        (domain, ((I(0, 1, False, True),), (I(1.5, 2, True, True),)),
         "pieces do not cover the domain"),
        (domain, (), "pieces do not cover the domain"),
        # two regions sharing a closed endpoint overlap at a point
        (square, ((I.closed(0, 1), I.closed(0, 1)), (I.closed(1, 2), I.closed(0, 1))),
         "pieces 0 and 1 overlap"),
        # an endpoint that one side holds open is shared by no point
        (square, ((I(0, 1, True, False), I.closed(0, 1)), (I.closed(1, 2), I.closed(0, 1))),
         None),
        (square, ((I.closed(1, 2), I.closed(0, 1)), (I(0, 1, True, False), I.closed(0, 1))),
         None),
        # a point region at another region's open end
        (domain, ((I(1, 2, False, True),), (I(0, 1, False, False),), (I.point(1),)), None),
        (domain, ((I(0, 1, False, False),), (I.point(1),), (I(1, 2, True, True),)),
         "pieces 1 and 2 overlap"),
        (square, ((I(0, 1, True, False), I.closed(0, 1)), (I.point(1), I.point(0)),
                  (I(1, 2, False, True), I.closed(0, 1))), "pieces do not cover the domain"),
        # -0.0 and 0.0 are one endpoint
        (signed, ((I(-1, -0.0, True, False),), (I.closed(0.0, 1),)), None),
        (signed, ((I.closed(-1, -0.0),), (I.closed(0.0, 1),)), "pieces 0 and 1 overlap"),
        (signed, ((I.closed(-1, 0.0),), (I(-0.0, 1, False, True),)), None),
        (signed, ((I(-1, 0.0, True, False),), (I(-0.0, 1, False, True),)),
         "pieces do not cover the domain"),
        ((I.closed(-0.0, 1),), ((I.point(0.0),), (I(-0.0, 1, False, True),)), None),
    ]
    for dom, regions, message in cases:
        pieces = tuple(Piece(r, ()) for r in regions)
        got = _outcome(PiecewiseMap, dom, 1, pieces)
        assert got == _outcome(seed_validate, dom, 1, pieces), (dom, regions)
        assert (got and got[1]) == message, (dom, regions)


def test_symbolic_n4_chain_validates_without_boxes_difference(monkeypatch):
    """Every map the ex4_1(4) chain builds is validated, and none of them
    calls boxes_difference from the validator. Its box_intersect calls are
    the escape tests, one per region: the overlap test runs on atom spans.
    The four factors of the chain are equal, and so are their targets, so
    each approximation and adherence is built once for all four: building
    one per factor validated 1,012 regions."""
    real = maps.boxes_difference
    real_intersect = maps.box_intersect
    from_validator = []
    intersects = []
    validated = []
    real_post_init = PiecewiseMap.__post_init__

    def counted(*args):
        if sys._getframe(1).f_code.co_name == "__post_init__":
            from_validator.append(args)
        return real(*args)

    def counted_intersect(*args):
        if sys._getframe(1).f_code.co_name == "__post_init__":
            intersects.append(args)
        return real_intersect(*args)

    def post_init(self):
        validated.append(self)
        real_post_init(self)

    monkeypatch.setattr(maps, "boxes_difference", counted)
    monkeypatch.setattr(maps, "box_intersect", counted_intersect)
    monkeypatch.setattr(PiecewiseMap, "__post_init__", post_init)
    pm = theorem_4_1_construction(ex4_1(4))
    res = intersect_qv_chain(pm, Grid(4, (0.0,) * 4, (2.0,) * 4, 0.5), (0.5, 0.25, 0.125))
    assert len(res.certified) == 624
    assert validated and not from_validator
    assert len(intersects) == sum(len(m.pieces) for m in validated) == 580
