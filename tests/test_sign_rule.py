"""The range-and-root sign rule against the corner enumeration it replaced.

``maps._effective_sign`` and ``maps._validate_width`` decide the sign of an
affine form on a flagged region from ``AffForm.bounds`` (the min and max over
the region's closure, term by term) and ``AffForm.root`` (the zero of a form
in one variable). The ``seed_*`` functions below are the implementations
they replaced: every corner of the region is evaluated, and a form whose
root misses the region is signed at the region's midpoint. They stay here
as the oracle; every case must give the same sign, or the same exception
type, and every width must be accepted or rejected the same way.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcorr import AffForm, AffineInterval, FlaggedInterval, NonAxisAlignedSplitError
from boxcorr.maps import _effective_sign, _validate_width

I = FlaggedInterval


# ---------------------------------------------------------------------------
# Frozen corner enumeration and midpoint sampler
# ---------------------------------------------------------------------------

def seed_box_corners(box):
    return itertools.product(*((iv.lo,) if iv.is_point else (iv.lo, iv.hi) for iv in box))


def seed_region_rep(region):
    return tuple(iv.lo if iv.is_point else (iv.lo + iv.hi) / 2.0 for iv in region)


def seed_effective_sign(region, f):
    vals = [f(c) for c in seed_box_corners(region)]
    mn, mx = min(vals), max(vals)
    if mn > 0:
        return 1
    if mx < 0:
        return -1
    if mn == 0 and mx == 0:
        return 0
    active = f.active_vars()
    if len(active) == 1:
        j = active[0]
        root = -f.const / f.coeffs[j]
        if not region[j].contains(root):
            v = f(seed_region_rep(region))
            if v > 0:
                return 1
            if v < 0:
                return -1
            raise AssertionError("degenerate sign sample")
        raise AssertionError("single-variable crossing inside an unrefined region")
    raise NonAxisAlignedSplitError(
        "affine comparison changes sign inside a region along a non-axis-aligned locus"
    )


def seed_validate_width(region, ai):
    w = ai.width_form()
    vals = [w(c) for c in seed_box_corners(region)]
    mn = min(vals)
    if mn < 0:
        raise ValueError("value endpoints out of order on the piece region")
    if ai.lo_closed and ai.hi_closed:
        return
    active = w.active_vars()
    if not active:
        if w.const <= 0:
            raise ValueError("open-flag value with empty slices; encode the empty value instead")
        return
    if len(active) == 1:
        j = active[0]
        root = -w.const / w.coeffs[j]
        if region[j].contains(root) or w(seed_region_rep(region)) <= 0:
            raise ValueError("open-flag value degenerates inside its region")
        return
    if mn <= 0:
        raise ValueError("open-flag value may degenerate inside its region")


# ---------------------------------------------------------------------------
# Random forms on flagged regions
# ---------------------------------------------------------------------------

DYADIC = tuple(k / 4 for k in range(-8, 9))
NON_DYADIC = (0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.7, 1.1, 2.9, 3.3)


def _number(rng, dyadic, nonzero=False):
    while True:
        if dyadic:
            v = rng.choice(DYADIC)
        elif rng.random() < 0.5:
            v = rng.choice(NON_DYADIC) * rng.choice((-1, 1))
        else:
            v = rng.uniform(-4.0, 4.0)
        if v != 0.0 or not nonzero:
            return v


def _region(rng, dim, dyadic):
    region = []
    for _ in range(dim):
        lo, hi = sorted((_number(rng, dyadic), _number(rng, dyadic)))
        if lo == hi or rng.random() < 0.15:
            region.append(I.point(lo))
        else:
            region.append(I(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return tuple(region)


def _form(rng, region, dyadic):
    """A form in 0, 1 or several variables; its zero locus often runs through
    a region endpoint or corner, or through the middle of the region."""
    dim = len(region)
    active = rng.sample(range(dim), min(dim, rng.choice((0, 1, 1, 1, 2, dim))))
    coeffs = [0.0] * dim
    for j in active:
        coeffs[j] = _number(rng, dyadic, nonzero=True)
    const = _number(rng, dyadic)
    placement = rng.random()
    if active and placement < 0.5:
        corner = [rng.choice((iv.lo, iv.hi)) for iv in region]
        const = -sum(coeffs[j] * corner[j] for j in active)
    elif active and placement < 0.6:
        mid = seed_region_rep(region)
        const = -sum(coeffs[j] * mid[j] for j in active)
    return AffForm(const, tuple(coeffs))


def draw_case(rng):
    dyadic = rng.random() < 0.5
    region = _region(rng, rng.randint(1, 6), dyadic)
    return region, _form(rng, region, dyadic), (rng.random() < 0.5, rng.random() < 0.5)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the same exception type counts as equal
        return type(exc)


def assert_same_decisions(region, f, flags):
    assert _outcome(_effective_sign, region, f) == _outcome(seed_effective_sign, region, f)
    ai = AffineInterval(AffForm.constant(0.0, len(region)), f, *flags)
    assert ai.width_form() == f
    assert _outcome(_validate_width, region, ai) == _outcome(seed_validate_width, region, ai)
    vals = [f(c) for c in seed_box_corners(region)]
    assert f.bounds(region) == (min(vals), max(vals))


@settings(max_examples=1500, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sign_rule_matches_corner_oracle(rng):
    assert_same_decisions(*draw_case(rng))


@pytest.mark.parametrize("seed", range(4))
def test_sign_rule_matches_corner_oracle_on_seeded_sweep(seed):
    rng = random.Random(seed)
    for _ in range(5000):
        assert_same_decisions(*draw_case(rng))


# ---------------------------------------------------------------------------
# bounds and root
# ---------------------------------------------------------------------------

def test_bounds_span_the_closure_of_the_region():
    f = AffForm(1.0, (2.0, -1.0, 0.0))
    region = (I(0, 1, False, False), I(-1, 3, True, False), I.point(5))
    assert f.bounds(region) == (1.0 + 0.0 - 3.0, 1.0 + 2.0 + 1.0)
    assert AffForm.constant(-2.5, 3).bounds(region) == (-2.5, -2.5)


def test_bounds_are_exact_on_fractions():
    f = AffForm(Fraction(1, 3), (Fraction(-2, 7), Fraction(1, 10)))
    region = (I(Fraction(0), Fraction(1, 3)), I(Fraction(-1, 5), Fraction(2, 3), False, True))
    assert f.bounds(region) == (Fraction(1, 3) - Fraction(2, 21) - Fraction(1, 50),
                                Fraction(1, 3) + Fraction(1, 15))


def test_root_only_for_forms_in_one_variable():
    assert AffForm.constant(1.0, 2).root() is None
    assert AffForm(1.0, (1.0, 1.0)).root() is None
    assert AffForm(1.0, (0.0, -4.0)).root() == (1, 0.25)


def test_sign_excluded_root_uses_the_mean_of_the_extremes():
    f = AffForm(-1.0, (1.0,))  # zero at x = 1
    assert _effective_sign((I(1, 2, False, True),), f) == 1
    assert _effective_sign((I(0, 1, True, False),), f) == -1
    with pytest.raises(AssertionError):
        _effective_sign((I.closed(0, 2),), f)
    with pytest.raises(NonAxisAlignedSplitError):
        _effective_sign((I.closed(0, 1), I.closed(0, 1)), AffForm(-1.0, (1.0, 1.0)))


def test_open_width_rule():
    zero = AffForm.constant(0.0, 1)
    left_open = (I(1, 2, False, True),)
    # one variable, root on the excluded endpoint: positive on the region
    _validate_width(left_open, AffineInterval(zero, AffForm(-1.0, (1.0,)), False, False))
    with pytest.raises(ValueError, match="encode the empty value instead"):
        _validate_width((I.closed(1, 2),), AffineInterval(zero, AffForm(-1.0, (1.0,)),
                                                          False, True))
    with pytest.raises(ValueError, match="encode the empty value instead"):
        _validate_width(left_open, AffineInterval(zero, zero, True, False))
    with pytest.raises(ValueError, match="out of order"):
        _validate_width(left_open, AffineInterval(zero, AffForm.constant(-1.0, 1)))
