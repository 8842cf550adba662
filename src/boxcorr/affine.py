"""Affine endpoint forms for piecewise set-valued maps.

A map piece carries, per output dimension, an interval whose endpoints are
affine in the domain coordinates: ``c0 + sum_j c_j * x_j``.  Constant boxes
are the special case with all ``c_j = 0``.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .intervals import Box, FlaggedInterval


@dataclass(frozen=True, slots=True)
class AffForm:
    """``const + coeffs . x`` over a fixed-dimension domain."""

    const: float
    coeffs: tuple[float, ...]

    @staticmethod
    def constant(c: float, domain_dim: int) -> "AffForm":
        return AffForm(c, (0.0,) * domain_dim)

    @staticmethod
    def coordinate(j: int, domain_dim: int, scale: float = 1.0, shift: float = 0.0) -> "AffForm":
        coeffs = [0.0] * domain_dim
        coeffs[j] = scale
        return AffForm(shift, tuple(coeffs))

    @property
    def domain_dim(self) -> int:
        return len(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def active_vars(self) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.coeffs) if c != 0.0)

    def __call__(self, x: Sequence[float]) -> float:
        return self.const + sum(c * v for c, v in zip(self.coeffs, x) if c != 0.0)

    def bounds(self, box: Box) -> tuple[float, float]:
        """Min and max over the closure of ``box``.

        Each term is the product ``__call__`` computes, summed in the same
        order, so each bound is the value at the minimizing (maximizing) corner.
        """
        terms = [(c * iv.lo, c * iv.hi) for c, iv in zip(self.coeffs, box) if c != 0.0]
        return (self.const + sum(min(t) for t in terms),
                self.const + sum(max(t) for t in terms))

    def root(self) -> tuple[int, float] | None:
        """``(j, x_j)`` where a form in the one variable ``x_j`` vanishes; else ``None``."""
        active = self.active_vars()
        if len(active) != 1:
            return None
        j = active[0]
        return j, -self.const / self.coeffs[j]

    def shift(self, delta: float) -> "AffForm":
        return AffForm(self.const + delta, self.coeffs)

    def sub(self, other: "AffForm") -> "AffForm":
        return AffForm(self.const - other.const,
                       tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def slope_l1(self) -> float:
        return sum(abs(c) for c in self.coeffs)


@dataclass(frozen=True, slots=True)
class AffineInterval:
    """An interval-valued output coordinate with affine endpoints and flags."""

    lo: AffForm
    hi: AffForm
    lo_closed: bool = True
    hi_closed: bool = True

    @staticmethod
    def constant(iv: FlaggedInterval, domain_dim: int) -> "AffineInterval":
        return AffineInterval(AffForm.constant(iv.lo, domain_dim),
                              AffForm.constant(iv.hi, domain_dim),
                              iv.lo_closed, iv.hi_closed)

    @property
    def is_constant(self) -> bool:
        return self.lo.is_constant and self.hi.is_constant

    def instantiate(self, x: Sequence[float]) -> FlaggedInterval | None:
        return FlaggedInterval.make(self.lo(x), self.hi(x), self.lo_closed, self.hi_closed)

    def closure(self) -> "AffineInterval":
        return AffineInterval(self.lo, self.hi, True, True)

    def width_form(self) -> AffForm:
        return self.hi.sub(self.lo)

    def slope_l1(self) -> float:
        return max(self.lo.slope_l1(), self.hi.slope_l1())


AffineBox = tuple[AffineInterval, ...]
PieceValue = tuple[AffineBox, ...]  # union of affine boxes; () is the empty value


def affine_box_constant(box: Box, domain_dim: int) -> AffineBox:
    return tuple(AffineInterval.constant(iv, domain_dim) for iv in box)


def affine_box_closure(b: AffineBox) -> AffineBox:
    return tuple(ai.closure() for ai in b)


def instantiate_box(b: AffineBox, x: Sequence[float]) -> Box | None:
    """Evaluate an affine box at ``x``; ``None`` when some coordinate degenerates to empty."""
    out = []
    for ai in b:
        iv = ai.instantiate(x)
        if iv is None:
            return None
        out.append(iv)
    return tuple(out)


def constant_box_of(b: AffineBox) -> Box | None:
    """The box of a constant affine box, or ``None`` if any endpoint varies."""
    out = []
    for ai in b:
        if not ai.is_constant:
            return None
        iv = FlaggedInterval.make(ai.lo.const, ai.hi.const, ai.lo_closed, ai.hi_closed)
        if iv is None:
            return None
        out.append(iv)
    return tuple(out)


def affine_box_sort_key(b: AffineBox) -> tuple:
    return tuple(
        (ai.lo.const, ai.lo.coeffs, ai.hi.const, ai.hi.coeffs, not ai.lo_closed, not ai.hi_closed)
        for ai in b
    )


def _dyadic_bits(values: Iterable) -> int | None:
    """The least ``q`` such that each value is ``k * 2**-q`` with an integer
    ``|k| < 2**53``, so that it converts to a float exactly; ``None`` when
    some value has no such form."""
    q = 0
    for v in values:
        try:
            num, den = v.as_integer_ratio()
        except (OverflowError, ValueError):  # inf, nan
            return None
        if den & (den - 1) or abs(num) >= 2 ** 53:
            return None
        q = max(q, den.bit_length() - 1)
    return q


def move_bound(forms: Iterable[AffForm], coords: Sequence[Sequence[float]],
               radius: int) -> tuple[float, float, float]:
    """``(worst, mag, slack)`` for the ``lo``/``hi`` endpoint forms
    ``forms`` at the points of the grid box whose axis-j values are the
    increasing ``coords[j]``. Take two such points at most ``radius``
    indices apart per axis, where each computed endpoint is the value of
    one of ``forms`` and each exact endpoint moves by at most the largest
    ``sum_j |c_j| |x'_j - x_j|`` over the forms. Then every excess
    ``BoxSet.hausdorff_upper`` computes between the one-box values at the
    two points is below ``worst + slack``, so ``worst + slack <= bound``
    decides that no such pair exceeds ``bound``.

    - ``G_j`` is the largest computed gap between values of ``coords[j]``
      at most ``radius`` indices apart, and ``X_j`` the largest magnitude
      of one.
    - For a form ``f = c_0 + sum_j c_j x_j``, ``W_f = sum_j |c_j| G_j`` and
      ``M_f = |c_0| + sum_j |c_j| X_j``; ``worst`` and ``mag`` are their
      maxima over the forms.
    - ``slack = (n + 2) * 2**-48 * (mag + worst)``, ``n`` the domain
      dimension.

    With ``u = 2**-53`` let ``g = (n + 2) u / (1 - (n + 2) u)``, at most
    ``(n + 2) * 2**-52``, so that the slack is at least ``16 g (mag +
    worst)``; the ``+ 2`` covers the constant and one conversion of a
    ``Fraction`` operand mixed with floats.

    - ``AffForm.__call__`` sums ``n`` products and the constant, so each
      value is off by at most ``g mag`` at each of the two points.
    - The true gap between two coordinates is at most ``G_j / (1 - u)``,
      and ``worst`` itself is off by at most ``g worst``.
    - ``hausdorff_upper`` compares two one-box values by the endpoint
      differences ``tgt.lo - bx.lo`` and ``bx.hi - tgt.hi``, one rounding
      each. So every excess it returns is at most ``worst + 3 g (worst +
      mag)``, which the rounded ``worst + slack`` still exceeds.
    """
    # coordinates increase, so the pairs exactly that many indices apart hold the largest gap
    gaps = [max(b - a for a, b in zip(c, c[min(radius, len(c) - 1):])) for c in coords]
    mags = [max(abs(c[0]), abs(c[-1])) for c in coords]
    worst = mag = 0.0
    for f in forms:
        size = list(map(abs, f.coeffs))
        worst = max(worst, sum(map(operator.mul, size, gaps)))
        mag = max(mag, abs(f.const) + sum(map(operator.mul, size, mags)))
    return worst, mag, (len(coords) + 2) * 2.0 ** -48 * (mag + worst)


def computes_nonempty(box: AffineBox, coords: Sequence[Sequence[float]]) -> bool:
    """Whether, at the points of the grid box whose axis-j values are the
    increasing ``coords[j]``, every interval of ``box`` instantiates
    nonempty. A ``True`` is rigorous for the float evaluation; a ``False``
    decides nothing. ``g``, ``mag`` and ``slack`` below are ``move_bound``'s
    for the box's ``lo``/``hi`` forms at radius 0, where no point moves and
    ``worst`` is 0.

    An interval instantiates nonempty at every point when its computed
    least width over the grid box, off by at most ``2 g mag``, exceeds
    ``slack``: each computed endpoint is off by at most ``g mag``.
    Otherwise it must be evaluated exactly. Let ``q`` be the sum of
    ``_dyadic_bits`` over the box's numbers and over ``coords``, so that
    each of those converts to a float exactly and every product ``c_j x_j``
    is a multiple of ``2**-q``. With ``q <= 1074`` and ``mag <= 2**(52 -
    q)`` (one bit spare for the rounding of ``mag``), every product and
    partial sum of ``AffForm.__call__`` is such a multiple below ``2**53 *
    2**-q``, hence a float, and no step rounds. The computed interval then
    is the exact one, whose width is affine and least at the corner that
    takes, per axis, the lower end where ``hi``'s coefficient is at least
    ``lo``'s and the upper end otherwise; the interval must be nonempty
    there. With ``Fraction`` data and coordinates every step is exact, and
    the slack only makes the test stricter.
    """
    _, mag, slack = move_bound((f for ai in box for f in (ai.lo, ai.hi)), coords, 0)
    span = [FlaggedInterval.closed(c[0], c[-1]) for c in coords]
    thin = [ai for ai in box if not ai.width_form().bounds(span)[0] > slack]
    if not thin:
        return True
    bits = [_dyadic_bits(v for ai in box for f in (ai.lo, ai.hi) for v in (f.const, *f.coeffs)),
            _dyadic_bits(v for c in coords for v in c)]
    if None in bits or sum(bits) > 1074 or not mag <= 2.0 ** (52 - sum(bits)):
        return False
    return all(ai.instantiate([iv.lo if h >= l else iv.hi
                               for h, l, iv in zip(ai.hi.coeffs, ai.lo.coeffs, span)])
               for ai in thin)


def _exact_at(f: AffForm, x: Sequence[float]) -> tuple[int, int]:
    """``f(x)`` as an integer ratio ``(num, den)``, computed without rounding."""
    num, den = f.const.as_integer_ratio()
    for c, v in zip(f.coeffs, x):
        (cn, cd), (vn, vd) = c.as_integer_ratio(), v.as_integer_ratio()
        num, den = num * cd * vd + cn * vn * den, den * cd * vd
    return num, den


def agree_on(f: AffForm, g: AffForm, face: Box) -> bool:
    """Whether ``f`` and ``g`` take the same value at every point of the
    closed box ``face``, decided exactly: the same form, or equal
    coefficients on the axes where ``face`` is not one point and equal
    values at its lower corner, compared as integer ratios. Between
    different forms, a number with no such ratio (``inf``, ``nan``) gives
    ``False``."""
    if f == g:
        return True
    if any(a != b for a, b, iv in zip(f.coeffs, g.coeffs, face) if iv.lo != iv.hi):
        return False
    corner = [iv.lo for iv in face]
    try:
        (fn, fd), (gn, gd) = _exact_at(f, corner), _exact_at(g, corner)
    except (OverflowError, ValueError):
        return False
    return fn * gd == gn * fd
