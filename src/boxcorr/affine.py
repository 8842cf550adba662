"""Affine endpoint forms for piecewise set-valued maps.

A map piece carries, per output dimension, an interval whose endpoints are
affine in the domain coordinates: ``c0 + sum_j c_j * x_j``.  Constant boxes
are the special case with all ``c_j = 0``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
