"""Exchange economies with asymmetric information over future states.

Commodity space layout: one period-0 scalar coordinate followed by one
block of ``n_goods`` coordinates per state, so bundles live in
``R_+^{goods*states + 1}``. Prices use the same layout, normalized to
the unit simplex. An agent's signal classifies states at each price;
consumption must be equal across states the signal cannot distinguish.
That measurability constraint is one list, ``InfoEconomy.coordinate_groups``:
the groups of bundle coordinates the agent must hold equal at a price,
and every reader of measurability walks it.

Budget and information sets are polytopes and subspaces, not box
unions, so the associated (n+1)-agent economy builds them as exact
linear predicates over the truncated consumption box [0, M]^d; it alone
decides M. Emptiness of "cheaper affordable preferred bundle" sets is
decided exactly by minimizing the price form over each value box with
each coordinate group collapsed to one variable (all coefficients are
nonnegative, so the minimum sits at the collapsed lower corner).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import random
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from . import io as _io
from .affine import instantiate_box
from .checks import FAIL, PASS, CheckReport, Witness, combine_reports
from .intervals import MAX_GRID_POINTS, Box, BoxSet, FlaggedInterval, box_intersect
from .maps import DomainError, PiecewiseMap


def _signal_label(name: str, p: tuple[float, ...], state: int) -> int:
    """Resolve a signal preset at a price. Thresholds model price learning."""
    if not isinstance(name, str):
        raise ValueError(f"signal preset must be a string, got {name!r}")
    if name == "pooled":
        return 0
    if name == "revealing":
        return state
    if name.startswith("threshold:"):
        try:
            _, coord, cut = name.split(":")
            k, c = int(coord), float(cut)
        except ValueError:
            raise ValueError(f"signal preset {name!r}: expected threshold:<coordinate>:<cut> "
                             "with an integer coordinate and a numeric cut") from None
        if not 0 <= k < len(p):
            raise ValueError(f"signal preset {name!r}: coordinate {k} is outside the bundle")
        if not math.isfinite(c):
            raise ValueError(f"signal preset {name!r}: the cut must be a finite number")
        return state if p[k] > c else 0
    raise ValueError(f"unknown signal preset {name!r}")


@dataclass(frozen=True)
class InfoEconomy:
    """Agents, states, goods, endowments, signals, and preference maps.

    ``preferences[i]`` maps the full allocation (all agents' bundles,
    concatenated) to a set of bundles the agent strictly prefers;
    ``signals[i]`` is a preset name understood by ``_signal_label``.
    """

    n_agents: int
    n_goods: int
    n_states: int
    endowments: tuple[tuple[float, ...], ...]
    signals: tuple[str, ...]
    preferences: tuple[PiecewiseMap, ...]
    truncation: float | None = None

    def __post_init__(self) -> None:
        for name in ("n_agents", "n_goods", "n_states"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if min(self.n_agents, self.n_goods, self.n_states) < 1:
            raise ValueError("need at least one agent, good, and state")
        d = self.bundle_dim
        if len(self.endowments) != self.n_agents or len(self.signals) != self.n_agents \
                or len(self.preferences) != self.n_agents:
            raise ValueError("per-agent field lengths must equal n_agents")
        for i, e in enumerate(self.endowments):
            if len(e) != d:
                raise ValueError(f"endowment {i}: expected dim {d}")
            if any(c < 0 for c in e):
                raise ValueError(f"endowment {i}: negative component")
        for i, q in enumerate(self.preferences):
            if len(q.domain) != self.n_agents * d or q.codomain_dim != d:
                raise ValueError(f"preference map {i}: dimension mismatch")
        for name in self.signals:
            _signal_label(name, (0.0,) * d, 0)

    @property
    def bundle_dim(self) -> int:
        return self.n_goods * self.n_states + 1

    @functools.cached_property
    def aggregate_endowment(self) -> tuple[float, ...]:
        """The endowments summed per coordinate, built once per economy."""
        return tuple(sum(e[k] for e in self.endowments) for k in range(self.bundle_dim))

    def coordinate_groups(self, i: int, p: tuple[float, ...]) -> tuple[tuple[int, ...], ...]:
        """The groups of bundle coordinates agent ``i`` must hold equal at
        price ``p``: ``(0,)`` for the period-0 coordinate, then one group
        per signal class (states given one label at ``p``, by label) and
        good, class-major and good-minor."""
        classes: dict[int, list[int]] = {}
        for s in range(self.n_states):
            classes.setdefault(_signal_label(self.signals[i], p, s), []).append(s)
        return ((0,),) + tuple(tuple(1 + s * self.n_goods + g for s in cls)
                               for _, cls in sorted(classes.items())
                               for g in range(self.n_goods))


@dataclass(frozen=True)
class PriceSimplex:
    """The unit price simplex sampled at a rational resolution."""

    dim: int
    resolution: int

    def __post_init__(self) -> None:
        if self.dim < 1 or self.resolution < 1:
            raise ValueError("dim and resolution must be positive")

    def points(self) -> Iterable[tuple[float, ...]]:
        n, k = self.resolution, self.dim
        for cuts in itertools.combinations(range(n + k - 1), k - 1):
            parts = []
            prev = -1
            for c in cuts + (n + k - 1,):
                parts.append(c - prev - 1)
                prev = c
            yield tuple(part / n for part in parts)

    def point_count(self) -> int:
        return math.comb(self.resolution + self.dim - 1, self.dim - 1)


# ---------------------------------------------------------------------------
# Primitive sets
# ---------------------------------------------------------------------------

def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    """The products of ``a`` and ``b`` added left to right in floats: monotone
    in ``b`` for ``a >= 0``, the bound ``remark_4_3_inclusion`` rules triples
    out by. Not ``sum``, which compensates its rounding from Python 3.12 on;
    on 3.10 and 3.11 the two agree bit for bit."""
    s = 0.0
    for t in map(operator.mul, a, b):
        s += t
    return s


def _in_box(x: Sequence[float], truncation: float) -> bool:
    """Membership in the truncated consumption box [0, truncation]^d."""
    return all(0 <= c <= truncation for c in x)


@dataclass(frozen=True)
class BudgetSet:
    """Strictly affordable truncated bundles {x in [0,M]^d : px < pe}."""

    p: tuple[float, ...]
    wealth: float
    truncation: float
    dim: int

    def contains(self, x: Sequence[float]) -> bool:
        if len(x) != self.dim:
            raise ValueError("bundle dimension mismatch")
        return _in_box(x, self.truncation) and _dot(self.p, x) < self.wealth

    def closure_contains(self, x: Sequence[float]) -> bool:
        """Membership in the closure; empty when no bundle is affordable."""
        return (not self.is_empty and _in_box(x, self.truncation)
                and _dot(self.p, x) <= self.wealth)

    @property
    def is_empty(self) -> bool:
        # x = 0 is feasible iff 0 < wealth
        return not self.wealth > 0


@dataclass(frozen=True)
class InformationSet:
    """Bundles measurable w.r.t. a signal: equal on each coordinate group
    of ``InfoEconomy.coordinate_groups``."""

    groups: tuple[tuple[int, ...], ...]
    dim: int

    def contains(self, x: Sequence[float]) -> bool:
        if len(x) != self.dim:
            raise ValueError("bundle dimension mismatch")
        for g in self.groups:
            vals = [x[c] for c in g]
            if max(vals) != min(vals):
                return False
        return True


# ---------------------------------------------------------------------------
# The associated abstract economy
# ---------------------------------------------------------------------------

def _collapsed_min(box: Box, p: tuple[float, ...],
                   groups: tuple[tuple[int, ...], ...]) -> float | None:
    """Exact min of p over a value box intersected with the measurability
    subspace, or None when that intersection is empty.

    Collapsing every coordinate group to one variable turns the
    constrained minimum into a lower-corner evaluation: each group's range
    is the flagged intersection of its interval factors and its price
    coefficient is the (nonnegative) sum of the group's price entries.
    """
    total = 0.0
    for g in groups:
        iv = box[g[0]]
        for c in g[1:]:
            iv = iv.intersect(box[c])
            if iv is None:
                return None
        total += iv.lo * sum(p[c] for c in g)
    return total


@dataclass(frozen=True)
class AgentClauses:
    agent: int
    in_closed_budget_info: bool
    conflict_empty: bool

    @property
    def ok(self) -> bool:
        return self.in_closed_budget_info and self.conflict_empty


@dataclass(frozen=True)
class AssociatedCertificate:
    allocation: tuple[tuple[float, ...], ...]
    price: tuple[float, ...]
    agents: tuple[AgentClauses, ...]
    price_in_simplex: bool
    price_conflict_empty: bool
    valid: bool


@dataclass(frozen=True)
class AssociatedEconomy:
    """The n+1 agent game induced by an information economy.

    Agents 0..n-1 choose bundles: constraint set = strict budget,
    preference = preferred cap measurable, second constraint = budget
    cap measurable. Agent n is the price player on the simplex, who
    prefers prices raising the value of aggregate excess demand.
    Budget and information sets are exact predicates over the truncated
    box [0, truncation]^d, built here from the agent and the price.
    """

    info: InfoEconomy
    truncation: float
    simplex: PriceSimplex

    def __post_init__(self) -> None:
        t = self.truncation
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not math.isfinite(t):
            raise ValueError(f"truncation must be a finite number, got {t!r}")
        if t < max(self.info.aggregate_endowment):
            raise ValueError("truncation too small")
        if self.simplex.dim != self.info.bundle_dim:
            raise ValueError("price dimension must equal the bundle dimension")

    @property
    def n(self) -> int:
        return self.info.n_agents

    def budget(self, i: int, p: tuple[float, ...]) -> BudgetSet:
        return BudgetSet(p, _dot(p, self.info.endowments[i]), self.truncation,
                         self.info.bundle_dim)

    def information(self, i: int, p: tuple[float, ...]) -> InformationSet:
        return InformationSet(self.info.coordinate_groups(i, p), self.info.bundle_dim)

    def preferred_value(self, i: int, allocation: Sequence[Sequence[float]]) -> BoxSet:
        flat = tuple(c for b in allocation for c in b)
        return self.info.preferences[i].evaluate(flat)

    def conflict_empty(self, i: int, allocation: Sequence[Sequence[float]],
                       p: tuple[float, ...]) -> bool:
        """Exactly decides budget cap preferred cap measurable = empty.

        The test is exact per box of the preferred value, and the conflict
        set of a union is the union of the boxes' conflict sets, so it reads
        the preference piece's value boxes as instantiated at the allocation,
        without canonicalizing their union.
        """
        wealth = _dot(p, self.info.endowments[i])
        groups = self.info.coordinate_groups(i, p)
        consumption = (FlaggedInterval.closed(0.0, self.truncation),) * self.info.bundle_dim
        flat = tuple(c for b in allocation for c in b)
        _, piece = self.info.preferences[i].piece_at(flat)
        for value_box in piece.value:
            b = instantiate_box(value_box, flat)
            if b is None:
                continue
            clipped = box_intersect(b, consumption)
            if clipped is None:
                continue
            lo = _collapsed_min(clipped, p, groups)
            if lo is not None and lo < wealth:
                return False
        return True

    def clause_b(self, i: int, bundle: Sequence[float], p: tuple[float, ...]) -> bool:
        """Membership in cl(budget) cap measurable, the closed constraint B.

        The measurable set is a closed subspace holding the origin, which
        is affordable whenever anything is, so this is also the closure of
        budget cap measurable; ``BudgetSet.closure_contains`` is false on
        an empty budget.
        """
        return (self.budget(i, p).closure_contains(bundle)
                and self.information(i, p).contains(bundle))

    def excess(self, allocation: Sequence[Sequence[float]]) -> tuple[float, ...]:
        agg = self.info.aggregate_endowment
        return tuple(
            sum(b[k] for b in allocation) - agg[k]
            for k in range(self.info.bundle_dim)
        )

    def price_conflict_empty(self, allocation: Sequence[Sequence[float]],
                             p: tuple[float, ...]) -> bool:
        """No simplex price values aggregate excess more than p does.

        The preference set {q : q.z > p.z} misses the simplex exactly when
        the best vertex does no better, i.e. max_j z_j <= p.z.
        """
        z = self.excess(allocation)
        return max(z) <= _dot(p, z) + 0.0

    def verify(self, allocation: Sequence[Sequence[float]],
               p: tuple[float, ...]) -> AssociatedCertificate:
        allocation = tuple(tuple(b) for b in allocation)
        if len(allocation) != self.n:
            raise ValueError("one bundle per agent required")
        for b in allocation:
            if len(b) != self.info.bundle_dim or not _in_box(b, self.truncation):
                raise ValueError("bundle outside the truncated consumption box")
        agents = []
        for i in range(self.n):
            agents.append(AgentClauses(
                agent=i,
                in_closed_budget_info=self.clause_b(i, allocation[i], p),
                conflict_empty=self.conflict_empty(i, allocation, p),
            ))
        in_simplex = all(c >= -1e-9 for c in p) and abs(sum(p) - 1.0) <= 1e-9
        price_ok = self.price_conflict_empty(allocation, p)
        valid = in_simplex and price_ok and all(a.ok for a in agents)
        return AssociatedCertificate(allocation, p, tuple(agents), in_simplex,
                                     price_ok, valid)

    def search(self, axis_values: Sequence[float]) -> list[AssociatedCertificate]:
        """Exhaustive scan over measurable grid bundles and simplex prices.

        Bundles are generated per agent from ``axis_values``, one value per
        coordinate group, so only measurable bundles are visited; those in
        the closed budget are kept. Each allocation of kept bundles that
        passes the price player's clause goes to ``verify``, which decides
        the rest. Results in deterministic (price-major) order.
        """
        found: list[AssociatedCertificate] = []
        for p in self.simplex.points():
            per_agent: list[list[tuple[float, ...]]] = []
            for i in range(self.n):
                groups = self.info.coordinate_groups(i, p)
                bud = self.budget(i, p)
                bundles = []
                for combo in itertools.product(axis_values, repeat=len(groups)):
                    bundle = [0.0] * self.info.bundle_dim
                    for g, v in zip(groups, combo):
                        for c in g:
                            bundle[c] = v
                    if bud.closure_contains(bundle):
                        bundles.append(tuple(bundle))
                per_agent.append(bundles)
            for alloc in itertools.product(*per_agent):
                if self.price_conflict_empty(alloc, p):
                    cert = self.verify(alloc, p)
                    if cert.valid:
                        found.append(cert)
        return found


def to_abstract_economy(e: InfoEconomy, simplex: PriceSimplex) -> AssociatedEconomy:
    """The associated economy, truncated at the economy's own truncation, or
    at twice the largest aggregate endowment component when it has none."""
    truncation = e.truncation if e.truncation is not None else 2.0 * max(e.aggregate_endowment)
    return AssociatedEconomy(e, truncation, simplex)


# ---------------------------------------------------------------------------
# Market clearing
# ---------------------------------------------------------------------------

def verify_market_clearing(assoc: AssociatedEconomy, cert: AssociatedCertificate,
                           tol: float = 1e-9) -> CheckReport:
    """Re-derive the exchange-equilibrium clauses from a certificate.

    Clause 1: aggregate consumption does not exceed aggregate endowment,
    checked componentwise. Clause 2: each bundle lies in the closed budget
    cap measurable set (``AssociatedEconomy.clause_b``). Clause 3: no
    preferred measurable bundle is strictly affordable, decided exactly by
    ``AssociatedEconomy.conflict_empty``. Clauses 2 and 3 give one witness
    per failing agent, at that agent's bundle.
    """
    z = assoc.excess(cert.allocation)
    bad = [k for k, v in enumerate(z) if v > tol]
    c1 = CheckReport(
        "clearing-aggregate", PASS if not bad else FAIL,
        tuple(Witness(cert.price, None, z[k], "excess supply violated",
                      f"component {k}") for k in bad[:8]),
        {"excess": list(z), "tol": tol},
    )

    def per_agent(name, category, holds):
        wit = tuple(Witness(cert.allocation[i], None, 0.0, category, f"agent {i}")
                    for i in range(assoc.n) if not holds(i))
        return CheckReport(name, PASS if not wit else FAIL, wit)

    c2 = per_agent("clearing-budget-info", "outside cl(budget cap info)",
                   lambda i: assoc.clause_b(i, cert.allocation[i], cert.price))
    c3 = per_agent("clearing-no-affordable-preferred",
                   "budget cap preferred cap info nonempty",
                   lambda i: assoc.conflict_empty(i, cert.allocation, cert.price))
    return combine_reports("market-clearing", [c1, c2, c3],
                           {"price": list(cert.price), "tol": tol})


# ---------------------------------------------------------------------------
# Structural inclusion sampling
# ---------------------------------------------------------------------------

_INCLUSION_SEED = 20240817


def _measurable_corners(value: BoxSet, info: InformationSet) -> list[tuple[float, ...]]:
    """Deterministic sample of up to four measurable points from a value's
    closure: the structured candidates of ``remark_4_3_inclusion``."""
    out = []
    for b in value.boxes:
        per_coord: list[list[float]] = []
        for iv in b:
            cs = [iv.lo, iv.hi] if iv.hi > iv.lo else [iv.lo]
            per_coord.append(cs)
        for corner in itertools.product(*per_coord):
            # equalize within groups by taking the max, which makes the
            # candidate measurable (stays in box for identical per-group
            # intervals, the only case exercised)
            adjusted = list(corner)
            for g in info.groups:
                mx = max(adjusted[c] for c in g)
                for c in g:
                    adjusted[c] = mx
            cand = tuple(adjusted)
            if all(b[k].closure().contains(cand[k]) for k in range(len(b))):
                if cand not in out:
                    out.append(cand)
            if len(out) >= 4:
                return out
    return out


def _check_sample_domain(assoc: AssociatedEconomy) -> None:
    """Raise ``DomainError`` unless each preference map's domain holds 0 and
    the truncation on every coordinate: the bundles and allocations
    ``remark_4_3_inclusion`` samples range over [0, truncation]."""
    for i, q in enumerate(assoc.info.preferences):
        for k, iv in enumerate(q.domain):
            if not (iv.contains(0.0) and iv.contains(assoc.truncation)):
                shown = (f"{'[' if iv.lo_closed else '('}{iv.lo}, "
                         f"{iv.hi}{']' if iv.hi_closed else ')'}")
                raise DomainError(
                    f"truncation {assoc.truncation} leaves the domain of agent {i}'s "
                    f"preference map: coordinate {k} ranges over {shown}, which must "
                    "contain both 0 and the truncation")


def _group_floors(value: BoxSet, groups: tuple[tuple[int, ...], ...],
                  truncation: float) -> list[tuple[float, ...]]:
    """One lower bound per box of ``value`` on the measurable bundles of
    [0, truncation]^d in it: the bundle holding each group's
    ``max(0, largest lo)`` on all of the group's coordinates. A box with a
    group whose floor exceeds ``min(truncation, smallest hi)`` holds no such
    bundle and gives none."""
    out = []
    for b in value.boxes:
        z = [0.0] * len(b)
        for g in groups:
            lo = max(0.0, max(b[c].lo for c in g))
            if lo > min(truncation, min(b[c].hi for c in g)):
                break
            for c in g:
                z[c] = lo
        else:
            out.append(tuple(z))
    return out


def check_allocation_axis(truncation: float, alloc_step: float) -> None:
    """Raise ``ValueError`` when the allocation axis ``0, alloc_step, ...,
    truncation`` would have more than ``MAX_GRID_POINTS`` points."""
    points = truncation / alloc_step + 1
    if points > MAX_GRID_POINTS:
        raise ValueError(f"truncation {truncation} at step {alloc_step} gives {points:.0f} "
                         f"allocation grid points, more than the limit of {MAX_GRID_POINTS}")


def remark_4_3_inclusion(assoc: AssociatedEconomy, alloc_step: float) -> CheckReport:
    """Sampled check that constrained-preferred bundles satisfy both
    constraints: membership in budget and preferred-measurable implies
    membership in the economy's closed constraint ``clause_b``.

    Prices run over the economy's full simplex grid; allocations are 40
    seeded draws from the step grid (the full product grid is astronomically
    large). Candidates per (price, allocation, agent) are the origin, the
    endowment, the agent's bundle, the truncation corner, 12 seeded grid
    draws and the preferred value's measurable corners, built once per
    (allocation, agent, information set). Only a candidate in the strict
    budget, tested first, is tested for preferred-measurable membership.

    Before any candidate is drawn, each (price, allocation, agent) triple is
    ruled out when no bundle can pass all three tests: when every box of the
    preferred value has a group with no measurable bundle in [0, truncation]
    or a floor (``_group_floors``) whose price is at least the wealth. A
    bundle passing the tests lies above its box's floor, and ``_dot`` is
    monotone, so the floor's price bounds the float budget test itself. One
    pass decides and draws: an open triple first draws the 12 bundles of each
    triple ruled out since the last open one, then its own, and only open ones
    test their candidates, so the draws, hits and witnesses stay those of
    testing every candidate; ``candidates_checked`` still counts all of them.
    A truncation outside a preference map's domain raises ``DomainError``
    from ``_check_sample_domain``, and a step that is not a positive finite
    number, or whose allocation axis would exceed ``MAX_GRID_POINTS`` points
    (``check_allocation_axis``), raises ``ValueError``, before any draw.
    """
    _check_sample_domain(assoc)
    if not 0 < alloc_step < math.inf:
        raise ValueError(f"alloc_step must be a positive finite number, got {alloc_step!r}")
    check_allocation_axis(assoc.truncation, alloc_step)
    choice = random.Random(_INCLUSION_SEED).choice
    d = assoc.info.bundle_dim
    axis = []
    v = 0.0
    while v <= assoc.truncation + 1e-12:
        axis.append(min(v, assoc.truncation))
        v += alloc_step
    def draw_bundle():
        return tuple([choice(axis) for _ in range(d)])

    allocations = [tuple(draw_bundle() for _ in range(assoc.n))
                   for _ in range(40)]
    preferred = [[assoc.preferred_value(i, x) for i in range(assoc.n)] for x in allocations]

    built: dict = {}
    origin, top = (0.0,) * d, (assoc.truncation,) * d
    checked = ruled_out = antecedent_hits = 0
    wit = []
    for p in assoc.simplex.points():
        sets = [(assoc.budget(i, p), assoc.information(i, p)) for i in range(assoc.n)]
        for k, prefs in enumerate(preferred):
            for i, ((bud, inf), pref) in enumerate(zip(sets, prefs)):
                if (k, i, inf) not in built:
                    groups = assoc.info.coordinate_groups(i, p)
                    built[k, i, inf] = (_measurable_corners(pref, inf),
                                        _group_floors(pref, groups, assoc.truncation))
                corners, floors = built[k, i, inf]
                checked += 16 + len(corners)
                # open when a floor of its preferred value is priced below the wealth;
                # the triples ruled out since the last open one draw their bundles here
                if not any(_dot(p, z) < bud.wealth for z in floors):
                    ruled_out += 1
                    continue
                for _ in range(12 * ruled_out):
                    draw_bundle()
                ruled_out = 0
                candidates = [origin, assoc.info.endowments[i], allocations[k][i], top,
                              *[draw_bundle() for _ in range(12)], *corners]
                for y in candidates:
                    if bud.contains(y) and pref.contains(y) and inf.contains(y):
                        antecedent_hits += 1
                        if not assoc.clause_b(i, y, p):
                            wit.append(Witness(y, None, 0.0, "inclusion violated",
                                               f"agent {i} at p={p}"))
    return CheckReport(
        "constraint-inclusion", PASS if not wit else FAIL, tuple(wit[:32]),
        {
            "prices": assoc.simplex.point_count(),
            "allocations": len(allocations),
            "candidates_checked": checked,
            "antecedent_hits": antecedent_hits,
            "alloc_step": alloc_step,
            "seed": _INCLUSION_SEED,
        },
        ("antecedent_hits counts candidates that were affordable and "
         "preferred-measurable; each must satisfy both constraints",),
    )


# ---------------------------------------------------------------------------
# Documents and the built-in toy
# ---------------------------------------------------------------------------

def info_economy_to_doc(e: InfoEconomy) -> dict:
    return {
        "kind": "info-economy",
        "n_agents": e.n_agents,
        "n_goods": e.n_goods,
        "n_states": e.n_states,
        "endowments": [list(v) for v in e.endowments],
        "signals": list(e.signals),
        "preferences": [_io.map_to_doc(q) for q in e.preferences],
        "truncation": e.truncation,
    }


def info_economy_from_doc(doc: Any) -> InfoEconomy:
    if not isinstance(doc, dict) or doc.get("kind") != "info-economy":
        raise _io.DocumentError("expected an 'info-economy' document")
    try:
        return InfoEconomy(
            n_agents=doc["n_agents"],
            n_goods=doc["n_goods"],
            n_states=doc["n_states"],
            endowments=tuple(
                tuple(_io._as_number(c, f"endowments[{i}]")
                      for c in _io._as_list(v, f"endowments[{i}]"))
                for i, v in enumerate(_io._as_list(doc["endowments"], "endowments"))),
            signals=tuple(_io._as_list(doc["signals"], "signals")),
            preferences=tuple(_io.map_from_doc(q, f"preferences[{k}]") for k, q
                              in enumerate(_io._as_list(doc["preferences"], "preferences"))),
            truncation=doc.get("truncation"),
        )
    except KeyError as exc:
        raise _io.DocumentError(f"info-economy: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise _io.DocumentError(f"info-economy: {exc}") from exc


def radner_toy() -> InfoEconomy:
    """Two agents, one good, two states, fully pooled signals.

    Endowments are (1/2, 1/2, 1/2); each agent strictly prefers any
    bundle componentwise above its own by more than 1/2, up to the
    truncation at 2, with an empty preferred set once a component
    reaches 3/2 (local satiation keeps autarky an equilibrium).
    """
    from .affine import AffForm, AffineInterval
    from .intervals import boxes_difference
    from .maps import Piece

    n, d, m_trunc = 2, 3, 2.0
    total = n * d
    domain: Box = tuple(FlaggedInterval.closed(0, m_trunc) for _ in range(total))
    prefs = []
    for i in range(n):
        own = range(i * d, (i + 1) * d)
        live_region = tuple(
            FlaggedInterval(0, 1.5, True, False) if k in own
            else FlaggedInterval.closed(0, m_trunc)
            for k in range(total)
        )
        value_box = tuple(
            AffineInterval(
                AffForm(0.5, tuple(1.0 if j == k else 0.0 for j in range(total))),
                AffForm.constant(m_trunc, total),
                False, True,
            )
            for k in own
        )
        pieces = [Piece(live_region, (value_box,))]
        pieces += [Piece(r, ()) for r in boxes_difference([domain], [live_region])]
        prefs.append(PiecewiseMap(domain, d, tuple(pieces)))
    return InfoEconomy(
        n_agents=n, n_goods=1, n_states=2,
        endowments=((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
        signals=("pooled", "pooled"),
        preferences=tuple(prefs),
        truncation=m_trunc,
    )
