"""Abstract economies: equilibrium verification, search, hypothesis checks.

An economy is a finite list of agents, each holding a choice box X_i, a
compact target set D_i inside it, and three piecewise maps from the
product domain X into X_i: a constraint map A, a preference map P, and
a second constraint map B. An equilibrium point x* puts every block
x*_i inside the graph adherence of B_i at x* while A_i(x*) and P_i(x*)
do not intersect.

The three hypothesis checkers each bundle one sufficient-condition set
for equilibrium existence. Each returns one CheckReport tree whose
children are per-agent, per-condition verdicts; openness of the
conflict region W_i = {x : A_i(x) cap P_i(x) != empty} is decided
symbolically from the piece partition, everything metric runs on the
supplied grid. Checkers never gate the search functions.

Within one checker call, agents with equal inputs share each derived map
and map-only scan, renamed per agent. Inputs are keyed by ``repr``, which
tells apart those that ``==`` equates but compute differently (``-0.0`` and
``0.0``, a ``Fraction`` and its float), so every report is a fresh run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from . import io as _io
from .checks import (
    FAIL,
    PASS,
    CheckReport,
    GridCells,
    Witness,
    check_dual_w_usc,
    check_e_uscs,
    check_usc,
    combine_reports,
    scan_block_points,
    scan_values,
)
from .fixedpoint import check_grid_covers_targets
from .intervals import (Box, BoxSet, Grid, box_closure, box_contains, box_intersect,
                        box_is_all_closed)
from .maps import (
    DomainError,
    PiecewiseMap,
    adherence,
    closure_values,
    intersect_maps,
    restrict,
    t_upper,
)


@dataclass(frozen=True, slots=True)
class AgentSpec:
    """One agent: choice box, compact target set, and the three maps."""

    x_box: Box
    d_set: BoxSet
    a_map: PiecewiseMap
    p_map: PiecewiseMap
    b_map: PiecewiseMap


@dataclass(frozen=True)
class AbstractEconomy:
    agents: tuple[AgentSpec, ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.agents:
            raise ValueError("an economy needs at least one agent")
        domain = self.domain
        for i, ag in enumerate(self.agents):
            k = len(ag.x_box)
            if ag.d_set.dim != k:
                raise ValueError(f"agent {i}: target set dimension mismatch")
            if ag.d_set.is_empty:
                raise ValueError(f"agent {i}: target set is empty")
            if not ag.d_set.subset_within(BoxSet.single(ag.x_box), 0.0):
                raise ValueError(f"agent {i}: target set escapes the choice box")
            for name, m in (("a", ag.a_map), ("p", ag.p_map), ("b", ag.b_map)):
                if m.domain != domain:
                    raise ValueError(f"agent {i}: map {name} has a foreign domain")
                if m.codomain_dim != k:
                    raise ValueError(f"agent {i}: map {name} codomain mismatch")

    @property
    def domain(self) -> Box:
        return tuple(iv for ag in self.agents for iv in ag.x_box)

    @property
    def dim(self) -> int:
        return len(self.domain)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out = []
        at = 0
        for ag in self.agents:
            k = len(ag.x_box)
            out.append(tuple(range(at, at + k)))
            at += k
        return tuple(out)

    def _derived(self, key: str, build):
        hit = self._cache.get(key)
        if hit is None:
            hit = build()
            self._cache[key] = hit
        return hit

    def conflict_map(self, i: int) -> PiecewiseMap:
        """A_i cap P_i as a piecewise map."""
        return self._derived(f"h{i}", lambda: intersect_maps(
            self.agents[i].a_map, self.agents[i].p_map))

    def adherent_b(self, i: int) -> PiecewiseMap:
        return self._derived(f"bbar{i}", lambda: adherence(self.agents[i].b_map))

    def adherent_conflict(self, i: int) -> PiecewiseMap:
        return self._derived(f"hbar{i}", lambda: adherence(self.conflict_map(i)))

    def conflict_region(self, i: int) -> BoxSet:
        """W_i: the part of the domain where A_i and P_i intersect."""
        return self._derived(f"w{i}", lambda: self.conflict_map(i).nonempty_region())

    def domain_set(self) -> BoxSet:
        return BoxSet.single(self.domain)

    def to_doc(self) -> dict:
        return economy_to_doc(self)


def economy_to_doc(e: AbstractEconomy) -> dict:
    return {
        "kind": "economy",
        "agents": [
            {
                "x_box": _io.box_to_list(ag.x_box),
                "d": _io.boxset_to_doc(ag.d_set),
                "a": _io.map_to_doc(ag.a_map),
                "p": _io.map_to_doc(ag.p_map),
                "b": _io.map_to_doc(ag.b_map),
            }
            for ag in e.agents
        ],
    }


def economy_from_doc(doc: Any) -> AbstractEconomy:
    if not isinstance(doc, dict) or doc.get("kind") != "economy":
        raise _io.DocumentError("expected an 'economy' document")
    raw_agents = doc.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        raise _io.DocumentError("economy: 'agents' must be a nonempty list")
    agents = []
    for k, raw in enumerate(raw_agents):
        if not isinstance(raw, dict):
            raise _io.DocumentError(f"economy.agents[{k}]: expected an object")
        agents.append(AgentSpec(
            x_box=_io.box_from_list(raw.get("x_box"), f"agents[{k}].x_box"),
            d_set=_io.boxset_from_doc(raw.get("d"), f"agents[{k}].d"),
            a_map=_io.map_from_doc(raw.get("a"), f"agents[{k}].a"),
            p_map=_io.map_from_doc(raw.get("p"), f"agents[{k}].p"),
            b_map=_io.map_from_doc(raw.get("b"), f"agents[{k}].b"),
        ))
    try:
        return AbstractEconomy(tuple(agents))
    except ValueError as exc:
        raise _io.DocumentError(f"economy: {exc}") from exc


# ---------------------------------------------------------------------------
# Equilibrium verification and search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AgentEvidence:
    agent: int
    block_point: tuple[float, ...]
    in_adherent_b: bool
    b_piece: int
    b_value: BoxSet
    conflict_empty: bool
    conflict_value: BoxSet

    @property
    def ok(self) -> bool:
        return self.in_adherent_b and self.conflict_empty


@dataclass(frozen=True)
class EquilibriumCertificate:
    point: tuple[float, ...]
    evidence: tuple[AgentEvidence, ...]
    valid: bool
    tol: float = 0.0

    def to_doc(self) -> dict:
        return {
            "kind": "equilibrium-certificate",
            "point": list(self.point),
            "valid": self.valid,
            "tol": self.tol,
            "agents": [
                {
                    "agent": ev.agent,
                    "block_point": list(ev.block_point),
                    "in_adherent_b": ev.in_adherent_b,
                    "b_piece": ev.b_piece,
                    "b_value": _io.boxset_to_doc(ev.b_value),
                    "conflict_empty": ev.conflict_empty,
                    "conflict_value": _io.boxset_to_doc(ev.conflict_value),
                }
                for ev in self.evidence
            ],
        }


def _equilibrium_maps(e: AbstractEconomy) -> tuple[PiecewiseMap, ...]:
    return tuple(m for i in range(len(e.agents)) for m in (e.adherent_b(i), e.conflict_map(i)))


def _certificate(e: AbstractEconomy, x: tuple[float, ...], maps: Sequence[PiecewiseMap],
                 pieces: Sequence[int]) -> EquilibriumCertificate:
    """Per-agent clauses at ``x``; ``pieces[k]`` is the piece of ``maps[k]`` holding it."""
    evidence = []
    for i, blk in enumerate(e.blocks):
        xb = tuple(x[j] for j in blk)
        bval = maps[2 * i].value_on(pieces[2 * i], x)
        hval = maps[2 * i + 1].value_on(pieces[2 * i + 1], x)
        evidence.append(AgentEvidence(
            agent=i,
            block_point=xb,
            in_adherent_b=bval.contains(xb),
            b_piece=pieces[2 * i],
            b_value=bval,
            conflict_empty=hval.is_empty,
            conflict_value=hval,
        ))
    return EquilibriumCertificate(x, tuple(evidence), all(ev.ok for ev in evidence))


def verify_equilibrium(e: AbstractEconomy, x: Sequence[float]) -> EquilibriumCertificate:
    """Exact per-agent equilibrium clauses at a single point of X."""
    x = tuple(x)
    if not box_contains(e.domain, x):
        raise DomainError(f"point {x} outside the product choice box")
    maps = _equilibrium_maps(e)
    return _certificate(e, x, maps, [m.piece_at(x)[0] for m in maps])


def search_equilibria(e: AbstractEconomy, grid: Grid) -> list[EquilibriumCertificate]:
    """Valid certificates at every grid point of X, lexicographic order, as
    ``verify_equilibrium`` gives them, read off one ``GridCells`` point walk."""
    check_grid_covers_targets(grid, e.dim, tuple(ag.d_set for ag in e.agents), e.blocks)
    maps = _equilibrium_maps(e)
    certs = (_certificate(e, x, maps, pieces) for _, x, pieces in GridCells(maps, grid).points())
    return [c for c in certs if c.valid]


# ---------------------------------------------------------------------------
# Hypothesis checkers
# ---------------------------------------------------------------------------

def _convex(bs: BoxSet) -> bool:
    return len(bs.boxes) <= 1


def _sets_condition(e: AbstractEconomy, i: int, name: str,
                    require_compact_x: bool = False) -> CheckReport:
    """Shape of the choice box and the target set."""
    ag = e.agents[i]
    problems = []
    if require_compact_x and not box_is_all_closed(ag.x_box):
        problems.append("choice box is not all-closed")
    if ag.d_set.closure() != ag.d_set:
        problems.append("target set is not closed")
    if not _convex(ag.d_set):
        problems.append("target set is not a single box")
    wit = tuple(Witness((), None, 0.0, "structure", msg) for msg in problems)
    return CheckReport(name, PASS if not problems else FAIL, wit)


def _values_condition_4_1(e: AbstractEconomy, i: int, grid: Grid, name: str) -> CheckReport:
    """Convex A/P values, nonempty convex B values, conflict inside B."""
    ag = e.agents[i]

    def probe(aval, pval, bval, hval):
        if not _convex(aval):
            yield 0.0, "nonconvex", "constraint map value"
        if not _convex(pval):
            yield 0.0, "nonconvex", "preference map value"
        if bval.is_empty or not _convex(bval):
            yield 0.0, "bad value", "second constraint map value"
        if not hval.subset_within(bval, 0.0):
            yield 0.0, "inclusion", "conflict value escapes B"

    # the probe reads A and P only for convexity, decided per piece of at most one box
    return scan_values(name, (ag.a_map, ag.p_map, ag.b_map, e.conflict_map(i)), grid, probe,
                       {"points_checked": grid.point_count()}, convex_only=(0, 1))


def _value_shape(val):
    """Value probe: a witness wherever the value is empty or not one box."""
    if val.is_empty:
        yield math.inf, "empty value", ""
    elif not _convex(val):
        yield 0.0, "nonconvex", ""


def _irreflexive(e: AbstractEconomy, i: int, bar: PiecewiseMap, grid: Grid,
                 what: str) -> CheckReport:
    """Condition 6: agent i's block point never lies in the value of ``bar``."""
    return scan_block_points(f"agent{i}.cond6-irreflexive", (bar,), grid, e.blocks[i],
                             "reflexive", f"block point inside adherent {what} value")


def _vacuous(i: int) -> CheckReport:
    return CheckReport(f"agent{i}.conflict-region-empty", PASS, (), {"informational": True},
                       ("empty conflict region: vacuously true",))


def _openness_condition(e: AbstractEconomy, i: int, name: str) -> CheckReport:
    w = e.conflict_region(i)
    ok = w.is_empty or w.is_open_within(e.domain_set())
    wit = () if ok else (Witness((), None, 0.0, "not open",
                                 "conflict region touches its own relative boundary"),)
    return CheckReport(name, PASS if ok else FAIL, wit,
                       {"w_boxes": len(w.boxes)})


def _approximations(t: PiecewiseMap, d: BoxSet, eps_list: Sequence[float]) -> list[PiecewiseMap]:
    """``adherence(t_upper(t, eps, d))`` for each eps."""
    return [adherence(t_upper(t, eps, d)) for eps in eps_list]


def _shared(memo: dict, fn: Callable, *args, name: str | None = None):
    """``fn(*args)``, run once per ``fn`` and ``repr(args)`` in ``memo``; a report
    comes back under ``name``, with a parameters dict of its own."""
    key = (fn, repr(args))
    if key not in memo:
        memo[key] = fn(*args)
    hit = memo[key]
    return hit if name is None else replace(hit, property_name=name,
                                            parameters=dict(hit.parameters))


def _almost_w_usc_children(memo: dict, t: PiecewiseMap, d: BoxSet, eps_list: Sequence[float],
                           grid: Grid, delta: float | None, tol: float,
                           label: str, require_nonempty_convex: bool = True) -> list[CheckReport]:
    """USC of each per-eps approximation of ``t`` on ``d``, plus value-shape scans."""
    children = []
    for eps, bar in zip(eps_list, _shared(memo, _approximations, t, d, eps_list)):
        children.append(_shared(memo, check_usc, bar, grid, delta, tol,
                                name=f"{label}.almost-w-usc@eps={eps:g}"))
        if require_nonempty_convex:
            children.append(_shared(memo, scan_values, "", (bar,), grid, _value_shape,
                                    {"eps": eps}, name=f"{label}.values@eps={eps:g}"))
    return children


def check_theorem_4_1_hypotheses(e: AbstractEconomy, eps_list: Sequence[float],
                                 grid: Grid, delta: float | None = None,
                                 tol: float = 1e-9) -> CheckReport:
    """Six structural conditions under which an equilibrium must exist.

    Per agent: (1) shape of the choice box and target set; (2) convex
    constraint/preference values, nonempty convex B values, and the
    conflict set inside B at every grid point; (3) symbolic relative
    openness of the conflict region; (4) USC surrogate of the adherent
    clipped dilation of A cap P on the conflict region, with nonempty
    convex values there; (5) the same for B over the whole domain;
    (6) no block point ever lies in the adherent conflict value. Agents
    with equal inputs share conditions (4) and (5), which read no A or P.
    """
    memo: dict = {}
    agent_reports = []
    for i in range(len(e.agents)):
        ag = e.agents[i]
        conds = [
            _sets_condition(e, i, f"agent{i}.cond1-sets"),
            _values_condition_4_1(e, i, grid, f"agent{i}.cond2-values"),
            _openness_condition(e, i, f"agent{i}.cond3-open-conflict-region"),
        ]
        # (4): on the conflict region only; evaluated per region box
        w = e.conflict_region(i)
        c4_children = []
        for k, w_box in enumerate(w.boxes):
            h_w = restrict(e.conflict_map(i), w_box)
            c4_children.extend(_almost_w_usc_children(
                memo, h_w, ag.d_set, eps_list, grid, delta, tol, f"agent{i}.conflict@W{k}"))
        conds.append(combine_reports(f"agent{i}.cond4-conflict-almost-w-usc",
                                     c4_children or [_vacuous(i)]))
        conds.append(combine_reports(
            f"agent{i}.cond5-b-almost-w-usc",
            _almost_w_usc_children(memo, ag.b_map, ag.d_set, eps_list, grid, delta, tol,
                                   f"agent{i}.b")))
        # (6): block point never in the adherent conflict value
        conds.append(_irreflexive(e, i, e.adherent_conflict(i), grid, "conflict"))
        agent_reports.append(combine_reports(f"agent{i}", conds))
    return combine_reports(
        "hypotheses-4.1", agent_reports,
        {"eps_list": list(eps_list), "grid_step": grid.step, "delta": delta, "tol": tol})


def check_theorem_4_2_hypotheses(e: AbstractEconomy, eps_list: Sequence[float],
                                 grid: Grid, delta: float | None = None,
                                 tol: float = 1e-9) -> CheckReport:
    """Conditions of the dual variant.

    Differences from the first checker: preference values must sit in
    the target set; the pair (A, P) restricted to the closure of each
    conflict-region box within X must pass the dual USC surrogate; the
    dilated-A-cap-P map (A+V) cap D cap P and the clipped dilation of B
    must have nonempty convex adherent values; and irreflexivity moves to
    the adherent preference map. Agents with equal B share its
    approximations and their scans.
    """
    memo: dict = {}
    agent_reports = []
    for i in range(len(e.agents)):
        ag = e.agents[i]
        conds = [_sets_condition(e, i, f"agent{i}.cond1-sets")]

        def values(pval, bval, hval):
            if not pval.subset_within(ag.d_set, 0.0):
                yield 0.0, "inclusion", "preference value escapes target set"
            if bval.is_empty:
                yield math.inf, "empty value", "B empty"
            if not hval.subset_within(bval, 0.0):
                yield 0.0, "inclusion", "conflict value escapes B"

        conds.append(scan_values(f"agent{i}.cond2-values",
                                 (ag.p_map, ag.b_map, e.conflict_map(i)), grid, values))

        conds.append(_openness_condition(e, i, f"agent{i}.cond3-open-conflict-region"))

        # (4): dual property of (A,P) on each conflict box closed within X; B as before
        cl_boxes = [box_intersect(box_closure(w_box), e.domain)
                    for w_box in e.conflict_region(i).boxes]
        c4_children = [
            check_dual_w_usc(restrict(ag.a_map, cl_box), restrict(ag.p_map, cl_box), ag.d_set,
                             eps_list, grid, delta, tol, property_name=f"agent{i}.dual@clW{k}")
            for k, cl_box in enumerate(cl_boxes)
        ] or [_vacuous(i)]
        c4_children.extend(_almost_w_usc_children(
            memo, ag.b_map, ag.d_set, eps_list, grid, delta, tol, f"agent{i}.b",
            require_nonempty_convex=False))
        conds.append(combine_reports(f"agent{i}.cond4-dual-and-b", c4_children))

        # (5): nonempty convex adherent values of (A+V) cap D cap P and of B^V
        c5_children = []
        b_bars = _shared(memo, _approximations, ag.b_map, ag.d_set, eps_list)
        for eps, b_bar in zip(eps_list, b_bars):
            t_iv = adherence(intersect_maps(t_upper(ag.a_map, eps, ag.d_set), ag.p_map))
            c5_children += [scan_values(f"agent{i}.t-iv@eps={eps:g}", (t_iv,), grid,
                                        _value_shape, {"eps": eps}),
                            _shared(memo, scan_values, "", (b_bar,), grid, _value_shape,
                                    {"eps": eps}, name=f"agent{i}.b-v@eps={eps:g}")]
        conds.append(combine_reports(f"agent{i}.cond5-approx-values", c5_children))

        # (6): block point never in the adherent preference value
        conds.append(_irreflexive(e, i, adherence(ag.p_map), grid, "preference"))
        agent_reports.append(combine_reports(f"agent{i}", conds))
    return combine_reports(
        "hypotheses-4.2", agent_reports,
        {"eps_list": list(eps_list), "grid_step": grid.step, "delta": delta, "tol": tol})


def check_theorem_4_3_hypotheses(e: AbstractEconomy, eps_list: Sequence[float],
                                 candidates: Sequence[PiecewiseMap | None] | None,
                                 grid: Grid, delta: float | None = None,
                                 tol: float = 1e-9) -> CheckReport:
    """Selection-based conditions: compact choice boxes, USC closed B,
    open conflict region, and an upper semicontinuous convex selection
    inside each dilated closed conflict value that avoids the base point.

    ``candidates`` supplies one selection map per agent (None entries
    fall back to the constant-selection heuristic); a missing selection
    yields the verdict "unverified" rather than "fail". Agents with
    equal B share condition (2).
    """
    if candidates is None:
        candidates = [None] * len(e.agents)
    if len(candidates) != len(e.agents):
        raise ValueError("one candidate entry per agent required (None allowed)")
    memo: dict = {}
    agent_reports = []
    for i in range(len(e.agents)):
        ag = e.agents[i]
        conds = [_sets_condition(e, i, f"agent{i}.cond1-sets", require_compact_x=True)]

        b_closed = _shared(memo, closure_values, ag.b_map)
        conds.append(combine_reports(f"agent{i}.cond2-cl-b", [
            _shared(memo, check_usc, b_closed, grid, delta, tol, name=f"agent{i}.cl-b-usc"),
            _shared(memo, scan_values, "", (b_closed,), grid, _value_shape,
                    name=f"agent{i}.cl-b-values"),
        ]))

        conds.append(_openness_condition(e, i, f"agent{i}.cond3-open-conflict-region"))

        h_closed = closure_values(e.conflict_map(i))
        w = e.conflict_region(i)
        c4_children = [
            check_e_uscs(h_closed, w_box, candidates[i], eps, grid, delta, tol,
                         block=e.blocks[i], property_name=f"agent{i}.e-uscs@W{k}@eps={eps:g}")
            for eps in eps_list for k, w_box in enumerate(w.boxes)]
        conds.append(combine_reports(f"agent{i}.cond4-e-uscs", c4_children or [_vacuous(i)]))
        agent_reports.append(combine_reports(f"agent{i}", conds))
    return combine_reports(
        "hypotheses-4.3", agent_reports,
        {"eps_list": list(eps_list), "grid_step": grid.step, "delta": delta, "tol": tol})
