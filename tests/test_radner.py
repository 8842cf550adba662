"""Asymmetric-information exchange economies and their associated form."""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcorr import (AffForm, AffineInterval, AssociatedEconomy, BoxSet, DocumentError,
                     FlaggedInterval, InfoEconomy, Piece, PiecewiseMap, PriceSimplex,
                     radner_toy, remark_4_3_inclusion, to_abstract_economy,
                     verify_market_clearing)
from boxcorr.checks import FAIL, PASS, CheckReport, Witness, combine_reports
from boxcorr import cli
from boxcorr import radner as _radner
from boxcorr.intervals import boxes_difference
from boxcorr.radner import _measurable_corners, info_economy_from_doc, info_economy_to_doc


def toy():
    return radner_toy()


def richer_toy():
    """Same preferences and signals, agent 0 holds a fat endowment."""
    return dataclasses.replace(toy(), endowments=((1.4, 1.4, 1.4),
                                                  (0.5, 0.5, 0.5)))


# ---------------------------------------------------------------------------
# Budget sets
# ---------------------------------------------------------------------------

def associated(e, truncation=None, resolution=8):
    simplex = PriceSimplex(e.bundle_dim, resolution)
    if truncation is None:
        return to_abstract_economy(e, simplex)
    return AssociatedEconomy(e, truncation, simplex)


def two_state_economy(e0, signal="pooled"):
    base = toy()
    return dataclasses.replace(base, endowments=(tuple(e0), base.endowments[1]),
                               signals=(signal, base.signals[1]))


def test_budget_membership_is_strict():
    # one good, one state, prices (1/2, 1/2), endowment (1, 1)
    prefs = toy().preferences  # reuse a valid preference pair, 6-dim is fine
    e = InfoEconomy(2, 1, 2, ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
                    ("pooled", "pooled"), prefs, truncation=4.0)
    b = associated(e).budget(0, (0.5, 0.25, 0.25))
    assert b.contains((0.5, 0.5, 0.5))
    assert not b.contains((1.0, 1.0, 1.0))  # cost equals wealth: excluded
    assert b.closure_contains((1.0, 1.0, 1.0))


def test_budget_empty_at_zero_wealth():
    e = two_state_economy((0.0, 0.0, 0.0))
    b = associated(e).budget(0, (1.0, 0.0, 0.0))
    assert b.is_empty
    assert not b.contains((0.0, 0.0, 0.0))


def test_budget_dot_product_example():
    e = two_state_economy((1.0, 2.0, 3.0))
    third = (1 / 3, 1 / 3, 1 / 3)
    b = associated(e, 6.0).budget(0, third)
    # px = 1 and pe = 2
    assert b.contains((1.0, 1.0, 1.0))
    assert b.wealth == pytest.approx(2.0)


def test_budget_truncation_must_cover_aggregate():
    e = toy()
    with pytest.raises(ValueError, match="truncation too small"):
        associated(e, 0.5).budget(0, (1 / 3, 1 / 3, 1 / 3))


# ---------------------------------------------------------------------------
# Information sets
# ---------------------------------------------------------------------------

def test_revealing_signal_imposes_no_constraint():
    e = two_state_economy((0.5, 0.5, 0.5), signal="revealing")
    info = associated(e).information(0, (1 / 3, 1 / 3, 1 / 3))
    assert info.contains((0.3, 0.1, 1.9))


def test_pooled_signal_equalizes_states():
    e = toy()
    info = associated(e).information(0, (1 / 3, 1 / 3, 1 / 3))
    assert info.contains((0.7, 0.4, 0.4))
    assert not info.contains((0.7, 0.4, 0.5))


def test_three_state_partial_pooling():
    base = toy()
    prefs = base.preferences
    # preferences expect a 6-dim domain, so rebuild a 3-state economy with
    # a fresh constant preference over its 8-dim allocation space
    from boxcorr.maps import constant_map
    from boxcorr.intervals import BoxSet, FlaggedInterval
    dom = tuple(FlaggedInterval.closed(0, 2) for _ in range(8))
    pref = constant_map(dom, BoxSet.empty(4))
    e = InfoEconomy(2, 1, 3,
                    ((0.5,) * 4, (0.5,) * 4),
                    ("threshold:0:2", "revealing"), (pref, pref),
                    truncation=2.0)
    # threshold never exceeded on the simplex: states 1,2,3 all pool to 0
    info = associated(e).information(0, (0.25, 0.25, 0.25, 0.25))
    assert not info.contains((0.1, 0.3, 0.3, 0.4))
    assert info.contains((0.1, 0.3, 0.3, 0.3))


def test_threshold_signal_depends_on_price():
    base = toy()
    e = dataclasses.replace(base, signals=("threshold:1:0.4", "pooled"))
    low = associated(e).information(0, (0.8, 0.1, 0.1))
    high = associated(e).information(0, (0.2, 0.5, 0.3))
    # low price on coordinate 1: both states pooled
    assert not low.contains((0.5, 0.3, 0.4))
    # high price: state 1 separates, no equality constraint binds
    assert high.contains((0.5, 0.3, 0.4))


def test_refining_a_signal_grows_the_information_set():
    pooled = associated(toy()).information(0, (1 / 3, 1 / 3, 1 / 3))
    refined = associated(
        dataclasses.replace(toy(), signals=("revealing", "pooled"))
    ).information(0, (1 / 3, 1 / 3, 1 / 3))
    for pt in itertools.product((0.0, 0.5, 1.5), repeat=3):
        if pooled.contains(pt):
            assert refined.contains(pt)


def test_unknown_signal_preset_rejected():
    with pytest.raises(ValueError):
        dataclasses.replace(toy(), signals=("bogus", "pooled"))


# ---------------------------------------------------------------------------
# Price simplex
# ---------------------------------------------------------------------------

def test_simplex_points_sum_to_one():
    s = PriceSimplex(3, 4)
    pts = list(s.points())
    assert len(pts) == s.point_count() == math.comb(6, 2)
    for p in pts:
        assert sum(p) == pytest.approx(1.0)
        assert all(c >= 0 for c in p)


# ---------------------------------------------------------------------------
# Associated economy
# ---------------------------------------------------------------------------

def test_revealing_signals_make_clause_b_equal_budget():
    e = dataclasses.replace(toy(), signals=("revealing", "revealing"))
    assoc = to_abstract_economy(e, PriceSimplex(3, 4))
    p = (0.5, 0.25, 0.25)
    bud = assoc.budget(0, p)
    info = assoc.information(0, p)
    for pt in itertools.product((0.0, 0.4, 1.0, 2.0), repeat=3):
        assert info.contains(pt)
        assert (bud.contains(pt) and info.contains(pt)) == bud.contains(pt)


def test_price_player_emptiness_matches_vertex_rule():
    e = toy()
    assoc = to_abstract_economy(e, PriceSimplex(3, 8))
    allocations = [
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
        ((1.0, 0.25, 0.25), (0.0, 0.5, 0.5)),
        ((2.0, 2.0, 2.0), (2.0, 2.0, 2.0)),
    ]
    for x in allocations:
        z = assoc.excess(x)
        for p in assoc.simplex.points():
            want_empty = max(z) <= sum(a * b for a, b in zip(p, z)) + 1e-12
            # brute force over the whole simplex grid: any q beating p?
            brute_empty = not any(
                sum(a * b for a, b in zip(q, z)) > sum(a * b for a, b in zip(p, z)) + 1e-12
                for q in assoc.simplex.points())
            assert assoc.price_conflict_empty(x, p) == want_empty
            assert want_empty == brute_empty


def test_low_consumption_does_not_guarantee_empty_price_conflict():
    # consuming below endowment in every component still leaves a better
    # price whenever the excess components differ
    e = toy()
    assoc = to_abstract_economy(e, PriceSimplex(3, 8))
    x = ((0.0, 0.25, 0.25), (0.0, 0.25, 0.25))
    z = assoc.excess(x)
    assert all(v <= 0 for v in z)
    p = (1.0, 0.0, 0.0)
    assert not assoc.price_conflict_empty(x, p)


def test_excess_reads_the_aggregate_endowment_once_per_economy():
    """``excess`` sums the endowments once per economy, not per call, with
    the same sums in the same order, so its values stay bit-identical."""
    class CountingEndowments(tuple):
        iterations = 0

        def __iter__(self):
            CountingEndowments.iterations += 1
            return super().__iter__()

    base = richer_toy()
    e = dataclasses.replace(base, endowments=CountingEndowments(base.endowments))
    assoc = to_abstract_economy(e, PriceSimplex(e.bundle_dim, 8))
    x = ((0.3, 1.1, 0.7), (0.1, 0.2, 1.9))
    first = assoc.excess(x)
    built = CountingEndowments.iterations
    for _ in range(100):
        assert assoc.excess(x) == first
    assert CountingEndowments.iterations == built
    want = tuple(sum(b[k] for b in x) - sum(en[k] for en in base.endowments)
                 for k in range(e.bundle_dim))
    assert [v.hex() for v in first] == [v.hex() for v in want]


def test_verify_autarky_equilibrium():
    e = toy()
    assoc = to_abstract_economy(e, PriceSimplex(3, 8))
    alloc = tuple(e.endowments)
    p = (1 / 3, 1 / 3, 1 / 3)
    cert = assoc.verify(alloc, p)
    assert cert.valid
    assert cert.price_in_simplex and cert.price_conflict_empty
    for ag in cert.agents:
        assert ag.ok

    clearing = verify_market_clearing(assoc, cert)
    assert clearing.passed
    names = [c.property_name for c in clearing.children]
    assert names == ["clearing-aggregate", "clearing-budget-info",
                     "clearing-no-affordable-preferred"]


def test_verify_rejects_overconsumption():
    e = toy()
    assoc = to_abstract_economy(e, PriceSimplex(3, 8))
    greedy = ((2.0, 2.0, 2.0), (2.0, 2.0, 2.0))
    cert = assoc.verify(greedy, (1 / 3, 1 / 3, 1 / 3))
    clearing = verify_market_clearing(assoc, cert)
    aggregate = clearing.children[0]
    assert not aggregate.passed
    assert aggregate.witnesses


def test_search_finds_autarky():
    e = toy()
    assoc = to_abstract_economy(e, PriceSimplex(3, 8))
    certs = assoc.search((0.0, 0.5, 1.0, 1.5, 2.0))
    assert certs
    allocations = {c.allocation for c in certs}
    assert tuple(e.endowments) in allocations
    for c in certs[:20]:
        assert verify_market_clearing(assoc, c).children[0].passed


def test_inclusion_vacuous_on_lean_toy():
    assoc = to_abstract_economy(toy(), PriceSimplex(3, 8))
    rep = remark_4_3_inclusion(assoc, 0.125)
    assert rep.passed
    # every preferred bundle costs more than the uniform endowment value,
    # so the antecedent never fires on the lean economy
    assert rep.parameters["antecedent_hits"] == 0


def test_inclusion_exercised_on_richer_endowment():
    assoc = to_abstract_economy(richer_toy(), PriceSimplex(3, 8))
    rep = remark_4_3_inclusion(assoc, 0.125)
    assert rep.passed
    assert rep.parameters["antecedent_hits"] > 0


def test_inclusion_reads_the_economys_clause_b(monkeypatch):
    """Each antecedent hit is tested against ``clause_b`` itself, so a
    constraint B that rejects every bundle fails the report once per hit."""
    monkeypatch.setattr(AssociatedEconomy, "clause_b", lambda self, i, bundle, p: False)
    assoc = to_abstract_economy(richer_toy(), PriceSimplex(3, 8))
    rep = remark_4_3_inclusion(assoc, 0.125)
    assert rep.parameters["antecedent_hits"] == 6
    assert not rep.passed
    assert len(rep.witnesses) == 6


def test_measurable_corners_respect_flags_and_classes():
    e = toy()
    assoc = to_abstract_economy(e, PriceSimplex(3, 8))
    info = assoc.information(0, (1 / 3, 1 / 3, 1 / 3))
    value = assoc.preferred_value(0, ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    corners = _measurable_corners(value, info)
    assert corners
    closed = value.closure()
    for y in corners:
        assert info.contains(y)
        assert closed.contains(y)


def test_associated_economy_validates_dimensions():
    e = toy()
    with pytest.raises(ValueError):
        to_abstract_economy(e, PriceSimplex(4, 8))
    with pytest.raises(ValueError, match="truncation too small"):
        AssociatedEconomy(e, 0.25, PriceSimplex(3, 8))


def test_associated_economy_takes_the_economys_truncation_or_the_default():
    assert to_abstract_economy(toy(), PriceSimplex(3, 8)).truncation == 2.0
    wide = dataclasses.replace(richer_toy(), truncation=None)
    assert to_abstract_economy(wide, PriceSimplex(3, 8)).truncation == 2.0 * 1.9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2", True,
                                 pytest.param(10 ** 400, id="10**400"),
                                 pytest.param(-10 ** 400, id="-10**400")])
def test_truncation_must_be_a_finite_number(bad):
    with pytest.raises(ValueError, match="truncation must be a finite number"):
        AssociatedEconomy(toy(), bad, PriceSimplex(3, 8))
    with pytest.raises(ValueError, match="truncation must be a finite number"):
        associated(dataclasses.replace(toy(), truncation=bad))


@pytest.mark.parametrize("field", ["n_agents", "n_goods", "n_states"])
@pytest.mark.parametrize("bad", [True, 2.0, "2", None])
def test_counts_must_be_integers(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        dataclasses.replace(toy(), **{field: bad})
    doc = info_economy_to_doc(toy())
    doc[field] = bad
    with pytest.raises(DocumentError, match=f"{field} must be an integer"):
        info_economy_from_doc(doc)


@pytest.mark.parametrize("signal,message", [
    (3, "must be a string"),
    ("threshold:9:0.5", "outside the bundle"),
    ("threshold:-1:0.5", "outside the bundle"),
    ("threshold:0:nan", "cut must be a finite number"),
    ("threshold:0:inf", "cut must be a finite number"),
    ("threshold:1", "expected threshold:<coordinate>:<cut>"),
    ("threshold:1:2:3", "expected threshold:<coordinate>:<cut>"),
    ("threshold:a:0", "expected threshold:<coordinate>:<cut>"),
    ("threshold:1e400:0", "expected threshold:<coordinate>:<cut>"),
])
def test_bad_signal_presets_are_rejected(signal, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(toy(), signals=(signal, "pooled"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, "1", True])
def test_info_economy_document_endowments_must_be_finite_numbers(bad):
    doc = info_economy_to_doc(toy())
    doc["endowments"][0][1] = bad
    with pytest.raises(DocumentError, match="endowments\\[0\\]: expected a"):
        info_economy_from_doc(doc)


# ---------------------------------------------------------------------------
# Coordinate groups against the frozen class-by-good implementation
# ---------------------------------------------------------------------------
#
# ``seed_signal_classes``, ``seed_class_coords``, ``SeedInformationSet``,
# ``seed_collapsed_min``, ``seed_measurable_corners`` and
# ``SeedAssociatedEconomy`` are the implementation that walked signal
# classes and goods in nested loops and handled the period-0 coordinate
# apart. They stay here as the oracle for ``InfoEconomy.coordinate_groups``.

def seed_signal_classes(info, i, p):
    groups = {}
    for s in range(info.n_states):
        groups.setdefault(_radner._signal_label(info.signals[i], p, s), []).append(s)
    return tuple(tuple(g) for _, g in sorted(groups.items()))


def seed_class_coords(cls, good, n_goods):
    return tuple(1 + s * n_goods + good for s in cls)


@dataclasses.dataclass(frozen=True)
class SeedInformationSet:
    classes: tuple
    n_goods: int
    dim: int

    def contains(self, x):
        if len(x) != self.dim:
            raise ValueError("bundle dimension mismatch")
        for cls in self.classes:
            for g in range(self.n_goods):
                vals = [x[c] for c in seed_class_coords(cls, g, self.n_goods)]
                if max(vals) != min(vals):
                    return False
        return True


def seed_collapsed_min(box, p, classes, n_goods):
    total = box[0].lo * p[0]
    for cls in classes:
        for g in range(n_goods):
            coords = seed_class_coords(cls, g, n_goods)
            iv = box[coords[0]]
            for c in coords[1:]:
                iv = iv.intersect(box[c])
                if iv is None:
                    return None
            total += iv.lo * sum(p[c] for c in coords)
    return total


def seed_measurable_corners(value, info, limit=16):
    out = []
    for b in value.boxes:
        per_coord = []
        for iv in b:
            cs = [iv.lo, iv.hi] if iv.hi > iv.lo else [iv.lo]
            per_coord.append(cs)
        for corner in itertools.product(*per_coord):
            adjusted = list(corner)
            for cls in info.classes:
                for g in range(info.n_goods):
                    coords = seed_class_coords(cls, g, info.n_goods)
                    mx = max(adjusted[c] for c in coords)
                    for c in coords:
                        adjusted[c] = mx
            cand = tuple(adjusted)
            if info.contains(cand) and all(
                    b[k].closure().contains(cand[k]) for k in range(len(b))):
                if cand not in out:
                    out.append(cand)
            if len(out) >= limit:
                return out
    return out


class SeedAssociatedEconomy(AssociatedEconomy):
    """``verify`` and ``clause_b`` are inherited and call these methods."""

    def information(self, i, p):
        return SeedInformationSet(seed_signal_classes(self.info, i, p), self.info.n_goods,
                                  self.info.bundle_dim)

    def conflict_empty(self, i, allocation, p):
        wealth = _radner._dot(p, self.info.endowments[i])
        classes = seed_signal_classes(self.info, i, p)
        value = self.preferred_value(i, allocation)
        for b in value.boxes:
            clipped = []
            for iv in b:
                cut = iv.intersect(FlaggedInterval.closed(0.0, self.truncation))
                if cut is None:
                    clipped = None
                    break
                clipped.append(cut)
            if clipped is None:
                continue
            lo = seed_collapsed_min(tuple(clipped), p, classes, self.info.n_goods)
            if lo is not None and lo < wealth:
                return False
        return True

    def search(self, axis_values):
        n_goods, ends = self.info.n_goods, self.info.endowments
        found = []
        for p in self.simplex.points():
            per_agent = []
            for i in range(self.n):
                classes = seed_signal_classes(self.info, i, p)
                n_free = 1 + len(classes) * n_goods
                bundles = []
                for combo in itertools.product(axis_values, repeat=n_free):
                    bundle = [combo[0]] + [0.0] * (self.info.bundle_dim - 1)
                    at = 1
                    for cls in classes:
                        for g in range(n_goods):
                            for c in seed_class_coords(cls, g, n_goods):
                                bundle[c] = combo[at]
                            at += 1
                    bundle = tuple(bundle)
                    if not self.clause_b(i, bundle, p):
                        continue
                    if self.conflict_empty(i, ends[:i] + (bundle,) + ends[i + 1:], p):
                        bundles.append(bundle)
                per_agent.append(bundles)
            for alloc in itertools.product(*per_agent):
                cert = self.verify(alloc, p)
                if cert.valid:
                    found.append(cert)
        return found


def two_good_economy():
    """Two agents, two goods, three states (bundle dim 7), and threshold
    signals that pool all three states unless the price of the agent's
    watched coordinate exceeds 1/2, which reveals them.

    Each agent is sated (empty preferred set) once its coordinates 0, 1
    and 3 reach 1/2. Below 1/2 in coordinate 0 it prefers the box of
    bundles above its own by more than half its bundle plus 1/2, up to 3;
    otherwise a constant box whose coordinate 1 ([-1, 1/4]) misses its
    coordinates 3 and 5 ([1, 2]), so the box has no point measurable for a
    pooled signal. Both boxes reach outside the truncated box [0, 2]^7.
    """
    n, d, m = 2, 7, 2.0
    total = n * d
    full = FlaggedInterval.closed(0, m)
    domain = (full,) * total
    prefs = []
    for i in range(n):
        def region(cuts):
            return tuple(cuts.get(k - i * d, full) for k in range(total))
        half_up = FlaggedInterval.closed(0.5, m)
        poor = region({0: FlaggedInterval(0, 0.5, True, False)})
        rich = region({0: half_up})
        sated = region({0: half_up, 1: half_up, 3: half_up})
        rising = tuple(
            AffineInterval(AffForm(0.5, tuple(0.5 if j == i * d + k else 0.0
                                              for j in range(total))),
                           AffForm.constant(m + 1, total), False, True)
            for k in range(d))
        apart = tuple(AffineInterval.constant(FlaggedInterval.closed(-1, 0.25) if k == 1
                                              else FlaggedInterval.closed(1, 2), total)
                      for k in range(d))
        pieces = [Piece(sated, ()), Piece(poor, (rising,))]
        pieces += [Piece(r, (apart,)) for r in boxes_difference([rich], [sated])]
        prefs.append(PiecewiseMap(domain, d, tuple(pieces)))
    return InfoEconomy(n, 2, 3, ((1.0,) * d, (0.5,) * d),
                       ("threshold:1:0.5", "threshold:4:0.5"), tuple(prefs), truncation=m)


def _both_economies(resolution):
    e = two_good_economy()
    simplex = PriceSimplex(e.bundle_dim, resolution)
    return AssociatedEconomy(e, 2.0, simplex), SeedAssociatedEconomy(e, 2.0, simplex)


def test_coordinate_groups_are_the_class_coords_in_class_major_order():
    e = two_good_economy()
    for p in PriceSimplex(e.bundle_dim, 3).points():
        for i in range(e.n_agents):
            want = ((0,),) + tuple(seed_class_coords(cls, g, e.n_goods)
                                   for cls in seed_signal_classes(e, i, p)
                                   for g in range(e.n_goods))
            assert e.coordinate_groups(i, p) == want
    assert e.coordinate_groups(0, (0.0,) * 7) == ((0,), (1, 3, 5), (2, 4, 6))
    assert e.coordinate_groups(0, (0.0, 1.0) + (0.0,) * 5) == tuple((k,) for k in range(7))


def test_information_and_conflict_match_frozen_loops():
    assoc, seed = _both_economies(3)
    e = assoc.info
    grid = list(itertools.product((0.0, 1.0, 2.0), repeat=e.bundle_dim))
    allocations = [e.endowments, ((0.0,) * 7, (2.0,) * 7),
                   ((1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0), (0.0, 1.0) * 3 + (1.0,)),
                   ((0.25, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0))]
    prices = list(assoc.simplex.points())
    revealed = 0
    for p in prices[::7] + [(0.0, 1.0) + (0.0,) * 5, (0.0,) * 4 + (1.0, 0.0, 0.0)]:
        for i in range(e.n_agents):
            new, old = assoc.information(i, p), seed.information(i, p)
            revealed += len(new.groups) > 3
            assert [new.contains(x) for x in grid] == [old.contains(x) for x in grid]
            for x in allocations:
                assert assoc.conflict_empty(i, x, p) == seed.conflict_empty(i, x, p)
                value = assoc.preferred_value(i, x)
                assert _measurable_corners(value, new) == \
                    seed_measurable_corners(value, old, 4)
                for b in value.boxes:
                    assert _radner._collapsed_min(b, p, new.groups) == \
                        seed_collapsed_min(b, p, old.classes, e.n_goods)
    assert revealed


def test_search_certificates_match_frozen_loop():
    assoc, seed = _both_economies(3)
    got = assoc.search((0.0, 1.0))
    want = seed.search((0.0, 1.0))
    assert got == want
    assert len(got) > 1
    assert any(len(assoc.information(i, c.price).groups) > 3
               for c in got for i in range(assoc.n))


def test_inclusion_report_matches_frozen_loop(monkeypatch):
    assoc, seed = _both_economies(2)
    got = remark_4_3_inclusion(assoc, 0.5)
    monkeypatch.setattr(_radner, "_measurable_corners",
                        lambda value, info: seed_measurable_corners(value, info, 4))
    want = remark_4_3_inclusion(seed, 0.5)
    assert repr(got) == repr(want)
    assert got.parameters["antecedent_hits"] > 0


# ---------------------------------------------------------------------------
# One reading per clause against the frozen two-reading implementation
# ---------------------------------------------------------------------------
#
# ``seed_clause_b``, ``seed_verify_market_clearing`` (with
# ``seed_group_corners``) and ``seed_search`` are the implementation that
# decided the closed constraint B in two readings, re-derived aggregate
# clearing through the simplex vertices, re-tested measurability of the
# corners it had just equalized, and filtered search bundles by both
# constraints. They stay here as the oracle for the one-reading clauses.

def seed_clause_b(assoc, i, bundle, p):
    bud = assoc.budget(i, p)
    inf = assoc.information(i, p)
    meas = inf.contains(bundle)
    split = bud.closure_contains(bundle) and meas
    joint = split and not bud.is_empty
    return joint, split


def seed_vertices(dim):
    for j in range(dim):
        yield tuple(1.0 if k == j else 0.0 for k in range(dim))


def seed_group_corners(value, info, limit=16):
    out = []
    for b in value.boxes:
        per_coord = []
        for iv in b:
            cs = [iv.lo, iv.hi] if iv.hi > iv.lo else [iv.lo]
            per_coord.append(cs)
        for corner in itertools.product(*per_coord):
            adjusted = list(corner)
            for g in info.groups:
                mx = max(adjusted[c] for c in g)
                for c in g:
                    adjusted[c] = mx
            cand = tuple(adjusted)
            if info.contains(cand) and all(
                    b[k].closure().contains(cand[k]) for k in range(len(b))):
                if cand not in out:
                    out.append(cand)
            if len(out) >= limit:
                return out
    return out


def seed_verify_market_clearing(assoc, cert, tol=1e-9):
    z = assoc.excess(cert.allocation)
    direct_bad = [k for k, v in enumerate(z) if v > tol]
    vertex_bad = []
    for j, q in enumerate(seed_vertices(assoc.simplex.dim)):
        if _radner._dot(q, z) > tol:
            vertex_bad.append(j)
    c1 = CheckReport(
        "clearing-aggregate", PASS if not direct_bad and not vertex_bad else FAIL,
        tuple(Witness(cert.price, None, z[k], "excess supply violated",
                      f"component {k}") for k in (direct_bad + vertex_bad)[:8]),
        {"excess": list(z), "tol": tol},
    )
    c2_wit = []
    for i in range(assoc.n):
        joint, split = seed_clause_b(assoc, i, cert.allocation[i], cert.price)
        if not joint:
            c2_wit.append(Witness(cert.allocation[i], None, 0.0,
                                  "outside cl(budget cap info)", f"agent {i}"))
        if not split:
            c2_wit.append(Witness(cert.allocation[i], None, 0.0,
                                  "outside cl budget cap cl info", f"agent {i}"))
    c2 = CheckReport("clearing-budget-info", PASS if not c2_wit else FAIL,
                     tuple(c2_wit))
    c3_wit = []
    sampled = 0
    for i in range(assoc.n):
        value = assoc.preferred_value(i, cert.allocation)
        if value.is_empty:
            continue
        inf = assoc.information(i, cert.price)
        bud = assoc.budget(i, cert.price)
        for y in seed_group_corners(value, inf):
            sampled += 1
            if bud.contains(y):
                c3_wit.append(Witness(y, None, _radner._dot(cert.price, y),
                                      "preferred and affordable", f"agent {i}"))
    c3 = CheckReport("clearing-no-affordable-preferred",
                     PASS if not c3_wit else FAIL, tuple(c3_wit),
                     {"sampled": sampled})
    return combine_reports("market-clearing", [c1, c2, c3],
                           {"price": list(cert.price), "tol": tol})


def seed_search(assoc, axis_values):
    ends = assoc.info.endowments
    found = []
    for p in assoc.simplex.points():
        per_agent = []
        for i in range(assoc.n):
            groups = assoc.info.coordinate_groups(i, p)
            bundles = []
            for combo in itertools.product(axis_values, repeat=len(groups)):
                bundle = [0.0] * assoc.info.bundle_dim
                for g, v in zip(groups, combo):
                    for c in g:
                        bundle[c] = v
                bundle = tuple(bundle)
                if not seed_clause_b(assoc, i, bundle, p)[0]:
                    continue
                if assoc.conflict_empty(i, ends[:i] + (bundle,) + ends[i + 1:], p):
                    bundles.append(bundle)
            per_agent.append(bundles)
        for alloc in itertools.product(*per_agent):
            cert = assoc.verify(alloc, p)
            if cert.valid:
                found.append(cert)
    return found


def _first_per_place(witnesses):
    """Witnesses in order, keeping the first at each (point, detail): the
    two-reading code reported the same failure twice, under either reading's
    category or twice through the vertex re-derivation."""
    seen = set()
    out = []
    for w in witnesses:
        if (w.point, w.detail) not in seen:
            seen.add((w.point, w.detail))
            out.append(w)
    return tuple(out)


def _assert_one_reading_matches(assoc, cert):
    """Clauses 1 and 2 equal the frozen readings. Clause 3 fails at exactly
    the agents whose ``conflict_empty`` is False, with one witness at each
    one's bundle; the frozen reading sampled closure corners, so only its
    witnesses that lie in the preferred value itself must name such an
    agent."""
    for i in range(assoc.n):
        joint, split = seed_clause_b(assoc, i, cert.allocation[i], cert.price)
        assert assoc.clause_b(i, cert.allocation[i], cert.price) == joint == split
    got = verify_market_clearing(assoc, cert)
    want = seed_verify_market_clearing(assoc, cert)
    assert got.parameters == want.parameters
    assert [c.property_name for c in got.children] == \
        [c.property_name for c in want.children]
    for new, old in zip(got.children[:2], want.children[:2], strict=True):
        assert new.verdict == old.verdict
        assert new.witnesses == _first_per_place(old.witnesses)
        assert new.parameters == old.parameters
    failing = [i for i in range(assoc.n)
               if not assoc.conflict_empty(i, cert.allocation, cert.price)]
    clause3 = got.children[2]
    assert clause3.passed == (not failing)
    assert [(w.point, w.detail) for w in clause3.witnesses] == \
        [(cert.allocation[i], f"agent {i}") for i in failing]
    assert clause3.parameters == {}
    for w in want.children[2].witnesses:
        i = int(w.detail.removeprefix("agent "))
        if assoc.preferred_value(i, cert.allocation).contains(w.point):
            assert i in failing
    return got


def _economy_variants():
    """The toy under pooled, revealing and threshold signals, an agent with
    zero wealth at some simplex prices, and the two-good economy."""
    base = toy()
    yield to_abstract_economy(base, PriceSimplex(3, 8))
    for signals in (("revealing", "revealing"), ("threshold:1:0.4", "pooled")):
        yield to_abstract_economy(dataclasses.replace(base, signals=signals),
                                  PriceSimplex(3, 8))
    yield to_abstract_economy(two_state_economy((1.0, 0.0, 0.0)), PriceSimplex(3, 8))
    yield AssociatedEconomy(two_good_economy(), 2.0, PriceSimplex(7, 3))


def _test_allocations(assoc):
    d = assoc.info.bundle_dim
    return [assoc.info.endowments,                            # autarky
            ((2.0,) * d, (2.0,) * d),                         # greedy over-consumption
            ((0.0,) * d, (1.0,) + (0.5,) * (d - 1)),
            ((1.0, 0.5) + (0.0,) * (d - 2), (0.25,) * d)]


def test_one_reading_per_clause_matches_frozen_readings():
    failing_children = set()
    zero_wealth = 0
    for assoc in _economy_variants():
        d = assoc.info.bundle_dim
        allocations = _test_allocations(assoc)
        prices = list(assoc.simplex.points())[::5] + [(0.0,) + (1 / (d - 1),) * (d - 1)]
        for p in prices:
            zero_wealth += any(not assoc.budget(i, p).wealth > 0 for i in range(assoc.n))
            for x in allocations:
                rep = _assert_one_reading_matches(assoc, assoc.verify(x, p))
                failing_children.update(c.property_name for c in rep.children
                                        if not c.passed)
    assert zero_wealth
    assert failing_children == {"clearing-aggregate", "clearing-budget-info",
                                "clearing-no-affordable-preferred"}


def test_zero_wealth_budget_is_the_empty_closed_constraint():
    assoc = to_abstract_economy(two_state_economy((1.0, 0.0, 0.0)), PriceSimplex(3, 8))
    p = (0.0, 0.5, 0.5)
    assert assoc.budget(0, p).is_empty
    for y in itertools.product((0.0, 0.5, 1.0), repeat=3):
        assert not assoc.clause_b(0, y, p)
        assert seed_clause_b(assoc, 0, y, p) == (False, False)
    cert = assoc.verify(assoc.info.endowments, p)
    rep = _assert_one_reading_matches(assoc, cert)
    assert [w.detail for w in rep.children[1].witnesses] == ["agent 0"]


@pytest.mark.parametrize("economy,resolution,axis", [
    (toy, 8, (0.0, 0.5, 1.0, 1.5, 2.0)),
    (two_good_economy, 3, (0.0, 1.0)),
])
def test_search_and_clearing_match_frozen_readings(economy, resolution, axis):
    e = economy()
    assoc = AssociatedEconomy(e, 2.0, PriceSimplex(e.bundle_dim, resolution))
    certs = assoc.search(axis)
    assert certs == seed_search(assoc, axis)
    assert len(certs) > 1
    for c in certs[::8]:
        assert _assert_one_reading_matches(assoc, c).passed


# ---------------------------------------------------------------------------
# Clause 3 of market clearing against the certificate and against membership
# ---------------------------------------------------------------------------
#
# ``membership_conflict_empty`` decides the conflict set budget cap preferred
# cap measurable by testing bundles with ``BudgetSet.contains``,
# ``InformationSet.contains`` and ``BoxSet.contains`` alone, so it is an
# oracle for the collapsed-minimum rule of ``conflict_empty``. Every group of
# a candidate takes one endpoint of the value box's or the truncation's
# intervals on the group's coordinates, exact or nudged by 2^-20 either way:
# the collapsed group interval starts at one of those endpoints, and the
# nudge steps inside it past an open end.

NUDGE = 2.0 ** -20


def membership_conflict_empty(assoc, i, allocation, p):
    value = assoc.preferred_value(i, allocation)
    bud, inf = assoc.budget(i, p), assoc.information(i, p)
    for b in value.boxes:
        per_group = []
        for g in inf.groups:
            ends = {e for c in g for e in (b[c].lo, b[c].hi, 0.0, assoc.truncation)}
            per_group.append(sorted({e + s for e in ends for s in (-NUDGE, 0.0, NUDGE)}))
        for combo in itertools.product(*per_group):
            y = [0.0] * inf.dim
            for g, v in zip(inf.groups, combo):
                for c in g:
                    y[c] = v
            if bud.contains(y) and inf.contains(y) and value.contains(y):
                return False
    return True


def constant_preference_economy(signal, boxes):
    """Two agents, one good, two states, both with ``signal``, endowments
    (1, 1, 1), truncation 2 and ``PriceSimplex(3, 3)``. Agent 0 prefers the
    union of ``boxes`` at every allocation in [0, 2]^6; agent 1 prefers
    nothing."""
    n, d, m = 2, 3, 2.0
    domain = (FlaggedInterval.closed(0, m),) * (n * d)
    value = tuple(tuple(AffineInterval.constant(iv, n * d) for iv in b) for b in boxes)
    prefs = (PiecewiseMap(domain, d, (Piece(domain, value),)),
             PiecewiseMap(domain, d, (Piece(domain, ()),)))
    e = InfoEconomy(n, 1, 2, ((1.0,) * d,) * n, (signal,) * n, prefs, truncation=m)
    return AssociatedEconomy(e, m, PriceSimplex(d, 3))


def closure_only_economy():
    """Pooled signals and agent 0's value [0,2] x [0,1) x [1,2]: its states'
    intervals meet only in their closures, so no preferred bundle is
    measurable."""
    I = FlaggedInterval
    return constant_preference_economy(
        "pooled", [(I.closed(0, 2), I(0, 1, True, False), I.closed(1, 2))])


def late_cheap_box_economy():
    """Revealing signals and a value whose two first boxes hold 16 corners
    that cost at least the endowment, before a third box with cheap ones."""
    c = FlaggedInterval.closed
    return constant_preference_economy("revealing", [
        (c(0, 0.25), c(1.5, 1.75), c(1.5, 2)),
        (c(0.5, 0.75), c(1.75, 2), c(1.5, 2)),
        (c(1, 1.25), c(0, 0.25), c(0, 0.25)),
    ])


def below_zero_economy():
    """Revealing signals and a value reaching below 0: clipped to the
    truncated box it costs the endowment, unclipped it would cost less."""
    c = FlaggedInterval.closed
    return constant_preference_economy("revealing", [(c(-1, 0.25), c(1.5, 2), c(1.5, 2))])


def overlapping_boxes_economy():
    """Revealing signals and a value of two overlapping boxes, which
    canonicalization splits into disjoint ones."""
    c = FlaggedInterval.closed
    return constant_preference_economy("revealing", [
        (c(0, 1), c(0.5, 1.5), c(1, 2)),
        (c(0.5, 1.5), c(0, 1), c(1.5, 2)),
    ])


def test_clause_3_passes_when_only_the_closure_is_affordable():
    assoc = closure_only_economy()
    cert = assoc.verify(assoc.info.endowments, (1 / 3,) * 3)
    assert cert.valid
    assert verify_market_clearing(assoc, cert).passed
    # the frozen reading sampled the closure corner (0, 1, 1), which is
    # affordable but not preferred
    sampled = seed_verify_market_clearing(assoc, cert).children[2]
    assert [w.point for w in sampled.witnesses] == [(0.0, 1.0, 1.0)]
    assert not assoc.preferred_value(0, cert.allocation).contains((0.0, 1.0, 1.0))


def test_clause_3_fails_on_a_preferred_bundle_past_sixteen_corners():
    assoc = late_cheap_box_economy()
    cert = assoc.verify(assoc.info.endowments, (1 / 3,) * 3)
    assert not cert.valid
    clause3 = verify_market_clearing(assoc, cert).children[2]
    assert not clause3.passed
    assert [(w.point, w.detail) for w in clause3.witnesses] == \
        [((1.0, 1.0, 1.0), "agent 0")]
    # the frozen reading stopped after 16 corners, none of them affordable
    sampled = seed_verify_market_clearing(assoc, cert).children[2]
    assert sampled.passed and sampled.parameters == {"sampled": 16}


def test_clause_3_fails_exactly_when_the_certificate_has_a_nonempty_conflict():
    certificates = sampled_disagrees = 0
    for assoc in _economy_variants():
        for p in assoc.simplex.points():
            for x in _test_allocations(assoc):
                cert = assoc.verify(x, p)
                exact = verify_market_clearing(assoc, cert).children[2]
                assert exact.passed == all(a.conflict_empty for a in cert.agents)
                sampled = seed_verify_market_clearing(assoc, cert).children[2]
                certificates += 1
                sampled_disagrees += sampled.passed != exact.passed
    assert (certificates, sampled_disagrees) == (1056, 7)


def test_conflict_empty_matches_membership_oracle():
    cases = [(assoc, x) for assoc in _economy_variants() if assoc.info.bundle_dim == 3
             for x in _test_allocations(assoc)]
    overlapping = overlapping_boxes_economy()
    cases += [(assoc, assoc.info.endowments)
              for assoc in (closure_only_economy(), late_cheap_box_economy(),
                            below_zero_economy(), overlapping)]
    outcomes = set()
    for assoc, x in cases:
        for p in assoc.simplex.points():
            for i in range(assoc.n):
                got = assoc.conflict_empty(i, x, p)
                assert got == membership_conflict_empty(assoc, i, x, p), (x, p, i)
                outcomes.add(got)
    assert outcomes == {True, False}
    # conflict_empty reads the two raw boxes; the oracle reads their
    # canonical union, which splits them, and both outcomes occur
    x = overlapping.info.endowments
    assert len(overlapping.info.preferences[0].pieces[0].value) == 2
    assert len(overlapping.preferred_value(0, x).boxes) > 2
    assert {overlapping.conflict_empty(0, x, p) for p in overlapping.simplex.points()} == \
        {True, False}


# ---------------------------------------------------------------------------
# The search against verify on every allocation
# ---------------------------------------------------------------------------
#
# ``brute_search`` runs ``verify`` on every allocation of measurable grid
# bundles with no filter at all, so it is the oracle for economies whose
# preference maps read other agents' bundles, where ``seed_search``'s
# endowment-context filter drops valid certificates.

def brute_search(assoc, axis_values):
    found = []
    for p in assoc.simplex.points():
        per_agent = []
        for i in range(assoc.n):
            groups = assoc.info.coordinate_groups(i, p)
            bundles = []
            for combo in itertools.product(axis_values, repeat=len(groups)):
                bundle = [0.0] * assoc.info.bundle_dim
                for g, v in zip(groups, combo):
                    for c in g:
                        bundle[c] = v
                bundles.append(tuple(bundle))
            per_agent.append(bundles)
        for alloc in itertools.product(*per_agent):
            cert = assoc.verify(alloc, p)
            if cert.valid:
                found.append(cert)
    return found


def cross_agent_economy():
    """Two agents, one good, two states, pooled signals, endowments
    (1/2, 1/2, 1/2) and truncation 2. Agent 0 prefers the box [0, 1/4]^3
    while agent 1's period-0 coordinate is below 3/4, and nothing once it
    reaches 3/4; agent 1 prefers nothing."""
    n, d, m = 2, 3, 2.0
    total = n * d
    full = FlaggedInterval.closed(0, m)
    domain = (full,) * total
    low = tuple(FlaggedInterval(0, 0.75, True, False) if k == d else full
                for k in range(total))
    high = tuple(FlaggedInterval.closed(0.75, m) if k == d else full for k in range(total))
    cheap = tuple(AffineInterval.constant(FlaggedInterval.closed(0, 0.25), total)
                  for _ in range(d))
    prefs = (PiecewiseMap(domain, d, (Piece(low, (cheap,)), Piece(high, ()))),
             PiecewiseMap(domain, d, (Piece(domain, ()),)))
    return InfoEconomy(n, 1, 2, ((0.5,) * d, (0.5,) * d), ("pooled", "pooled"),
                       prefs, truncation=m)


def test_search_finds_certificates_that_read_another_agents_bundle():
    assoc = AssociatedEconomy(cross_agent_economy(), 2.0, PriceSimplex(3, 4))
    axis = (0.0, 0.5, 1.0)
    certs = assoc.search(axis)
    x, p = ((0.0, 0.5, 0.5), (1.0, 0.5, 0.5)), (0.0, 0.5, 0.5)
    assert assoc.verify(x, p).valid
    assert (x, p) in {(c.allocation, c.price) for c in certs}
    assert len(certs) == 8
    assert certs == brute_search(assoc, axis)


def test_search_equals_brute_force_on_toy_variants():
    for assoc in _economy_variants():
        if assoc.info.bundle_dim != 3:
            continue
        assoc = dataclasses.replace(assoc, simplex=PriceSimplex(3, 4))
        axis = (0.0, 1.0, 2.0)
        assert assoc.search(axis) == brute_search(assoc, axis)


def test_search_verifies_only_allocations_passing_the_price_clause(monkeypatch):
    calls = []
    verify = AssociatedEconomy.verify
    monkeypatch.setattr(AssociatedEconomy, "verify",
                        lambda self, x, p: calls.append(p) or verify(self, x, p))
    assoc = to_abstract_economy(toy(), PriceSimplex(3, 8))
    assert assoc.search((0.0, 0.5, 1.0, 1.5, 2.0))
    assert len(calls) == 350


# ---------------------------------------------------------------------------
# The budget-first inclusion loop against the frozen three-test loop
# ---------------------------------------------------------------------------
#
# ``seed_remark_4_3_inclusion`` is the loop that tested every candidate for
# budget, preferred and measurable membership and built the measurable
# corners once per (price, allocation, agent). It stays here as the oracle
# for ``remark_4_3_inclusion``, which must draw the same seeded bundles in
# the same order and give the same report.

def seed_remark_4_3_inclusion(assoc, alloc_step):
    rng = random.Random(_radner._INCLUSION_SEED)
    d = assoc.info.bundle_dim
    axis = []
    v = 0.0
    while v <= assoc.truncation + 1e-12:
        axis.append(min(v, assoc.truncation))
        v += alloc_step
    def draw_bundle():
        return tuple(rng.choice(axis) for _ in range(d))

    allocations = [tuple(draw_bundle() for _ in range(assoc.n))
                   for _ in range(40)]
    preferred = [[assoc.preferred_value(i, x) for i in range(assoc.n)] for x in allocations]
    checked = 0
    antecedent_hits = 0
    wit = []
    for p in assoc.simplex.points():
        sets = [(assoc.budget(i, p), assoc.information(i, p)) for i in range(assoc.n)]
        for x, prefs in zip(allocations, preferred):
            for i, pref in enumerate(prefs):
                bud, inf = sets[i]
                candidates = [
                    tuple(0.0 for _ in range(d)),
                    assoc.info.endowments[i],
                    x[i],
                    tuple(assoc.truncation for _ in range(d)),
                ]
                candidates += [draw_bundle() for _ in range(12)]
                candidates += _radner._measurable_corners(pref, inf)
                for y in candidates:
                    checked += 1
                    in_a = bud.contains(y)
                    in_p = pref.contains(y) and inf.contains(y)
                    if in_a and in_p:
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
            "seed": _radner._INCLUSION_SEED,
        },
        ("antecedent_hits counts candidates that were affordable and "
         "preferred-measurable; each must satisfy both constraints",),
    )


@pytest.mark.parametrize("economy,resolution,step,hits", [
    (toy, 8, 0.125, 0), (toy, 4, 0.5, 0), (toy, 8, 0.25, 0),
    (richer_toy, 8, 0.125, 6), (richer_toy, 4, 0.5, 2), (richer_toy, 8, 0.25, 5),
    # steps that do not divide the truncation 2
    (toy, 8, 0.3, None), (toy, 8, 3.0, None),
    (richer_toy, 8, 0.3, None), (richer_toy, 8, 3.0, None),
])
def test_inclusion_matches_frozen_three_test_loop_on_toys(economy, resolution, step, hits):
    assoc = associated(economy(), resolution=resolution)
    got, want = remark_4_3_inclusion(assoc, step), seed_remark_4_3_inclusion(assoc, step)
    assert repr(got) == repr(want)
    if hits is not None:
        assert got.parameters["antecedent_hits"] == hits


@pytest.mark.parametrize("resolution,step,hits", [(2, 0.5, 1), (2, 0.25, 2),
                                                  (3, 0.5, 11), (3, 0.25, 18)])
def test_inclusion_matches_frozen_three_test_loop_on_two_goods(resolution, step, hits):
    assoc, _ = _both_economies(resolution)
    got = remark_4_3_inclusion(assoc, step)
    assert repr(got) == repr(seed_remark_4_3_inclusion(assoc, step))
    assert got.parameters["antecedent_hits"] == hits


def test_inclusion_witnesses_match_frozen_loop_under_a_rejecting_clause_b(monkeypatch):
    monkeypatch.setattr(AssociatedEconomy, "clause_b", lambda self, i, bundle, p: False)
    assoc = associated(richer_toy())
    got = remark_4_3_inclusion(assoc, 0.125)
    assert repr(got) == repr(seed_remark_4_3_inclusion(assoc, 0.125))
    assert len(got.witnesses) == 6
    # some witnesses sit at seeded draws, not at structured points or corners
    assert (1.75, 1.375, 1.375) in {w.point for w in got.witnesses}


def test_inclusion_builds_corners_once_and_tests_preferences_only_when_affordable(monkeypatch):
    draws = []

    class CountingRandom(random.Random):
        def choice(self, seq):
            draws.append(1)
            return super().choice(seq)

    corners = []
    measurable_corners = _radner._measurable_corners
    monkeypatch.setattr(_radner, "_measurable_corners",
                        lambda value, info: corners.append(1) or measurable_corners(value, info))
    # radner and the oracle draw through the same ``random`` module
    monkeypatch.setattr(_radner.random, "Random", CountingRandom)
    assoc = associated(toy())
    want = seed_remark_4_3_inclusion(assoc, 0.125)
    assert (len(corners), len(draws)) == (3600, 129840)
    corners.clear()
    draws.clear()

    budget_contains, boxset_contains = _radner.BudgetSet.contains, BoxSet.contains
    last, preferred_tests = {}, []

    def in_budget(self, x):
        last["point"], last["in"] = x, budget_contains(self, x)
        return last["in"]

    def in_preferred(self, point):
        preferred_tests.append(last.get("point") == point and last["in"])
        return boxset_contains(self, point)

    monkeypatch.setattr(_radner.BudgetSet, "contains", in_budget)
    monkeypatch.setattr(BoxSet, "contains", in_preferred)
    got = remark_4_3_inclusion(assoc, 0.125)
    assert repr(got) == repr(want)
    # every triple of the toy is ruled out before drawing: only the 240
    # allocation draws are made, and no budget or preferred test runs
    assert (len(corners), len(draws), len(preferred_tests)) == (80, 240, 0)
    assert not last  # ``in_budget`` never ran
    # on the richer toy triples stay open, and a preferred test still
    # follows only a passed budget test of the same candidate
    rich = associated(richer_toy())
    want = seed_remark_4_3_inclusion(rich, 0.125)
    corners.clear()
    draws.clear()
    preferred_tests.clear()
    got = remark_4_3_inclusion(rich, 0.125)
    assert repr(got) == repr(want)
    # the last three triples are ruled out and draw nothing
    assert (len(corners), len(draws)) == (80, 129840 - 3 * 12)
    assert preferred_tests and all(preferred_tests)


def test_inclusion_checks_the_preference_domain_before_any_draw(monkeypatch):
    """A truncation that leaves a preference map's domain is refused with a
    message naming the agent, the truncation and the domain, before a bundle
    is drawn; the economy itself still accepts it."""
    draws = []

    class CountingRandom(random.Random):
        def choice(self, seq):
            draws.append(1)
            return super().choice(seq)

    monkeypatch.setattr(_radner.random, "Random", CountingRandom)
    assoc = associated(toy(), 3.0)
    assert assoc.budget(0, (1 / 3, 1 / 3, 1 / 3)).truncation == 3.0
    with pytest.raises(_radner.DomainError) as exc:
        remark_4_3_inclusion(assoc, 0.125)
    assert str(exc.value) == ("truncation 3.0 leaves the domain of agent 0's preference map: "
                              "coordinate 0 ranges over [0, 2.0], which must contain both 0 "
                              "and the truncation")
    assert draws == []
    # a truncation inside every domain draws as before
    assert remark_4_3_inclusion(associated(toy(), 2.0), 0.5).passed
    assert draws


# ---------------------------------------------------------------------------
# Triples ruled out before drawing
# ---------------------------------------------------------------------------

NON_DYADIC = (0.1, 1 / 3, 0.7, 1.4)


def seeded_toy(rng):
    """The toy's preferences under seeded signals and non-dyadic endowments
    whose aggregate stays within the truncation 2."""
    e0 = tuple(rng.choice(NON_DYADIC) for _ in range(3))
    e1 = tuple(rng.choice([v for v in NON_DYADIC + (0.5,) if a + v <= 2]) for a in e0)
    signals = tuple(rng.choice(("pooled", "revealing", "threshold:1:0.3", "threshold:0:0.5"))
                    for _ in range(2))
    return dataclasses.replace(toy(), endowments=(e0, e1), signals=signals)


def test_inclusion_matches_frozen_loop_on_seeded_economies():
    rng = random.Random(4301)
    hits = 0
    for _ in range(50):
        e = seeded_toy(rng)
        assoc = associated(e, resolution=rng.randint(2, 8))
        step = rng.choice((0.1, 0.3))
        got = remark_4_3_inclusion(assoc, step)
        assert repr(got) == repr(seed_remark_4_3_inclusion(assoc, step)), (e, step)
        hits += got.parameters["antecedent_hits"]
    assert hits > 0


def _count_inclusion_work(monkeypatch):
    """Count seeded draws and budget tests from here on."""
    draws, budget_tests = [], []

    class CountingRandom(random.Random):
        def choice(self, seq):
            draws.append(1)
            return super().choice(seq)

    budget_contains = _radner.BudgetSet.contains
    monkeypatch.setattr(_radner.random, "Random", CountingRandom)
    monkeypatch.setattr(_radner.BudgetSet, "contains",
                        lambda self, x: budget_tests.append(1) or budget_contains(self, x))
    return draws, budget_tests


def seed_allocations(assoc, alloc_step):
    """The 40 seeded allocations, drawn as ``seed_remark_4_3_inclusion`` does."""
    rng = random.Random(_radner._INCLUSION_SEED)
    axis = []
    v = 0.0
    while v <= assoc.truncation + 1e-12:
        axis.append(min(v, assoc.truncation))
        v += alloc_step
    return [tuple(tuple(rng.choice(axis) for _ in range(assoc.info.bundle_dim))
                  for _ in range(assoc.n)) for _ in range(40)]


@pytest.mark.parametrize("economy,step,draws", [
    (toy, 0.125, 240), (toy, 0.25, 240), (toy, 0.0625, 240),
    (richer_toy, 0.125, 129804), (richer_toy, 0.25, 129516), (richer_toy, 0.0625, 129588),
])
def test_inclusion_decides_and_draws_in_one_pass(monkeypatch, economy, step, draws):
    """The one pass over the triples draws, at each open triple, the bundles
    of the triples ruled out since the last open one and then its own: the
    reports equal the frozen loop's, and the draw counts are those of
    drawing through the last open triple after deciding them all (the 240
    allocation draws, and 36 per triple up to it)."""
    assoc = associated(economy())
    want = seed_remark_4_3_inclusion(assoc, step)
    counted, _ = _count_inclusion_work(monkeypatch)
    assert repr(remark_4_3_inclusion(assoc, step)) == repr(want)
    assert len(counted) == draws and (draws - 240) % 36 == 0


def test_toy_tie_triples_at_a_unit_price_are_ruled_out(monkeypatch):
    """At p = (1, 0, 0) two triples of the toy have a floor priced exactly
    at the wealth 1/2: their preferred boxes are open at the floor, so no
    bundle passes the strict budget test, and they draw nothing."""
    assoc = associated(toy())
    p = (1.0, 0.0, 0.0)
    ties = []
    for k, x in enumerate(seed_allocations(assoc, 0.125)):
        for i in range(assoc.n):
            floors = _radner._group_floors(assoc.preferred_value(i, x),
                                           assoc.info.coordinate_groups(i, p), assoc.truncation)
            prices = [_radner._dot(p, z) for z in floors]
            assert all(v >= 0.5 for v in prices)
            if 0.5 in prices:
                ties.append((k, i, x[i]))
    assert ties == [(9, 0, (0.0, 0.25, 1.0)), (33, 1, (0.0, 0.125, 0.375))]
    want = seed_remark_4_3_inclusion(assoc, 0.125)
    draws, budget_tests = _count_inclusion_work(monkeypatch)
    assert repr(remark_4_3_inclusion(assoc, 0.125)) == repr(want)
    assert (len(draws), len(budget_tests)) == (240, 0)


@pytest.mark.parametrize("signal,open_triples", [("pooled", False), ("revealing", True)])
def test_inclusion_rules_out_a_box_without_a_measurable_bundle(monkeypatch, signal,
                                                                open_triples):
    """Agent 0 prefers [0, 2] x [0, 1/4] x [1, 2]. Under pooled signals its
    states must be equal, and no bundle is, so every triple is ruled out
    although the box's floor (0, 1, 1) is cheap at most prices; under
    revealing signals the box holds cheap measurable bundles."""
    c = FlaggedInterval.closed
    assoc = constant_preference_economy(signal, [(c(0, 2), c(0, 0.25), c(1, 2))])
    want = seed_remark_4_3_inclusion(assoc, 0.25)
    draws, budget_tests = _count_inclusion_work(monkeypatch)
    got = remark_4_3_inclusion(assoc, 0.25)
    assert repr(got) == repr(want)
    assert (len(draws) > 240, len(budget_tests) > 0) == (open_triples, open_triples)
    assert (got.parameters["antecedent_hits"] > 0) == open_triples


def test_inclusion_keeps_a_triple_affordable_only_in_floats():
    """Pooled agent 0 prefers [1.6, 2] x [0.7, 2] x [0.7, 2]. At p = (1/3, 1/3,
    1/3) the float budget test accepts its lower corner, whose price sums to
    0.9999999999999999 against the wealth 1.0, while the collapsed minimum of
    ``conflict_empty`` reads 1.0 and calls the conflict empty. The triple must
    stay open, so the sampled check keeps the hit."""
    c = FlaggedInterval.closed
    assoc = constant_preference_economy("pooled", [(c(1.6, 2), c(0.7, 2), c(0.7, 2))])
    p, corner = (1 / 3,) * 3, (1.6, 0.7, 0.7)
    assert assoc.budget(0, p).contains(corner)
    assert assoc.conflict_empty(0, assoc.info.endowments, p)
    got = remark_4_3_inclusion(assoc, 0.25)
    assert repr(got) == repr(seed_remark_4_3_inclusion(assoc, 0.25))
    assert got.parameters["antecedent_hits"] > 0


@pytest.mark.parametrize("step", [0, -0.5, math.nan, math.inf])
def test_inclusion_rejects_a_step_that_is_not_positive_and_finite(monkeypatch, step):
    """0 and -0.5 would never leave the allocation axis loop, and NaN or inf
    would sample a one-value axis. The step is refused after the domain
    check and before the seeded generator is made, which precedes the axis
    loop, so a missing check fails here instead of looping."""
    class NoDraws(random.Random):
        def __init__(self, *args):
            raise AssertionError("the seeded draws started")

    monkeypatch.setattr(_radner.random, "Random", NoDraws)
    with pytest.raises(ValueError) as exc:
        remark_4_3_inclusion(associated(toy()), step)
    assert str(exc.value) == f"alloc_step must be a positive finite number, got {step!r}"
    # the domain check comes first
    with pytest.raises(_radner.DomainError):
        remark_4_3_inclusion(associated(toy(), 3.0), step)


@pytest.mark.parametrize("step", [1e-300, 5e-324, 2e-8])
def test_inclusion_rejects_an_allocation_axis_past_the_grid_limit(monkeypatch, step):
    """On the toy's truncation 2, these steps give more than 10**8 allocation
    axis points; 1e-300 would not leave the axis loop for hours. The step is
    refused with the bound ``build-radner`` applies, one shared constant,
    before the seeded generator is made, which precedes the axis loop."""
    class NoDraws(random.Random):
        def __init__(self, *args):
            raise AssertionError("the seeded draws started")

    monkeypatch.setattr(_radner.random, "Random", NoDraws)
    assert _radner.MAX_GRID_POINTS is cli.MAX_GRID_POINTS == 10**8
    with pytest.raises(ValueError) as exc:
        remark_4_3_inclusion(associated(toy()), step)
    assert str(exc.value).startswith(f"truncation 2.0 at step {step} gives ")
    assert str(exc.value).endswith("allocation grid points, more than the limit of 100000000")


def seed_dot(a, b):
    """``_dot`` as it was: the builtin ``sum`` of the products."""
    return sum(map(operator.mul, a, b))


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="sum() of floats compensates its rounding from Python 3.12 on")
def test_dot_is_bit_identical_to_the_builtin_sum():
    rng = random.Random(4302)
    for _ in range(3000):
        n = rng.randint(1, 12)
        a = [rng.random() * 10 ** rng.randint(-8, 8) for _ in range(n)]
        b = [rng.choice((rng.random(), rng.randint(0, 16) / 8, 1 / 3, 0.1)) for _ in range(n)]
        assert _radner._dot(a, b).hex() == float(seed_dot(a, b)).hex()


nonneg = st.floats(min_value=0.0, max_value=1e100, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(nonneg, nonneg, nonneg), min_size=1, max_size=10))
def test_dot_is_monotone_in_a_nonnegative_bundle(rows):
    p = [r[0] for r in rows]
    y = [min(r[1], r[2]) for r in rows]
    y_up = [max(r[1], r[2]) for r in rows]
    assert _radner._dot(p, y) <= _radner._dot(p, y_up)
