"""Asymmetric-information exchange economies and their associated form."""

from __future__ import annotations

import dataclasses
import itertools
import math

import pytest

from boxcorr import (DocumentError, InfoEconomy, PriceSimplex, radner_toy,
                     remark_4_3_inclusion, to_abstract_economy, verify_market_clearing)
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

def associated(e, truncation=None):
    return to_abstract_economy(e, PriceSimplex(e.bundle_dim, 8), truncation)


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
    assert set(s.vertices()) <= set(pts)


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


def test_clause_b_readings_coincide_on_toy():
    e = toy()
    assoc = to_abstract_economy(e, PriceSimplex(3, 8))
    for p in [(1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.5, 0.5, 0.0)]:
        for pt in itertools.product((0.0, 0.25, 0.5), repeat=3):
            joint, split = assoc.clause_b(0, pt, p)
            assert joint == split or (split and not joint)


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
        to_abstract_economy(e, PriceSimplex(3, 8), truncation=0.25)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2", True])
def test_truncation_must_be_a_finite_number(bad):
    with pytest.raises(ValueError, match="truncation must be a finite number"):
        to_abstract_economy(toy(), PriceSimplex(3, 8), truncation=bad)
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
