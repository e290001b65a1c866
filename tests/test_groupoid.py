import json

import numpy as np
import pytest
from oracles import GROUPOIDS, loop_validate, pair3_missing

from groupoidqm import (
    AlgebraElement,
    DimensionMismatchError,
    FiniteGroupoid,
    GroupoidError,
    GroupoidMeasure,
    KrausFamily,
    NotComposableError,
    QuotientMeasure,
    Symmetroid,
    ValidationError,
    apply,
    convolve,
    direct_product,
    dsf_check,
    fibers,
    groupoid_from_json,
    identity_channel,
    is_connected,
    is_pair_groupoid,
    pair_groupoid,
    pair_index,
    pair_of,
    pad_element,
    pullback_embed,
    tomogram,
    validate,
    weighted_pair_measure,
)
from groupoidqm import groupoid as groupoid_module


def test_pair_groupoid_counts():
    g = pair_groupoid(3)
    assert g.n_objects == 3
    assert g.n_morphisms == 9
    assert sum(1 for m in g.morphisms() if g.is_unit(m)) == 3


def test_pair_groupoid_rejects_zero():
    with pytest.raises(ValueError):
        pair_groupoid(0)


def test_pair_groupoid_is_shared_and_read_only():
    g = pair_groupoid(3)
    assert pair_groupoid(3) is g
    with pytest.raises(TypeError):
        g.compose_table[(0, 0)] = 1
    assert g.compose_table[(0, 0)] == 0


def test_pair_composition_and_inverse():
    n = 3
    g = pair_groupoid(n)
    # (2,1)∘(1,0) = (2,0)
    assert g.compose(pair_index(n, 2, 1), pair_index(n, 1, 0)) == pair_index(n, 2, 0)
    # (1,2)⁻¹ = (2,1)
    assert g.inv(pair_index(n, 1, 2)) == pair_index(n, 2, 1)
    with pytest.raises(NotComposableError):
        g.compose(pair_index(n, 2, 1), pair_index(n, 0, 2))


def test_pair_morphisms_biject_with_object_pairs():
    n = 4
    g = pair_groupoid(n)
    seen = set()
    for m in g.morphisms():
        seen.add((g.target[m], g.source[m]))
        assert pair_of(n, m) == (g.target[m], g.source[m])
    assert seen == {(j, k) for j in range(n) for k in range(n)}


def test_validate_pair_groupoid_clean():
    rep = validate(pair_groupoid(2))
    assert rep.ok


def test_validate_detects_corrupted_composition():
    n = 2
    g = pair_groupoid(n)
    bad = dict(g.compose_table)
    # corrupt (0,1)∘(1,0): should be (0,0), claim (1,1)
    bad[(pair_index(n, 0, 1), pair_index(n, 1, 0))] = pair_index(n, 1, 1)
    g2 = FiniteGroupoid(n, g.source, g.target, bad, g.inverse, g.unit_of)
    rep = validate(g2)
    assert not rep.ok
    where = {v.where for v in rep.violations}
    assert any(
        (pair_index(n, 0, 1), pair_index(n, 1, 0)) == w[:2] for w in where if len(w) >= 2
    )


def test_validate_detects_missing_inverse():
    n = 2
    g = pair_groupoid(n)
    bad_inverse = list(g.inverse)
    bad_inverse[pair_index(n, 0, 1)] = pair_index(n, 0, 1)  # not an inverse
    g2 = FiniteGroupoid(n, g.source, g.target, dict(g.compose_table), bad_inverse, g.unit_of)
    rep = validate(g2)
    assert any(v.kind.startswith("inverse") for v in rep.violations)


def test_validate_detects_extra_table_entry():
    n = 2
    g = pair_groupoid(n)
    bad = dict(g.compose_table)
    bad[(pair_index(n, 1, 0), pair_index(n, 1, 0))] = 0  # s(b) != t(a)
    g2 = FiniteGroupoid(n, g.source, g.target, bad, g.inverse, g.unit_of)
    rep = validate(g2)
    assert any(v.kind == "domain-extra" for v in rep.violations)


# -- validate against the loop it replaced --


def assert_same_validate(g):
    """validate(g) and loop_validate(g) agree check for check and violation for
    violation, in order, except that the two domain kinds, which the loop lists
    in set order, are compared as sorted lists."""
    new, ref = validate(g), loop_validate(g)
    assert new.checks == ref.checks
    assert [v.kind for v in new.violations] == [v.kind for v in ref.violations]

    def split(rep):
        domain = [v for v in rep.violations if v.kind.startswith("domain-")]
        return sorted(domain, key=repr), [v for v in rep.violations if not v.kind.startswith("domain-")]

    assert split(new) == split(ref)
    return new


def edited(name, *edits):
    """The oracle groupoid ``name`` with its tables changed in place by each edit(tables)."""
    g = GROUPOIDS[name]()
    tables = {
        "source": list(g.source), "target": list(g.target), "compose": dict(g.compose_table),
        "inverse": list(g.inverse), "units": list(g.unit_of),
    }
    for edit in edits:
        edit(tables)
    return FiniteGroupoid(g.n_objects, *(tables[k] for k in ("source", "target", "compose", "inverse", "units")))


def setting(key, *changes):
    """An edit that sets tables[key][i] = v for each (i, v) in changes."""

    def edit(tables):
        for i, v in changes:
            tables[key][i] = v

    return edit


BIG = 2**70  # beyond int64
# pair2: 0 = (0,0), 1 = (0,1): 1 -> 0, 2 = (1,0): 0 -> 1, 3 = (1,1); (1, 1) does not compose
MALFORMED = {
    # the tables tests/test_cli.py feeds `groupoid validate`
    "cli-inverse-identity": edited("pair2", setting("inverse", (1, 1), (2, 2))),
    "cli-source-out-of-range": edited("pair2", setting("source", (1, 5))),
    "cli-target-negative": edited("pair2", setting("target", (1, -1))),
    # planted faults: a compose entry, an inverse, a unit and an endpoint
    "compose-entry": edited("pair3", setting("compose", ((1, 5), 4))),
    "compose-entry-isotropy": edited("product-z3", setting("compose", ((7, 1), 6))),
    "inverse-wrong-ends": edited("pair3", setting("inverse", (5, 5))),
    "inverse-same-ends": edited("product-z3", setting("inverse", (1, 1))),
    "unit-wrong-ends": edited("pair3", setting("units", (1, 0))),
    "unit-same-ends": edited("product-z3", setting("units", (0, 1))),
    "endpoint": edited("pair3", setting("source", (4, 0))),
    "endpoint-isotropy": edited("product-z3", setting("target", (9, 0))),
    # malformed beyond the faults above
    "missing": pair3_missing((6, 0), (3, 1), (0, 0)),
    "empty-table": edited("pair2", lambda tables: tables["compose"].clear()),
    "extra": edited("pair2", setting("compose", ((2, 2), 0), ((99, 0), 0), ((-1, 0), 1), ((BIG, 0), 3))),
    "composite-out-of-range": edited("pair2", setting("compose", ((0, 0), -1), ((1, 2), 99), ((2, 1), BIG))),
    "unit-out-of-range": edited("two-component", setting("units", (0, -1), (2, BIG))),
    "inverse-out-of-range": edited("pair2", setting("inverse", (0, 4), (1, -BIG))),
    # the lookup reads an entry for a pair that does not compose, as the table does:
    # (0∘0)∘1 = 1∘1 = 1 = 0∘(0∘1) here, and 99 composes with 0 both ways
    "extra-entry-read": edited("pair2", setting("compose", ((0, 0), 1), ((1, 1), 1))),
    "out-of-range-entry-read": edited("pair2", setting("compose", ((0, 0), 99), ((99, 0), 0), ((0, 99), 0))),
    # equal values out of range compare equal: 0∘0 = BIG = 1_0
    "equal-out-of-range": edited("pair2", setting("compose", ((0, 0), BIG)), setting("units", (0, BIG))),
}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_validate_matches_the_loop_on_the_grid(name):
    assert assert_same_validate(GROUPOIDS[name]()).ok


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_validate_matches_the_loop_on_malformed_tables(name):
    assert not assert_same_validate(MALFORMED[name]).ok


def test_validate_matches_the_loop_on_a_table_built_from_pair_arrays():
    g = pair_groupoid(3)
    b, a, ba = (arr.copy() for arr in g.composable_arrays())
    ba[[0, 5, 9]] = -1, 99, ba[4]  # out of range twice, then a wrong composite
    lazy = FiniteGroupoid._from_pair_arrays(3, g.source, g.target, (b, a, ba), g.inverse, g.unit_of)
    assert lazy._compose_table is None
    rep = assert_same_validate(lazy)
    out_of_range = [(int(b[k]), int(a[k]), r) for k, r in ((0, -1), (5, 99))]
    assert [v.where for v in rep.violations if v.kind == "index-range"] == out_of_range


@pytest.mark.parametrize("name", ["vertical2", "compose-entry", "endpoint-isotropy", "missing", "extra-entry-read"])
def test_validate_in_blocks_of_a_few_triples_matches_the_loop(name, monkeypatch):
    monkeypatch.setattr(groupoid_module, "_TRIPLES_PER_BLOCK", 5)  # fewer than some pairs' triples
    assert_same_validate(GROUPOIDS[name]() if name in GROUPOIDS else MALFORMED[name])


def test_validate_lists_domain_faults_in_pair_then_table_order():
    rep = validate(MALFORMED["missing"])
    assert [v.where for v in rep.violations if v.kind == "domain-missing"] == [(0, 0), (6, 0), (3, 1)]
    rep = validate(MALFORMED["extra"])
    assert [v.where for v in rep.violations if v.kind == "domain-extra"] == [(2, 2), (99, 0), (-1, 0), (BIG, 0)]
    assert rep.violations[-1].where == (BIG, 0) and str(BIG) in rep.violations[-1].message


def test_validate_decides_the_vertical_groupoid_of_s_pair_4():
    rep = validate(Symmetroid(pair_groupoid(4)).vertical)
    assert rep.ok and rep.checks == 74512


def test_direct_product_counts_and_units():
    g1, g2 = pair_groupoid(2), pair_groupoid(3)
    p = direct_product(g1, g2)
    assert p.n_objects == 6
    assert p.n_morphisms == 36
    # unit of (x1, x2) is the pair of units
    for x1 in range(2):
        for x2 in range(3):
            u = p.unit(x1 * 3 + x2)
            assert p.source[u] == p.target[u] == x1 * 3 + x2
    assert validate(p).ok


def test_direct_product_endpoint_law():
    p = direct_product(pair_groupoid(2), pair_groupoid(2))
    for (b, a), r in p.compose_table.items():
        assert p.target[r] == p.target[b]
        assert p.source[r] == p.source[a]


def test_fibers_of_pair_groupoid():
    n = 3
    g = pair_groupoid(n)
    src, tgt = fibers(g, 0)
    assert set(tgt) == {pair_index(n, 0, k) for k in range(n)}
    assert set(src) == {pair_index(n, j, 0) for j in range(n)}
    # fibers partition the morphisms
    all_tgt = [m for x in g.objects() for m in g.target_fiber(x)]
    assert sorted(all_tgt) == list(g.morphisms())
    for x in g.objects():
        assert len(g.target_fiber(x)) == len(g.source_fiber(x)) == n


def test_inverse_is_involution():
    g = direct_product(pair_groupoid(2), pair_groupoid(3))
    for m in g.morphisms():
        assert g.inv(g.inv(m)) == m


def test_connectedness():
    assert is_connected(pair_groupoid(3))
    # two disjoint single-object groupoids
    g = FiniteGroupoid(
        2, [0, 1], [0, 1], {(0, 0): 0, (1, 1): 1}, [0, 1], [0, 1]
    )
    assert validate(g).ok
    assert not is_connected(g)


def test_json_round_trip():
    g = pair_groupoid(3)
    data = json.loads(json.dumps(g.to_json()))
    g2 = groupoid_from_json(data)
    assert g2.n_objects == g.n_objects
    assert g2.compose_table == g.compose_table
    assert g2.inverse == g.inverse


def test_json_loader_rejects_invalid():
    g = pair_groupoid(2)
    data = g.to_json()
    data["inverse"] = [0, 1, 2, 3]  # identity map is not the pair inverse
    with pytest.raises(ValidationError):
        groupoid_from_json(data)


@pytest.mark.parametrize("key, length", [("inverse", 5), ("inverse", 3), ("units", 3)])
def test_constructor_needs_one_inverse_per_morphism_and_one_unit_per_object(key, length):
    # validate reads these tables by index: a longer one went unseen ("0
    # violations / 46 checks") and a shorter one broke a numpy broadcast
    g = pair_groupoid(2)
    tables = {"inverse": list(g.inverse), "units": list(g.unit_of)}
    tables[key] = (tables[key] * 2)[:length]
    with pytest.raises(ValueError, match="need one inverse per morphism and one unit per object"):
        FiniteGroupoid(2, g.source, g.target, dict(g.compose_table), tables["inverse"], tables["units"])
    data = g.to_json()
    data[key] = tables[key]
    with pytest.raises(GroupoidError, match="malformed groupoid JSON: need one inverse per morphism"):
        groupoid_from_json(data)


def test_a_composite_beyond_intp_raises_a_groupoid_error_in_the_kernels():
    # it was numpy's OverflowError; validate reads the table itself and reports it
    g = MALFORMED["equal-out-of-range"]  # (0, 0) -> 2**70
    f, m = AlgebraElement(g, [1, 0, 0, 1]), GroupoidMeasure.counting(g)
    with pytest.raises(GroupoidError, match="composite beyond intp"):
        g.composable_arrays()
    with pytest.raises(GroupoidError, match="composite beyond intp"):
        convolve(f, f, m)
    assert [v.kind for v in validate(g).violations][:1] == ["index-range"]


def two_isotropy_groupoid():
    """Two objects, each with Z/2 isotropy, and no arrows between them: a
    groupoid with 2² morphisms that is not a pair groupoid."""
    compose = {(b, a): (b ^ a) | (b & 2) for b in range(4) for a in range(4) if b & 2 == a & 2}
    return FiniteGroupoid(2, [0, 0, 1, 1], [0, 0, 1, 1], compose, [0, 1, 2, 3], [0, 2])


def test_is_pair_groupoid():
    for n in (1, 2, 3, 4):
        g = pair_groupoid(n)
        assert is_pair_groupoid(g) and is_pair_groupoid(g, n)
        assert not is_pair_groupoid(g, n + 1)
        assert is_pair_groupoid(groupoid_from_json(g.to_json()))
    h = two_isotropy_groupoid()
    assert validate(h).ok and h.n_morphisms == h.n_objects**2
    assert not is_pair_groupoid(h)
    # pair groupoids over four points whose morphisms are labelled otherwise
    assert not is_pair_groupoid(Symmetroid(pair_groupoid(2)).vertical)
    assert not is_pair_groupoid(direct_product(pair_groupoid(2), pair_groupoid(2)))


def test_pair_groupoid_sites_reject_isotropy_with_their_own_errors():
    g = two_isotropy_groupoid()
    psi = AlgebraElement(g, [1, 0, 0, 1])
    sites = [
        (ValueError, "weighted_pair_measure expects a pair groupoid", lambda: weighted_pair_measure(g, (1, 2))),
        (DimensionMismatchError, "Kraus member has the wrong dimension", lambda: KrausFamily(2, [psi])),
        (
            DimensionMismatchError,
            "channel over 2 outcomes applied to a function on 4 transitions",
            lambda: apply(identity_channel(2), psi),
        ),
        (GroupoidError, "dsf_check expects a function on a pair groupoid", lambda: dsf_check(psi)),
        (DimensionMismatchError, "tomogram dimension mismatch", lambda: tomogram(psi, 2)),
        (
            GroupoidError,
            "QuotientMeasure needs a pair-groupoid base",
            lambda: QuotientMeasure(GroupoidMeasure.counting(g)),
        ),
        (GroupoidError, "pullback_embed expects a function on a pair groupoid", lambda: pullback_embed(psi)),
        (DimensionMismatchError, "pad_element expects a function on a pair groupoid", lambda: pad_element(psi, 3)),
    ]
    for error, message, call in sites:
        with pytest.raises(error, match=message):
            call()
