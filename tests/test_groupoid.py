import json

import pytest

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
