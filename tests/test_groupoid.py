import json

import pytest

from groupoidqm import (
    FiniteGroupoid,
    NotComposableError,
    ValidationError,
    direct_product,
    fibers,
    groupoid_from_json,
    is_connected,
    pair_groupoid,
    pair_index,
    pair_of,
    validate,
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
