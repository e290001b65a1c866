"""The gathered ``Symmetroid`` tables and ``FiniteGroupoid.composites`` against
the per-transformation constructor loop and ``compose`` calls they replaced.

``oracles.loop_symmetroid`` is that constructor loop: it enumerates the
transformations, composes every vertical pair with two ``compose`` calls and
looks the result up by key.  The gathered tables must match it field for
field, with the compose table in the same insertion order.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from oracles import GROUPOIDS, loop_symmetroid, pair3_missing

from groupoidqm import (
    FiniteGroupoid,
    NotComposableError,
    Symmetroid,
    Transformation,
    induce_measure,
    pair_groupoid,
    verify_induced_equivariance,
    verify_modular_formula,
    verify_modular_homomorphism,
    weighted_pair_measure,
)


@pytest.mark.parametrize(
    "name", ["pair1", "pair2", "pair3", "pair4", "z4", "two-component", "product", "product-z3"]
)
def test_gathered_symmetroid_matches_loop(name):
    g = GROUPOIDS[name]()
    sym = Symmetroid(g)
    ts, index, vertical = loop_symmetroid(g)
    assert sym.transformations == ts
    assert all(type(t) is Transformation for t in sym.transformations)
    assert list(sym.index.items()) == list(index.items())
    for field in ("n_objects", "source", "target", "inverse", "unit_of"):
        assert getattr(sym.vertical, field) == getattr(vertical, field), field
    assert list(sym.vertical.compose_table.items()) == list(vertical.compose_table.items())
    for got, want in zip(sym.vertical.composable_arrays(), vertical.composable_arrays()):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable


def test_symmetroid_verifiers_leave_the_vertical_compose_table_unbuilt():
    g = pair_groupoid(3)
    sym = Symmetroid(g)
    m2 = induce_measure(sym, weighted_pair_measure(g, (Fraction(1, 3), 2, Fraction(5, 2))))
    for verify in (verify_induced_equivariance, verify_modular_formula, verify_modular_homomorphism):
        assert verify(m2).ok
    assert sym.vertical._compose_table is None
    b, a, ba = sym.vertical.composable_arrays()
    assert list(sym.vertical.compose_table.items()) == list(zip(zip(b.tolist(), a.tolist()), ba.tolist()))
    assert sym.vertical.compose_table is sym.vertical.compose_table


@pytest.mark.parametrize("name", ["pair3", "z4", "two-component", "product", "product-z3"])
def test_composites_equal_compose(name):
    g = GROUPOIDS[name]()
    b, a, _ = g.composable_arrays()
    assert g.composites(b, a).tolist() == [g.compose(x, y) for x, y in g.composable_pairs()]
    # broadcast: one b against every a in its target fiber, as a column
    x = g.n_objects - 1
    fiber = np.array(g.target_fiber(x))
    b0 = g.source_fiber(x)[0]
    got = g.composites(b0, fiber[:, None])
    assert got.shape == (len(fiber), 1)
    assert got.ravel().tolist() == [g.compose(b0, int(y)) for y in fiber]


def _message(fn):
    with pytest.raises(NotComposableError) as err:
        fn()
    return str(err.value)


def test_composites_raise_on_the_first_pair_that_does_not_compose():
    g = pair_groupoid(3)
    # (1, 0) is 0 -> 0 followed by 1 -> 0: does not compose; (5, 1) neither
    b, a = np.array([[0, 1], [5, 4]]), np.array([[0, 0], [1, 4]])
    assert _message(lambda: g.composites(b, a)) == _message(lambda: g.compose(1, 0))
    h = pair3_missing((6, 0), (3, 1))
    assert h.composites([0, 3], [0, 0]).tolist() == [0, 3]
    assert _message(lambda: h.composites([3, 6], [1, 0])) == _message(lambda: h.compose(3, 1))
    assert _message(lambda: h.composites([6, 3], [0, 1])) == _message(lambda: h.compose(6, 0))


@pytest.mark.parametrize("missing", [((6, 0),), ((3, 1),), ((6, 0), (3, 1)), ((4, 4),)])
def test_missing_composite_raises_as_the_loop_did(missing):
    g = pair3_missing(*missing)
    want = _message(lambda: loop_symmetroid(g))
    assert _message(lambda: Symmetroid(g)) == want


def _pair3_with(pair, composite):
    p = pair_groupoid(3)
    table = {**p.compose_table, pair: composite}
    return FiniteGroupoid(3, p.source, p.target, table, p.inverse, p.unit_of)


@pytest.mark.parametrize("pair,composite", [((0, 0), 1), ((4, 3), 6), ((8, 7), 2)])
def test_wrong_composite_raises_as_the_loop_did(pair, composite):
    g = _pair3_with(pair, composite)
    assert _message(lambda: Symmetroid(g)) == _message(lambda: loop_symmetroid(g))


def test_wrong_tables_raise_not_composable_where_the_loop_raised_key_error():
    # (1)∘(3) = (0, 1)∘(1, 0) is (0, 0), here (0, 1): the loop's key lookup
    # failed before any compose call did
    g = _pair3_with((1, 3), 1)
    with pytest.raises(KeyError):
        loop_symmetroid(g)
    with pytest.raises(NotComposableError):
        Symmetroid(g)
    # the unit of object 1 is (2, 2): the vertical unit of β = (0, 1) would be
    # (1_0, β, (2, 2)), which the loop looked up as a key
    p = pair_groupoid(3)
    g = FiniteGroupoid(3, p.source, p.target, p.compose_table, p.inverse, [0, 8, 8])
    with pytest.raises(KeyError, match=re.escape("(0, 1, 8)")):
        loop_symmetroid(g)
    with pytest.raises(NotComposableError, match=re.escape(f"{Transformation(0, 1, 8)} is not a")):
        Symmetroid(g)

