"""The gathered algebra operations and the measure tables against the loops
and per-call formulas they replaced.

The references, in ``oracles``, are the per-morphism loops that
``convolve``, ``involute``, ``left_regular_matrix`` and ``is_positive_type``
used before they became gathers over ``composable_arrays()``.  Exact outputs
must agree in value and type, and the left-regular matrix byte for byte;
float and complex outputs may move by rounding only, a convolution's
within a multiple of u·Σ|terms| per output (``oracles.assert_parity``).
``nu_target``, ``nu_source`` and ``delta`` must read the measure's tables,
which ``test_exact_tables`` decides against the per-entry ratios of the
weights.
"""

from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    GROUPOIDS,
    assert_parity,
    assert_same_values,
    cases,
    exact,
    loop_convolve,
    loop_involute,
    loop_is_positive_type,
    loop_left_regular_matrix,
    measure,
    pair3_missing,
    value_lists,
)

from groupoidqm import (
    AlgebraElement,
    FiniteGroupoid,
    GroupoidMeasure,
    NotComposableError,
    convolve,
    involute,
    is_positive_type,
    left_regular_matrix,
    pair_groupoid,
)

NAMES = (
    "pair1", "pair2", "pair3", "pair4", "z3", "two-component", "product", "product-z3", "vertical2",
)
CASES = cases(NAMES, ("counting", "int", "fraction", "float", "weighted-fraction"))


@pytest.mark.parametrize("gname,mname", CASES)
def test_tables_match_per_call_ratios(gname, mname):
    """Each per-call read is its table's entry; test_exact_tables decides the
    tables against the ratios of the weights, on these cases too."""
    m = measure(GROUPOIDS[gname](), mname)
    for call, table in ((m.nu_target, m.nu_targets), (m.nu_source, m.nu_sources), (m.delta, m.deltas)):
        assert_same_values(map(call, m.groupoid.morphisms()), table)


@pytest.mark.parametrize("gname,mname", CASES)
def test_algebra_gathers_match_loops(gname, mname):
    g = GROUPOIDS[gname]()
    m = measure(g, mname)
    fs, hs = value_lists(g, 1), value_lists(g, 2)
    for fvals in fs.values():
        f = AlgebraElement(g, fvals)
        assert_parity(involute(f, m).values, loop_involute(f, m), exact(fvals, m.weights))
        mat, ref = left_regular_matrix(f, m), loop_left_regular_matrix(f, m)
        if exact(fvals, m.weights):
            assert mat.dtype == ref.dtype and mat.tobytes() == ref.tobytes()
        else:
            assert np.abs(mat - ref).max() <= 1e-15 * np.abs(ref).max()
        for hvals in hs.values():
            h = AlgebraElement(g, hvals)
            ref, magnitudes = loop_convolve(f, h, m)
            assert_parity(convolve(f, h, m).values, ref, exact(fvals, hvals, m.weights), magnitudes)


def test_exact_parity_cases_keep_ints_and_zeros():
    """The loop skips a zero f(β): an output with no other term stays the int 0."""
    g = pair_groupoid(2)
    m = GroupoidMeasure.counting(g)
    f = AlgebraElement(g, [0, Fraction(0), 0, 0])
    h = AlgebraElement(g, [Fraction(1, 2)] * 4)
    out = convolve(f, h, m).values
    assert out == tuple(loop_convolve(f, h, m)[0]) == (0,) * 4
    assert all(type(v) is int for v in out)


def positive_type_functions(g):
    rng = np.random.default_rng(3 + g.n_morphisms)
    c = rng.normal(size=g.n_objects) + 1j * rng.normal(size=g.n_objects)
    lists = value_lists(g, 4)
    lists["constant"] = [1] * g.n_morphisms
    lists["negative"] = [-1] * g.n_morphisms
    lists["units"] = AlgebraElement.units_indicator(g).values
    lists["character"] = [complex(c[g.target[a]] * np.conj(c[g.source[a]])) for a in g.morphisms()]
    return lists


@pytest.mark.parametrize("gname", list(GROUPOIDS))
def test_positive_type_blocks_match_loop(gname):
    g = GROUPOIDS[gname]()
    verdicts = set()
    for values in positive_type_functions(g).values():
        phi = AlgebraElement(g, values)
        new, ref = is_positive_type(phi), loop_is_positive_type(phi)
        assert new.ok == ref.ok
        verdicts.add(new.ok)
        assert np.array_equal(new.min_eigenvalue, ref.min_eigenvalue, equal_nan=True)
        assert (new.object_index, new.fiber) == (ref.object_index, ref.fiber)
        assert new.matrix.tobytes() == ref.matrix.tobytes()
        assert np.array_equal(new.witness, ref.witness)
    assert verdicts == {True, False}


# -- malformed tables --


def test_gathers_raise_on_a_missing_pair():
    g = pair3_missing((6, 0))
    m = GroupoidMeasure.counting(g)
    f = AlgebraElement.constant(g, 1)
    for op in (lambda: convolve(f, f, m), lambda: left_regular_matrix(f, m)):
        with pytest.raises(NotComposableError):
            op()
    with pytest.raises(NotComposableError) as want:
        loop_is_positive_type(f)
    with pytest.raises(NotComposableError) as got:
        is_positive_type(f)
    assert str(got.value) == str(want.value)


def test_positive_type_raises_on_a_missing_pair_whatever_the_values():
    # -1 fails at object 0, before the walk reaches the block that lacks m2∘m6
    f = AlgebraElement.constant(pair3_missing((2, 6)), -1)
    with pytest.raises(NotComposableError) as got:
        is_positive_type(f)
    assert str(got.value) == "morphisms m2:2->0 and m6:0->2 do not compose"


def test_positive_type_raises_on_an_inverse_with_wrong_endpoints():
    p = pair_groupoid(2)
    g = FiniteGroupoid(2, p.source, p.target, p.compose_table, [0, 1, 2, 3], p.unit_of)
    f = AlgebraElement.constant(g, 1)
    with pytest.raises(NotComposableError) as want:
        loop_is_positive_type(f)
    with pytest.raises(NotComposableError) as got:
        is_positive_type(f)
    assert str(got.value) == str(want.value)
