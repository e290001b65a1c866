"""The gathered algebra operations and the measure tables against the loops
and per-call formulas they replaced.

The reference functions below are the per-morphism loops that ``convolve``,
``involute``, ``left_regular_matrix`` and ``is_positive_type`` used before
they became gathers over ``composable_arrays()``, and the per-call ratios
``nu_target``, ``nu_source`` and ``delta`` computed before the measure built
them into tables.  Exact outputs must agree in value and type; float and
complex outputs may move by rounding only.
"""

from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from test_exact_path import _pair3_missing, cyclic_group_groupoid, two_component_groupoid

from groupoidqm import (
    AlgebraElement,
    FiniteGroupoid,
    GroupoidMeasure,
    NotComposableError,
    Symmetroid,
    convolve,
    direct_product,
    involute,
    is_positive_type,
    left_regular_matrix,
    pair_groupoid,
    weighted_pair_measure,
)
from groupoidqm.algebra import PSD_TOL, PositiveTypeResult, psd_verdict
from groupoidqm.symalgebra import SymmetroidMeasure

# -- the per-call ratios and loops the tables and gathers replaced --


def ratio(p, q):
    if isinstance(p, int) and isinstance(q, int):
        return p // q if p % q == 0 else Fraction(p, q)
    return p / q


def ref_nu_target(m, a):
    return ratio(m.weights[a], m.object_weights[m.groupoid.target[a]])


def ref_nu_source(m, a):
    return ratio(m.weights[a], m.object_weights[m.groupoid.source[a]])


def ref_delta(m, a):
    return ratio(m.weights[a], m.weights[m.groupoid.inverse[a]])


def weights_against(weights, *value_lists):
    if all(isinstance(v, Rational) for vs in value_lists for v in vs):
        return weights
    return [float(w) for w in weights]


def loop_convolve(f, g, m):
    G = m.groupoid
    out = [0] * G.n_morphisms
    fv, gv = f.values, g.values
    nu = weights_against([ref_nu_target(m, beta) for beta in G.morphisms()], fv, gv)
    for alpha in G.morphisms():
        acc = 0
        for beta in G.target_fiber(G.target[alpha]):
            w = fv[beta]
            if w == 0:
                continue
            acc += w * gv[G.compose(G.inv(beta), alpha)] * nu[beta]
        out[alpha] = acc
    return out


def loop_involute(f, m):
    G = m.groupoid
    inverse_delta = weights_against([ref_delta(m, G.inv(a)) for a in G.morphisms()], f.values)
    return [inverse_delta[a] * f.values[G.inv(a)].conjugate() for a in G.morphisms()]


def loop_left_regular_matrix(f, m):
    G = m.groupoid
    mat = np.zeros((G.n_morphisms, G.n_morphisms), dtype=np.complex128)
    nu = weights_against([ref_nu_target(m, beta) for beta in G.morphisms()], f.values)
    for alpha in G.morphisms():
        for gamma in G.source_fiber(G.source[alpha]):
            beta = G.compose(alpha, G.inv(gamma))
            if f.values[beta] != 0:
                mat[alpha, gamma] = complex(f.values[beta] * nu[beta])
    return mat


def loop_is_positive_type(phi, tol=PSD_TOL):
    G = phi.groupoid
    worst = PositiveTypeResult(True, float("inf"), 0.0)
    seen = set()
    for x in G.objects():
        fiber = G.source_fiber(x)
        if not fiber:
            continue
        k = len(fiber)
        block = np.zeros((k, k), dtype=np.complex128)
        for i, a in enumerate(fiber):
            for j, b in enumerate(fiber):
                block[i, j] = complex(phi.values[G.compose(a, G.inv(b))])
        key = block.tobytes()
        if key in seen:
            continue
        seen.add(key)
        verdict = psd_verdict(block, tol)
        if not verdict.ok or verdict.min_eigenvalue < worst.min_eigenvalue:
            worst = PositiveTypeResult(**vars(verdict), object_index=x, fiber=fiber, block=block)
        if not worst.ok:
            return worst
    return worst


# -- groupoids, measures and values --

GROUPOIDS = {
    "pair1": lambda: pair_groupoid(1),
    "pair2": lambda: pair_groupoid(2),
    "pair3": lambda: pair_groupoid(3),
    "pair4": lambda: pair_groupoid(4),
    "z3": lambda: cyclic_group_groupoid(3),
    "two-component": two_component_groupoid,
    "product": lambda: direct_product(pair_groupoid(2), cyclic_group_groupoid(3)),
    "vertical2": lambda: Symmetroid(pair_groupoid(2)).vertical,
}


def measures(g):
    """Counting, int weights whose ratios are Fractions, Fraction and float weights."""
    rng = np.random.default_rng(11 + g.n_morphisms)
    m, n = g.n_morphisms, g.n_objects
    ints = [int(v) for v in rng.integers(1, 5, size=m)]
    return {
        "counting": GroupoidMeasure.counting(g),
        "int": GroupoidMeasure(g, ints, [int(v) for v in rng.integers(2, 5, size=n)]),
        "fraction": GroupoidMeasure(
            g, [Fraction(int(p), int(q)) for p, q in rng.integers(1, 6, size=(m, 2))]
        ),
        "float": GroupoidMeasure(g, [float(v) for v in rng.uniform(0.5, 2.0, size=m)], [1.5] * n),
    }


def value_lists(g, seed):
    """int, Fraction, float, complex, numpy-integer and mixed exact/complex
    values, with a zero of the list's own type at every third place from the
    second."""
    rng = np.random.default_rng(seed + g.n_morphisms)
    m = g.n_morphisms
    lists = {
        "int": [int(v) for v in rng.integers(-3, 4, size=m)],
        "fraction": [Fraction(int(p), int(q)) for p, q in rng.integers(1, 5, size=(m, 2))],
        "float": [float(v) for v in rng.normal(size=m)],
        "complex": [complex(v) for v in rng.normal(size=m) + 1j * rng.normal(size=m)],
        "numpy-int": list(rng.integers(-3, 4, size=m)),  # Rational, but neither int nor Fraction
    }
    for values in lists.values():
        for i in range(1, m, 3):
            values[i] *= 0
    cycle = [Fraction(1, 3), 2, complex(0.5, -1.25), 0]
    lists["exact-complex"] = [cycle[i % 4] for i in range(m)]
    return lists


def exact(*value_lists):
    return all(isinstance(v, Rational) for vs in value_lists for v in vs)


def assert_parity(new, ref, exact_inputs):
    """Outputs of exact inputs match in value and type, others to rounding."""
    assert len(new) == len(ref)
    if exact_inputs:
        assert new == ref
        assert [type(v) for v in new] == [type(v) for v in ref]
    else:
        scale = max(abs(v) for v in ref)
        assert max(abs(a - b) for a, b in zip(new, ref)) <= 1e-15 * scale


CASES = [(gname, mname) for gname, make in GROUPOIDS.items() for mname in measures(make())]


@pytest.mark.parametrize("gname,mname", CASES)
def test_tables_match_per_call_ratios(gname, mname):
    g = GROUPOIDS[gname]()
    m = measures(g)[mname]
    for table, ref in (
        (m.nu_targets, ref_nu_target),
        (m.nu_sources, ref_nu_source),
        (m.deltas, ref_delta),
    ):
        want = [ref(m, a) for a in g.morphisms()]
        assert list(table) == want
        assert [type(v) for v in table] == [type(v) for v in want]
    assert [m.nu_target(a) for a in g.morphisms()] == list(m.nu_targets)


@pytest.mark.parametrize("gname,mname", CASES)
def test_algebra_gathers_match_loops(gname, mname):
    g = GROUPOIDS[gname]()
    m = measures(g)[mname]
    fs, hs = value_lists(g, 1), value_lists(g, 2)
    for fvals in fs.values():
        f = AlgebraElement(g, fvals)
        assert_parity(involute(f, m).values, loop_involute(f, m), exact(fvals, m.weights))
        mat, ref = left_regular_matrix(f, m), loop_left_regular_matrix(f, m)
        assert np.abs(mat - ref).max() <= 1e-15 * np.abs(ref).max()
        for hvals in hs.values():
            h = AlgebraElement(g, hvals)
            ref = loop_convolve(f, h, m)
            assert_parity(convolve(f, h, m).values, ref, exact(fvals, hvals, m.weights))


def test_exact_parity_cases_keep_ints_and_zeros():
    """The loop skips a zero f(β): an output with no other term stays the int 0."""
    g = pair_groupoid(2)
    m = GroupoidMeasure.counting(g)
    f = AlgebraElement(g, [0, Fraction(0), 0, 0])
    h = AlgebraElement(g, [Fraction(1, 2)] * 4)
    out = convolve(f, h, m).values
    assert out == loop_convolve(f, h, m) == [0] * 4
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
        assert new.block.tobytes() == ref.block.tobytes()
        assert np.array_equal(new.witness, ref.witness)
    assert verdicts == {True, False}


def test_quotient_and_symmetroid_tables_match_per_call_ratios():
    g = pair_groupoid(3)
    for base in (
        GroupoidMeasure.counting(g),
        GroupoidMeasure(g, [k % 3 + 1 for k in range(9)], [2, 3, 1]),
        weighted_pair_measure(g, (Fraction(1, 3), 2, Fraction(5, 2))),
        weighted_pair_measure(g, (1.0, 2.0, 4.0)),
    ):
        # the tables the quotient fast path reads
        for table, ref in ((base.nu_targets, ref_nu_target), (base.deltas, ref_delta)):
            want = [ref(base, a) for a in g.morphisms()]
            assert list(table) == want
            assert [type(v) for v in table] == [type(v) for v in want]
        sym = Symmetroid(g)
        m2 = SymmetroidMeasure(sym, base)
        want = [ref_delta(base, t.alpha) * ref_delta(base, t.gamma) for t in sym.transformations]
        modular = m2.modular
        assert [modular[t] for t in sym.transformations] == list(m2.measure.deltas)
        assert_delta2_is_the_product(m2.measure.deltas, want)


def assert_delta2_is_the_product(deltas, products):
    """Δ₂ = μ₂(Γ)/μ₂(Γ⁻¹) against δ(α)·δ(γ): equal in value on exact bases,
    within 2 ulp on float ones."""
    deltas, products = list(deltas), list(products)
    assert len(deltas) == len(products)
    if any(isinstance(p, float) for p in products):
        assert all(abs(d - p) <= 2 * np.spacing(p) for d, p in zip(deltas, products))
    else:
        assert deltas == products


# -- malformed tables --


def test_gathers_raise_on_a_missing_pair():
    g = _pair3_missing((6, 0))
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
    f = AlgebraElement.constant(_pair3_missing((2, 6)), -1)
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
