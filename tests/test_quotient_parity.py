"""The quotient operations are the S(G) algebra, permuted.

Over a pair groupoid the isotropy is trivial, so ``Symmetroid.project`` is a
bijection from the transformations onto the quotient classes: transformation
i is the class with index ``perm[i] = q_index(n, sym.project(t_i))``.
``convolve_S``, ``involute_S`` and ``rep_operator`` are ``convolve_general``,
``involute_general`` and ``left_regular_matrix`` on ``sym.vertical`` under
the induced measure, read through that permutation: equal in value and type
on every base, the float one included, and the matrices byte for byte.
"""

from fractions import Fraction

import numpy as np
import pytest
from oracles import assert_same_values, loop_convolve

from groupoidqm import (
    GroupoidMeasure,
    QuotientFunction,
    QuotientMeasure,
    SymFunction,
    Symmetroid,
    convolve_S,
    convolve_general,
    induce_measure,
    involute_S,
    involute_general,
    left_regular_matrix,
    pair_groupoid,
    q_index,
    rep_operator,
    weighted_pair_measure,
)

A, B = (1, 2, 3), (2, 1, 1)

BASES = {
    "counting": GroupoidMeasure.counting,
    # μ(j, k) = a_j·b_k over object weights a: int weights, int ν, Fraction δ
    "int": lambda g: GroupoidMeasure(
        g, [a * b for a in A[: g.n_objects] for b in B[: g.n_objects]], A[: g.n_objects]
    ),
    "fraction": lambda g: weighted_pair_measure(g, (Fraction(1, 3), 2, Fraction(5, 2))[: g.n_objects]),
    "float": lambda g: weighted_pair_measure(g, (0.5, 2.0, 3.0)[: g.n_objects]),
}


def draw(rng, size, exact):
    if exact:
        nums, dens = rng.integers(-9, 10, size=size), rng.integers(1, 10, size=size)
        return [Fraction(int(p), int(q)) for p, q in zip(nums, dens)]
    return list(rng.normal(size=size) + 1j * rng.normal(size=size))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("base", list(BASES))
def test_fast_path_is_the_permuted_general_algebra(n, base):
    g = pair_groupoid(n)
    m = BASES[base](g)
    sym = Symmetroid(g)
    m2 = induce_measure(sym, m)
    perm = np.array([q_index(n, sym.project(t)) for t in sym.transformations])
    assert sorted(perm.tolist()) == list(range(n**4))

    def lift(f):
        return SymFunction(sym, [f.values[i] for i in perm])

    rng = np.random.default_rng(n)
    f, h = (QuotientFunction(n, draw(rng, n**4, base != "float")) for _ in range(2))
    general = (convolve_general(lift(f), lift(h), m2), involute_general(lift(f), m2))
    lrm = left_regular_matrix(lift(f), m2.measure)
    qms = [QuotientMeasure(m)] + ([None] if base == "counting" else [])
    for qm in qms:
        for got, want in zip((convolve_S(f, h, qm), involute_S(f, qm)), general):
            assert_same_values([got.values[i] for i in perm], want.values)
        assert rep_operator(f, qm)[np.ix_(perm, perm)].tobytes() == lrm.tobytes()


def test_convolve_S_keeps_convolve_exact_types():
    """An output is a Fraction iff one of its terms has a Fraction factor: on
    a counting base a mixed int/Fraction kernel gives ints where every term
    is an int, and a zero row of f gives the int 0 where it leaves no term."""
    n = 2
    g = pair_groupoid(n)
    sym = Symmetroid(g)
    counting = GroupoidMeasure.counting(sym.vertical)
    perm = [q_index(n, sym.project(t)) for t in sym.transformations]
    mixed = QuotientFunction(n, [Fraction(1, 2)] + [1] * 15)
    rows = QuotientFunction(n, [0] * 8 + list(range(1, 9)))  # (l, r) = (0, *) is zero
    kernel = QuotientFunction(n, [Fraction(k + 1, 3) if k % 5 else k for k in range(16)])
    for f, h, ints in ((mixed, mixed, 9), (rows, kernel, 8)):
        out = convolve_S(f, h)
        lifted = (SymFunction(sym, [q.values[i] for i in perm]) for q in (f, h))
        want, _ = loop_convolve(*lifted, counting)
        assert_same_values([out.values[i] for i in perm], want)
        assert sum(type(v) is int for v in out.values) == ints
