"""The quotient operations are the S(G) algebra, permuted.

Over a pair groupoid the isotropy is trivial, so ``Symmetroid.project`` is a
bijection from the transformations onto the quotient classes: transformation
i is the class with index ``perm[i] = q_index(n, sym.project(t_i))``.
``convolve_S``, ``involute_S`` and ``rep_operator`` run on
``quotient_groupoid(n)``, built from the q-rules; they must be ``convolve``,
``involute`` and ``left_regular_matrix`` on ``sym.vertical`` under the
induced measure, read through that permutation: equal in value and type on
every base, the float one included, and the matrices byte for byte.
"""

from fractions import Fraction

import numpy as np
import pytest
from oracles import PAIR_HAAR_BASES, assert_same_values, draw, loop_convolve

from groupoidqm import (
    AlgebraElement,
    GroupoidMeasure,
    QuotientFunction,
    QuotientMeasure,
    Symmetroid,
    convolve,
    convolve_S,
    induce_measure,
    involute,
    involute_S,
    left_regular_matrix,
    pair_groupoid,
    q_index,
    rep_operator,
)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("base", list(PAIR_HAAR_BASES))
def test_fast_path_is_the_permuted_general_algebra(n, base):
    g = pair_groupoid(n)
    m = PAIR_HAAR_BASES[base](g)
    sym = Symmetroid(g)
    m2 = induce_measure(sym, m)
    perm = np.array([q_index(n, sym.project(t)) for t in sym.transformations])
    assert sorted(perm.tolist()) == list(range(n**4))

    def lift(f):
        return AlgebraElement(sym.vertical, [f.values[i] for i in perm])

    rng = np.random.default_rng(n)
    f, h = (QuotientFunction(n, draw(rng, n**4, base != "float")) for _ in range(2))
    general = (convolve(lift(f), lift(h), m2.measure), involute(lift(f), m2.measure))
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
        lifted = (AlgebraElement(sym.vertical, [q.values[i] for i in perm]) for q in (f, h))
        want, _ = loop_convolve(*lifted, counting)
        assert_same_values([out.values[i] for i in perm], want)
        assert sum(type(v) is int for v in out.values) == ints
