"""The exact kernels on int64 against the same kernels on Python ints.

``measure._narrowed`` picks int64 for an exact computation only when the bit
lengths of its data bound every product and sum below 2**62, and Python ints
otherwise.  With the budget set below zero every computation runs on Python
ints, which is the oracle here: for numerator and denominator widths from
31 to 100 bits, on both sides of the 62-bit budget and of int64 itself, every
report, table and exact output must be the same in value and type.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from oracles import with_tables

from groupoidqm import (
    GroupoidMeasure,
    QuotientFunction,
    QuotientMeasure,
    Symmetroid,
    convolve,
    convolve_S,
    involute,
    left_regular_matrix,
    modular_homomorphism_report,
    pair_groupoid,
    verify_disintegration,
    verify_induced_equivariance,
    verify_inverse_relation,
    verify_left_invariance,
    verify_modular_formula,
    verify_modular_homomorphism,
    verify_right_invariance,
    weighted_pair_measure,
)
from groupoidqm import algebra, measure
from groupoidqm.algebra import AlgebraElement, contract
from groupoidqm.symalgebra import SymmetroidMeasure

WIDTHS = [31, 32, 61, 62, 63, 64, 100]


def canon(x):
    """x with the type of every value: reports by checks and violations
    (order, kind, where, message, repr of magnitude), arrays by dtype and
    values."""
    if isinstance(x, np.ndarray):
        return (str(x.dtype), x.shape, canon(x.ravel().tolist()))
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return [(canon(k), canon(v)) for k, v in x.items()]
    if hasattr(x, "violations"):
        return (x.checks, [(v.kind, v.where, v.message, repr(v.magnitude)) for v in x.violations])
    return (type(x).__name__, repr(x))


def rationals(nbits, dbits, count, seed):
    """count positive Fractions whose numerators have nbits bits and whose
    denominators have dbits bits (before reduction), near the top of their
    range, so that products and sums come close to their bounds."""
    rng = np.random.default_rng(seed)
    return [
        Fraction(2**nbits - int(p), 2**dbits - int(q))
        for p, q in rng.integers(1, 2**30, size=(count, 2))
    ]


def outputs(nbits, dbits):
    """Every exact output of the measure, symmetroid and algebra layers on
    weights and values of the given widths."""
    out = {}
    g = pair_groupoid(2)
    w = rationals(nbits, dbits, 2, 1)
    bases = {
        "haar": weighted_pair_measure(g, w),
        "raw": GroupoidMeasure(g, rationals(nbits, dbits, 4, 2), rationals(nbits, dbits, 2, 3)),
        "int": GroupoidMeasure(g, [2**nbits - 1 - k for k in range(4)], [2**dbits - 3, 3]),
    }
    haar = weighted_pair_measure(g, w)
    nu = list(haar.nu_targets)
    nu[1] += Fraction(1, 2**dbits)
    bases["perturbed"] = with_tables(haar, nu_targets=nu)
    f, h = (AlgebraElement(g, rationals(nbits, dbits, 4, s)) for s in (4, 5))
    for name, m in bases.items():
        for t in ("weights", "object_weights", "nu_targets", "nu_sources", "deltas"):
            out[name, t] = getattr(m, t)
        checks = (verify_left_invariance, verify_right_invariance, verify_inverse_relation, verify_disintegration)
        for tol in (0, 1e-12):
            for check in checks:
                out[name, check.__name__, tol] = check(g, m, tol=tol)
            out[name, "modular", tol] = modular_homomorphism_report(g, m.deltas, tol)
        out[name, "convolve"] = convolve(f, h, m).values
        out[name, "involute"] = involute(f, m).values
        out[name, "left_regular_matrix"] = left_regular_matrix(f, m)
        m2 = SymmetroidMeasure(Symmetroid(g), m)
        ts = m2.symmetroid.transformations
        fs = [dict(zip(ts, rationals(nbits, dbits, len(ts), 6)))]
        for t in ("weights", "object_weights", "nu_targets", "nu_sources", "deltas"):
            out[name, "S", t] = getattr(m2.measure, t)
        for tol in (0, 1e-12):
            out[name, "S", "equivariance", tol] = verify_induced_equivariance(m2, tol)
            out[name, "S", "formula", tol] = verify_modular_formula(m2, fs, tol)
            out[name, "S", "homomorphism", tol] = verify_modular_homomorphism(m2, tol)
        q1, q2 = (QuotientFunction(2, rationals(nbits, dbits, 16, s)) for s in (7, 8))
        out[name, "convolve_S"] = convolve_S(q1, q2, QuotientMeasure(m)).values
    a, b = (np.array(rationals(nbits, dbits, 8, s), dtype=object).reshape(2, 2, 2) for s in (9, 10))
    out["contract"] = contract("pzy,pwx->zyxw", a, b)
    # sums of 16 products of half-width integers: the term count decides the dtype
    wide = np.array([Fraction(2 ** (nbits // 2) - 1 - k) for k in range(32)], dtype=object)
    out["contract-sums"] = contract("ij,jk->ik", wide.reshape(2, 16), wide.reshape(16, 2))
    return out


def narrowed_dtypes(monkeypatch, budget):
    """Run with the int64 budget set to ``budget``, recording the dtype of
    every array ``_narrowed`` returns."""
    seen = set()
    narrowed = measure._narrowed

    def recorded(*args, **kwargs):
        arrays = narrowed(*args, **kwargs)
        seen.update(a.dtype for a in arrays)
        return arrays

    monkeypatch.setattr(measure, "_narrowed", recorded)
    monkeypatch.setattr(algebra, "_narrowed", recorded)
    monkeypatch.setattr(measure, "_INT64_BITS", budget)
    return seen


@pytest.mark.parametrize("nbits,dbits", list(itertools.product(WIDTHS, WIDTHS)))
def test_int64_kernels_match_python_ints(monkeypatch, nbits, dbits):
    with monkeypatch.context() as mp:
        oracle_dtypes = narrowed_dtypes(mp, -1)
        want = outputs(nbits, dbits)
    assert oracle_dtypes == {np.dtype(object)}
    dtypes = narrowed_dtypes(monkeypatch, measure._INT64_BITS)
    got = outputs(nbits, dbits)
    assert list(got) == list(want)
    for key in want:
        assert canon(got[key]) == canon(want[key]), key
    # both paths are taken: int64 where the data are narrow, Python ints where they are wide
    assert np.dtype(object) in dtypes
    if max(nbits, dbits) <= 32:
        assert np.dtype(np.int64) in dtypes
