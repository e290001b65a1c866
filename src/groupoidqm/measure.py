"""Measures on finite groupoids: disintegration, modular function, invariance checks.

A measure assigns a strictly positive weight μ(α) to every morphism and a
strictly positive weight μ_Ω(x) to every object.  The derived fiber measures
are

    ν^x(α) = μ(α) / μ_Ω(t(α))   on the target fiber G^x,
    ν_x(α) = μ(α) / μ_Ω(s(α))   on the source fiber G_x,

and the modular function is δ(α) = μ(α) / μ(α⁻¹), each a tuple indexed by
morphism that every consumer reads: one Fraction per entry with Fraction
weights; with int weights an int where the quotient divides and a Fraction
otherwise; with float weights a float.  A measure is a Haar measure when the
family ν^x is invariant under left translations; the verifiers below check
that and the companion identities exhaustively.

The verifiers are gathers: each is one ``_report_defects`` call whose two
sides are products of values read through index arrays (the composable pairs
of ``FiniteGroupoid.composable_arrays`` for the translation and homomorphism
checks), and a sum check sums those products by check.  Exact values have
one integer form, a ``_Table`` of numerators and denominators read by
``_parts``, and stay in it until read: a table made from integers builds its
values on first read, and ν^x, ν_x and δ are derived on first read, from the
weights the measure was made with (for S(G), from its base's); a measure's
tables are read-only.  Two kernels do the exact arithmetic:
``_product_parts`` multiplies gathered values term by term (both sides of
every check, the tables, the terms of ``algebra.convolve``), and
``_group_sums`` sums terms by group over their one lcm (the sum checks and
``convolve``).  They run on int64 where ``_narrowed`` proves from the bit
lengths of the data that no product or sum reaches 2**62, and on Python ints
otherwise.  On ints and Fractions a check cross-multiplies its two sides and
computes the defect ``abs(lhs - rhs)`` only where they differ; on floats and
complex values every check computes its defect in Python.  A violation is a
defect above the tolerance.

Object weights are user-supplied, defaulting to all ones (the convention under
which the counting measure gives unit fiber weights and matrix-unit
convolution).  ``target_pushforward=True`` instead sets μ_Ω = t⋆μ.  Weights
may be ints, floats or ``fractions.Fraction``; with rational weights every
identity below is checked exactly, and a quotient of two int weights is an
int or a Fraction, so the counting measure has int fiber weights.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

import numpy as np

from .groupoid import FiniteGroupoid, GroupoidError, is_pair_groupoid
from .reports import ViolationReport

DEFAULT_TOL = 1e-12


class NotHaarError(GroupoidError):
    """The measure is not in a Haar class (invariance or modular law fails)."""


def _positive(values, what: str):
    vals = tuple(values)
    for i, v in enumerate(vals):
        # a Fraction's sign is its numerator's: no Fraction comparison
        if not (v.numerator > 0 if type(v) is Fraction else v > 0):
            raise ValueError(f"{what} {i} must be strictly positive, got {v!r}")
    return vals


def _ints_as_fractions(*groups: tuple) -> tuple:
    """The groups with every int as a Fraction when any value is a Fraction,
    so that quotients of them stay exact; otherwise the groups unchanged."""
    if not any(isinstance(v, Fraction) for g in groups for v in g):
        return groups
    return tuple(tuple(Fraction(v) if isinstance(v, int) else v for v in g) for g in groups)


def _ratio(p, q):
    """p / q, exact when both are ints: an int when q divides p, else a Fraction."""
    if isinstance(p, int) and isinstance(q, int):
        return p // q if p % q == 0 else Fraction(p, q)
    return p / q


def _plain(values) -> bool:
    """Whether every value is an int or a Fraction by type, at C speed."""
    return all(map({int, Fraction}.__contains__, map(type, values)))


def _is_exact(*value_lists) -> bool:
    """Whether every value is a ``numbers.Rational``; the package's one
    exact-type gate, which spares ints and Fractions the ABC check."""
    if _plain(itertools.chain.from_iterable(value_lists)):
        return True  # the common case
    flat = itertools.chain.from_iterable(value_lists)
    return all(type(v) in (int, Fraction) or isinstance(v, Rational) for v in flat)


def _uniform(values) -> bool | None:
    """True when every value is a Fraction, False when every one is an int, else None."""
    if all(isinstance(v, Fraction) for v in values):
        return True
    return False if all(isinstance(v, int) for v in values) else None


def _uniform_table(t: "_Table") -> bool | None:
    """``_uniform`` of t's values, from its flags while they are unread."""
    if t.values is not None:
        return _uniform(t.values)
    return True if t.fraction.all() else None if t.fraction.any() else False


_INT64_BITS = 62  # |x| < 2**62: one spare bit inside int64


def _narrowed(arrays, *bits: int, terms: int = 0) -> list[np.ndarray]:
    """The integer arrays as int64 if their products (of factors below 2**b1,
    2**b2, ... so below 2**(b1 + b2 + ...)) and sums of ``terms`` of those stay
    below 2**62, else as object arrays of Python ints: the one maker of int64
    exact values, since ``np.einsum`` and ``np.add.at`` wrap on overflow."""
    dtype = np.int64 if sum(bits) + terms.bit_length() <= _INT64_BITS else object
    return [np.asarray(a, dtype=dtype) for a in arrays]


def _parts(values) -> tuple[list, list]:
    """The integer numerators and denominators of rational values, as lists
    of Python ints: the one reader of the exact format; an int or a Fraction
    is read once, by ``as_integer_ratio``."""
    exact = (int, Fraction)
    ratios = [v.as_integer_ratio() if type(v) in exact else (int(v.numerator), int(v.denominator)) for v in values]
    return [p for p, _ in ratios], [q for _, q in ratios]


class _Table:
    """A value list in integer form: numerators ``num`` and denominators
    ``den`` (None unless every value is exact), bounds ``nbits`` and ``dbits``
    of their bit lengths (their own by default), ``fraction``, True where
    a value is a Fraction, and ``plain``, whether every value is an int or a
    Fraction by type, recorded once.  ``read`` gives the values it was made
    from or, made from integers, builds them on first read as a tuple it
    keeps: Fraction(num, den) where ``fraction`` is set, else num // den."""

    __slots__ = ("values", "num", "den", "nbits", "dbits", "fraction", "plain")

    def __init__(self, values=None, num=None, den=None, bits=None, fraction=None):
        own = bits is None  # else a kernel's bounds, on arrays of the dtype they allow
        # integers read back as ints and Fractions
        self.plain = num is not None or values is not None and _plain(values)
        if num is None and values is not None and (self.plain or _is_exact(values)):
            num, den = _parts(values)
            fraction = np.array([isinstance(v, Fraction) for v in values], dtype=bool)
            bits = [max(map(abs, a), default=0).bit_length() for a in (num, den)]
        elif num is not None and own:
            bits = [int(np.abs(a).max(initial=0)).bit_length() for a in (num, den)]
        if num is not None and own:
            num, den = _narrowed((num, den), max(bits))
        self.values, self.num, self.den, self.fraction = values, num, den, fraction
        self.nbits, self.dbits = bits or (None, None)

    def read(self):
        if self.values is None:
            rows = zip(*(a.ravel().tolist() for a in (self.num, self.den, self.fraction)))
            self.values = tuple(Fraction(n, d) if q else n // d for n, d, q in rows)
        return self.values

    def __getitem__(self, k):
        return self.read()[k]

    def __len__(self) -> int:
        return len(self.values if self.num is None else self.num)


def _lowest_terms(t: _Table, fractions: bool) -> _Table:
    """t in lowest terms: all Fractions when ``fractions``, else an int where
    the quotient is whole."""
    g = np.gcd(t.num, t.den)
    low = _Table(None, t.num // g, t.den // g)
    low.fraction = (low.den != 1) | fractions
    return low


def _over_lcm(t: _Table) -> tuple[np.ndarray, int, int]:
    """t's values as integer numerators over the lcm of t.den, that lcm, and
    a bound of the numerators' bit lengths."""
    lcm = math.lcm(*set(t.den.ravel().tolist()))
    num, den = _narrowed((t.num, t.den), t.nbits, lcm.bit_length())
    return num * (lcm // den), lcm, t.nbits + lcm.bit_length()


def _product_parts(side: tuple) -> _Table:
    """The integer form of a side's products, term by term.  A side is a
    tuple of factors on exact ``_Table``s: ``(table, index)`` multiplies term
    k by table[index[k]], ``(table, index, -1)`` divides it."""
    gathered = []
    for t, index, *inverse in side:
        num, den = t.num[index], t.den[index]
        gathered.append((den, num, t.dbits, t.nbits) if inverse else (num, den, t.nbits, t.dbits))
    nums, dens, nbits, dbits = zip(*gathered)
    num, den = (functools.reduce(operator.mul, _narrowed(a, *b)) for a, b in ((nums, nbits), (dens, dbits)))
    return _Table(None, num, den, (sum(nbits), sum(dbits)))


def _group_sums(t: _Table, ids: np.ndarray, n: int) -> _Table:
    """The sums of the terms of t by group, term k adding to group ids[k] < n,
    as integer numerators over the one lcm of t.den."""
    scaled, lcm, bits = _over_lcm(t)
    (scaled,) = _narrowed((scaled,), bits, terms=len(ids))
    sums = np.zeros(n, dtype=scaled.dtype)
    np.add.at(sums, ids, scaled)
    bounds = (bits + len(ids).bit_length(), lcm.bit_length())
    return _Table(None, sums, np.full(n, lcm, dtype=object), bounds)


class _Derived(dict):
    """Tables by name, a missing one made by ``derive(name)`` on first read and kept."""

    def __missing__(self, name: str) -> _Table:
        self[name] = table = self.derive(name)
        return table


def _table(name: str, doc: str) -> property:
    """A measure table, read through its ``_Table``; read-only."""
    return property(lambda m: m._tables[name].read(), doc=doc)


class GroupoidMeasure:
    """Positive morphism and object weights on a fixed groupoid, with the tables
    ``nu_targets`` (ν^x), ``nu_sources`` (ν_x) and ``deltas`` (δ) derived from
    the constructor's weights on first read; every table is read-only."""

    __slots__ = ("groupoid", "_tables")

    weights = _table("weights", "μ by morphism.")
    object_weights = _table("object_weights", "μ_Ω by object.")
    nu_targets = _table("nu_targets", "ν^x by morphism.")
    nu_sources = _table("nu_sources", "ν_x by morphism.")
    deltas = _table("deltas", "δ by morphism.")

    def __init__(
        self,
        groupoid: FiniteGroupoid,
        weights: Sequence,
        object_weights: Sequence | None = None,
        target_pushforward: bool = False,
    ):
        if len(weights) != groupoid.n_morphisms:
            raise ValueError("need one weight per morphism")
        w = _positive(weights, "morphism weight")
        if object_weights is not None:
            if target_pushforward:
                raise ValueError("give object_weights or target_pushforward, not both")
            if len(object_weights) != groupoid.n_objects:
                raise ValueError("need one weight per object")
            ow = _positive(object_weights, "object weight")
        elif target_pushforward:
            ow = tuple(sum(w[m] for m in groupoid.target_fiber(x)) for x in groupoid.objects())
        else:
            ow = (1,) * groupoid.n_objects
        w, ow = _ints_as_fractions(w, ow)
        self._derive(groupoid, _Table(w), _Table(ow), _uniform(w + ow))

    @classmethod
    def _product_measure(cls, groupoid: FiniteGroupoid, base: "GroupoidMeasure", morphisms, objects):
        """The measure on ``groupoid`` with weights base.weights[i]·base.weights[j]
        for (i, j) in zip(*morphisms), and object weights likewise over
        ``objects``: on an exact base one value per entry, from its integer form."""
        by = (("weights", morphisms), ("object_weights", objects))
        pairs = [(base._tables[name], *(np.asarray(k, dtype=np.intp) for k in ij)) for name, ij in by]
        fractions, other = (_uniform_table(t) for t, _, _ in pairs)
        fractions = fractions if fractions == other else None
        if fractions is None:
            values = [np.array(t.read(), dtype=object) for t, _, _ in pairs]
            return cls(groupoid, *((v[i] * v[j]).tolist() for v, (_, i, j) in zip(values, pairs)))
        products = (_lowest_terms(_product_parts(((t, i), (t, j))), fractions) for t, i, j in pairs)
        return cls.__new__(cls)._derive(groupoid, *products, fractions)

    def _derive(self, g: FiniteGroupoid, w: _Table, ow: _Table, fractions: bool | None) -> "GroupoidMeasure":
        """This measure on g with the weight tables w and ow, each of ν^x =
        μ/μ_Ω∘t, ν_x = μ/μ_Ω∘s and δ = μ/μ∘inv derived from them on its first
        read: from the integer form on exact weights (``fractions`` not None),
        else entry by entry by ``_ratio``."""
        self.groupoid = g
        by = {"nu_targets": (ow, g.target), "nu_sources": (ow, g.source), "deltas": (w, g.inverse)}

        def derive(name: str) -> _Table:
            q, i = by[name]
            if fractions is None:
                return _Table(tuple(map(_ratio, w.values, map(q.values.__getitem__, i))))
            k = np.arange(g.n_morphisms)
            return _lowest_terms(_product_parts(((w, k), (q, np.asarray(i, dtype=np.intp), -1))), fractions)

        self._tables = _Derived(weights=w, object_weights=ow)
        self._tables.derive = derive
        return self

    @classmethod
    def counting(cls, groupoid: FiniteGroupoid) -> "GroupoidMeasure":
        """All morphism and object weights equal to one."""
        return cls(groupoid, (1,) * groupoid.n_morphisms)

    def nu_target(self, m: int):
        """ν^x(m) for x = t(m)."""
        return self.nu_targets[m]

    def nu_source(self, m: int):
        """ν_x(m) for x = s(m)."""
        return self.nu_sources[m]

    def delta(self, m: int):
        """Modular ratio μ(m)/μ(m⁻¹) (no homomorphism check; see :func:`modular`)."""
        return self.deltas[m]

    def with_exact(self) -> "GroupoidMeasure":
        """Copy with all weights converted to Fractions for exact arithmetic."""
        return GroupoidMeasure(
            self.groupoid,
            tuple(_to_fraction(w) for w in self.weights),
            tuple(_to_fraction(w) for w in self.object_weights),
        )

    def to_json(self) -> dict:
        return {
            "morphism_weights": [_num_to_json(w) for w in self.weights],
            "object_weights": [_num_to_json(w) for w in self.object_weights],
        }


def _to_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**12)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot convert {v!r} to Fraction")


def _num_to_json(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


def _weight_from_json(w, exact: bool):
    if isinstance(w, bool):
        raise TypeError(f"weight {w!r} is not a number")
    if exact:
        return _to_fraction(w)
    v = float(Fraction(w)) if isinstance(w, str) else w
    if not math.isfinite(v):
        raise ValueError(f"weight {w!r} is not finite")
    return v


def measure_from_json(data: dict, groupoid: FiniteGroupoid, exact: bool = False) -> GroupoidMeasure:
    """GroupoidError on a missing key, a wrong count, or a weight that is not
    a finite positive number."""
    try:
        mw = [_weight_from_json(w, exact) for w in data["morphism_weights"]]
        ow = data.get("object_weights")
        if ow is not None:
            ow = [_weight_from_json(w, exact) for w in ow]
        return GroupoidMeasure(groupoid, mw, ow)
    except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise GroupoidError(f"malformed measure JSON: {exc}") from exc


def load_measure(path: str, groupoid: FiniteGroupoid, exact: bool = False) -> GroupoidMeasure:
    with open(path) as fh:
        return measure_from_json(json.load(fh), groupoid, exact=exact)


def weighted_pair_measure(g: FiniteGroupoid, w: Sequence, object_weights=None) -> GroupoidMeasure:
    """μ(j,k) = w_j / w_k on a pair groupoid.

    Left invariance of the derived ν^x forces object weights proportional to
    w, so that is the default; pass ``object_weights`` explicitly to study the
    non-invariant alternatives.
    """
    n = g.n_objects
    if len(w) != n or not is_pair_groupoid(g):
        raise ValueError("weighted_pair_measure expects a pair groupoid and one weight per point")
    (w,) = _ints_as_fractions(tuple(w))
    t = _Table(w) if object_weights is None and _uniform(w) else None
    if t is not None and (t.num > 0).all():  # μ from w's integer form; else the constructor raises
        j, k = np.divmod(np.arange(n * n), n)
        mu = _lowest_terms(_product_parts(((t, j), (t, k, -1))), True)
        return GroupoidMeasure.__new__(GroupoidMeasure)._derive(g, mu, t, True)
    weights = [w[j] / w[k] for j in range(n) for k in range(n)]
    if object_weights is None:
        object_weights = tuple(w)
    return GroupoidMeasure(g, weights, object_weights)


class ModularFunction:
    """δ: G -> R₊ with δ(α) = μ(α)/μ(α⁻¹); a homomorphism for Haar measures."""

    __slots__ = ("groupoid", "values")

    def __init__(self, groupoid: FiniteGroupoid, values: Sequence):
        self.groupoid = groupoid
        self.values = tuple(values)

    def __call__(self, m: int):
        return self.values[m]


def _report_defects(
    kind: str,
    tol: float,
    lhs: tuple,
    rhs: tuple,
    describe: Callable[[int], tuple[tuple, str]],
    key: np.ndarray | None = None,
    groups: tuple[np.ndarray, int] | None = None,
) -> ViolationReport:
    """The report of the checks lhs_i == rhs_i, with a violation for each i
    whose defect abs(lhs_i - rhs_i) exceeds tol.

    A side is a tuple of factors, as ``_product_parts`` reads them, on value
    lists or ``_Table``s.  Without
    ``groups`` term i is check i; with ``groups = (ids, n)`` check c < n sums
    the terms k with ids[k] == c.  When every value is an int or a Fraction,
    equality is decided first, exactly, by the two kernels, and only the
    checks that differ get their defect computed.  Otherwise every check
    computes ``abs(lhs - rhs) > tol`` in Python, as a per-check loop would:
    products left to right, sums by ``sum`` over the terms in order.
    ``describe(i)`` gives the violation's ``where`` and message; violations
    are added in increasing ``key`` (default: check order).
    """
    rep = ViolationReport(checks=len(lhs[0][1]) if groups is None else groups[1])
    # a value list that several factors read (Δ at b∘a, b and a) is read once
    tables = {id(v): v if isinstance(v, _Table) else _Table(v) for v, *_ in lhs + rhs}
    if tol >= 0 and all(t.num is not None for t in tables.values()):
        sides = [_product_parts(tuple((tables[id(v)], *f) for v, *f in side)) for side in (lhs, rhs)]
        if groups is not None:
            sides = [_group_sums(s, *groups) for s in sides]
        l, r = sides
        if max(l.nbits + r.dbits, r.nbits + l.dbits) > _INT64_BITS:  # bound the products by their own bits
            l, r = (_Table(None, t.num, t.den) for t in sides)
        ln, ld, rn, rd = _narrowed((l.num, l.den, r.num, r.den), max(l.nbits + r.dbits, r.nbits + l.dbits))
        differ = ln * rd != rn * ld
    else:  # a zero defect exceeds a negative tol; floats are compared by Python
        differ = np.ones(rep.checks, dtype=bool)
    suspects = np.flatnonzero(differ)
    if key is not None:
        suspects = suspects[np.argsort(key[suspects], kind="stable")]
    for i in suspects.tolist():
        if groups is None:
            l, r = _product(lhs, i), _product(rhs, i)
        else:  # the sums of check i's terms, in order
            terms = np.flatnonzero(groups[0] == i).tolist()
            l, r = (sum(_product(side, k) for k in terms) for side in (lhs, rhs))
        defect = abs(l - r)
        if defect > tol:
            where, message = describe(i)
            rep.add(kind, where, message, defect)
    return rep


def _product(side: tuple, k: int):
    """Term k of a side on its Python values, each factor applied left to right."""
    (values, index, *_), *rest = side
    v = values[index[k]]
    for values, index, *inverse in rest:
        v = v / values[index[k]] if inverse else v * values[index[k]]
    return v


def modular_homomorphism_report(
    g: FiniteGroupoid, values: Sequence, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check values[b∘a] == values[b]·values[a] on every composable pair (b, a)."""
    b, a, ba = g.composable_arrays()
    g.require_composites(b, a, ba)

    def describe(i):
        bi, ai = int(b[i]), int(a[i])
        return (bi, ai), f"not multiplicative on ({g.label(bi)}, {g.label(ai)})"

    return _report_defects("modular-hom", tol, ((values, ba),), ((values, b), (values, a)), describe)


def modular(g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL) -> ModularFunction:
    """Compute δ(α) = μ(α)/μ(α⁻¹) and verify it is a homomorphism.

    Raises NotHaarError naming the first composable pair on which
    δ(β∘α) != δ(β)·δ(α) beyond `tol`; such a measure has no Haar
    disintegration.
    """
    _require_multiplicative(g, m._tables["deltas"], tol)
    return ModularFunction(g, m.deltas)


def _require_multiplicative(g: FiniteGroupoid, deltas: _Table, tol: float) -> None:
    """NotHaarError naming the first composable pair where δ is not multiplicative beyond tol."""
    rep = modular_homomorphism_report(g, deltas, tol)
    if not rep.ok:
        first = rep.violations[0]
        raise NotHaarError(f"modular function is {first.message}: defect {first.magnitude:.3e}")


def _translation_report(
    g: FiniteGroupoid, kind: str, values: _Table, tol: float, right: bool, message: str
) -> ViolationReport:
    """The left (right) translation check of ``verify_left_invariance``
    (``verify_right_invariance``); ``message`` takes the labels of β and γ."""
    b, a, ba = g.composable_arrays()
    moved, fixed = (a, b) if right else (b, a)
    gamma = np.asarray(g.inverse, dtype=np.intp)[moved]
    key = gamma * g.n_morphisms + fixed
    g.require_composites(b, a, ba, key)

    def describe(i):
        gm, beta = int(gamma[i]), int(fixed[i])
        return (gm, beta), message.format(g.label(beta), g.label(gm))

    return _report_defects(kind, tol, ((values, fixed),), ((values, ba),), describe, key)


def verify_left_invariance(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check (L_γ)⋆ν^x = ν^y for every γ: x -> y.

    Atomically: ν^y(β) == ν^x(γ⁻¹∘β) for every β in the target fiber G^y.
    The check (γ, β) is the composable pair (γ⁻¹, β); violations come in
    order of γ, then β.
    """
    message = "ν^y({}) != ν^x(γ⁻¹∘β) for γ={}"
    return _translation_report(g, "left-invariance", m._tables["nu_targets"], tol, False, message)


def verify_inverse_relation(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check τ⋆(ν^x) = δ⁻¹·ν_x: ν^x(α⁻¹) == δ(α)⁻¹·ν_x(α) for every α in G_x."""
    alphas = np.argsort(g.source, kind="stable")  # G_0, then G_1, ...
    t = m._tables
    lhs = ((t["nu_targets"], np.asarray(g.inverse, dtype=np.intp)[alphas]),)

    def describe(i):
        alpha = int(alphas[i])
        return (g.source[alpha], alpha), f"τ⋆ν^x != δ⁻¹ν_x at α={g.label(alpha)}"

    rhs = ((t["nu_sources"], alphas), (t["deltas"], alphas, -1))
    return _report_defects("inverse-relation", tol, lhs, rhs, describe)


def verify_right_invariance(
    g: FiniteGroupoid, m: GroupoidMeasure, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check (R_γ)⋆ν_y = ν_x for γ: x -> y with R_γ(β) = β∘γ.

    Atomically: ν_x(α) == ν_y(α∘γ⁻¹) for every α in the source fiber G_x.
    Holds for unimodular measures (counting); fails by δ(γ) otherwise, which
    is why the exact right-invariant family is δ⁻¹ν rather than ν itself.
    The check (γ, α) is the composable pair (α, γ⁻¹); violations come in
    order of γ, then α.
    """
    message = "ν_x({}) != ν_y(α∘γ⁻¹) for γ={}"
    return _translation_report(g, "right-invariance", m._tables["nu_sources"], tol, True, message)


def verify_disintegration(
    g: FiniteGroupoid, m: GroupoidMeasure, subsets=None, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Check μ(E) == Σ_x ν^x(E ∩ G^x)·μ_Ω(x) for each subset E of morphisms.

    Defaults to the full morphism set plus all singletons; pass an iterable of
    morphism collections to check more.  The subsets are the checks of one
    grouped ``_report_defects`` call, with the terms ν^x(a)·μ_Ω(t(a)) and
    μ(a) for each a in E.
    """
    if subsets is None:
        subsets = [list(g.morphisms())] + [[mid] for mid in g.morphisms()]
    subsets = [list(E) for E in subsets]
    a = np.array([operator.index(x) for E in subsets for x in E], dtype=np.intp)  # no float index
    ids = np.repeat(np.arange(len(subsets)), [len(E) for E in subsets])
    t = m._tables
    lhs = (t["nu_targets"], a), (t["object_weights"], np.asarray(g.target, dtype=np.intp)[a])

    def describe(c):
        return tuple(subsets[c]), f"disintegration fails on E={subsets[c]}"

    groups = (ids, len(subsets))
    return _report_defects("disintegration", tol, lhs, ((t["weights"], a),), describe, groups=groups)
