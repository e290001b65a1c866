"""Symmetroids: transformations between groupoid transitions.

A transformation Γ = (α, β, γ) acts on the transition β by left and right
translation, sending β to α∘β∘γ⁻¹.  The 2-source and 2-target are

    s1(Γ) = β,    t1(Γ) = α∘β∘γ⁻¹,

vertical composition Γ₂∘_V Γ₁ = (α₂∘α₁, β₁, γ₂∘γ₁) (defined when
t1(Γ₁) = s1(Γ₂)) makes the set of all transformations a groupoid over the
morphisms of G, built once, by gathers over index arrays, as the
FiniteGroupoid ``Symmetroid.vertical``.
Quotienting by the transformations built from isotropy elements leaves
classes determined by the four endpoint objects

    ((z, y), (x, w))  with  s1-class (y, x) and t1-class (z, w),

which compose by index bookkeeping.  The q-rules (``q_vertical_compose``,
``q_horizontal_compose`` and their siblings) define both compositions on
classes once, and act on arrays of classes as on single ones.  The
horizontal composition, which S(G) inherits from that of G, is held only as
these rules.  Over a pair groupoid the quotient is the whole story (the
isotropy is trivial) and its elements double-index the matrix units of
M_n ⊗ M_n; the vertical rules, applied to every class at once, build
``quotient_groupoid(n)``, on which the quotient algebra runs.

A bisection of the quotient assigns to every base transition a class with
that 2-source, bijectively in the 2-target as well.  The flat ones (exactly
multiplicative under horizontal composition) are the graphs of the
permutations of the objects, and form a group, so a flat bisection is held
as its permutation.  That the flat bisections are exactly the permutation
graphs is decided over every bisection at n = 2 and n = 3 against the
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from itertools import permutations
from typing import NamedTuple, Sequence

import numpy as np

from .groupoid import FiniteGroupoid, GroupoidError, NotComposableError


class Transformation(NamedTuple):
    """A triple (alpha, beta, gamma) of morphism ids; sends beta to α∘β∘γ⁻¹."""

    alpha: int
    beta: int
    gamma: int


class QClass(NamedTuple):
    """Quotient class ((z, y), (x, w)): 2-source (y, x), 2-target (z, w).

    The four fields are object indices; (y, x) is the transition x -> y the
    class starts from and (z, w) the transition w -> z it produces.  They may
    also be integer arrays of one shape, a class per element: the quotient's
    composition rules then act elementwise and raise NotComposableError if any
    element is not composable.
    """

    z: int
    y: int
    x: int
    w: int


def _blocks(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For blocks of the given lengths laid end to end: each entry's block and
    its position in that block."""
    block = np.repeat(np.arange(len(lengths)), lengths)
    return block, np.arange(len(block)) - (np.cumsum(lengths) - lengths)[block]


class Symmetroid:
    """All transformations of a finite groupoid, with their vertical composition.

    Enumeration order is canonical: by beta, then alpha over the source fiber
    of t(beta), then gamma over the source fiber of s(beta), so the id of
    (α, β, γ) is offset[β] + pos(α)·|G_{s(β)}| + pos(γ), where pos is the
    position in a source fiber and offset[β] counts the transformations of
    the betas before β.

    ``vertical`` is S(G) under vertical composition as a FiniteGroupoid over
    the morphisms of G: its morphism i is ``transformations[i]``, with source
    s1 and target t1.  The Transformation-typed methods read its tables.
    The α, β and γ of each transformation are kept as index arrays, and the
    ``transformations`` list and its ``index`` are built on first read.

    The tables are built by gathers over index arrays, not per entry: t1 is
    α∘β∘γ⁻¹ through ``FiniteGroupoid.composites``, and the vertical pairs come
    out in ``composable_pairs()`` order, so they are handed to ``vertical`` as
    its ``composable_arrays()`` and its compose table lists them in that
    order.  The base is meant to be a groupoid (see ``validate``).  A base
    whose table lacks a composite, or has one that does not compose further,
    raises NotComposableError with ``compose``'s message; a composite with the
    wrong endpoints raises NotComposableError naming the triple that is not a
    transformation.
    """

    def __init__(self, groupoid: FiniteGroupoid):
        self.groupoid = g = groupoid
        source, target = np.asarray(g.source, np.intp), np.asarray(g.target, np.intp)
        inverse, unit = np.asarray(g.inverse, np.intp), np.asarray(g.unit_of, np.intp)
        # the source fibers end to end, and each morphism's position in its own
        fibers = np.argsort(source, kind="stable")
        size = np.bincount(source, minlength=g.n_objects)
        first = np.cumsum(size) - size
        position = np.empty_like(source)
        position[fibers] = np.arange(len(fibers)) - first[source[fibers]]
        # transformation i = (α, β, γ): by β, then α over G_{t(β)}, then γ over G_{s(β)}
        n_gamma = size[source]
        count = size[target] * n_gamma
        offset = np.cumsum(count) - count
        beta, j = _blocks(count)
        alpha = fibers[first[target[beta]] + j // n_gamma[beta]]
        gamma = fibers[first[source[beta]] + j % n_gamma[beta]]

        def ids_of(a, b, c):
            """The ids of the transformations (a[i], b[i], c[i])."""
            bad = np.flatnonzero((source[a] != target[b]) | (source[c] != source[b]))
            if len(bad):
                t = Transformation(*(int(v[bad[0]]) for v in (a, b, c)))
                raise NotComposableError(f"{t} is not a transformation of this groupoid")
            return offset[b] + position[a] * n_gamma[b] + position[c]

        self._triples = alpha, beta, gamma
        top = g.composites(alpha, g.composites(beta, inverse[gamma]))
        # Γ₂ ∘_V Γ₁ = (α₂∘α₁, β₁, γ₂∘γ₁) for each Γ₂ with s1(Γ₂) = t1(Γ₁), in
        # composable_pairs() order: by Γ₁, then Γ₂ over the block of β = t1(Γ₁)
        i1, i2 = _blocks(count[top])
        i2 += offset[top[i1]]
        ba = ids_of(g.composites(alpha[i2], alpha[i1]), beta[i1], g.composites(gamma[i2], gamma[i1]))
        self.vertical = FiniteGroupoid._from_pair_arrays(
            g.n_morphisms,
            beta.tolist(),
            top.tolist(),
            (i2, i1, ba),
            ids_of(inverse[alpha], top, inverse[gamma]).tolist(),
            ids_of(unit[target], np.arange(g.n_morphisms), unit[source]).tolist(),
        )

    @functools.cached_property
    def transformations(self) -> list[Transformation]:
        return list(map(Transformation, *(a.tolist() for a in self._triples)))

    @functools.cached_property
    def index(self) -> dict[Transformation, int]:
        return dict(zip(self.transformations, range(len(self))))

    def __len__(self) -> int:
        return len(self._triples[0])

    def _id(self, t: Transformation) -> int:
        """The morphism id of t in ``vertical``."""
        try:
            return self.index[t]
        except KeyError:
            raise NotComposableError(f"{t} is not a transformation of this groupoid") from None

    def is_valid(self, t: Transformation) -> bool:
        """Membership in S(G): s(α) = t(β) and s(γ) = s(β)."""
        return t in self.index

    def s1(self, t: Transformation) -> int:
        return t.beta

    def t1(self, t: Transformation) -> int:
        return self.vertical.target[self._id(t)]

    # -- vertical structure (a groupoid over G) --

    def vertical_unit(self, beta: int) -> Transformation:
        return self.transformations[self.vertical.unit(beta)]

    def vertical_compose(self, t2: Transformation, t1: Transformation) -> Transformation:
        """Γ₂ ∘_V Γ₁, defined when t1(Γ₁) == s1(Γ₂)."""
        return self.transformations[self.vertical.compose(self._id(t2), self._id(t1))]

    def vertical_inverse(self, t: Transformation) -> Transformation:
        return self.transformations[self.vertical.inv(self._id(t))]

    def project(self, t: Transformation) -> QClass:
        """Class of Γ in the quotient by the little symmetroid."""
        g = self.groupoid
        top = self.t1(t)
        bot = t.beta
        return QClass(g.target[top], g.target[bot], g.source[bot], g.source[top])


# -- the quotient over a pair-groupoid base: pure index bookkeeping --


def enumerate_quotient(n: int) -> list[QClass]:
    """All n⁴ classes ((z, y), (x, w)) in row-major (z, y, x, w) order."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = range(n)
    return [QClass(z, y, x, w) for z in rng for y in rng for x in rng for w in rng]


def q_index(n: int, q: QClass) -> int:
    return ((q.z * n + q.y) * n + q.x) * n + q.w


def q_from_index(n: int, i: int) -> QClass:
    i, w = divmod(i, n)
    i, x = divmod(i, n)
    z, y = divmod(i, n)
    return QClass(z, y, x, w)


def q_s1(q: QClass) -> tuple[int, int]:
    """2-source as a pair-groupoid transition (target, source) = (y, x)."""
    return (q.y, q.x)


def q_t1(q: QClass) -> tuple[int, int]:
    """2-target as a pair-groupoid transition (z, w)."""
    return (q.z, q.w)


def _everywhere(ok) -> bool:
    """Whether a condition holds: a bool, or every entry of a boolean array
    (the bool is tested first, so scalar classes stay off numpy)."""
    return ok is True or bool(np.all(ok))


def q_vertical_unit(y: int, x: int) -> QClass:
    return QClass(y, y, x, x)


def q_vertical_compose(q2: QClass, q1: QClass) -> QClass:
    """Defined when t1(q1) == s1(q2); the result has s1(q1) and t1(q2)."""
    if not _everywhere((q2.y == q1.z) & (q2.x == q1.w)):
        raise NotComposableError(f"vertical composition undefined for {q2} ∘ {q1}")
    return QClass(q2.z, q1.y, q1.x, q2.w)


def q_vertical_inverse(q: QClass) -> QClass:
    return QClass(q.y, q.z, q.w, q.x)


def q_horizontal_unit(y: int, x: int) -> QClass:
    """The class sending 1_x to 1_y."""
    return QClass(y, x, x, y)


def q_horizontal_compose(q2: QClass, q1: QClass) -> QClass:
    """Defined when s1(q2)∘s1(q1) and t1(q2)∘t1(q1) both compose in the base."""
    if not _everywhere(q_horizontally_composable(q2, q1)):
        raise NotComposableError(f"horizontal composition undefined for {q2} ∘ {q1}")
    return QClass(q2.z, q2.y, q1.x, q1.w)


def q_horizontally_composable(q2: QClass, q1: QClass) -> bool:
    return (q2.x == q1.y) & (q2.w == q1.z)


def q_horizontal_inverse(q: QClass) -> QClass:
    """The class with s1 = s1(q)⁻¹ and t1 = t1(q)⁻¹."""
    return QClass(q.w, q.x, q.y, q.z)


@functools.lru_cache(maxsize=16)
def quotient_groupoid(n: int) -> FiniteGroupoid:
    """The n⁴ classes under vertical composition, built once per n by the
    q-rules on index arrays: over the base transitions (y, x) as objects
    y·n + x, morphism ``q_index(n, q)`` is q, from q_s1(q) to q_t1(q), and the
    pairs are listed by q1, then q2 = (z2, z1, w1, w2) in class order, as
    ``composable_pairs()`` lists them.  S(pair(n))'s vertical groupoid, relabelled."""
    if n < 1:
        raise ValueError("need n >= 1")
    q = q_from_index(n, np.arange(n**4))
    i1 = np.repeat(np.arange(n**4), n * n)
    q1 = q_from_index(n, i1)
    z2, w2 = divmod(np.tile(np.arange(n * n), n**4), n)
    q2 = QClass(z2, q1.z, q1.w, w2)
    return FiniteGroupoid._from_pair_arrays(
        n * n,
        (q.y * n + q.x).tolist(),
        (q.z * n + q.w).tolist(),
        (q_index(n, q2), i1, q_index(n, q_vertical_compose(q2, q1))),
        q_index(n, q_vertical_inverse(q)).tolist(),
        q_index(n, q_vertical_unit(*divmod(np.arange(n * n), n))).tolist(),
    )


# -- bisections of the quotient --


class FlatBisection:
    """A flat bisection: the graph of a permutation σ of the base objects.

    Its entry at (j, k) is ((σj, j), (k, σk)) and the induced base functor
    sends (j, k) to (σj, σk).
    """

    __slots__ = ("n", "perm")

    def __init__(self, perm: Sequence[int]):
        self.n = len(perm)
        if sorted(perm) != list(range(self.n)):
            raise GroupoidError("a flat bisection needs a permutation of the objects")
        self.perm = tuple(perm)

    def functor(self, beta: int) -> int:
        """The induced automorphism of the base: (j, k) -> (σj, σk)."""
        j, k = divmod(beta, self.n)
        return self.perm[j] * self.n + self.perm[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, FlatBisection) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"FlatBisection(perm={self.perm})"


def flat_bisection_product(b2: FlatBisection, b1: FlatBisection) -> FlatBisection:
    """b2 • b1, whose entry at β is b2's entry at b1's 2-target ∘_V b1's entry
    at β: the graph of the composed permutation σ₂∘σ₁."""
    if b2.n != b1.n:
        raise GroupoidError("bisections live over different bases")
    return FlatBisection([b2.perm[j] for j in b1.perm])


def flat_bisections(n: int) -> list[FlatBisection]:
    """All flat bisections over n points: one per permutation of the objects."""
    return [FlatBisection(p) for p in permutations(range(n))]


def shift_bisection(n: int) -> FlatBisection:
    """The cyclic shift j -> j+1 (mod n)."""
    return FlatBisection([(j + 1) % n for j in range(n)])
