"""Symmetroids: transformations between groupoid transitions.

A transformation Γ = (α, β, γ) acts on the transition β by left and right
translation, sending β to α∘β∘γ⁻¹.  The 2-source and 2-target are

    s1(Γ) = β,    t1(Γ) = α∘β∘γ⁻¹,

vertical composition Γ₂∘_V Γ₁ = (α₂∘α₁, β₁, γ₂∘γ₁) (defined when
t1(Γ₁) = s1(Γ₂)) makes the set of all transformations a groupoid over the
morphisms of G, built once, by gathers over index arrays, as the
FiniteGroupoid ``Symmetroid.vertical``, and a second, horizontal composition
is inherited from the composition of G.
Quotienting by the transformations built from isotropy elements leaves
classes determined by the four endpoint objects

    ((z, y), (x, w))  with  s1-class (y, x) and t1-class (z, w),

which compose by pure index bookkeeping; over a pair groupoid the quotient is
the whole story (the isotropy is trivial), and its elements double-index the
matrix units of M_n ⊗ M_n.

Bisections of the quotient assign to every base transition a class with that
2-source, bijectively in the 2-target as well; the flat ones (exactly
multiplicative under horizontal composition) are the graphs of the base
automorphisms, i.e. permutations of the objects, and form a group.
"""

from __future__ import annotations

import functools
from itertools import permutations
from typing import Iterator, NamedTuple, Sequence

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
    """All transformations of a finite groupoid, with both compositions.

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

    def is_little(self, t: Transformation) -> bool:
        """Membership in the little symmetroid: α and γ are isotropy elements."""
        g = self.groupoid
        return (
            self.is_valid(t)
            and g.target[t.alpha] == g.source[t.alpha]
            and g.target[t.gamma] == g.source[t.gamma]
        )

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

    # -- horizontal structure --

    def horizontal_compose(self, t2: Transformation, t1: Transformation) -> Transformation:
        """Compose side by side: the result goes from s1(t2)∘s1(t1) to t1(t2)∘t1(t1).

        Defined when both of those base compositions are.  The representative
        is (t1(Γ₂)∘α₁∘s1(Γ₂)⁻¹, s1(Γ₂)∘s1(Γ₁), γ₁); only its 2-source and
        2-target are contractual.
        """
        g = self.groupoid
        s2, s1_ = self.s1(t2), self.s1(t1)
        T2, T1 = self.t1(t2), self.t1(t1)
        if not (g.composable(s2, s1_) and g.composable(T2, T1)):
            raise NotComposableError("horizontal composition needs composable 2-sources and 2-targets")
        alpha = g.compose(T2, g.compose(t1.alpha, g.inv(s2)))
        return Transformation(alpha, g.compose(s2, s1_), t1.gamma)

    def horizontal_unit(self, y: int, x: int) -> Transformation:
        """The transformation sending 1_x to 1_y, built from the canonical
        (lexicographically smallest) transition x -> y."""
        g = self.groupoid
        a = self._canonical_transition(x, y)
        return Transformation(a, g.unit(x), a)

    def _canonical_transition(self, x: int, y: int) -> int:
        g = self.groupoid
        for m in g.source_fiber(x):
            if g.target[m] == y:
                return m
        raise NotComposableError(f"no transition from object {x} to object {y}")

    def horizontal_inverse(self, t: Transformation) -> Transformation:
        """A transformation with s1 = s1(Γ)⁻¹ and t1 = t1(Γ)⁻¹.

        Built as (t1(Γ)⁻¹∘u∘β, β⁻¹, u) where u is the canonical transition
        from t(β) to t(t1(Γ)).
        """
        g = self.groupoid
        top = self.t1(t)
        u = self._canonical_transition(g.target[t.beta], g.target[top])
        alpha = g.compose(g.inv(top), g.compose(u, t.beta))
        return Transformation(alpha, g.inv(t.beta), u)

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


# -- bisections of the quotient --


class Bisection:
    """A section of the 2-source map that is also bijective in the 2-target.

    Over a pair-groupoid base a class is determined by its 2-source and
    2-target, so a bisection is exactly a bijection τ of the base transitions:
    the entry at β is the class (s1 = β, t1 = τ(β)).
    """

    __slots__ = ("n", "t1_map")

    def __init__(self, n: int, t1_map: Sequence[int]):
        m = n * n
        if len(t1_map) != m or sorted(t1_map) != list(range(m)):
            raise GroupoidError("a bisection needs a bijection of the base transitions")
        self.n = n
        self.t1_map = tuple(t1_map)

    def entry_for_s1(self, beta: int) -> QClass:
        n = self.n
        y, x = divmod(beta, n)
        z, w = divmod(self.t1_map[beta], n)
        return QClass(z, y, x, w)

    def entries(self) -> list[QClass]:
        return [self.entry_for_s1(b) for b in range(self.n * self.n)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bisection)
            and self.n == other.n
            and self.t1_map == other.t1_map
        )

    def __hash__(self) -> int:
        return hash((self.n, self.t1_map))

    def is_flat(self) -> bool:
        """Exact multiplicativity b(β'∘β) = b(β') ∘_H b(β) on all composable pairs.

        With (Z, W)[y, x] the 2-target of the entry at β = (y, x), the pair
        ((z', y'), (y', x')) composes horizontally iff W[z', y'] = Z[y', x'].
        That for all (z', y', x') makes Z[y, x] = W[z, y] = a(y) for one map a,
        so the composite's 2-target (Z[z', y'], W[y', x']) = (a(z'), a(x')) is
        the entry at (z', x') already: flatness is this one array check.
        """
        n = self.n
        Z, W = np.divmod(np.array(self.t1_map, dtype=np.intp).reshape(n, n), n)
        return bool(np.all(W[:, :, None] == Z[None, :, :]))


def identity_bisection(n: int) -> Bisection:
    return Bisection(n, range(n * n))


def bisection_product(b2: Bisection, b1: Bisection) -> Bisection:
    """(b2 • b1)(β) = b2(τ₁(β)) ∘_V b1(β); the underlying map is τ₂∘τ₁."""
    if b2.n != b1.n:
        raise GroupoidError("bisections live over different bases")
    composed = []
    for beta in range(b1.n * b1.n):
        e1 = b1.entry_for_s1(beta)
        e2 = b2.entry_for_s1(b1.t1_map[beta])
        q = q_vertical_compose(e2, e1)
        composed.append(q.z * b1.n + q.w)
    return Bisection(b1.n, composed)


def bisection_inverse(b: Bisection) -> Bisection:
    inv = [0] * len(b.t1_map)
    for beta, tau in enumerate(b.t1_map):
        inv[tau] = beta
    return Bisection(b.n, inv)


class FlatBisection:
    """A flat bisection: the graph of a permutation σ of the base objects.

    Its entry at (j, k) is ((σj, j), (k, σk)) and the induced base functor
    sends (j, k) to (σj, σk).
    """

    __slots__ = ("n", "perm", "bisection")

    def __init__(self, perm: Sequence[int]):
        self.n = len(perm)
        if sorted(perm) != list(range(self.n)):
            raise GroupoidError("a flat bisection needs a permutation of the objects")
        self.perm = tuple(perm)
        t1_map = [
            self.perm[j] * self.n + self.perm[k]
            for j in range(self.n)
            for k in range(self.n)
        ]
        self.bisection = Bisection(self.n, t1_map)
        if not self.bisection.is_flat():
            raise GroupoidError("permutation-induced bisection failed the flatness check")

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
    product = bisection_product(b2.bisection, b1.bisection)
    perm = tuple(b2.perm[b1.perm[x]] for x in range(b1.n))
    result = FlatBisection(perm)
    if result.bisection != product:
        raise GroupoidError(f"{b2} ∘ {b1} is not the flat bisection of the composed permutation")
    return result


def flat_bisection_functor(b: FlatBisection) -> list[int]:
    """The full morphism map of the induced base automorphism."""
    return [b.functor(beta) for beta in range(b.n * b.n)]


def flat_bisections(n: int) -> list[FlatBisection]:
    """All flat bisections over n points: one per permutation of the objects."""
    return [FlatBisection(p) for p in permutations(range(n))]


def shift_bisection(n: int) -> FlatBisection:
    """The cyclic shift j -> j+1 (mod n)."""
    return FlatBisection([(j + 1) % n for j in range(n)])


def all_bisections(n: int) -> Iterator[Bisection]:
    """Every bisection over n points ((n²)! of them; exhaustive only for tiny n)."""
    for tau in permutations(range(n * n)):
        yield Bisection(n, tau)
