"""Finite groupoids stored as explicit composition tables.

A groupoid is a small category in which every morphism is invertible.  Here
everything is finite and fully tabulated: morphisms are integers ``0..m-1``,
objects are integers ``0..n-1``, and composition is a partial map
``(b, a) -> b∘a`` defined exactly when ``source(b) == target(a)``.  The
composition reads right-to-left: if ``a: x -> y`` and ``b: y -> z`` then
``b∘a: x -> z``.

Pair groupoids and direct products are built programmatically; arbitrary
tables can be loaded from JSON and are validated axiom by axiom.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

from .reports import ViolationReport


class GroupoidError(Exception):
    """Base class for errors raised by this package."""


class NotComposableError(GroupoidError):
    """A composition was requested outside the composable set."""


class ValidationError(GroupoidError):
    """A structure failed axiom validation (e.g. at load time)."""

    def __init__(self, report: ViolationReport, context: str = ""):
        self.report = report
        prefix = f"{context}: " if context else ""
        super().__init__(prefix + str(report))


class FiniteGroupoid:
    """A finite groupoid given by source/target/composition/inverse/unit tables.

    Instances are immutable after construction and safe for concurrent reads.
    Construction does not validate the axioms; use :func:`validate`.
    """

    __slots__ = (
        "n_objects",
        "source",
        "target",
        "compose_table",
        "inverse",
        "unit_of",
        "_source_fibers",
        "_target_fibers",
    )

    def __init__(
        self,
        n_objects: int,
        source: Sequence[int],
        target: Sequence[int],
        compose_table: dict[tuple[int, int], int],
        inverse: Sequence[int],
        unit_of: Sequence[int],
    ):
        if n_objects < 1:
            raise ValueError("a groupoid needs at least one object")
        if len(source) != len(target):
            raise ValueError("source and target tables must have equal length")
        self.n_objects = int(n_objects)
        self.source = tuple(int(x) for x in source)
        self.target = tuple(int(x) for x in target)
        self.compose_table = dict(compose_table)
        self.inverse = tuple(int(x) for x in inverse)
        self.unit_of = tuple(int(x) for x in unit_of)
        src_fib: list[list[int]] = [[] for _ in range(self.n_objects)]
        tgt_fib: list[list[int]] = [[] for _ in range(self.n_objects)]
        for m in range(len(self.source)):
            if 0 <= self.source[m] < self.n_objects:
                src_fib[self.source[m]].append(m)
            if 0 <= self.target[m] < self.n_objects:
                tgt_fib[self.target[m]].append(m)
        self._source_fibers = tuple(tuple(f) for f in src_fib)
        self._target_fibers = tuple(tuple(f) for f in tgt_fib)

    @property
    def n_morphisms(self) -> int:
        return len(self.source)

    def morphisms(self) -> range:
        return range(self.n_morphisms)

    def objects(self) -> range:
        return range(self.n_objects)

    def compose(self, b: int, a: int) -> int:
        """b∘a, defined when source(b) == target(a)."""
        try:
            return self.compose_table[(b, a)]
        except KeyError:
            raise NotComposableError(
                f"morphisms {self.label(b)} and {self.label(a)} do not compose"
            ) from None

    def composable(self, b: int, a: int) -> bool:
        return (b, a) in self.compose_table

    def inv(self, m: int) -> int:
        return self.inverse[m]

    def unit(self, x: int) -> int:
        return self.unit_of[x]

    def is_unit(self, m: int) -> bool:
        return self.unit_of[self.source[m]] == m

    def source_fiber(self, x: int) -> tuple[int, ...]:
        """G_x = s^{-1}(x)."""
        return self._source_fibers[x]

    def target_fiber(self, x: int) -> tuple[int, ...]:
        """G^x = t^{-1}(x)."""
        return self._target_fibers[x]

    def composable_pairs(self) -> Iterator[tuple[int, int]]:
        """All (b, a) with source(b) == target(a), i.e. the set of composable pairs."""
        for a in self.morphisms():
            for b in self._source_fibers[self.target[a]]:
                yield (b, a)

    def label(self, m: int) -> str:
        return f"m{m}:{self.source[m]}->{self.target[m]}"

    def __repr__(self) -> str:
        return f"FiniteGroupoid(n_objects={self.n_objects}, n_morphisms={self.n_morphisms})"

    def to_json(self) -> dict:
        return {
            "n_objects": self.n_objects,
            "morphisms": [
                {"id": m, "src": self.source[m], "tgt": self.target[m]}
                for m in self.morphisms()
            ],
            "compose": sorted([b, a, r] for (b, a), r in self.compose_table.items()),
            "inverse": list(self.inverse),
            "units": list(self.unit_of),
        }


def pair_groupoid(n: int) -> FiniteGroupoid:
    """The pair groupoid over n points: morphisms (j, k): k -> j, indexed j*n + k.

    Composition is (z, y)∘(y, x) = (z, x), inversion swaps the pair, and the
    unit at x is (x, x).  Its convolution algebra is the full matrix algebra.
    """
    if n < 1:
        raise ValueError("pair_groupoid requires n >= 1")
    source = [k for j in range(n) for k in range(n)]
    target = [j for j in range(n) for k in range(n)]
    compose = {}
    for z in range(n):
        for y in range(n):
            for x in range(n):
                compose[(z * n + y, y * n + x)] = z * n + x
    inverse = [k * n + j for j in range(n) for k in range(n)]
    units = [x * n + x for x in range(n)]
    return FiniteGroupoid(n, source, target, compose, inverse, units)


def pair_index(n: int, j: int, k: int) -> int:
    """Morphism id of (j, k): k -> j in pair_groupoid(n)."""
    return j * n + k


def pair_of(n: int, m: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`: id -> (target, source)."""
    return divmod(m, n)


def direct_product(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    """Direct product groupoid: componentwise objects, morphisms and composition."""
    n1, n2 = g1.n_objects, g2.n_objects
    m1, m2 = g1.n_morphisms, g2.n_morphisms
    source = [g1.source[a] * n2 + g2.source[b] for a in range(m1) for b in range(m2)]
    target = [g1.target[a] * n2 + g2.target[b] for a in range(m1) for b in range(m2)]
    compose = {}
    for (b1, a1), r1 in g1.compose_table.items():
        for (b2, a2), r2 in g2.compose_table.items():
            compose[(b1 * m2 + b2, a1 * m2 + a2)] = r1 * m2 + r2
    inverse = [g1.inverse[a] * m2 + g2.inverse[b] for a in range(m1) for b in range(m2)]
    units = [
        g1.unit_of[x1] * m2 + g2.unit_of[x2] for x1 in range(n1) for x2 in range(n2)
    ]
    return FiniteGroupoid(n1 * n2, source, target, compose, inverse, units)


def fibers(g: FiniteGroupoid, x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(G_x, G^x): the source fiber s^{-1}(x) and target fiber t^{-1}(x)."""
    if not 0 <= x < g.n_objects:
        raise ValueError(f"object index {x} out of range")
    return g.source_fiber(x), g.target_fiber(x)


def validate(g: FiniteGroupoid) -> ViolationReport:
    """Check every groupoid axiom instance and report all violations.

    Checks, in order: index ranges, the composability domain (the table is
    defined for (b, a) exactly when source(b) == target(a)), endpoint
    coherence of composites, associativity on all composable triples, unit
    laws and inverse laws.  An empty report means g is a groupoid.
    """
    rep = ViolationReport()
    m = g.n_morphisms

    def in_range(i):
        return 0 <= i < m

    for mid in g.morphisms():
        rep.checks += 1
        if not (0 <= g.source[mid] < g.n_objects and 0 <= g.target[mid] < g.n_objects):
            rep.add("index-range", (mid,), f"morphism {mid} has out-of-range endpoints")

    # Composability domain: defined iff source(b) == target(a).
    expected = set(g.composable_pairs())
    actual = set(g.compose_table)
    for pair in expected - actual:
        rep.add("domain-missing", pair, f"composable pair {pair} missing from table")
    for pair in actual - expected:
        rep.add("domain-extra", pair, f"table entry {pair} for a non-composable pair")
    rep.checks += len(expected | actual)

    for (b, a), r in g.compose_table.items():
        rep.checks += 1
        if not in_range(r):
            rep.add("index-range", (b, a, r), f"composite {r} out of range")
            continue
        if (b, a) not in expected:
            continue
        if g.source[r] != g.source[a] or g.target[r] != g.target[b]:
            rep.add(
                "endpoint",
                (b, a, r),
                f"{g.label(b)}∘{g.label(a)} = {g.label(r)} has wrong endpoints",
            )

    def comp(b, a):
        return g.compose_table.get((b, a))

    # Associativity over all composable triples (c∘b)∘a == c∘(b∘a).
    for a in g.morphisms():
        for b in g.source_fiber(g.target[a]):
            ba = comp(b, a)
            for c in g.source_fiber(g.target[b]):
                rep.checks += 1
                cb = comp(c, b)
                lhs = comp(cb, a) if cb is not None else None
                rhs = comp(c, ba) if ba is not None else None
                if lhs is None or rhs is None or lhs != rhs:
                    rep.add(
                        "associativity",
                        (c, b, a),
                        f"(c∘b)∘a != c∘(b∘a) for c={c}, b={b}, a={a}",
                    )

    for x in g.objects():
        rep.checks += 1
        u = g.unit_of[x]
        if not in_range(u):
            rep.add("index-range", (x, u), f"unit of object {x} out of range")
            continue
        if g.source[u] != x or g.target[u] != x:
            rep.add("unit-endpoint", (x, u), f"unit of {x} is not an endomorphism of {x}")

    for a in g.morphisms():
        rep.checks += 1
        u_s = g.unit_of[g.source[a]]
        u_t = g.unit_of[g.target[a]]
        if comp(a, u_s) != a:
            rep.add("unit-law", (a, u_s), f"{g.label(a)}∘1_s != {g.label(a)}")
        if comp(u_t, a) != a:
            rep.add("unit-law", (u_t, a), f"1_t∘{g.label(a)} != {g.label(a)}")

    for a in g.morphisms():
        rep.checks += 1
        ai = g.inverse[a]
        if not in_range(ai):
            rep.add("index-range", (a, ai), f"inverse of {a} out of range")
            continue
        if g.source[ai] != g.target[a] or g.target[ai] != g.source[a]:
            rep.add("inverse-endpoint", (a, ai), f"inverse of {g.label(a)} has wrong endpoints")
            continue
        if comp(a, ai) != g.unit_of[g.target[a]]:
            rep.add("inverse-law", (a, ai), f"{g.label(a)}∘{g.label(a)}⁻¹ != 1_t")
        if comp(ai, a) != g.unit_of[g.source[a]]:
            rep.add("inverse-law", (ai, a), f"{g.label(a)}⁻¹∘{g.label(a)} != 1_s")
        if g.inverse[ai] != a:
            rep.add("inverse-law", (a, ai), f"inverse of {g.label(a)} is not involutive")

    return rep


def is_connected(g: FiniteGroupoid) -> bool:
    """True when every pair of objects is joined by some morphism (a reporting
    check only; nothing in this package requires connectedness)."""
    parent = list(range(g.n_objects))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for m in g.morphisms():
        a, b = find(g.source[m]), find(g.target[m])
        if a != b:
            parent[a] = b
    return len({find(x) for x in g.objects()}) == 1


def groupoid_from_json(data: dict) -> FiniteGroupoid:
    """Build a groupoid from the documented JSON form and validate it.

    Raises ValidationError listing every violated axiom if the table is not
    a groupoid.
    """
    try:
        n_objects = data["n_objects"]
        morphs = data["morphisms"]
        m = len(morphs)
        source = [0] * m
        target = [0] * m
        for entry in morphs:
            source[entry["id"]] = entry["src"]
            target[entry["id"]] = entry["tgt"]
        compose = {(b, a): r for b, a, r in data["compose"]}
        inverse = data["inverse"]
        units = data["units"]
    except (KeyError, IndexError, TypeError) as exc:
        raise GroupoidError(f"malformed groupoid JSON: {exc}") from exc
    if type(n_objects) is not int or n_objects < 1:
        raise GroupoidError(
            f"malformed groupoid JSON: n_objects must be a positive integer, got {n_objects!r}"
        )
    g = FiniteGroupoid(n_objects, source, target, compose, inverse, units)
    rep = validate(g)
    if not rep.ok:
        raise ValidationError(rep, "groupoid JSON rejected")
    return g


def load_groupoid(path: str) -> FiniteGroupoid:
    with open(path) as fh:
        return groupoid_from_json(json.load(fh))


def save_groupoid(g: FiniteGroupoid, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(g.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
