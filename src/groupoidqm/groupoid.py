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
from functools import lru_cache
from itertools import chain, repeat
from types import MappingProxyType
from typing import Iterator, Sequence

import numpy as np

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
        "_compose_table",
        "inverse",
        "unit_of",
        "_fibers",
        "_pair_arrays",
        "_pair_positions",
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
        self.source, self.target, self.inverse, self.unit_of = (
            tuple(map(int, t)) for t in (source, target, inverse, unit_of)
        )
        self._compose_table = MappingProxyType(dict(compose_table))
        self._fibers = None
        self._pair_arrays = None
        self._pair_positions = None

    @classmethod
    def _from_pair_arrays(cls, n_objects, source, target, pairs, inverse, unit_of):
        """The groupoid whose :meth:`composable_arrays` are ``pairs`` = (B, A,
        BA), given in :meth:`composable_pairs` order; its compose table is
        built from them on first read and lists the pairs in that order."""
        g = cls(n_objects, source, target, {}, inverse, unit_of)
        for arr in pairs:
            arr.flags.writeable = False
        g._compose_table = None
        g._pair_arrays = pairs
        return g

    @property
    def compose_table(self) -> MappingProxyType:
        """The read-only map (b, a) -> b∘a."""
        if self._compose_table is None:
            b, a, ba = (arr.tolist() for arr in self._pair_arrays)
            self._compose_table = MappingProxyType(dict(zip(zip(b, a), ba)))
        return self._compose_table

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
            raise self._not_composable(b, a) from None

    def _not_composable(self, b: int, a: int) -> NotComposableError:
        return NotComposableError(f"morphisms {self.label(b)} and {self.label(a)} do not compose")

    def composable(self, b: int, a: int) -> bool:
        return (b, a) in self.compose_table

    def inv(self, m: int) -> int:
        return self.inverse[m]

    def unit(self, x: int) -> int:
        return self.unit_of[x]

    def is_unit(self, m: int) -> bool:
        return self.unit_of[self.source[m]] == m

    def _fiber_tables(self) -> tuple[tuple, tuple]:
        """The source and target fibers of every object, built on first use."""
        if self._fibers is None:
            by = []
            for ends in (np.asarray(self.source, np.intp), np.asarray(self.target, np.intp)):
                order = np.argsort(ends, kind="stable")  # an out-of-range end falls outside every cut
                cut = np.searchsorted(ends[order], np.arange(self.n_objects + 1)).tolist()
                by.append(tuple(tuple(order[i:j].tolist()) for i, j in zip(cut, cut[1:])))
            self._fibers = tuple(by)
        return self._fibers

    def source_fiber(self, x: int) -> tuple[int, ...]:
        """G_x = s^{-1}(x)."""
        return self._fiber_tables()[0][x]

    def target_fiber(self, x: int) -> tuple[int, ...]:
        """G^x = t^{-1}(x)."""
        return self._fiber_tables()[1][x]

    def composable_pairs(self) -> Iterator[tuple[int, int]]:
        """All (b, a) with source(b) == target(a), i.e. the set of composable pairs."""
        for a in self.morphisms():
            for b in self.source_fiber(self.target[a]):
                yield (b, a)

    def composable_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The composable pairs as read-only index arrays (B, A, BA), in
        :meth:`composable_pairs` order: pair k is (B[k], A[k]) with composite
        BA[k], which is -1 where the compose table lacks the pair (a malformed
        table; :func:`validate` reports it).  Built on first use, unless the
        groupoid was built from them (as ``Symmetroid.vertical`` is)."""
        if self._pair_arrays is None:
            fibers = list(map(self.source_fiber, self.target))
            b = np.fromiter(chain.from_iterable(fibers), np.intp)
            a = np.repeat(np.arange(self.n_morphisms), [len(f) for f in fibers])
            pairs = zip(b.tolist(), a.tolist())
            ba = np.fromiter(map(self.compose_table.get, pairs, repeat(-1)), np.intp, len(b))
            for arr in (b, a, ba):
                arr.flags.writeable = False
            self._pair_arrays = (b, a, ba)
        return self._pair_arrays

    def composites(self, b, a) -> np.ndarray:
        """b∘a for each pair of the index arrays b and a (broadcast), read from
        :meth:`composable_arrays` at the pair's position: the start of a's pairs
        plus the position of b in the source fiber of t(a).  Raises
        NotComposableError, with :meth:`compose`'s message, for the first pair
        (row-major) with source(b) != target(a) or no composite in the table."""
        b, a = np.broadcast_arrays(np.asarray(b, np.intp), np.asarray(a, np.intp))
        if self._pair_positions is None:
            source, target = np.asarray(self.source, np.intp), np.asarray(self.target, np.intp)
            source_fibers = self._fiber_tables()[0]
            pairs_of = np.array([len(f) for f in source_fibers], np.intp)[target]
            position = np.zeros(self.n_morphisms, np.intp)
            for f in source_fibers:
                position[list(f)] = range(len(f))
            self._pair_positions = (np.cumsum(pairs_of) - pairs_of, position, source, target)
        start, position, source, target = self._pair_positions
        ok = source[b] == target[a]
        ba = np.full(b.shape, -1, np.intp)
        ba[ok] = self.composable_arrays()[2][start[a[ok]] + position[b[ok]]]
        self.require_composites(b, a, ba)
        return ba

    def require_composites(self, b, a, ba, key=None) -> None:
        """Raise NotComposableError for the first pair (b[i], a[i]) whose composite
        ba[i] is missing (-1), in increasing key (default: row-major order); b and
        a broadcast to ba's shape.  A gather checks first: numpy reads -1 as the
        last morphism."""
        missing = np.flatnonzero(ba < 0)
        if len(missing):
            first = missing[0] if key is None else missing[np.argmin(key[missing])]
            b, a = (int(np.broadcast_to(v, ba.shape).flat[first]) for v in (b, a))
            raise self._not_composable(b, a)

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


@lru_cache(maxsize=64)
def _pair_endpoints(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The source and target tables of the pair groupoid over n points."""
    points = range(n)
    return tuple(k for j in points for k in points), tuple(j for j in points for k in points)


@lru_cache(maxsize=64)
def pair_groupoid(n: int) -> FiniteGroupoid:
    """The pair groupoid over n points: morphisms (j, k): k -> j, indexed j*n + k.

    Composition is (z, y)∘(y, x) = (z, x), inversion swaps the pair, and the
    unit at x is (x, x).  Its convolution algebra is the full matrix algebra.
    Calls with one n share one (immutable) instance and so its pair arrays.
    """
    if n < 1:
        raise ValueError("pair_groupoid requires n >= 1")
    source, target = _pair_endpoints(n)
    compose = {}
    for z in range(n):
        for y in range(n):
            for x in range(n):
                compose[(z * n + y, y * n + x)] = z * n + x
    inverse = [k * n + j for j in range(n) for k in range(n)]
    units = [x * n + x for x in range(n)]
    return FiniteGroupoid(n, source, target, compose, inverse, units)


def is_pair_groupoid(g: FiniteGroupoid, n: int | None = None) -> bool:
    """Whether g is the pair groupoid over n points (default: its object count),
    morphism j·n + k going k -> j, read from the source and target tables: on a
    groupoid they fix the composition.  n² morphisms are not enough (two objects
    with Z/2 isotropy and no arrows between them have four)."""
    n = g.n_objects if n is None else n
    return g.n_objects == n and (g.source, g.target) == _pair_endpoints(n)


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
    laws and inverse laws.  An empty report means g is a groupoid.  When a
    morphism's endpoints are out of range the report stops after that check.
    """
    rep = ViolationReport()
    m = g.n_morphisms

    def in_range(i):
        return 0 <= i < m

    for mid in g.morphisms():
        rep.checks += 1
        if not (0 <= g.source[mid] < g.n_objects and 0 <= g.target[mid] < g.n_objects):
            rep.add("index-range", (mid,), f"morphism {mid} has out-of-range endpoints")
    if not rep.ok:
        return rep  # every check below indexes the object tables by endpoints

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

    Raises GroupoidError on a malformed form (a missing key, a compose entry
    that is not a triple, a table entry that is not an int, ids that are not
    a permutation of 0..m-1, a table of the wrong length) and ValidationError
    listing every violated axiom if the table is not a groupoid.
    """
    try:
        n_objects = data["n_objects"]
        ids, src, tgt = ([e[key] for e in data["morphisms"]] for key in ("id", "src", "tgt"))
        triples = [(b, a, r) for b, a, r in data["compose"]]
        inverse, units = list(data["inverse"]), list(data["units"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupoidError(f"malformed groupoid JSON: {exc}") from exc
    m = len(ids)
    bad = [v for t in (ids, src, tgt, inverse, units, *triples) for v in t if type(v) is not int]
    if type(n_objects) is not int or n_objects < 1:
        problem = f"n_objects must be a positive integer, got {n_objects!r}"
    elif bad:
        problem = f"table entry {bad[0]!r} is not an integer"
    elif sorted(ids) != list(range(m)):
        problem = f"morphism ids are not a permutation of 0..{m - 1}"
    elif len(inverse) != m or len(units) != n_objects:
        problem = "need one inverse per morphism and one unit per object"
    else:
        source = [s for _, s in sorted(zip(ids, src))]
        target = [t for _, t in sorted(zip(ids, tgt))]
        compose = {(b, a): r for b, a, r in triples}
        g = FiniteGroupoid(n_objects, source, target, compose, inverse, units)
        rep = validate(g)
        if not rep.ok:
            raise ValidationError(rep, "groupoid JSON rejected")
        return g
    raise GroupoidError(f"malformed groupoid JSON: {problem}")


def load_groupoid(path: str) -> FiniteGroupoid:
    with open(path) as fh:
        return groupoid_from_json(json.load(fh))


def save_groupoid(g: FiniteGroupoid, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(g.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
