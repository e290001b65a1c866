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
import operator
from functools import lru_cache, reduce
from itertools import accumulate, chain, repeat
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
        if len(inverse) != len(source) or len(unit_of) != n_objects:
            raise ValueError("need one inverse per morphism and one unit per object")
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
            b, a = self._composable_ends()
            pairs = zip(b.tolist(), a.tolist())
            try:
                ba = np.fromiter(map(self.compose_table.get, pairs, repeat(-1)), np.intp, len(b))
            except OverflowError:  # not a morphism index; validate reports the entry
                raise GroupoidError("compose table has a composite beyond intp") from None
            for arr in (b, a, ba):
                arr.flags.writeable = False
            self._pair_arrays = (b, a, ba)
        return self._pair_arrays

    def _composable_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The arrays B and A of :meth:`composable_arrays`, from the fibers alone."""
        fibers = list(map(self.source_fiber, self.target))
        b = np.fromiter(chain.from_iterable(fibers), np.intp)
        return b, np.repeat(np.arange(self.n_morphisms), [len(f) for f in fibers])

    def _pair_starts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(start, position, source, target) as arrays, built on first use: the
        pairs (·, a) begin at start[a] in :meth:`composable_pairs` order, and
        position[b] is b's place in its source fiber."""
        if self._pair_positions is None:
            source, target = np.asarray(self.source, np.intp), np.asarray(self.target, np.intp)
            source_fibers = self._fiber_tables()[0]
            pairs_of = np.array([len(f) for f in source_fibers], np.intp)[target]
            position = np.zeros(self.n_morphisms, np.intp)
            for f in source_fibers:
                position[list(f)] = range(len(f))
            self._pair_positions = (np.cumsum(pairs_of) - pairs_of, position, source, target)
        return self._pair_positions

    def _pair_index(self, b: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The position of each pair (b[i], a[i]) of morphisms in
        :meth:`composable_pairs` order (the start of a's pairs plus the position
        of b in the source fiber of t(a)), or -1 where source(b) != target(a)."""
        start, position, source, target = self._pair_starts()
        return np.where(source[b] == target[a], start[a] + position[b], -1)

    def composites(self, b, a) -> np.ndarray:
        """b∘a for each pair of the index arrays b and a (broadcast), read from
        :meth:`composable_arrays` at the pair's :meth:`_pair_index`.  Raises
        NotComposableError, with :meth:`compose`'s message, for the first pair
        (row-major) with source(b) != target(a) or no composite in the table."""
        b, a = np.broadcast_arrays(np.asarray(b, np.intp), np.asarray(a, np.intp))
        k = self._pair_index(b, a)
        ba = np.full(k.shape, -1, np.intp)
        ba[k >= 0] = self.composable_arrays()[2][k[k >= 0]]
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


def _coded(bound: int, *tables) -> tuple[list[np.ndarray], dict]:
    """The integer tables as intp arrays on which an entry outside 0..bound-1
    reads as bound + k, one k per distinct value, and those values by code: the
    arrays compare and range-check as the entries do, and no code is negative."""
    ends = list(accumulate(map(len, tables), initial=0))
    try:
        joined = np.concatenate([np.asarray(t, dtype=np.intp) for t in tables])
        coded = not len(joined) or 0 <= joined.min() and joined.max() < bound
    except OverflowError:  # a value beyond intp is out of range, and coded
        coded = False
    codes: dict = {}
    if not coded:

        def code(v):
            return v if 0 <= v < bound else codes.setdefault(int(v), bound + len(codes))

        joined = np.fromiter(map(code, chain.from_iterable(tables)), np.intp, ends[-1])
    return [joined[i:j] for i, j in zip(ends, ends[1:])], {c: v for v, c in codes.items()}


_TRIPLES_PER_BLOCK = 1 << 18  # associativity triples gathered at once by validate


def _add_in_order(rep: ViolationReport, *checks) -> None:
    """Add the violations of the checks (flags, describe), row by row over i
    and, within a row, in the order of the checks: describe(i) gives the
    (kind, where, message) of a set flags[i]."""
    rows = reduce(operator.or_, (flags for flags, _ in checks)).nonzero()[0]
    for i in rows.tolist():
        for flags, describe in checks:
            if flags[i]:
                rep.add(*describe(i))


def validate(g: FiniteGroupoid) -> ViolationReport:
    """Check every groupoid axiom instance and report all violations.

    Checks, in order: index ranges, the composability domain (the table is
    defined for (b, a) exactly when source(b) == target(a)), endpoint
    coherence of composites, associativity on all composable triples, unit
    laws and inverse laws.  An empty report means g is a groupoid.  When a
    morphism's endpoints are out of range the report stops after that check.

    Each check is decided for all of its instances at once, by gathers
    through index arrays.  ``_coded`` reads every morphism id of the tables
    as an intp code, an id out of range as a code of its own beyond m-1, and
    such a code reads the endpoints -1.  The table becomes one composite per
    composable pair, -1 where it lacks one, placed by
    ``FiniteGroupoid._pair_index``.  The composable triples (c, b, a) are the
    pairs (b, a) in :meth:`FiniteGroupoid.composable_pairs` order, each
    repeated over the pairs (c, b), and are gathered in blocks of pairs that
    hold at most ``_TRIPLES_PER_BLOCK`` triples (or one pair's), so memory
    grows with the pairs and the block, not with the triples.  A lookup
    reads the composites that the associativity laws of a block compare,
    and one more those of the unit and inverse laws: -1 where the table has
    none, and for a pair that is not composable the table's entry for it,
    if it has one.

    Violations come in the order of a loop over the instances: the
    morphisms; the composable pairs missing from the table, in pair order,
    then the table's entries for other pairs, in table order (the two
    ``domain-*`` kinds); the table's entries in table order; the triples;
    the objects; the morphisms for the unit laws, then for the inverse laws.
    Within one instance they come in the order of its checks.
    """
    rep = ViolationReport(checks=g.n_morphisms)
    m, n = g.n_morphisms, g.n_objects
    for i in range(m):
        if not (0 <= g.source[i] < n and 0 <= g.target[i] < n):
            rep.add("index-range", (i,), f"morphism {i} has out-of-range endpoints")
    if not rep.ok:
        return rep  # every check below indexes the object tables by endpoints

    table = g.compose_table
    keys, values = list(chain.from_iterable(table)), list(table.values())
    b_all, a_all = g._composable_ends()
    (keys, kr, inverse, units), original = _coded(m, keys, values, g.inverse, g.unit_of)
    kb, ka = keys.reshape(-1, 2).T
    start, _, source, target = g._pair_starts()
    source_of, target_of = (np.append(t, -1) for t in (source, target))  # a code >= m reads -1

    def ends(codes):
        return source_of[np.minimum(codes, m)], target_of[np.minimum(codes, m)]

    def named(c):
        """The table's own value for the code c."""
        return int(c) if c < m else original[int(c)]

    def pair(b, a):
        return (named(b), named(a))

    # each table entry's place among the composable pairs, -1 for the others
    place = np.full(len(kb), -1, np.intp)
    in_range = (kb < m) & (ka < m)
    place[in_range] = g._pair_index(kb[in_range], ka[in_range])
    composite = np.full(len(b_all), -1, np.intp)
    composite[place[place >= 0]] = kr[place >= 0]
    others = np.flatnonzero(place < 0)

    elsewhere = dict(zip(zip(kb[others].tolist(), ka[others].tolist()), kr[others].tolist()))

    def lookup(qb, qa):
        """The table's value for each pair of codes (qb[i], qa[i]), -1 where it
        has none; a code -1 (a missing composite) composes with nothing."""
        found = np.full(len(qb), -1, np.intp)
        live = (qb >= 0) & (qa >= 0)
        ids = np.flatnonzero(live & (qb < m) & (qa < m))
        at = g._pair_index(qb[ids], qa[ids])
        found[ids[at >= 0]] = composite[at[at >= 0]]
        if elsewhere:  # a pair that is not composable is found among the other entries
            live[ids[at >= 0]] = False
            for i in np.flatnonzero(live).tolist():
                found[i] = elsewhere.get((int(qb[i]), int(qa[i])), -1)
        return found

    _add_in_order(rep, (composite < 0, lambda i: (
        "domain-missing", pair(b_all[i], a_all[i]), f"composable pair {pair(b_all[i], a_all[i])} missing from table"
    )))
    _add_in_order(rep, (place < 0, lambda i: (
        "domain-extra", pair(kb[i], ka[i]), f"table entry {pair(kb[i], ka[i])} for a non-composable pair"
    )))
    rep.checks += len(b_all) + len(others) + len(kb)

    (r_source, r_target), (b_source, b_target), (a_source, a_target) = map(ends, (kr, kb, ka))
    _add_in_order(
        rep,
        (kr >= m, lambda i: (
            "index-range", (*pair(kb[i], ka[i]), named(kr[i])), f"composite {named(kr[i])} out of range"
        )),
        ((kr < m) & (place >= 0) & ((r_source != a_source) | (r_target != b_target)), lambda i: (
            "endpoint", pair(kb[i], ka[i]) + (int(kr[i]),),
            f"{g.label(int(kb[i]))}∘{g.label(int(ka[i]))} = {g.label(int(kr[i]))} has wrong endpoints",
        )),
    )

    # the triples: pair k = (b, a), then c over the pairs (c, b), which begin at start[b];
    # they are gathered in blocks of pairs, so that memory stays bounded by the block
    fiber_sizes = np.bincount(source, minlength=n)[target[b_all]]
    last = np.cumsum(fiber_sizes)
    rep.checks += int(last[-1]) if len(last) else 0
    lo = 0
    while lo < len(b_all):
        hi = max(lo + 1, int(np.searchsorted(last, last[lo] - fiber_sizes[lo] + _TRIPLES_PER_BLOCK, "right")))
        sizes = fiber_sizes[lo:hi]
        k = np.repeat(np.arange(lo, hi), sizes)
        j = np.arange(len(k)) + np.repeat(start[b_all[lo:hi]] - (np.cumsum(sizes) - sizes), sizes)
        c, b, a = b_all[j], b_all[k], a_all[k]
        found = lookup(np.concatenate((composite[j], c)), np.concatenate((a, composite[k])))
        lhs, rhs = found[: len(k)], found[len(k) :]
        _add_in_order(rep, ((lhs < 0) | (rhs < 0) | (lhs != rhs), lambda i: (
            "associativity", (int(c[i]), int(b[i]), int(a[i])),
            f"(c∘b)∘a != c∘(b∘a) for c={c[i]}, b={b[i]}, a={a[i]}",
        )))
        lo = hi

    rep.checks += n
    objects, u = np.arange(n), units[:n]
    u_source, u_target = ends(u)
    _add_in_order(
        rep,
        (u >= m, lambda x: ("index-range", (x, named(u[x])), f"unit of object {x} out of range")),
        ((u < m) & ((u_source != objects) | (u_target != objects)), lambda x: (
            "unit-endpoint", (x, int(u[x])), f"unit of {x} is not an endomorphism of {x}"
        )),
    )

    rep.checks += 2 * m
    morphisms = np.arange(m)
    inv, u_s, u_t = inverse[:m], units[source], units[target]
    queries = ((morphisms, u_s), (u_t, morphisms), (morphisms, inv), (inv, morphisms))
    found = lookup(*(np.concatenate(side) for side in zip(*queries)))
    right_unit, left_unit, right_inverse, left_inverse = (found[i : i + m] for i in range(0, 4 * m, m))
    _add_in_order(
        rep,
        (right_unit != morphisms, lambda i: ("unit-law", (i, named(u_s[i])), f"{g.label(i)}∘1_s != {g.label(i)}")),
        (left_unit != morphisms, lambda i: ("unit-law", (named(u_t[i]), i), f"1_t∘{g.label(i)} != {g.label(i)}")),
    )
    i_source, i_target = ends(inv)
    flipped = (inv < m) & ((i_source != target) | (i_target != source))
    lawful = (inv < m) & ~flipped
    _add_in_order(
        rep,
        (inv >= m, lambda i: ("index-range", (i, named(inv[i])), f"inverse of {i} out of range")),
        (flipped, lambda i: ("inverse-endpoint", (i, int(inv[i])), f"inverse of {g.label(i)} has wrong endpoints")),
        (lawful & (right_inverse != u_t), lambda i: (
            "inverse-law", (i, int(inv[i])), f"{g.label(i)}∘{g.label(i)}⁻¹ != 1_t"
        )),
        (lawful & (left_inverse != u_s), lambda i: (
            "inverse-law", (int(inv[i]), i), f"{g.label(i)}⁻¹∘{g.label(i)} != 1_s"
        )),
        (lawful & (inverse[np.minimum(inv, m - 1)] != morphisms), lambda i: (
            "inverse-law", (i, int(inv[i])), f"inverse of {g.label(i)} is not involutive"
        )),
    )
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
