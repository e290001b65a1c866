from itertools import chain, combinations, permutations, product

import numpy as np
import pytest
from oracles import (
    array_count,
    bisection_entry,
    bisection_product,
    horizontal_compose,
    horizontal_inverse,
    horizontal_unit,
    is_flat,
    is_little,
    loop_count,
    loop_is_flat,
    permutation_graph,
)

from groupoidqm import (
    FiniteGroupoid,
    FlatBisection,
    GroupoidError,
    NotComposableError,
    QClass,
    Symmetroid,
    Transformation,
    direct_product,
    enumerate_quotient,
    flat_bisection_product,
    flat_bisections,
    pair_groupoid,
    pair_index,
    q_horizontal_compose,
    q_horizontal_inverse,
    q_horizontal_unit,
    q_horizontally_composable,
    q_index,
    q_s1,
    q_t1,
    q_vertical_compose,
    q_vertical_inverse,
    q_vertical_unit,
    quotient_groupoid,
    shift_bisection,
    validate,
)
from groupoidqm import selftest
from groupoidqm.selftest import exchange_identity_report


class TestGeneralSymmetroid:
    def test_source_target_of_triples(self):
        n = 3
        g = pair_groupoid(n)
        sym = Symmetroid(g)
        pi = lambda j, k: pair_index(n, j, k)
        # unit transformation: s1 = t1 = β
        beta = pi(1, 0)
        unit = sym.vertical_unit(beta)
        assert sym.s1(unit) == sym.t1(unit) == beta
        # worked triple: ((2,1),(1,0),(0,0)) has t1 = (2,1)∘(1,0)∘(0,0) = (2,0)
        t = Transformation(pi(2, 1), pi(1, 0), pi(0, 0))
        assert sym.is_valid(t)
        assert sym.t1(t) == pi(2, 0)
        assert sym.project(t) == QClass(2, 1, 0, 0)

    def test_enumeration_size(self):
        for n in (2, 3):
            sym = Symmetroid(pair_groupoid(n))
            assert len(sym) == n**4
        g = direct_product(pair_groupoid(2), pair_groupoid(2))
        sym = Symmetroid(g)
        # each triple: beta free (16), alpha with s(α) = t(β) (4), gamma (4)
        assert len(sym) == 16 * 4 * 4

    def test_vertical_groupoid_laws(self):
        sym = Symmetroid(pair_groupoid(2))
        for t in sym.transformations:
            unit_s = sym.vertical_unit(sym.s1(t))
            unit_t = sym.vertical_unit(sym.t1(t))
            assert sym.vertical_compose(t, unit_s) == t
            assert sym.vertical_compose(unit_t, t) == t
            ti = sym.vertical_inverse(t)
            assert sym.vertical_compose(ti, t) == unit_s
            assert sym.vertical_compose(t, ti) == unit_t

    def test_vertical_associativity_exhaustive_n2(self):
        sym = Symmetroid(pair_groupoid(2))
        by_s1 = {}
        for t in sym.transformations:
            by_s1.setdefault(t.beta, []).append(t)
        count = 0
        for t1 in sym.transformations:
            for t2 in by_s1[sym.t1(t1)]:
                t21 = sym.vertical_compose(t2, t1)
                for t3 in by_s1[sym.t1(t2)]:
                    lhs = sym.vertical_compose(sym.vertical_compose(t3, t2), t1)
                    rhs = sym.vertical_compose(t3, t21)
                    assert lhs == rhs
                    count += 1
        assert count > 0

    def test_little_symmetroid_is_units_for_pair_groupoid(self):
        sym = Symmetroid(pair_groupoid(3))
        little = [t for t in sym.transformations if is_little(sym, t)]
        assert len(little) == 9
        assert all(t == sym.vertical_unit(t.beta) for t in little)

    def test_normality_of_little_symmetroid(self):
        # Γ ∘ 1_β ∘ Γ⁻¹ = 1_{t1(Γ)}: conjugation fixes the unit transformations
        sym = Symmetroid(pair_groupoid(2))
        for t in sym.transformations:
            unit = sym.vertical_unit(sym.s1(t))
            conj = sym.vertical_compose(t, sym.vertical_compose(unit, sym.vertical_inverse(t)))
            assert conj == sym.vertical_unit(sym.t1(t))

    def test_projection_is_homomorphism(self):
        # over a pair groupoid a class fixes s1 and t1, so the equalities of
        # classes below also decide the 2-source and 2-target of each representative
        sym = Symmetroid(pair_groupoid(3))
        by_s1 = {}
        for t in sym.transformations:
            by_s1.setdefault(t.beta, []).append(t)
        for t1 in sym.transformations:
            for t2 in by_s1[sym.t1(t1)]:
                lhs = sym.project(sym.vertical_compose(t2, t1))
                rhs = q_vertical_compose(sym.project(t2), sym.project(t1))
                assert lhs == rhs
        g = sym.groupoid
        count = 0
        for t1, t2 in product(sym.transformations, repeat=2):
            if g.composable(sym.s1(t2), sym.s1(t1)) and g.composable(sym.t1(t2), sym.t1(t1)):
                lhs = sym.project(horizontal_compose(sym, t2, t1))
                assert lhs == q_horizontal_compose(sym.project(t2), sym.project(t1))
                count += 1
        assert count == 3**6  # free choice of 6 objects in the chain pattern
        for t in sym.transformations:
            lhs = sym.project(horizontal_inverse(sym, t))
            assert lhs == q_horizontal_inverse(sym.project(t))
        for y, x in product(range(3), repeat=2):
            assert sym.project(horizontal_unit(sym, y, x)) == q_horizontal_unit(y, x)


class TestQuotient:
    def test_enumeration(self):
        assert len(enumerate_quotient(2)) == 16
        assert len(enumerate_quotient(3)) == 81
        classes = enumerate_quotient(2)
        for i, q in enumerate(classes):
            assert q_index(2, q) == i
        units = [q for q in classes if q == q_vertical_unit(q.z, q.x)]
        assert len(units) == 4  # n² vertical units ((y,y),(x,x))

    def test_source_target_maps(self):
        q = QClass(2, 1, 0, 0)
        assert q_s1(q) == (1, 0)
        assert q_t1(q) == (2, 0)

    def test_vertical_composition_rule(self):
        # ((z,y),(x,w)) ∘V ((y,y'),(x',x)) = ((z,y'),(x',w))
        z, y, x, w, y2, x2 = 1, 2, 0, 1, 0, 2
        left = QClass(z, y, x, w)
        right = QClass(y, y2, x2, x)
        assert q_vertical_compose(left, right) == QClass(z, y2, x2, w)
        with pytest.raises(NotComposableError):
            q_vertical_compose(right, right)

    def test_horizontal_inverse(self):
        q = QClass(3, 1, 0, 2)
        qi = q_horizontal_inverse(q)
        assert qi == QClass(2, 0, 1, 3)
        assert q_s1(qi) == (0, 1) and q_t1(qi) == (2, 3)
        assert q_horizontal_inverse(qi) == q
        # Γ⁻ᴴ ∘H Γ is the horizontal unit at (w, x)
        prod = q_horizontal_compose(qi, q)
        assert prod == q_horizontal_unit(q.w, q.x)
        # horizontal units are their own horizontal inverses
        unit = q_horizontal_unit(2, 1)
        assert q_horizontal_inverse(unit) == unit

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_quotient_groupoid_is_the_vertical_groupoid_by_class(self, n):
        # the q-rules on index arrays build S(pair(n))'s vertical groupoid with
        # transformation Γ numbered q_index(n, sym.project(Γ)), and list its
        # pairs as the generic constructor derives them from its tables
        qg = quotient_groupoid(n)
        assert validate(qg).ok
        sym = Symmetroid(pair_groupoid(n))
        v = sym.vertical
        perm = [q_index(n, sym.project(t)) for t in sym.transformations]
        order = np.argsort(perm)
        assert (qg.n_objects, qg.unit_of) == (v.n_objects, tuple(perm[u] for u in v.unit_of))
        assert qg.source == tuple(v.source[i] for i in order)
        assert qg.target == tuple(v.target[i] for i in order)
        assert qg.inverse == tuple(perm[v.inverse[i]] for i in order)
        relabelled = {(perm[b], perm[a]): perm[ba] for (b, a), ba in v.compose_table.items()}
        assert dict(qg.compose_table) == relabelled
        generic = FiniteGroupoid(n * n, qg.source, qg.target, relabelled, qg.inverse, qg.unit_of)
        for built, derived in zip(qg.composable_arrays(), generic.composable_arrays()):
            assert np.array_equal(built, derived)

class TestQuotientOverPatterns:
    """The rules commute with relabelling the points, so an identity between
    them holds at every n once it holds on one representative of each
    equality pattern of its free indices."""

    @staticmethod
    def composed(rule, q2, q1):
        try:
            return rule(q2, q1)
        except NotComposableError:
            return None

    # a transposition and a 3-cycle: together they generate every relabelling
    # of three points
    @pytest.mark.parametrize("sigma", [(1, 0, 2), (1, 2, 0)])
    def test_rules_commute_with_relabelling(self, sigma):
        relabel = lambda q: None if q is None else QClass(*(sigma[v] for v in q))
        classes = enumerate_quotient(3)
        for q in classes:
            assert q_vertical_inverse(relabel(q)) == relabel(q_vertical_inverse(q))
            assert q_horizontal_inverse(relabel(q)) == relabel(q_horizontal_inverse(q))
        for y, x in product(range(3), repeat=2):
            assert q_vertical_unit(sigma[y], sigma[x]) == relabel(q_vertical_unit(y, x))
            assert q_horizontal_unit(sigma[y], sigma[x]) == relabel(q_horizontal_unit(y, x))
        for q2, q1 in product(classes, repeat=2):
            r2, r1 = relabel(q2), relabel(q1)
            assert q_horizontally_composable(r2, r1) == q_horizontally_composable(q2, q1)
            for rule in (q_vertical_compose, q_horizontal_compose):
                assert self.composed(rule, r2, r1) == relabel(self.composed(rule, q2, q1))

    def test_exchange_quadruple_commutes_with_a_random_relabelling(self):
        rng = np.random.default_rng(20261019)
        sigma = rng.permutation(6)
        free = rng.integers(0, 6, size=(9, 1000))
        relabelled = selftest._exchange_quadruple(sigma[free])
        for q, r in zip(selftest._exchange_quadruple(free), relabelled):
            assert np.array_equal(r, sigma[np.asarray(q)])
        assert np.any(sigma != np.arange(6))

    def test_vertical_associativity_at_every_n(self):
        # q2 starts where q1 ends, q3 where q2 ends: eight free indices
        (z1, y1, x1, w1, z2, w2, z3, w3), _ = selftest._set_partitions(8)
        q1, q2, q3 = QClass(z1, y1, x1, w1), QClass(z2, z1, w1, w2), QClass(z3, z2, w2, w3)
        lhs = q_vertical_compose(q_vertical_compose(q3, q2), q1)
        rhs = q_vertical_compose(q3, q_vertical_compose(q2, q1))
        assert z1.size == 4140 and np.array_equal(lhs, rhs)

    def test_unit_and_inverse_laws_at_every_n(self):
        # one class has four free indices: B₄ = 15 patterns
        (z, y, x, w), _ = selftest._set_partitions(4)
        q = QClass(z, y, x, w)
        vi, hi = q_vertical_inverse(q), q_horizontal_inverse(q)
        laws = [
            (q_vertical_compose(q, q_vertical_unit(y, x)), q),
            (q_vertical_compose(q_vertical_unit(z, w), q), q),
            (q_vertical_compose(vi, q), q_vertical_unit(y, x)),
            (q_vertical_compose(q, vi), q_vertical_unit(z, w)),
            (q_horizontal_compose(q, q_horizontal_unit(w, x)), q),
            (q_horizontal_compose(q_horizontal_unit(z, y), q), q),
            (q_horizontal_compose(hi, q), q_horizontal_unit(w, x)),
            (q_horizontal_compose(q, hi), q_horizontal_unit(z, y)),
            (q_vertical_inverse(vi), q),
            (q_horizontal_inverse(hi), q),
        ]
        assert z.size == 15
        for lhs, rhs in laws:
            assert np.array_equal(lhs, rhs)

    def test_horizontal_associativity_at_every_n(self):
        # x2 = y1 and w2 = z1, x3 = y2 and w3 = z2: eight free indices
        (z1, y1, x1, w1, z2, y2, z3, y3), _ = selftest._set_partitions(8)
        q1, q2, q3 = QClass(z1, y1, x1, w1), QClass(z2, y2, y1, z1), QClass(z3, y3, y2, z2)
        lhs = q_horizontal_compose(q_horizontal_compose(q3, q2), q1)
        rhs = q_horizontal_compose(q3, q_horizontal_compose(q2, q1))
        assert z1.size == 4140 and np.array_equal(lhs, rhs)


def bell(k):
    """B_k from the Bell triangle."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class TestExchangeIdentity:
    def test_exhaustive_n2(self):
        violations, checked = exchange_identity_report(2)
        assert violations == 0
        assert checked == 2**9

    def test_exhaustive_n3(self):
        assert exchange_identity_report(3) == (0, 3**9)

    def test_exhaustive_through_the_bound(self):
        # from n = 9 on every equality pattern of the nine free indices has a
        # labelling, so at n = 9, 10 and 12 every pattern carries weight
        for n in (4, 5, 8, 9, 10, 12):
            assert exchange_identity_report(n) == (0, n**9)

    def test_exact_n6(self):
        # the first n above the old sampling bound is decided over all 6^9 quadruples
        assert exchange_identity_report(6) == (0, 6**9)

    def test_no_quadruples_below_one_point(self):
        assert exchange_identity_report(0) == exchange_identity_report(-2) == (0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_array_oracle(self, n):
        assert exchange_identity_report(n) == array_count(n) == (0, n**9)

    def test_set_partitions_are_the_restricted_growth_strings(self):
        for k in range(10):
            strings, blocks = partitions = selftest._set_partitions(k)
            assert strings.shape == (k, bell(k)) and strings.dtype == np.int8
            assert not strings.flags.writeable and not blocks.flags.writeable
            assert selftest._set_partitions(k) is partitions
            assert blocks.tolist() == [len(set(c)) for c in strings.T.tolist()]
        for k in range(7):
            growth = [
                s for s in product(range(k), repeat=k)
                if all(s[i] <= max(s[:i], default=-1) + 1 for i in range(k))
            ]
            assert [tuple(c) for c in selftest._set_partitions(k)[0].T] == growth

    def test_scalar_rules_unchanged(self):
        # the scalar path of the broadcast rules keeps its types and messages
        q2, q1 = QClass(0, 1, 2, 0), QClass(0, 2, 1, 1)
        assert q_horizontal_compose(q2, q1) == QClass(0, 1, 1, 1)
        assert all(type(v) is int for v in q_horizontal_compose(q2, q1))
        assert q_horizontally_composable(q2, q1) is True
        with pytest.raises(NotComposableError, match=r"vertical composition undefined for QClass"):
            q_vertical_compose(q2, q1)

    def test_planted_fault_counts_as_the_loop(self, monkeypatch):
        # a horizontal rule that takes z from q1.y, with no guard; the vertical
        # guard is dropped too, so that the wrong class reaches the comparison
        # instead of raising NotComposableError
        monkeypatch.setattr(
            selftest, "q_horizontal_compose", lambda q2, q1: QClass(q1.y, q2.y, q1.x, q1.w)
        )
        monkeypatch.setattr(
            selftest, "q_vertical_compose", lambda q2, q1: QClass(q2.z, q1.y, q1.x, q2.w)
        )
        for n, expected in ((2, 256), (3, 13122)):
            assert loop_count(n, product(range(n), repeat=9)) == expected
        expected = {1: 0, 2: 256, 3: 13_122, 4: 196_608, 5: 1_562_500}
        for n in range(1, 6):
            assert exchange_identity_report(n) == array_count(n) == (expected[n], n**9)

    @pytest.mark.parametrize("row, field, rule", [(2, "x", "horizontal"), (0, "y", "vertical")])
    def test_non_composable_quadruple_raises(self, monkeypatch, row, field, rule):
        # x2 = y1 (or y'2 = z2) broken in the quadruples with z1 = y1 only, by
        # taking the field from x1 there, so that one non-composable element
        # among composable ones must raise; the fault is an equality pattern,
        # as every fault the pattern check can see must be
        exchange_quadruple = selftest._exchange_quadruple

        def broken(free):
            quad = list(exchange_quadruple(free))
            g1 = quad[3]
            faulty = np.where(g1.z == g1.y, g1.x, getattr(quad[row], field))
            quad[row] = quad[row]._replace(**{field: faulty})
            return tuple(quad)

        monkeypatch.setattr(selftest, "_exchange_quadruple", broken)
        with pytest.raises(NotComposableError, match=f"{rule} composition undefined"):
            loop_count(2, product(range(2), repeat=9))
        with pytest.raises(NotComposableError, match=f"{rule} composition undefined"):
            exchange_identity_report(2)

    def test_fault_that_needs_three_points_is_not_seen_at_two(self, monkeypatch):
        # x2 = y1 broken only where z1, y1 and x1 are three distinct points:
        # no quadruple at n = 2 is touched, so the partitions with three or
        # more blocks must stay out of the check there, as the loop shows
        exchange_quadruple = selftest._exchange_quadruple

        def broken(free):
            gp2, gp1, g2, g1 = exchange_quadruple(free)
            distinct = (g1.z != g1.y) & (g1.y != g1.x) & (g1.z != g1.x)
            return gp2, gp1, g2._replace(x=np.where(distinct, g1.x, g2.x)), g1

        monkeypatch.setattr(selftest, "_exchange_quadruple", broken)
        assert loop_count(2, product(range(2), repeat=9)) == 0
        assert exchange_identity_report(2) == (0, 2**9)
        with pytest.raises(NotComposableError, match="horizontal composition undefined"):
            exchange_identity_report(3)


class TestFlatnessCheck:
    def test_all_bijections_n2_match_the_loop(self):
        taus = np.array(list(permutations(range(4))))
        verdicts = is_flat(taus)
        assert len(verdicts) == 24
        assert verdicts.tolist() == [loop_is_flat(tau) for tau in taus.tolist()]
        assert set(verdicts.tolist()) == {True, False}

    def test_near_misses_n3_match_the_loop(self):
        # two entries of a permutation graph swapped: one rule broken at a time
        for p in permutations(range(3)):
            for i, j in combinations(range(9), 2):
                tau = list(permutation_graph(p))
                tau[i], tau[j] = tau[j], tau[i]
                assert not loop_is_flat(tau) and not is_flat(np.array([tau]))[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_flat_bisections_unchanged(self, n):
        bs = flat_bisections(n)
        assert [b.perm for b in bs] == list(permutations(range(n)))
        assert all(loop_is_flat(permutation_graph(b.perm)) for b in bs)


class TestBisections:
    """The flat bisections are exactly the graphs of the permutations of the
    objects, decided over every bijection of the n² transitions."""

    def test_flat_bisections_are_the_permutations(self):
        for n in (2, 3):
            bs = flat_bisections(n)
            assert len(bs) == [1, 1, 2, 6][n]
            assert {b.perm for b in bs} == set(permutations(range(n)))

    def test_exhaustive_converse_n2(self):
        # among all 4! = 24 bisections over two points exactly 2 are flat
        taus = np.array(list(permutations(range(4))))
        flats = {tuple(tau) for tau in taus[is_flat(taus)].tolist()}
        assert flats == {permutation_graph(p) for p in permutations(range(2))}

    def test_exhaustive_converse_n3(self):
        # among all 9! = 362,880 bisections over three points exactly 6 are flat
        taus = np.fromiter(chain.from_iterable(permutations(range(9))), np.int8, 9 * 362_880)
        taus = taus.reshape(-1, 9)
        flats = {tuple(tau) for tau in taus[is_flat(taus)].tolist()}
        assert flats == {permutation_graph(p) for p in permutations(range(3))}

    def test_nonflat_bisection_exists_n3(self):
        # the identity with the 2-targets of (0, 1) and (0, 2) swapped
        tau = [0, 2, 1, 3, 4, 5, 6, 7, 8]
        assert not loop_is_flat(tau) and not is_flat(np.array([tau]))[0]

    def test_shift_bisection_entries(self):
        # the shift is {((j+1, j), (k, k+1))}
        n = 3
        tau = permutation_graph(shift_bisection(n).perm)
        for j in range(n):
            for k in range(n):
                entry = bisection_entry(tau, pair_index(n, j, k))
                assert entry == QClass((j + 1) % n, j, k, (k + 1) % n)

    def test_shift_functor(self):
        n = 3
        b = shift_bisection(n)
        for j in range(n):
            for k in range(n):
                assert b.functor(pair_index(n, j, k)) == pair_index(n, (j + 1) % n, (k + 1) % n)

    def test_functor_preserves_composition(self):
        n = 3
        g = pair_groupoid(n)
        for b in flat_bisections(n):
            fmap = [b.functor(beta) for beta in range(n * n)]
            for (b2, a2), r in g.compose_table.items():
                assert g.compose(fmap[b2], fmap[a2]) == fmap[r]
            for x in g.objects():
                assert g.is_unit(fmap[g.unit(x)])
            for m in g.morphisms():
                assert fmap[g.inv(m)] == g.inv(fmap[m])

    def test_group_laws(self):
        n = 3
        bs = flat_bisections(n)
        ident = FlatBisection(range(n))
        for b in bs:
            inv = FlatBisection(np.argsort(b.perm).tolist())
            assert flat_bisection_product(b, inv) == ident == flat_bisection_product(inv, b)
            assert flat_bisection_product(ident, b) == b == flat_bisection_product(b, ident)
        # σ(b2•b1) = σ(b2)∘σ(b1), and its graph is the entrywise vertical product
        for b1, b2 in product(bs, repeat=2):
            prod = flat_bisection_product(b2, b1)
            assert prod.perm == tuple(b2.perm[b1.perm[x]] for x in range(n))
            graphs = permutation_graph(b2.perm), permutation_graph(b1.perm)
            assert permutation_graph(prod.perm) == bisection_product(*graphs)
        with pytest.raises(GroupoidError, match="different bases"):
            flat_bisection_product(shift_bisection(2), shift_bisection(3))

    def test_bisection_product_underlying_map(self):
        n = 2
        taus = list(permutations(range(n * n)))
        for t1 in taus[:6]:
            for t2 in taus[:6]:
                assert bisection_product(t2, t1) == tuple(t2[t1[i]] for i in range(n * n))

    def test_bisection_rejects_non_bijection(self):
        with pytest.raises(GroupoidError, match="needs a permutation"):
            FlatBisection([0, 0, 1])
