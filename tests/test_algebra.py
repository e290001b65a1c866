from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupoidqm import (
    AlgebraElement,
    FiniteGroupoid,
    GroupoidMeasure,
    NormalizationError,
    StateFunction,
    convolve,
    direct_product,
    evaluate_state,
    hermitian_defect,
    inner,
    involute,
    is_positive_type,
    left_regular_matrix,
    norm_sq,
    pair_groupoid,
    pair_index,
    psd_verdict,
    state_function,
    state_normalization,
    weighted_pair_measure,
)

W124 = (1, 2, 4)


def matrix_of(f, n):
    """Independent oracle: read a pair-groupoid function as an n x n matrix."""
    return [[f.values[j * n + k] for k in range(n)] for j in range(n)]


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][r] * b[r][j] for r in range(n)) for j in range(n)] for i in range(n)]


def delta(g, n, j, k):
    return AlgebraElement.delta(g, pair_index(n, j, k))


def random_element(g, rng, integer=False):
    if integer:
        vals = [complex(int(a), int(b)) for a, b in rng.integers(-3, 4, size=(g.n_morphisms, 2))]
    else:
        vals = list(rng.normal(size=g.n_morphisms) + 1j * rng.normal(size=g.n_morphisms))
    return AlgebraElement(g, vals)


class TestConvolution:
    def test_matrix_units(self):
        n = 3
        g = pair_groupoid(n)
        m = GroupoidMeasure.counting(g)
        # δ_(l,r) ⋆ δ_(r,s) = δ_(l,s); zero when the middle indices differ
        assert convolve(delta(g, n, 0, 1), delta(g, n, 1, 2), m) == delta(g, n, 0, 2)
        assert convolve(delta(g, n, 0, 1), delta(g, n, 2, 0), m) == AlgebraElement.zeros(g)

    def test_all_basis_pairs_match_matrix_oracle(self):
        n = 3
        g = pair_groupoid(n)
        m = GroupoidMeasure.counting(g)
        for a in g.morphisms():
            for b in g.morphisms():
                f1, f2 = AlgebraElement.delta(g, a), AlgebraElement.delta(g, b)
                prod = convolve(f1, f2, m)
                oracle = matmul(matrix_of(f1, n), matrix_of(f2, n))
                assert matrix_of(prod, n) == oracle

    def test_units_indicator_is_identity(self):
        g = pair_groupoid(3)
        m = GroupoidMeasure.counting(g)
        chi = AlgebraElement.units_indicator(g)
        rng = np.random.default_rng(0)
        f = random_element(g, rng)
        assert convolve(chi, f, m).allclose(f)
        assert convolve(f, chi, m).allclose(f)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(2, 3))
    def test_associativity_exact_on_integer_values(self, data, n):
        g = pair_groupoid(n)
        m = GroupoidMeasure.counting(g)
        ints = st.integers(-3, 3)
        def elem():
            vals = data.draw(
                st.lists(st.tuples(ints, ints), min_size=n * n, max_size=n * n)
            )
            return AlgebraElement(g, [complex(a, b) for a, b in vals])
        f1, f2, f3 = elem(), elem(), elem()
        lhs = convolve(convolve(f1, f2, m), f3, m)
        rhs = convolve(f1, convolve(f2, f3, m), m)
        assert lhs == rhs

    def test_associativity_weighted_measure(self):
        g = pair_groupoid(3)
        m = weighted_pair_measure(g, W124)
        rng = np.random.default_rng(5)
        for _ in range(10):
            f1, f2, f3 = (random_element(g, rng) for _ in range(3))
            lhs = convolve(convolve(f1, f2, m), f3, m)
            rhs = convolve(f1, convolve(f2, f3, m), m)
            assert lhs.allclose(rhs, 1e-10)

    def test_convolution_on_direct_product(self):
        g = direct_product(pair_groupoid(2), pair_groupoid(2))
        m = GroupoidMeasure.counting(g)
        chi = AlgebraElement.units_indicator(g)
        rng = np.random.default_rng(1)
        f = random_element(g, rng)
        assert convolve(chi, f, m).allclose(f)


class TestInvolution:
    def test_counting_swaps_indices(self):
        n = 3
        g = pair_groupoid(n)
        m = GroupoidMeasure.counting(g)
        assert involute(delta(g, n, 1, 2), m) == delta(g, n, 2, 1)

    def test_weighted_scales_by_modular(self):
        n = 3
        g = pair_groupoid(n)
        m = weighted_pair_measure(g, W124)
        # f*(α) = δ(α)⁻¹ conj(f(α⁻¹)): the only nonzero of (δ_(1,0))* sits at
        # α = (0,1) with weight δ((0,1))⁻¹ = ((1/2)/2)⁻¹ = 4
        star = involute(delta(g, n, 1, 0), m)
        expected = AlgebraElement.zeros(g)
        expected.values[pair_index(n, 0, 1)] = 4
        assert star == expected
        assert involute(star, m) == delta(g, n, 1, 0)

    def test_involution_is_the_l2_adjoint(self):
        # the convention test: π(f*) must be the adjoint of π(f) with respect
        # to the μ-weighted inner product, i.e. D⁻¹ π(f)† D with D = diag(μ)
        g = pair_groupoid(3)
        m = weighted_pair_measure(g, W124)
        D = np.diag([float(w) for w in m.weights])
        Dinv = np.diag([1 / float(w) for w in m.weights])
        rng = np.random.default_rng(14)
        for _ in range(20):
            f = random_element(g, rng)
            lhs = left_regular_matrix(involute(f, m), m)
            rhs = Dinv @ left_regular_matrix(f, m).conj().T @ D
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_involution_is_antimultiplicative(self):
        g = pair_groupoid(3)
        for m in (GroupoidMeasure.counting(g), weighted_pair_measure(g, W124)):
            rng = np.random.default_rng(2)
            for _ in range(50):
                f1, f2 = random_element(g, rng), random_element(g, rng)
                lhs = involute(convolve(f1, f2, m), m)
                rhs = convolve(involute(f2, m), involute(f1, m), m)
                assert lhs.allclose(rhs, 1e-10)

    def test_involution_squares_to_identity(self):
        g = pair_groupoid(3)
        m = weighted_pair_measure(g, W124)
        rng = np.random.default_rng(3)
        f = random_element(g, rng)
        assert involute(involute(f, m), m).allclose(f, 1e-12)

    def test_antilinearity(self):
        g = pair_groupoid(2)
        m = GroupoidMeasure.counting(g)
        rng = np.random.default_rng(4)
        f1, f2 = random_element(g, rng), random_element(g, rng)
        c = 0.7 - 1.3j
        lhs = involute(f1 * c + f2, m)
        rhs = involute(f1, m) * c.conjugate() + involute(f2, m)
        assert lhs.allclose(rhs, 1e-12)


class TestLeftRegular:
    def test_basis_action(self):
        n = 2
        g = pair_groupoid(n)
        m = GroupoidMeasure.counting(g)
        mat = left_regular_matrix(delta(g, n, 0, 1), m)
        for k in range(n):
            src = pair_index(n, 1, k)
            dst = pair_index(n, 0, k)
            col = mat[:, src]
            assert col[dst] == 1 and np.sum(np.abs(col)) == 1
            assert np.all(mat[:, pair_index(n, 0, k)] == 0)

    def test_unit_maps_to_identity(self):
        g = pair_groupoid(3)
        m = GroupoidMeasure.counting(g)
        mat = left_regular_matrix(AlgebraElement.units_indicator(g), m)
        assert np.array_equal(mat, np.eye(9))

    def test_multiplicative_on_random_pairs(self):
        g = pair_groupoid(3)
        for meas in (GroupoidMeasure.counting(g), weighted_pair_measure(g, W124)):
            rng = np.random.default_rng(6)
            for _ in range(50):
                f1, f2 = random_element(g, rng), random_element(g, rng)
                lhs = left_regular_matrix(convolve(f1, f2, meas), meas)
                rhs = left_regular_matrix(f1, meas) @ left_regular_matrix(f2, meas)
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize(
        "m",
        [
            weighted_pair_measure(pair_groupoid(3), W124).with_exact(),
            GroupoidMeasure.counting(direct_product(pair_groupoid(2), pair_groupoid(2))),
        ],
        ids=["weighted-pair", "product"],
    )
    def test_columns_are_convolutions_with_basis_exact(self, m):
        # column γ of the matrix is f ⋆ δ_γ, entry for entry
        g = m.groupoid
        rng = np.random.default_rng(21)
        f = AlgebraElement(
            g, [Fraction(int(p), int(q)) for p, q in rng.integers(1, 9, size=(g.n_morphisms, 2))]
        )
        mat = left_regular_matrix(f, m)
        for col in g.morphisms():
            column = convolve(f, AlgebraElement.delta(g, col), m)
            assert mat[:, col].tolist() == [complex(v) for v in column.values]

    def test_homomorphism_exact_on_dyadic_values(self):
        g = pair_groupoid(4)
        m = weighted_pair_measure(g, (1, 2, 4, Fraction(1, 2))).with_exact()
        rng = np.random.default_rng(22)

        def dyadic():
            nums = rng.integers(-9, 10, size=g.n_morphisms)
            dens = 2 ** rng.integers(0, 4, size=g.n_morphisms)
            return AlgebraElement(g, [Fraction(int(p), int(q)) for p, q in zip(nums, dens)])

        a, b = dyadic(), dyadic()
        lhs = left_regular_matrix(convolve(a, b, m), m)
        assert np.array_equal(lhs, left_regular_matrix(a, m) @ left_regular_matrix(b, m))


class TestPSDVerdict:
    def test_psd_matrix_passes_with_an_eigenvector_witness(self):
        rng = np.random.default_rng(40)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = a @ a.conj().T
        res = psd_verdict(m)
        assert res.ok and bool(res) is True
        assert res.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-10)
        assert res.hermitian_defect <= 1e-10
        residual = np.linalg.norm(m @ res.witness - res.min_eigenvalue * res.witness)
        assert residual <= 1e-10

    def test_negative_eigenvalue_fails_with_a_witness(self):
        m = np.array([[-1.0, 1.0], [1.0, -1.0]])  # eigenvalues -2 and 0
        res = psd_verdict(m)
        assert not res.ok and bool(res) is False
        assert res.min_eigenvalue == pytest.approx(-2.0, abs=1e-12)
        assert res.hermitian_defect == 0.0
        assert np.allclose(m @ res.witness, -2 * res.witness, atol=1e-12)

    def test_hermitian_defect_above_tol_fails_with_nan_and_no_witness(self):
        m = np.array([[1.0, 1e-3], [0.0, 1.0]])
        res = psd_verdict(m)
        assert not res.ok
        assert np.isnan(res.min_eigenvalue)
        assert res.hermitian_defect == 1e-3
        assert res.witness is None
        # the same matrix passes once tol covers its defect
        assert psd_verdict(m, tol=1e-2).ok

    def test_is_positive_type_reports_the_deciding_blocks_verdict(self):
        n = 3
        g = pair_groupoid(n)
        rng = np.random.default_rng(41)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = a @ a.conj().T
        phi = AlgebraElement(g, [h[j, k] for j in range(n) for k in range(n)])
        res = is_positive_type(phi)
        expected = psd_verdict(res.block)
        assert res.ok == expected.ok
        assert res.min_eigenvalue == expected.min_eigenvalue
        assert res.hermitian_defect == expected.hermitian_defect
        assert np.array_equal(res.witness, expected.witness)


class TestPositiveType:
    def test_units_indicator_positive(self):
        g = pair_groupoid(3)
        res = is_positive_type(AlgebraElement.units_indicator(g))
        assert res.ok

    def test_constant_one_positive(self):
        # blocks are all-ones matrices: Gram matrices of identical vectors
        for n in (2, 3, 4):
            g = pair_groupoid(n)
            res = is_positive_type(AlgebraElement.constant(g, 1))
            assert res.ok

    def test_explicit_negative_example(self):
        n = 2
        g = pair_groupoid(n)
        phi = (
            delta(g, n, 0, 1)
            + delta(g, n, 1, 0)
            - delta(g, n, 0, 0)
            - delta(g, n, 1, 1)
        )
        res = is_positive_type(phi)
        assert not res.ok
        # oracle: the block is [[-1, 1], [1, -1]] with eigenvalues {0, -2}
        assert abs(res.min_eigenvalue + 2) < 1e-10
        assert res.witness is not None

    def test_non_hermitian_rejected(self):
        n = 2
        g = pair_groupoid(n)
        res = is_positive_type(delta(g, n, 0, 1))
        assert not res.ok
        assert res.hermitian_defect > 0

    def test_matches_numpy_psd_oracle(self):
        n = 3
        g = pair_groupoid(n)
        rng = np.random.default_rng(8)
        for _ in range(25):
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (h + h.conj().T) / 2
            phi = AlgebraElement(g, [h[j, k] for j in range(n) for k in range(n)])
            verdict = is_positive_type(phi).ok
            oracle = np.linalg.eigvalsh(h)[0] >= -1e-10
            assert verdict == oracle


class TestStates:
    def test_unit_atom_state_evaluates_at_unit(self):
        n = 3
        g = pair_groupoid(n)
        m = GroupoidMeasure.counting(g)
        xi = AlgebraElement.delta(g, g.unit(1))
        rng = np.random.default_rng(9)
        f = random_element(g, rng)
        assert abs(evaluate_state([xi], f, m) - f.values[g.unit(1)]) < 1e-12

    def test_unit_element_expectation_is_one(self):
        g = pair_groupoid(3)
        m = GroupoidMeasure.counting(g)
        rng = np.random.default_rng(10)
        raw = [random_element(g, rng) for _ in range(2)]
        total = sum(norm_sq(x, m) for x in raw)
        xis = [x * (1 / np.sqrt(float(total))) for x in raw]
        chi = AlgebraElement.units_indicator(g)
        assert abs(evaluate_state(xis, chi, m) - 1) < 1e-10

    def test_normalization_enforced(self):
        g = pair_groupoid(2)
        m = GroupoidMeasure.counting(g)
        xi = AlgebraElement.delta(g, 0) * 2
        with pytest.raises(NormalizationError):
            evaluate_state([xi], AlgebraElement.units_indicator(g), m)

    def test_positivity_of_f_star_f(self):
        g = pair_groupoid(3)
        for m in (GroupoidMeasure.counting(g), weighted_pair_measure(g, W124)):
            rng = np.random.default_rng(11)
            xi = random_element(g, rng)
            xi = xi * (1 / np.sqrt(float(norm_sq(xi, m))))
            for _ in range(50):
                f = random_element(g, rng)
                val = evaluate_state([xi], convolve(involute(f, m), f, m), m)
                assert complex(val).real > -1e-10
                assert abs(complex(val).imag) < 1e-10

    def test_state_functions_are_positive_type_counting(self):
        # ω(δ_α) defines a positive-type function (checked for unimodular
        # measures; non-unimodular measures break the Eq-form symmetry)
        for g in (pair_groupoid(2), pair_groupoid(3), direct_product(pair_groupoid(2), pair_groupoid(2))):
            m = GroupoidMeasure.counting(g)
            rng = np.random.default_rng(12)
            raw = [random_element(g, rng) for _ in range(2)]
            total = sum(norm_sq(x, m) for x in raw)
            xis = [x * (1 / np.sqrt(float(total))) for x in raw]
            phi = state_function(xis, m)
            assert is_positive_type(phi).ok
            assert abs(state_normalization(phi, m) - 1) < 1e-10

    def test_inner_product_conventions(self):
        g = pair_groupoid(2)
        m = weighted_pair_measure(g, (1, 2))
        rng = np.random.default_rng(13)
        a, b = random_element(g, rng), random_element(g, rng)
        assert abs(inner(a, b, m) - complex(inner(b, a, m)).conjugate()) < 1e-12
        assert complex(inner(a, a, m)).real > 0

    def test_state_function_class(self):
        n = 2
        g = pair_groupoid(n)
        m = GroupoidMeasure.counting(g)
        # a trace-one PSD matrix read as a function is a state
        good = AlgebraElement(g, [0.5, 0.25, 0.25, 0.5])
        state = StateFunction(good, m)
        assert state.function is good
        # not positive-type is rejected
        bad = AlgebraElement(g, [-1, 1, 1, -1])
        with pytest.raises(Exception):
            StateFunction(bad, m)
        # positive-type but not normalized is rejected
        unnorm = AlgebraElement(g, [1, 0, 0, 1])
        with pytest.raises(NormalizationError):
            StateFunction(unnorm, m)
        assert abs(state_normalization(unnorm, m) - 2) < 1e-12


def disjoint_pair_groupoids(*sizes):
    """Disjoint union of pair groupoids; component c has sizes[c] objects, so
    source fibers have different sizes across components."""
    source, target, inverse, units, compose = [], [], [], [], {}
    obj = mor = 0
    for n in sizes:
        for j in range(n):
            for k in range(n):
                source.append(obj + k)
                target.append(obj + j)
                inverse.append(mor + k * n + j)
        units += [mor + x * n + x for x in range(n)]
        for z in range(n):
            for y in range(n):
                for x in range(n):
                    compose[(mor + z * n + y, mor + y * n + x)] = mor + z * n + x
        obj += n
        mor += n * n
    return FiniteGroupoid(obj, source, target, compose, inverse, units)


def function_from_blocks(g, blocks):
    """phi((j, k)) = blocks[c][j, k] on component c: every fiber block of
    component c is blocks[c]."""
    values = []
    for block in blocks:
        values += [complex(v) for v in np.asarray(block).ravel()]
    return AlgebraElement(g, values)


def psd(rng, n, shift=0.0):
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return b @ b.conj().T / n + shift * np.eye(n)


class TestPositiveTypeMixedFibers:
    """Fibers of sizes 3, 2, 1, 4, 2: the first failing block in object order
    decides, and a passing verdict reports the first block attaining the least
    eigenvalue."""

    SIZES = (3, 2, 1, 4, 2)

    def cases(self):
        rng = np.random.default_rng(41)
        good = [psd(rng, n, 0.1) for n in self.SIZES]
        least = min(range(5), key=lambda c: np.linalg.eigvalsh(good[c])[0])
        yield "all psd", good, (True, least)
        tie = [np.diag([0.5, 1, 2]), np.diag([3.0, 0.5]), [[0.7]], np.eye(4), np.diag([0.5, 9])]
        yield "tie", tie, (True, 0)
        negative = list(good)
        negative[3] = good[3] - 5 * np.eye(4)
        yield "negative", negative, (False, 3)
        later_defect = list(negative)
        later_defect[4] = good[4] + [[0, 1], [0, 0]]
        yield "negative before defect", later_defect, (False, 3)
        later_nan = list(negative)
        later_nan[4] = [[np.nan, 0], [0, 1]]
        yield "negative before nan", later_nan, (False, 3)
        earlier_defect = list(negative)
        earlier_defect[1] = good[1] + [[0, 0], [1j, 0]]
        yield "defect before negative", earlier_defect, (False, 1)
        two_negative = list(negative)
        # slightly negative, and first: it decides though block 3 is more negative
        two_negative[0] = good[0] - (np.linalg.eigvalsh(good[0])[0] + 0.01) * np.eye(3)
        yield "two negative", two_negative, (False, 0)

    def test_first_deciding_block_in_object_order(self):
        g = disjoint_pair_groupoids(*self.SIZES)
        first = np.concatenate([[0], np.cumsum(self.SIZES)[:-1]])
        for name, blocks, (ok, component) in self.cases():
            res = is_positive_type(function_from_blocks(g, blocks))
            block = np.asarray(blocks[component], dtype=complex)
            assert (res.ok, res.object_index) == (ok, first[component]), name
            assert res.fiber == g.source_fiber(first[component]), name
            assert np.array_equal(res.block, block), name
            if hermitian_defect(block) > 1e-10:
                assert res.hermitian_defect == hermitian_defect(block), name
                assert np.isnan(res.min_eigenvalue), name
            else:
                assert abs(res.min_eigenvalue - np.linalg.eigvalsh(block)[0]) < 1e-12, name
                residual = block @ res.witness - res.min_eigenvalue * res.witness
                assert np.linalg.norm(residual) < 1e-10, name

    def test_non_finite_block_reached_raises(self):
        g = disjoint_pair_groupoids(*self.SIZES)
        rng = np.random.default_rng(5)
        blocks = [psd(rng, n, 0.1) for n in self.SIZES]
        blocks[2] = [[np.inf]]
        # inf - inf in the Hermitian defect is NaN, which no tol rejects
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            is_positive_type(function_from_blocks(g, blocks))
