import json
from fractions import Fraction

import numpy as np
import pytest

from groupoidqm import (
    AlgebraElement,
    Channel,
    DimensionMismatchError,
    GroupoidError,
    GroupoidMeasure,
    KrausFamily,
    QClass,
    QuotientFunction,
    TooManyKrausError,
    apply,
    bisection_indicator,
    channel_from_a_matrix,
    channel_from_choi,
    channel_from_json,
    choi_kraus_decomposition,
    compose_channels,
    convolve,
    dsf_check,
    element_from_json,
    enumerate_quotient,
    extend_with_identity,
    flat_bisection_product,
    flat_bisections,
    fourier_channel,
    fourier_family,
    from_flat_bisection,
    from_kraus,
    identity_channel,
    involute,
    is_cp,
    is_flat_psd,
    is_positive_type,
    is_unital,
    kernel_positive_type,
    kraus_from_json,
    left_regular_matrix,
    pad_element,
    pair_groupoid,
    pair_index,
    positivity_falsifier,
    psd_verdict,
    q_horizontal_compose,
    q_horizontal_inverse,
    quotient_function_from_json,
    random_choi_hermitian_channel,
    random_kraus_channel,
    random_positive_type,
    shift_bisection,
    to_a_matrix,
    to_choi,
    tomogram,
    transpose_channel,
    zero_pad,
)


def delta(n, j, k):
    return AlgebraElement.delta(pair_groupoid(n), pair_index(n, j, k))


def to_matrix(psi, n):
    return np.array(
        [[complex(psi.values[a * n + b]) for b in range(n)] for a in range(n)]
    )


def from_matrix(mat, n):
    g = pair_groupoid(n)
    return AlgebraElement(g, [mat[a, b] for a in range(n) for b in range(n)])


class TestApply:
    def test_identity_channel(self):
        n = 3
        ch = identity_channel(n)
        rng = np.random.default_rng(0)
        psi = from_matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), n)
        assert apply(ch, psi).allclose(psi)
        assert is_unital(ch)

    def test_basis_kernel_action(self):
        n = 3
        l, j, k, m = 1, 2, 0, 2
        ch = Channel(QuotientFunction.delta(n, QClass(l, j, k, m)))
        out = apply(ch, delta(n, j, k))
        assert out == delta(n, l, m)
        for r in range(n):
            for s in range(n):
                if (r, s) != (j, k):
                    assert apply(ch, delta(n, r, s)) == AlgebraElement.zeros(
                        pair_groupoid(n)
                    )

    def test_basis_kernel_is_left_right_convolution(self):
        # δ_Γ acting by ⋆_S equals ψ -> δ_(l,j) ⋆ ψ ⋆ δ*_(m,k)
        n = 2
        g = pair_groupoid(n)
        meas = GroupoidMeasure.counting(g)
        rng = np.random.default_rng(1)
        psi = from_matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), n)
        for q in ((0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1)):
            l, j, k, m = q
            ch = Channel(QuotientFunction.delta(n, QClass(l, j, k, m)))
            lhs = apply(ch, psi)
            rhs = convolve(
                convolve(delta(n, l, j), psi, meas),
                involute(delta(n, m, k), meas),
                meas,
            )
            assert lhs.allclose(rhs)

    def test_a_matrix_reproduces_apply(self):
        n = 3
        rng = np.random.default_rng(2)
        ch = random_kraus_channel(n, rng)
        a = to_a_matrix(ch).matrix
        for r in range(n):
            for s in range(n):
                psi = delta(n, r, s)
                out_vec = a @ np.array([complex(v) for v in psi.values])
                out = apply(ch, psi)
                assert np.allclose(out_vec, [complex(v) for v in out.values], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(identity_channel(2), delta(3, 0, 0))


class TestKraus:
    def test_single_unit_is_identity(self):
        n = 2
        g = pair_groupoid(n)
        ks = KrausFamily(n, [AlgebraElement.units_indicator(g)])
        ch = from_kraus(ks)
        rng = np.random.default_rng(3)
        psi = from_matrix(rng.normal(size=(n, n)), n)
        assert apply(ch, psi).allclose(psi)
        assert is_unital(ks)

    def test_too_many_members(self):
        n = 2
        g = pair_groupoid(n)
        with pytest.raises(TooManyKrausError):
            KrausFamily(n, [AlgebraElement.units_indicator(g)] * 5)

    def test_kraus_action_matches_matrix_oracle(self):
        n = 3
        rng = np.random.default_rng(4)
        g = pair_groupoid(n)
        members = [
            AlgebraElement(g, list(rng.normal(size=9) + 1j * rng.normal(size=9)))
            for _ in range(2)
        ]
        ch = from_kraus(KrausFamily(n, members))
        psi = from_matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), n)
        vs = [to_matrix(v, n) for v in members]
        expected = sum(v @ to_matrix(psi, n) @ v.conj().T for v in vs)
        assert np.allclose(to_matrix(apply(ch, psi), n), expected, atol=1e-12)

    def test_random_kraus_channels_are_cp(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ch = random_kraus_channel(2, rng, members=2)
            assert is_cp(ch).ok

    def test_kraus_choi_round_trip(self):
        n = 2
        rng = np.random.default_rng(6)
        ch = random_kraus_channel(n, rng)
        rebuilt = from_kraus(choi_kraus_decomposition(ch))
        for r in range(n):
            for s in range(n):
                a = apply(ch, delta(n, r, s))
                b = apply(rebuilt, delta(n, r, s))
                assert a.allclose(b, 1e-10)

    def test_kraus_json_round_trip(self):
        fam = fourier_family(3)
        data = json.loads(json.dumps(fam.to_json()))
        fam2 = kraus_from_json(data)
        assert all(
            v1.allclose(v2, 1e-15) for v1, v2 in zip(fam.members, fam2.members)
        )


class TestMatrixRepresentations:
    def test_identity_choi_is_maximally_entangled(self):
        n = 2
        choi = to_choi(identity_channel(n)).matrix
        # rank-one projector onto Σ_l e_l ⊗ e_l, entries Choi[(l,l),(m,m)] = 1
        expected = np.zeros((4, 4))
        for l in range(n):
            for m in range(n):
                expected[l * n + l, m * n + m] = 1
        assert np.array_equal(choi, expected)
        w = np.linalg.eigvalsh(choi)
        assert np.sum(np.abs(w) > 1e-12) == 1

    def test_transpose_choi_is_swap(self):
        n = 2
        choi = to_choi(transpose_channel(n)).matrix
        swap = np.zeros((4, 4))
        for a in range(n):
            for b in range(n):
                swap[a * n + b, b * n + a] = 1
        assert np.array_equal(choi, swap)
        w = np.linalg.eigvalsh(choi)
        assert np.allclose(sorted(w), [-1, 1, 1, 1], atol=1e-12)

    def test_round_trips_exact(self):
        n = 3
        rng = np.random.default_rng(7)
        ch = Channel(
            QuotientFunction(n, list(rng.normal(size=81) + 1j * rng.normal(size=81)))
        )
        assert channel_from_a_matrix(to_a_matrix(ch)).kernel == ch.kernel
        assert channel_from_choi(to_choi(ch)).kernel == ch.kernel

    def test_a_and_b_share_entries_choi_reshuffles(self):
        n = 2
        rng = np.random.default_rng(8)
        ch = Channel(
            QuotientFunction(n, list(rng.normal(size=16) + 1j * rng.normal(size=16)))
        )
        a = to_a_matrix(ch).matrix
        choi = to_choi(ch).matrix
        for l in range(n):
            for j in range(n):
                for k in range(n):
                    for m in range(n):
                        # B[(l,m),(j,k)] = f((l,j),(k,m)) is the A matrix
                        assert a[l * n + m, j * n + k] == ch.kernel.get(l, j, k, m)
                        assert choi[l * n + j, m * n + k] == a[l * n + m, j * n + k]

    def test_transpose_action(self):
        n = 3
        rng = np.random.default_rng(9)
        psi = from_matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), n)
        out = apply(transpose_channel(n), psi)
        assert np.allclose(to_matrix(out, n), to_matrix(psi, n).T)


class TestPositivity:
    def test_cp_verdicts(self):
        assert is_cp(identity_channel(2)).ok
        res = is_cp(transpose_channel(2))
        assert not res.ok
        assert abs(res.min_eigenvalue + 1) < 1e-10
        assert res.witness is not None

    def test_flat_psd_matches_cp_on_hermitian_kernels(self):
        rng = np.random.default_rng(10)
        for n in (2, 3):
            for _ in range(25):
                ch = random_choi_hermitian_channel(n, rng, psd=bool(rng.integers(2)))
                assert is_cp(ch).ok == is_flat_psd(ch).ok

    def test_flat_psd_gram_block_is_choi(self):
        # each horizontal-compatibility block reproduces the Choi form
        n = 2
        rng = np.random.default_rng(11)
        ch = random_choi_hermitian_channel(n, rng)
        res_flat = is_flat_psd(ch)
        res_cp = is_cp(ch)
        assert abs(res_flat.min_eigenvalue - res_cp.min_eigenvalue) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_flat_gram_block_is_the_reshaped_kernel(self, n):
        # G[j, k] = f(Γ_j ∘_H Γ_k^{-H}) over the classes sharing (x, w), built
        # from the composition itself, is the same matrix for every (x, w)
        rng = np.random.default_rng(30 + n)
        kernels = [random_kraus_channel(n, rng).kernel, random_choi_hermitian_channel(n, rng).kernel]
        for kernel in kernels:
            reshaped = (
                np.array(kernel.values).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
            )
            classes = enumerate_quotient(n)
            for x in range(n):
                for w in range(n):
                    group = [q for q in classes if q.x == x and q.w == w]
                    gram = np.array(
                        [
                            [kernel[q_horizontal_compose(qj, q_horizontal_inverse(qk))] for qk in group]
                            for qj in group
                        ]
                    )
                    assert np.array_equal(gram, reshaped)
            assert np.array_equal(reshaped, to_choi(Channel(kernel)).matrix)

    def test_flat_psd_failure_reports_block_and_witness(self):
        res = is_flat_psd(transpose_channel(3))
        assert not res.ok
        assert abs(res.min_eigenvalue + 1) < 1e-10
        swap = to_choi(transpose_channel(3)).matrix
        assert np.allclose(swap @ res.witness, -res.witness, atol=1e-10)

    def test_flat_psd_hermitian_defect(self):
        kernel = QuotientFunction.zeros(2)
        kernel.values[1] = 1.0  # f((0,0),(0,1)) with no conjugate partner
        res = is_flat_psd(Channel(kernel))
        assert not res.ok
        assert res.hermitian_defect == 1.0

    def test_verdicts_are_psd_verdict_on_choi_and_a(self):
        rng = np.random.default_rng(12)
        non_hermitian = QuotientFunction.zeros(2)
        non_hermitian.values[1] = 1.0
        channels = [
            identity_channel(2),
            transpose_channel(3),
            random_kraus_channel(2, rng),
            random_choi_hermitian_channel(3, rng),
            Channel(non_hermitian),
        ]
        for ch in channels:
            expected = psd_verdict(to_choi(ch).matrix)
            for res in (is_cp(ch), is_flat_psd(ch)):
                assert res.ok == expected.ok
                assert res.hermitian_defect == expected.hermitian_defect
                assert np.array_equal(res.min_eigenvalue, expected.min_eigenvalue, equal_nan=True)
                if expected.witness is None:
                    assert res.witness is None
                else:
                    assert np.array_equal(res.witness, expected.witness)
            a_verdict = psd_verdict(to_a_matrix(ch).matrix)
            ok, min_eig = kernel_positive_type(ch)
            assert ok == a_verdict.ok
            assert np.array_equal(min_eig, a_verdict.min_eigenvalue, equal_nan=True)

    def test_choi_kraus_decomposition_rejects_non_hermitian_choi(self):
        kernel = QuotientFunction.zeros(2)
        kernel.values[1] = 1.0
        with pytest.raises(GroupoidError, match=r"defect 1\.000e\+00, min eigenvalue nan"):
            choi_kraus_decomposition(Channel(kernel))

    def test_choi_kraus_decomposition_rejects_non_psd_choi(self):
        with pytest.raises(GroupoidError, match=r"defect 0\.000e\+00, min eigenvalue -1\.000e\+00"):
            choi_kraus_decomposition(transpose_channel(2))

    def test_bisection_channels_cp_unital(self):
        for b in flat_bisections(3):
            ch = from_flat_bisection(b)
            assert is_cp(ch).ok
            assert is_flat_psd(ch).ok
            assert is_unital(ch)

    def test_unital_examples(self):
        n = 2
        g = pair_groupoid(n)
        half = KrausFamily(n, [AlgebraElement.units_indicator(g) * 0.5])
        assert not is_unital(half)
        assert is_unital(fourier_family(3))

    def test_cp_channels_preserve_positive_type(self):
        rng = np.random.default_rng(12)
        n = 3
        for _ in range(10):
            ch = random_kraus_channel(n, rng)
            psi = random_positive_type(n, rng)
            out = apply(ch, psi)
            assert is_positive_type(out).ok

    def test_falsifier_on_transpose(self):
        wit = positivity_falsifier(transpose_channel(2), trials=50, seed=99, ancilla=2)
        assert wit is not None
        assert wit.min_eigenvalue < -1e-10
        # confirm the witness honestly: positive-type in, not positive-type out
        assert is_positive_type(wit.state).ok
        assert not is_positive_type(wit.output).ok

    def test_falsifier_transpose_without_ancilla_finds_nothing(self):
        assert positivity_falsifier(transpose_channel(2), trials=50, seed=99) is None

    def test_falsifier_on_cp_channel_finds_nothing(self):
        rng = np.random.default_rng(13)
        ch = random_kraus_channel(2, rng, members=2)
        assert positivity_falsifier(ch, trials=100, seed=5, ancilla=2) is None

    def test_falsifier_deterministic(self):
        w1 = positivity_falsifier(transpose_channel(2), trials=20, seed=123, ancilla=2)
        w2 = positivity_falsifier(transpose_channel(2), trials=20, seed=123, ancilla=2)
        assert w1.trial == w2.trial
        assert w1.state.values == w2.state.values


class TestBisectionChannels:
    def test_shift_conjugation_oracle(self):
        n = 3
        b = shift_bisection(n)
        ch = from_flat_bisection(b)
        u = np.zeros((n, n))
        for j in range(n):
            u[(j + 1) % n, j] = 1
        rng = np.random.default_rng(14)
        psi = from_matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), n)
        assert np.allclose(
            to_matrix(apply(ch, psi), n), u @ to_matrix(psi, n) @ u.conj().T
        )
        assert apply(ch, delta(n, 0, 1)) == delta(n, 1, 2)

    def test_shift_preserves_units_indicator(self):
        n = 3
        g = pair_groupoid(n)
        chi = AlgebraElement.units_indicator(g)
        assert apply(from_flat_bisection(shift_bisection(n)), chi) == chi

    def test_bisection_indicator_unitary(self):
        n = 3
        g = pair_groupoid(n)
        meas = GroupoidMeasure.counting(g)
        chi = bisection_indicator(shift_bisection(n))
        prod = convolve(chi, involute(chi, meas), meas)
        assert prod == AlgebraElement.units_indicator(g)
        assert np.allclose(
            left_regular_matrix(chi, meas) @ left_regular_matrix(chi, meas).conj().T,
            np.eye(9),
        )

    def test_functor_composition_law(self):
        n = 3
        bs = flat_bisections(n)
        basis = [delta(n, r, s) for r in range(n) for s in range(n)]
        for b1 in bs:
            for b2 in bs:
                ch12 = compose_channels(from_flat_bisection(b1), from_flat_bisection(b2))
                direct = from_flat_bisection(flat_bisection_product(b1, b2))
                for psi in basis:
                    assert apply(ch12, psi).allclose(apply(direct, psi), 1e-12)

    def test_bisection_channels_preserve_positive_type(self):
        # pullback positivity: the functor channel maps positive-type
        # functions to positive-type functions
        n = 3
        rng = np.random.default_rng(21)
        for b in flat_bisections(n):
            ch = from_flat_bisection(b)
            for _ in range(5):
                phi = random_positive_type(n, rng)
                assert is_positive_type(apply(ch, phi)).ok

    def test_bisection_channels_are_star_automorphisms(self):
        n = 3
        g = pair_groupoid(n)
        meas = GroupoidMeasure.counting(g)
        ch = from_flat_bisection(shift_bisection(n))
        rng = np.random.default_rng(15)
        for _ in range(10):
            f1 = from_matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), n)
            f2 = from_matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), n)
            lhs = apply(ch, convolve(f1, f2, meas))
            rhs = convolve(apply(ch, f1), apply(ch, f2), meas)
            assert lhs.allclose(rhs, 1e-12)
            assert apply(ch, involute(f1, meas)).allclose(
                involute(apply(ch, f1), meas), 1e-12
            )


class TestFourier:
    def test_family_members_are_dsf(self):
        for n in (2, 3, 4):
            for v in fourier_family(n).members:
                assert dsf_check(v)

    def test_units_indicator_is_dsf_but_hop_is_not(self):
        n = 3
        g = pair_groupoid(n)
        assert dsf_check(AlgebraElement.units_indicator(g))
        assert not dsf_check(delta(n, 0, 1))

    def test_unitality_three_sums(self):
        n = 3
        g = pair_groupoid(n)
        meas = GroupoidMeasure.counting(g)
        chi = AlgebraElement.units_indicator(g)
        fam = fourier_family(n)
        s_v = AlgebraElement.zeros(g)
        s_vv = AlgebraElement.zeros(g)
        s_vvs = AlgebraElement.zeros(g)
        for v in fam.members:
            s_v = s_v + v
            s_vv = s_vv + convolve(v, v, meas)
            s_vvs = s_vvs + convolve(v, involute(v, meas), meas)
        for total in (s_v, s_vv, s_vvs):
            assert total.allclose(chi, 1e-12)

    def test_decoheres_diagonal_input(self):
        n = 3
        ch = fourier_channel(n)
        out = apply(ch, delta(n, 0, 0))
        expected = sum(
            (delta(n, j, j) for j in range(1, n)), delta(n, 0, 0)
        ) * (1 / n)
        assert out.allclose(expected, 1e-12)

    def test_closed_form_on_all_basis_states(self):
        n = 3
        ch = fourier_channel(n)
        for r in range(n):
            for s in range(n):
                out = apply(ch, delta(n, r, s))
                for p in range(n):
                    for m in range(n):
                        expected = (1 / n) if (p - m) % n == (r - s) % n else 0
                        assert abs(out.values[p * n + m] - expected) < 1e-12

    def test_tomogram_values(self):
        n = 3
        assert np.allclose(tomogram(delta(n, 0, 0), n), [1 / 3] * 3, atol=1e-12)
        g = pair_groupoid(n)
        chi_over_n = AlgebraElement.units_indicator(g) * (1 / n)
        assert abs(sum(tomogram(chi_over_n, n)) - 1) < 1e-12

    def test_channel_output_is_tomogram_expansion(self):
        n = 4
        ch = fourier_channel(n)
        rng = np.random.default_rng(16)
        psi = random_positive_type(n, rng)
        out = apply(ch, psi)
        toms = tomogram(psi, n)
        expected = np.zeros((n, n), dtype=complex)
        for l in range(n):
            for p in range(n):
                for m in range(n):
                    expected[p, m] += toms[l] * np.exp(2j * np.pi * l * (p - m) / n) / n
        assert np.allclose(to_matrix(out, n), expected, atol=1e-12)

    def test_idempotent(self):
        n = 3
        ch = fourier_channel(n)
        rng = np.random.default_rng(17)
        psi = random_positive_type(n, rng)
        once = apply(ch, psi)
        assert once.allclose(apply(ch, once), 1e-12)

    def test_is_cp_flat_psd_and_kernel_positive_type(self):
        ch = fourier_channel(3)
        assert is_cp(ch).ok
        assert is_flat_psd(ch).ok
        ok, min_eig = kernel_positive_type(ch)
        assert ok and min_eig > -1e-10

    def test_generic_kraus_kernel_not_positive_type(self):
        # single non-hermitian Kraus member: flat-PSD holds, positive-type fails
        n = 2
        g = pair_groupoid(n)
        ch = from_kraus(KrausFamily(n, [delta(n, 0, 1)]))
        assert is_flat_psd(ch).ok
        ok, _ = kernel_positive_type(ch)
        assert not ok


class TestPaddingAndExtension:
    def test_zero_pad_acts_as_corner(self):
        small = identity_channel(2)
        big = zero_pad(small, 3)
        psi = delta(3, 0, 1)
        assert apply(big, psi) == psi
        # anything touching the padded index dies
        assert apply(big, delta(3, 2, 2)) == AlgebraElement.zeros(pair_groupoid(3))

    def test_pad_element(self):
        psi = delta(2, 1, 0)
        padded = pad_element(psi, 3)
        assert padded == delta(3, 1, 0)

    def test_extend_with_identity_blocks(self):
        # id_2 ⊗ K applied to a product state acts as K on the second factor
        n, M = 2, 2
        rng = np.random.default_rng(18)
        ch = random_kraus_channel(n, rng)
        big = extend_with_identity(ch, M)
        rho_a = np.array([[0.25, 0.1], [0.1, 0.75]])
        sig = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        product_in = from_matrix(np.kron(rho_a, sig), M * n)
        out = to_matrix(apply(big, product_in), M * n)
        k_sig = to_matrix(apply(ch, from_matrix(sig, n)), n)
        assert np.allclose(out, np.kron(rho_a, k_sig), atol=1e-12)

    def test_extension_preserves_cp(self):
        rng = np.random.default_rng(19)
        ch = random_kraus_channel(2, rng)
        assert is_cp(extend_with_identity(ch, 2)).ok


def exact(values):
    return all(type(v) in (int, Fraction) for v in values)


class TestExactPath:
    """Integer and Fraction inputs give exact outputs, equal to the formulas."""

    def family(self, n):
        rng = np.random.default_rng(23)
        g = pair_groupoid(n)
        ints = AlgebraElement(g, [int(v) for v in rng.integers(-3, 4, size=n * n)])
        fracs = AlgebraElement(
            g, [Fraction(int(p), int(q)) for p, q in rng.integers(1, 9, size=(n * n, 2))]
        )
        return KrausFamily(n, [ints, fracs])

    def test_from_kraus(self):
        n = 3
        fam = self.family(n)
        kernel = from_kraus(fam).kernel
        assert exact(kernel.values)
        for q in enumerate_quotient(n):
            assert kernel[q] == sum(
                v.values[q.z * n + q.y] * v.values[q.w * n + q.x] for v in fam.members
            )
        ints_only = from_kraus(KrausFamily(n, fam.members[:1])).kernel
        assert all(type(v) is int for v in ints_only.values)
        assert all(type(v) is int for v in from_kraus(KrausFamily(n, [])).kernel.values)

    def test_apply(self):
        n = 3
        ch = from_kraus(self.family(n))
        psi = AlgebraElement(pair_groupoid(n), [Fraction(1, 1 + a) for a in range(n * n)])
        out = apply(ch, psi)
        assert exact(out.values)
        for l in range(n):
            for m in range(n):
                assert out.values[l * n + m] == sum(
                    ch.kernel.get(l, r, s, m) * psi.values[r * n + s]
                    for r in range(n)
                    for s in range(n)
                )
        assert apply(from_flat_bisection(shift_bisection(n)), delta(n, 0, 1)) == delta(n, 1, 2)

    def test_extend_with_identity_and_zero_pad(self):
        n, M = 2, 3
        ch = from_kraus(self.family(n))
        big = extend_with_identity(ch, M).kernel
        assert exact(big.values)
        for q in enumerate_quotient(M * n):
            (a, l), (a2, j), (b, k), (b2, m) = (divmod(i, n) for i in q)
            want = ch.kernel.get(l, j, k, m) if (a, b) == (a2, b2) else 0
            assert big[q] == want
        padded = zero_pad(ch, 3).kernel
        assert exact(padded.values)
        for q in enumerate_quotient(3):
            assert padded[q] == (ch.kernel[q] if max(q) < n else 0)


def test_channel_json_round_trip():
    rng = np.random.default_rng(20)
    ch = random_kraus_channel(2, rng)
    data = json.loads(json.dumps(ch.to_json()))
    ch2 = channel_from_json(data)
    assert ch.kernel.allclose(ch2.kernel, 1e-15)


class TestInputContract:
    def test_quotient_function_wrong_length(self):
        with pytest.raises(GroupoidError):
            quotient_function_from_json({"n": 2, "values": [[0, 0]] * 15})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_quotient_function_non_finite(self, bad):
        values = [[0.0, 0.0]] * 16
        values[3] = [0.0, bad]
        with pytest.raises(GroupoidError):
            quotient_function_from_json({"n": 2, "values": values})

    @pytest.mark.parametrize("n", [0, -1, 1.5, "2", True, None])
    def test_quotient_function_bad_n(self, n):
        with pytest.raises(GroupoidError):
            quotient_function_from_json({"n": n, "values": [[0, 0]] * 16})

    def test_element_wrong_length_and_non_finite(self):
        g = pair_groupoid(2)
        with pytest.raises(GroupoidError):
            element_from_json({"values": [[1, 0]] * 3}, g)
        with pytest.raises(GroupoidError):
            element_from_json({"values": [[1, 0]] * 3 + [[float("nan"), 0]]}, g)

    def test_kraus_wrong_length_and_non_finite(self):
        good = {"values": [[1, 0], [0, 0], [0, 0], [1, 0]]}
        assert len(kraus_from_json({"n": 2, "members": [good]}).members) == 1
        with pytest.raises(GroupoidError):
            kraus_from_json({"n": 2, "members": [{"values": [[1, 0]] * 5}]})
        with pytest.raises(GroupoidError):
            kraus_from_json({"n": 2, "members": [{"values": [[float("inf"), 0]] * 4}]})
        with pytest.raises(GroupoidError):
            kraus_from_json({"n": "2", "members": [good]})
        with pytest.raises(GroupoidError):
            kraus_from_json({"n": 2, "members": 7})
