import numpy as np
import pytest

from groupoidqm import hermitian_defect, hermitian_eigh, min_eigenvalue


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12])
def test_matches_lapack_eigenvalues(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        a = random_hermitian(rng, n)
        w, v = hermitian_eigh(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_ref, atol=1e-10)


def test_eigenvector_residuals_and_orthonormality():
    rng = np.random.default_rng(7)
    for n in (2, 4, 9):
        a = random_hermitian(rng, n)
        w, v = hermitian_eigh(a)
        assert np.linalg.norm(a @ v - v * w) < 1e-9
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < 1e-10


def test_real_symmetric_input():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    a = (a + a.T) / 2
    w, _ = hermitian_eigh(a)
    assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-10)


def test_psd_gram_matrix_nonnegative():
    rng = np.random.default_rng(13)
    b = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    gram = b @ b.conj().T  # rank <= 4, so two zero eigenvalues
    w, _ = hermitian_eigh(gram)
    assert w[0] > -1e-10
    assert np.sum(np.abs(w) < 1e-9) == 2


def test_diagonal_and_identity():
    w, v = hermitian_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    w, v = hermitian_eigh(np.eye(4))
    assert np.allclose(w, 1.0)


def test_min_eigenvalue_swap_matrix():
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[a * 2 + b, b * 2 + a] = 1
    assert abs(min_eigenvalue(swap) + 1) < 1e-12


def test_hermitian_defect():
    assert hermitian_defect(np.eye(3)) == 0
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    assert abs(hermitian_defect(m) - 1) < 1e-15


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        hermitian_eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="expected a square matrix"):
        hermitian_defect(np.ones((2, 3)))


def test_empty_matrix():
    assert min_eigenvalue(np.zeros((0, 0))) == np.inf
    assert hermitian_defect(np.zeros((0, 0))) == 0.0


def test_input_is_left_unchanged():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    before = a.copy()
    w, v = hermitian_eigh(a)
    assert np.array_equal(a, before) and np.allclose(w, [1.0, 3.0])


def test_degenerate_spectrum():
    # projector with a 3-fold degenerate zero eigenvalue
    v = np.array([1, 1j, -1, 2]) / np.sqrt(7)
    p = np.outer(v, v.conj())
    w, _ = hermitian_eigh(p)
    assert np.allclose(sorted(w), [0, 0, 0, 1], atol=1e-12)


STACK_SIZES = [1, 2, 3, 5, 9, 16, 25]


def random_stack(rng, b, n):
    a = rng.normal(size=(b, n, n)) + 1j * rng.normal(size=(b, n, n))
    return (a + a.conj().swapaxes(1, 2)) / 2


@pytest.mark.parametrize("n", STACK_SIZES)
def test_stack_matches_lapack_eigenvalues(n):
    rng = np.random.default_rng(200 + n)
    stack = random_stack(rng, 4, n)
    w, v = hermitian_eigh(stack)
    assert w.shape == (4, n) and v.shape == (4, n, n)
    assert np.allclose(w, np.linalg.eigvalsh(stack), atol=1e-10)
    assert np.all(np.diff(w, axis=1) >= 0)


@pytest.mark.parametrize("n", STACK_SIZES)
def test_stack_residuals_and_orthonormality(n):
    rng = np.random.default_rng(300 + n)
    stack = random_stack(rng, 3, n)
    w, v = hermitian_eigh(stack)
    for a, wi, vi in zip(stack, w, v):
        assert np.linalg.norm(a @ vi - vi * wi) < 1e-12 * n * max(1.0, np.abs(a).max())
        assert np.linalg.norm(vi.conj().T @ vi - np.eye(n)) < 1e-12 * n


@pytest.mark.parametrize("n", STACK_SIZES)
def test_stack_entries_match_single_calls(n):
    rng = np.random.default_rng(400 + n)
    # mixes an already diagonal matrix with dense ones
    stack = random_stack(rng, 3, n)
    stack[1] = np.diag(rng.normal(size=n))
    w, v = hermitian_eigh(stack)
    for a, wi, vi in zip(stack, w, v):
        w1, v1 = hermitian_eigh(a)
        assert np.allclose(wi, w1, rtol=0, atol=1e-12)
        assert np.allclose(np.abs(vi.conj().T @ v1), np.eye(n), atol=1e-8)
    assert np.array_equal(w[1], np.sort(np.diag(stack[1]).real))


def test_empty_stack():
    w, v = hermitian_eigh(np.zeros((0, 4, 4)))
    assert w.shape == (0, 4) and v.shape == (0, 4, 4)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_zero_matrix(n):
    w, v = hermitian_eigh(np.zeros((n, n)))
    assert np.array_equal(w, np.zeros(n))
    assert np.array_equal(v, np.eye(n))


@pytest.mark.parametrize("n", [3, 6, 9])
def test_degenerate_spectrum_stacked(n):
    # Haar-ish unitary conjugates of diag(1, 1, ..., 0, 0, ...) and of -I
    rng = np.random.default_rng(500 + n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    spec = np.array([0.0] * (n // 2) + [1.0] * (n - n // 2))
    stack = np.stack([q @ np.diag(spec) @ q.conj().T, -np.eye(n)])
    w, v = hermitian_eigh(stack)
    assert np.allclose(w[0], spec, atol=1e-12)
    assert np.array_equal(w[1], -np.ones(n))
    assert np.linalg.norm(stack[0] @ v[0] - v[0] * w[0]) < 1e-12


@pytest.mark.parametrize("n", [4, 9, 16])
def test_rank_deficient_psd_gram(n):
    rng = np.random.default_rng(600 + n)
    rank = n // 2
    b = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    gram = b @ b.conj().T
    w, _ = hermitian_eigh(gram)
    scale = np.abs(gram).max()
    assert np.all(np.abs(w[: n - rank]) < 1e-12 * n * scale)
    assert np.allclose(w[n - rank :], np.linalg.eigvalsh(gram)[n - rank :], rtol=1e-12)


@pytest.mark.parametrize("factor", [1e-200, 1e-12, 1e12, 1e200])
@pytest.mark.parametrize("n", [3, 9, 16])
def test_scaled_inputs(n, factor):
    rng = np.random.default_rng(700 + n)
    a = random_hermitian(rng, n)
    w, v = hermitian_eigh(a)
    ws, vs = hermitian_eigh(factor * a)
    assert np.allclose(ws / factor, w, rtol=0, atol=1e-12 * n)
    assert np.allclose(ws / factor, np.linalg.eigvalsh(a), atol=1e-12 * n)
    assert np.linalg.norm(a @ vs - vs * (ws / factor)) < 1e-12 * n


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_rejects_non_finite(bad):
    a = np.eye(3, dtype=complex)
    a[0, 1] = bad
    with pytest.raises(ValueError):
        hermitian_eigh(a)
    stack = np.stack([np.eye(3, dtype=complex), a])
    with pytest.raises(ValueError):
        hermitian_eigh(stack)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3), (1, 2, 2, 2)])
def test_rejects_bad_shapes(shape):
    with pytest.raises(ValueError):
        hermitian_eigh(np.zeros(shape))
