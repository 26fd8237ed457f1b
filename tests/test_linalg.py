import numpy as np
import pytest

from conftest import (bell_state, is_density_matrix, params_from_herm,
                      partial_trace, rand_herm, rand_rho)
from qmetro.linalg import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, PAULIS, _tensor,
                           herm_from_params, nearest_psd, pauli_basis, projector,
                           require_hermitian)
from qmetro.tomography import INPUT_KETS, product_states


def test_pauli_constants():
    assert np.array_equal(PAULI_X, [[0, 1], [1, 0]])
    assert np.array_equal(PAULI_Y, [[0, -1j], [1j, 0]])
    assert np.array_equal(PAULI_Z, [[1, 0], [0, -1]])
    assert np.array_equal(PAULIS[0], PAULI_I)


@pytest.mark.parametrize("n,scale", [(1, 2.0), (2, 4.0)])
def test_pauli_basis_orthogonality(n, scale):
    basis = pauli_basis(n)
    assert basis.shape == (4 ** n, 2 ** n, 2 ** n)
    gram = np.einsum('aij,bji->ab', basis.conj().transpose(0, 2, 1), basis)
    assert np.abs(gram - scale * np.eye(4 ** n)).max() < 1e-12


def test_tensor_products():
    assert np.array_equal(np.kron(PAULI_I, PAULI_I), np.eye(4))
    assert np.array_equal(np.kron(PAULI_Z, PAULI_I), np.diag([1, 1, -1, -1]))
    assert np.array_equal(np.kron(PAULI_X, PAULI_X), np.fliplr(np.eye(4)))
    rng = np.random.default_rng(0)
    a, b, c = (rand_herm(rng, 2) for _ in range(3))
    assert np.abs(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))).max() < 1e-14


@pytest.mark.parametrize("m,d,n,e", [(1, 2, 1, 2), (3, 2, 4, 2), (2, 4, 3, 1), (5, 3, 2, 4)])
def test_tensor_is_kron_of_every_pair(m, d, n, e):
    rng = np.random.default_rng(m * d + n * e)
    a = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    b = rng.standard_normal((n, e, e)) + 1j * rng.standard_normal((n, e, e))
    out = _tensor(a, b)
    assert out.shape == (m * n, d * e, d * e)
    for x in range(m):
        for y in range(n):
            assert out[x * n + y].tobytes() == np.kron(a[x], b[y]).tobytes()


def test_stacked_products_match_kron_loops():
    # the np.kron list loops that pauli_basis and the two-qubit design once ran
    basis = np.stack([np.kron(a, b) for a in PAULIS for b in PAULIS])
    assert pauli_basis(2).tobytes() == basis.tobytes()
    single = [projector(k) for k in INPUT_KETS]
    states = np.stack([np.kron(a, b) for a in single for b in single])
    assert product_states(4).tobytes() == states.tobytes()


def test_require_hermitian():
    h = np.array([[1, 1j], [-1j, 0]])
    require_hermitian("h", 0.0, ValueError, h, np.stack([h, h.conj()]))
    off = h + np.array([[0, 1e-10], [0, 0]])
    require_hermitian("h", 1e-9, ValueError, off)
    with pytest.raises(KeyError, match="h must be finite and Hermitian"):
        require_hermitian("h", 1e-11, KeyError, h, off)
    for bad in (np.nan, np.inf):
        # one bad member of a stack fails the whole stack
        stack = np.stack([h, h, np.where(np.eye(2), bad, h)])
        with pytest.raises(ValueError, match="finite and Hermitian"):
            require_hermitian("stack", 1.0, ValueError, stack)


@pytest.mark.parametrize("m", [2, 4])
def test_herm_param_round_trip(m, seed=7):
    rng = np.random.default_rng(seed)
    h = rand_herm(rng, m)
    x = params_from_herm(h)
    assert x.shape == (m * m,)
    assert np.abs(herm_from_params(x, m) - h).max() < 1e-12


def test_herm_from_params_rejects_bad_size():
    with pytest.raises(ValueError):
        herm_from_params(np.zeros(3), 2)
    with pytest.raises(ValueError):
        params_from_herm(np.array([[0, 1], [0, 0]]))


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(1)
    a, b = rand_herm(rng, 2), rand_herm(rng, 2)
    m = np.kron(a, b)
    assert np.abs(partial_trace(m, [2, 2], [0]) - a * np.trace(b)).max() < 1e-12
    assert np.abs(partial_trace(m, [2, 2], [1]) - b * np.trace(a)).max() < 1e-12
    assert abs(np.trace(partial_trace(m, [2, 2], [0])) - np.trace(m)) < 1e-12


def test_partial_trace_bell_reduction():
    assert np.abs(partial_trace(bell_state(), [2, 2], [0]) - np.eye(2) / 2).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 3], [0])


def test_eigh_reconstruction():
    rng = np.random.default_rng(2)
    for d in (2, 4, 16):
        h = rand_herm(rng, d)
        w, v = np.linalg.eigh(h)
        assert np.abs((v * w) @ v.conj().T - h).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10


def test_nearest_psd():
    assert np.abs(nearest_psd(np.diag([1.0, -0.5])) - np.diag([1.0, 0.0])).max() < 1e-12
    rng = np.random.default_rng(3)
    rho = rand_rho(rng, 4)
    assert np.abs(nearest_psd(rho) - rho).max() < 1e-12


def test_is_density_matrix():
    assert is_density_matrix(np.eye(2) / 2)
    assert not is_density_matrix(np.eye(2))
    assert not is_density_matrix(np.diag([1.5, -0.5]))
    assert not is_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_projector():
    assert np.array_equal(projector([1, 0]), np.diag([1, 0]))
    p = projector(np.array([1, 1j]) / np.sqrt(2))
    assert np.abs(p @ p - p).max() < 1e-12
    assert abs(np.trace(p) - 1) < 1e-12
