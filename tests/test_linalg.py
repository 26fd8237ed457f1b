import numpy as np
import pytest

from conftest import (bell_state, is_density_matrix, params_from_herm,
                      partial_trace, rand_herm, rand_rho)
from qmetro.linalg import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, PAULIS, herm_from_params,
                           nearest_psd, pauli_basis, projector)


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
