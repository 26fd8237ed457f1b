"""Small shared helpers: Pauli bases, the Hermitian parameterization,
positive-semidefinite projection, and the seed lists of the sampled stages."""
import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# order (identity, X, Y, Z) fixed; serialization and chi matrices index into it
PAULIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def pauli_basis(n_qubits):
    """All n-fold Pauli tensor products, shape (4**n, 2**n, 2**n)."""
    basis = PAULIS
    for _ in range(n_qubits - 1):
        basis = np.stack([np.kron(a, b) for a in basis for b in PAULIS])
    return basis


def herm_from_params(x, m):
    """Hermitian m x m matrix from m**2 reals.

    Layout: m diagonal entries, then (re, im) for each off-diagonal pair
    (a, b) with a < b in lexicographic order.
    """
    x = np.asarray(x, dtype=float)
    if x.size != m * m:
        raise ValueError(f"expected {m * m} parameters, got {x.size}")
    h = np.zeros((m, m), dtype=complex)
    h[np.arange(m), np.arange(m)] = x[:m]
    k = m
    for a in range(m):
        for b in range(a + 1, m):
            h[a, b] = x[k] + 1j * x[k + 1]
            h[b, a] = x[k] - 1j * x[k + 1]
            k += 2
    return h


def nearest_psd(h):
    """Frobenius-nearest positive-semidefinite matrix to Hermitian h, for each
    matrix of a stack (..., n, n)."""
    w, v = np.linalg.eigh(h)
    return (v * np.clip(w, 0, None)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def projector(ket):
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def _seed_list(seed):
    """An int or a sequence of ints as a seed list, to which a sampled stage
    appends its own index."""
    if np.isscalar(seed):
        return [int(seed)]
    return [int(s) for s in seed]
