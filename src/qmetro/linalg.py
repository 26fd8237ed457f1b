"""Small shared helpers: Pauli bases, the stacked tensor product, the Hermitian
parameterization and check, positive-semidefinite projection, and the seed
lists and draw blocks of the sampled stages."""
import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# order (identity, X, Y, Z) fixed; serialization and chi matrices index into it
PAULIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def _tensor(a, b):
    """Stacked Kronecker products of every pair of operators from the stacks a
    and b, a's index outer: _tensor(a, b)[x * len(b) + y] == np.kron(a[x], b[y])."""
    (m, d, _), (n, e, _) = a.shape, b.shape
    # out[(x, y), (i, k), (j, l)] = a[x, i, j] * b[y, k, l], the products np.kron forms
    return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(
        m * n, d * e, d * e)


def pauli_basis(n_qubits):
    """All n-fold Pauli tensor products, shape (4**n, 2**n, 2**n)."""
    basis = PAULIS
    for _ in range(n_qubits - 1):
        basis = _tensor(basis, PAULIS)
    return basis


def require_hermitian(what, tol, error, *mats):
    """Raise error("<what> must be finite and Hermitian") unless each of mats,
    a matrix or a stack (..., n, n) of them, is finite and within tol of its
    conjugate transpose."""
    for m in mats:
        # finiteness first: inf - inf would warn on its way to the comparison
        if not (np.isfinite(m).all() and np.abs(m - np.swapaxes(m, -1, -2).conj()).max() <= tol):
            raise error(f"{what} must be finite and Hermitian")


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


def _in_blocks(rows, width, stats):
    """Concatenate `stats(n)` over blocks of n <= max(1, 2**16 // width) rows of
    `width` draws each: the same draws in the same order as one draw of `rows`
    rows, since numpy draws rows in order."""
    block = max(1, 2 ** 16 // width)
    out = np.empty(rows)
    for b in range(0, rows, block):
        out[b:b + block] = stats(min(block, rows - b))
    return out
