"""Small shared linear-algebra helpers: Pauli bases, Hermitian parameterizations,
positive-semidefinite projection."""
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


def params_from_herm(h):
    """Inverse of herm_from_params; h must be Hermitian."""
    h = np.asarray(h)
    m = h.shape[0]
    if np.abs(h - h.conj().T).max() > 1e-12:
        raise ValueError("matrix is not Hermitian")
    out = np.empty(m * m)
    out[:m] = np.diag(h).real
    k = m
    for a in range(m):
        for b in range(a + 1, m):
            out[k] = h[a, b].real
            out[k + 1] = h[a, b].imag
            k += 2
    return out


def partial_trace(m, dims, keep):
    """Trace out the tensor factors not listed in keep.

    dims lists the factor dimensions whose product is the matrix size; keep is
    an iterable of factor indices to retain, in their original order.
    """
    m = np.asarray(m)
    dims = list(dims)
    n = len(dims)
    if m.shape != (int(np.prod(dims)),) * 2:
        raise ValueError(f"matrix shape {m.shape} does not factor as {dims}")
    keep = sorted(set(keep))
    if not all(0 <= k < n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    t = m.reshape(dims + dims)
    for q in reversed(range(n)):
        if q not in keep:
            t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
    d_keep = int(np.prod([dims[k] for k in keep], dtype=int))
    return t.reshape(d_keep, d_keep)


def nearest_psd(h):
    """Frobenius-nearest positive-semidefinite matrix to Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.clip(w, 0, None)) @ v.conj().T


def is_density_matrix(rho, tol=1e-9):
    rho = np.asarray(rho)
    if np.abs(rho - rho.conj().T).max() > tol:
        return False
    if abs(np.trace(rho).real - 1) > tol:
        return False
    return np.linalg.eigvalsh(rho).min() > -tol


def projector(ket):
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())
