import math

import numpy as np
from hypothesis import settings

from qmetro.channels import KrausChannel
from qmetro.linalg import pauli_basis
from qmetro.optics import OpticsError, _sector_labels, _select, element_unitary
from qmetro.tomography import TomographyError

# every property is replayed from the same derandomized examples, with no
# deadline and no example database; each test sets only its max_examples
settings.register_profile("qmetro", deadline=None, derandomize=True, database=None)
settings.load_profile("qmetro")


def rand_rho(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_channel(dim, n_kraus, rng):
    """Random CPTP channel from a Haar-ish Ginibre isometry."""
    g = rng.standard_normal((n_kraus * dim, dim)) + 1j * rng.standard_normal((n_kraus * dim, dim))
    q, _ = np.linalg.qr(g)
    return KrausChannel(q.reshape(n_kraus, dim, dim), label=f"random({dim},{n_kraus})")


def network_reference(net, rho_in):
    """Unnormalized polarization output of an optical network, by propagating
    the density matrix element by element on the full mode space.

    The input enters on lateral mode 0 and the lateral modes are traced out at
    the end: the reference for the network's Kraus stack in qmetro.optics.
    """
    space, n = net.space, net.space.n_lateral
    full = np.zeros((2, n, 2, n), dtype=complex)
    full[:, 0, :, 0] = rho_in
    full = full.reshape(2 * n, 2 * n)
    for elem in net.elements:
        if elem.kind == "dephase":
            labels = _sector_labels(space, elem.partition)
            full = np.where(labels[:, None] == labels, full, 0)
        elif elem.kind == "postselect":
            keep = np.tile(_select(space, elem.keep), 2)
            full = np.where(keep[:, None] & keep, full, 0)
        else:
            u = element_unitary(space, elem)
            full = u @ full @ u.conj().T
    return np.trace(full.reshape(2, n, 2, n), axis1=1, axis2=3)


def apply_network(net, rho_in):
    """Send a polarization state through an optical network.

    Returns (rho_out, success_probability); the output is renormalized and the
    postselection losses are reported in the probability, never hidden.
    """
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (2, 2):
        raise OpticsError("input must be 2x2 for this network")
    out = network_reference(net, rho_in)
    success = np.trace(out).real
    if success < 1e-15:
        raise OpticsError("postselection removed the entire state")
    return out / success, float(success)


def rand_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def chi_apply(chi, rho):
    """Apply a chi-form process, in the Pauli product basis, to a state."""
    d = math.isqrt(chi.dim_basis)
    if d not in (2, 4) or d * d != chi.dim_basis:
        raise TomographyError(f"unsupported probe dimension {d}")
    basis = pauli_basis(d // 2)
    return np.einsum('ab,aij,jk,blk->il', chi.mat, basis, np.asarray(rho, dtype=complex),
                     basis.conj(), optimize=True)


def params_from_herm(h):
    """Inverse of qmetro.linalg.herm_from_params; h must be Hermitian."""
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


def is_density_matrix(rho, tol=1e-9):
    rho = np.asarray(rho)
    if np.abs(rho - rho.conj().T).max() > tol:
        return False
    if abs(np.trace(rho).real - 1) > tol:
        return False
    return np.linalg.eigvalsh(rho).min() > -tol
