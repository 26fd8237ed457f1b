"""Kraus channels for a phase-then-noise qubit map, with ancilla extension and
n-probe (parallel) composition.

The phase is imprinted first, diag(1, e^{i phi}), and the noise map acts after
it. All channels are immutable once built. evolve is the one place a Kraus map
acts on a state, an extracted optical network's included, and _tensor the one
place Kraus operators are tensored.
"""
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS

COMPLETENESS_TOL = 1e-10
CHOI_RANK_TOL = 1e-10


class ChannelError(ValueError):
    pass


def evolve(rho, ks, dks=None):
    """sum_i K_i rho K_i^dag for stacked (m, d, d) Kraus operators ks.

    rho is one (d, d) state or a stack (..., d, d) of them. Given their
    derivatives dks, returns (rho_out, drho_out) with the product rule
    sum_i dK_i rho K_i^dag + K_i rho dK_i^dag.
    """
    rho = np.asarray(rho, dtype=complex)
    d = ks.shape[-1]
    if rho.shape[-2:] != (d, d):
        raise ChannelError(f"state dimension {rho.shape} != channel dimension {d}")

    def per_state(ops):
        # one singleton axis per stack axis of rho, so each operator meets every state
        return ops.reshape(ops.shape[:1] + (1,) * (rho.ndim - 2) + ops.shape[1:])

    ks = per_state(ks)
    kh = ks.conj().swapaxes(-1, -2)
    out = (ks @ rho @ kh).sum(axis=0)
    if dks is None:
        return out
    dks = per_state(dks)
    return out, (dks @ rho @ kh + ks @ rho @ dks.conj().swapaxes(-1, -2)).sum(axis=0)


def _tensor(a, b):
    """Stacked Kronecker products of every pair of operators from the stacks a
    and b, a's index outer."""
    (m, d, _), (n, e, _) = a.shape, b.shape
    # out[(x, y), (i, k), (j, l)] = a[x, i, j] * b[y, k, l], the products np.kron forms
    return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(
        m * n, d * e, d * e)


def _with_ancilla(ks):
    """The operators ks acting on a probe while an equal-dimension ancilla idles."""
    return _tensor(ks, np.eye(ks.shape[-1])[None])


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map in operator-sum form.

    kraus is copied once, at construction, into a read-only (m, d, d) complex
    stack: the form evolve takes, and the only one any caller sees.
    """

    kraus: np.ndarray
    label: str = ""

    def __post_init__(self):
        try:
            ks = np.array(self.kraus, dtype=complex)
        except ValueError:
            raise ChannelError("Kraus operators must share a square shape") from None
        if not ks.size:
            raise ChannelError("empty Kraus list")
        if ks.ndim != 3 or ks.shape[1] != ks.shape[2]:
            raise ChannelError("Kraus operators must share a square shape")
        ks.flags.writeable = False
        object.__setattr__(self, "kraus", ks)
        if not self.completeness_residual() <= COMPLETENESS_TOL:
            raise ChannelError(
                f"Kraus completeness violated: residual {self.completeness_residual():.2e}")

    @property
    def dim(self):
        return self.kraus.shape[-1]

    def completeness_residual(self):
        s = np.einsum('kji,kjl->il', self.kraus.conj(), self.kraus)
        return np.abs(s - np.eye(self.dim)).max()

    def apply(self, rho):
        return evolve(rho, self.kraus)


def phase_unitary(phi):
    """diag(1, e^{i phi})."""
    return np.diag([1.0, np.exp(1j * phi)])


def amplitude_damping(eta):
    """Decay channel with decay probability eta."""
    if not 0 <= eta <= 1:
        raise ChannelError(f"eta must lie in [0, 1], got {eta}")
    a0 = np.diag([1.0, np.sqrt(1 - eta)]).astype(complex)
    a1 = np.array([[0, np.sqrt(eta)], [0, 0]], dtype=complex)
    return KrausChannel((a0, a1), label=f"ad({eta:g})")


def pauli_weights(p, error=ChannelError):
    """p as four Pauli weights, each at least -1e-12 and summing to 1 within
    1e-12; anything else raises error."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,) or not p.min() >= -1e-12 or not abs(p.sum() - 1) <= 1e-12:
        raise error(f"invalid probability vector {p}")
    return p


def general_pauli(p):
    """Mixture of Pauli conjugations with weights p = (p0, p1, p2, p3).

    Zero-weight operators are dropped, so the Kraus count is minimal.
    """
    p = pauli_weights(p)
    keep = p > 0
    return KrausChannel(np.sqrt(p[keep])[:, None, None] * PAULIS[keep],
                        label=f"pauli({p[0]:g},{p[1]:g},{p[2]:g},{p[3]:g})")


def depolarizing(p):
    """Isotropic Pauli noise of strength p."""
    if not 0 <= p <= 1:
        raise ChannelError(f"p must lie in [0, 1], got {p}")
    ch = general_pauli([1 - 3 * p / 4, p / 4, p / 4, p / 4])
    return KrausChannel(ch.kraus, label=f"depol({p:g})")


def extend_with_ancilla(ch):
    """Channel acting on probe while an equal-dimension ancilla idles."""
    return KrausChannel(_with_ancilla(ch.kraus), label=ch.label + "+ancilla")


NOISE = {"ad": amplitude_damping, "depol": depolarizing}


# derivative of the phase unitary factors as U_phi times this fixed generator
_PHASE_GEN = np.diag([0.0, 1j])


@dataclass(frozen=True)
class PhaseChannelFamily:
    """Phase imprinting followed by a fixed qubit noise map."""

    noise: KrausChannel

    def __post_init__(self):
        if self.noise.dim != 2:
            raise ChannelError("phase family is defined on a single qubit")

    def kraus_at(self, phi):
        return self.noise.kraus @ phase_unitary(phi)

    def dkraus_at(self, phi):
        return self.noise.kraus @ (phase_unitary(phi) @ _PHASE_GEN)

    def composite(self, phi, n_probes=1, ancilla=False):
        """Stacked Kraus operators and their phase derivatives on the joint
        space: n_probes probes in parallel, then, with ancilla, an idle
        ancilla of the probes' joint dimension."""
        if n_probes < 1:
            raise ChannelError("n_probes must be at least 1")
        if not np.isfinite(phi):
            raise ChannelError(f"phi must be finite, got {phi}")
        ks1, dks1 = self.kraus_at(phi), self.dkraus_at(phi)
        ks, dks = ks1, dks1
        for _ in range(n_probes - 1):
            ks, dks = _tensor(ks, ks1), _tensor(dks, ks1) + _tensor(ks, dks1)
        if ancilla:
            return _with_ancilla(ks), _with_ancilla(dks)
        return ks, dks


@dataclass(frozen=True)
class GeneratorH:
    """Hermitian generator mixing equivalent Kraus representations."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ChannelError("h must be square")
        if not np.abs(h - h.conj().T).max() <= 1e-12:
            raise ChannelError("h must be finite and Hermitian")
        object.__setattr__(self, "h", h)


def choi_matrix(ch):
    """Choi matrix C[i*d+k, j*d+l] = channel(|i><j|)[k, l]."""
    d = ch.dim
    # units[i, j] = |i><j|, so out[i, j, k, l] = channel(|i><j|)[k, l]
    out = evolve(np.eye(d * d).reshape(d, d, d, d), ch.kraus)
    return out.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def kraus_from_choi(choi):
    """Stacked (m, d, d) Kraus operators from a Choi matrix by
    eigendecomposition, one per eigenvalue above CHOI_RANK_TOL.

    Eigenvectors come out flattened with the input index first, so each one is
    reshaped and transposed to recover the operator.
    """
    choi = np.asarray(choi, dtype=complex)
    d = int(round(np.sqrt(choi.shape[0])))
    w, v = np.linalg.eigh(choi)
    if w.min() < -100 * CHOI_RANK_TOL:
        raise ChannelError(f"Choi matrix is not positive: min eigenvalue {w.min():.2e}")
    keep = w > CHOI_RANK_TOL
    return np.sqrt(w[keep])[:, None, None] * v.T[keep].reshape(-1, d, d).swapaxes(-1, -2)
