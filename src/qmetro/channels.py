"""Kraus channels for a phase-then-noise qubit map, with ancilla extension and
n-probe (parallel) composition.

The phase is imprinted first, diag(1, e^{i phi}), and the noise map acts after
it. All channels are immutable once built. evolve is the one place a Kraus map
acts on a state, and _tensor the one place Kraus operators are tensored.
"""
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS

COMPLETENESS_TOL = 1e-10


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
    """A completely positive trace-preserving map in operator-sum form."""

    kraus: tuple
    label: str = ""

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ChannelError("empty Kraus list")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ChannelError("Kraus operators must share a square shape")
        object.__setattr__(self, "kraus", ops)
        if self.completeness_residual() > COMPLETENESS_TOL:
            raise ChannelError(
                f"Kraus completeness violated: residual {self.completeness_residual():.2e}")

    @property
    def dim(self):
        return self.kraus[0].shape[0]

    def completeness_residual(self):
        s = sum(k.conj().T @ k for k in self.kraus)
        return np.abs(s - np.eye(self.dim)).max()

    def apply(self, rho):
        return evolve(rho, np.stack(self.kraus))

    def to_json(self):
        return {
            "label": self.label,
            "dim": self.dim,
            "kraus": [[k.real.tolist(), k.imag.tolist()] for k in self.kraus],
        }

    @classmethod
    def from_json(cls, obj):
        ops = [np.array(re) + 1j * np.array(im) for re, im in obj["kraus"]]
        return cls(tuple(ops), obj.get("label", ""))


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


def general_pauli(p):
    """Mixture of Pauli conjugations with weights p = (p0, p1, p2, p3).

    Zero-weight operators are dropped, so the Kraus count is minimal.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ChannelError("need exactly four probabilities")
    if p.min() < -1e-12 or abs(p.sum() - 1) > 1e-12:
        raise ChannelError(f"invalid probability vector {p}")
    ops = tuple(np.sqrt(pi) * sigma for pi, sigma in zip(p, PAULIS) if pi > 0)
    return KrausChannel(ops, label=f"pauli({p[0]:g},{p[1]:g},{p[2]:g},{p[3]:g})")


def depolarizing(p):
    """Isotropic Pauli noise of strength p."""
    if not 0 <= p <= 1:
        raise ChannelError(f"p must lie in [0, 1], got {p}")
    ch = general_pauli([1 - 3 * p / 4, p / 4, p / 4, p / 4])
    return KrausChannel(ch.kraus, label=f"depol({p:g})")


def extend_with_ancilla(ch):
    """Channel acting on probe while an equal-dimension ancilla idles."""
    return KrausChannel(tuple(_with_ancilla(np.stack(ch.kraus))),
                        label=ch.label + "+ancilla")


NOISE = {"ad": amplitude_damping, "depol": depolarizing}


# derivative of the phase unitary factors as U_phi times this fixed generator
_PHASE_GEN = np.diag([0.0, 1j])


@dataclass(frozen=True)
class PhaseChannelFamily:
    """Phase imprinting followed by a fixed qubit noise map."""

    noise: KrausChannel
    phase_point: float = 0.0

    def __post_init__(self):
        if self.noise.dim != 2:
            raise ChannelError("phase family is defined on a single qubit")

    def kraus_at(self, phi):
        u = phase_unitary(phi)
        return [k @ u for k in self.noise.kraus]

    def dkraus_at(self, phi):
        du = phase_unitary(phi) @ _PHASE_GEN
        return [k @ du for k in self.noise.kraus]

    def composite(self, phi, n_probes=1, ancilla=False):
        """Stacked Kraus operators and their phase derivatives on the joint
        space: n_probes probes in parallel, then, with ancilla, an idle
        ancilla of the probes' joint dimension."""
        if n_probes < 1:
            raise ChannelError("n_probes must be at least 1")
        ks1, dks1 = np.stack(self.kraus_at(phi)), np.stack(self.dkraus_at(phi))
        ks, dks = ks1, dks1
        for _ in range(n_probes - 1):
            ks, dks = _tensor(ks, ks1), _tensor(dks, ks1) + _tensor(ks, dks1)
        if ancilla:
            return _with_ancilla(ks), _with_ancilla(dks)
        return ks, dks

    def channel_at(self, phi):
        return KrausChannel(tuple(self.kraus_at(phi)),
                            label=f"{self.noise.label}@phi={phi:g}")


@dataclass(frozen=True)
class GeneratorH:
    """Hermitian generator mixing equivalent Kraus representations."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ChannelError("h must be square")
        if np.abs(h - h.conj().T).max() > 1e-12:
            raise ChannelError("h must be Hermitian")
        object.__setattr__(self, "h", h)


def rotate_kraus(fam, h, phi0=0.0):
    """First-order rotated Kraus derivatives dK_i - i sum_j h_ij K_j at phi0,
    stacked (m, d, d)."""
    hmat = h.h if isinstance(h, GeneratorH) else np.asarray(h, dtype=complex)
    ks, dks = fam.composite(phi0)
    m = len(ks)
    if hmat.shape != (m, m):
        raise ChannelError(f"h must be {m}x{m} for this family")
    return dks - 1j * np.einsum('ij,jkl->ikl', hmat, ks)


def choi_matrix(ch):
    """Choi matrix C[i*d+k, j*d+l] = channel(|i><j|)[k, l]."""
    d = ch.dim
    # units[i, j] = |i><j|, so out[i, j, k, l] = channel(|i><j|)[k, l]
    out = evolve(np.eye(d * d).reshape(d, d, d, d), np.stack(ch.kraus))
    return out.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def kraus_from_choi(choi, tol=1e-10):
    """Kraus operators from a Choi matrix by eigendecomposition.

    Eigenvectors come out flattened with the input index first, so each one is
    reshaped and transposed to recover the operator.
    """
    choi = np.asarray(choi, dtype=complex)
    d = int(round(np.sqrt(choi.shape[0])))
    w, v = np.linalg.eigh(choi)
    if w.min() < -100 * tol:
        raise ChannelError(f"Choi matrix is not positive: min eigenvalue {w.min():.2e}")
    ops = []
    for wi, vi in zip(w, v.T):
        if wi > tol:
            ops.append(np.sqrt(wi) * vi.reshape(d, d).T)
    return ops


def random_channel(dim, n_kraus, rng):
    """Random CPTP channel from a Haar-ish Ginibre isometry."""
    g = rng.standard_normal((n_kraus * dim, dim)) + 1j * rng.standard_normal((n_kraus * dim, dim))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[i * dim:(i + 1) * dim, :] for i in range(n_kraus))
    return KrausChannel(ops, label=f"random({dim},{n_kraus})")
