"""Kraus channels for a phase-then-noise qubit map, with ancilla extension and
two-probe (parallel) composition.

The phase is imprinted first, diag(1, e^{i phi}), and the noise map acts after
it. All channels are immutable once built.
"""
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, herm_from_params, params_from_herm

COMPLETENESS_TOL = 1e-10


class ChannelError(ValueError):
    pass


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
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ChannelError(f"state dimension {rho.shape} != channel dimension {self.dim}")
        out = np.zeros_like(rho)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

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
    eye = np.eye(ch.dim)
    ops = tuple(np.kron(k, eye) for k in ch.kraus)
    return KrausChannel(ops, label=ch.label + "+ancilla")


def collective(ch, n):
    """n independent copies of the channel in parallel (n-fold tensor products)."""
    if n < 1:
        raise ChannelError("n must be at least 1")
    if n == 1:
        return ch
    ops = list(ch.kraus)
    for _ in range(n - 1):
        ops = [np.kron(a, b) for a in ops for b in ch.kraus]
    return KrausChannel(tuple(ops), label=f"{ch.label}^x{n}")


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

    @property
    def params(self):
        return params_from_herm(self.h)

    @classmethod
    def from_params(cls, x, m):
        return cls(herm_from_params(x, m))


def rotate_kraus(fam, h, phi0=0.0):
    """First-order rotated Kraus derivatives dK_i - i sum_j h_ij K_j at phi0."""
    hmat = h.h if isinstance(h, GeneratorH) else np.asarray(h, dtype=complex)
    ks = fam.kraus_at(phi0)
    dks = fam.dkraus_at(phi0)
    m = len(ks)
    if hmat.shape != (m, m):
        raise ChannelError(f"h must be {m}x{m} for this family")
    return [dks[i] - 1j * sum(hmat[i, j] * ks[j] for j in range(m)) for i in range(m)]


def choi_matrix(ch):
    """Choi matrix C[i*d+k, j*d+l] = channel(|i><j|)[k, l]."""
    d = ch.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus:
        for i in range(d):
            for j in range(d):
                c[i * d:(i + 1) * d, j * d:(j + 1) * d] += np.outer(k[:, i], k[:, j].conj())
    return c


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
