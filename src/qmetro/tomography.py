"""Simulated process tomography: product-state preparations, projective
two-outcome measurement settings, multinomial counts, linear-inversion chi
reconstruction with positivity projection, and process fidelity.
"""
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import evolve
from .linalg import nearest_psd, pauli_basis, projector, substreams

# preparation kets; the measurement settings project onto the same set
INPUT_KETS = (
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, -1j]) / np.sqrt(2),
    np.array([1, 1], dtype=complex) / np.sqrt(2),
)


class TomographyError(ValueError):
    pass


@dataclass(frozen=True)
class _Design:
    """Process tomography on a d-dimensional probe: a qubit (d = 2) or a qubit
    with its ancilla (d = 4)."""

    states: np.ndarray   # (d*d, d, d) preparations and measured projectors
    basis: np.ndarray    # (d*d, d, d) Pauli operator basis of chi
    inverse: np.ndarray  # outcome-0 probabilities -> chi, as a complex matrix


@lru_cache(maxsize=None)
def _design(d):
    """The design on a d-dimensional probe, built once per dimension."""
    if d not in (2, 4):
        raise TomographyError(f"unsupported probe dimension {d}: the design covers "
                              "a qubit (2) or a qubit with its ancilla (4)")
    single = [projector(k) for k in INPUT_KETS]
    states = np.stack(single if d == 2 else [np.kron(a, b) for a in single for b in single])
    basis = pauli_basis(d // 2)
    # T[l, m, a, b] = Tr(P_m B_a rho_l B_b^dag); the projectors are the states
    t = np.einsum('mij,ajk,lkn,bin->lmab', states, basis, states, basis.conj(),
                  optimize=True)
    amat = t.reshape(len(states) ** 2, len(basis) ** 2)
    if np.linalg.cond(amat) > 1e9:
        raise TomographyError("singular design matrix: input states or bases "
                              "are not informationally complete")
    inverse = np.linalg.inv(amat)
    # shared by every caller, and `product_states` hands the states out
    states.flags.writeable = inverse.flags.writeable = False
    return _Design(states, basis, inverse)


def product_states(d):
    """Pure product states of the design on a d-dimensional probe, 4 for one
    qubit or 16 for probe+ancilla: both the preparations and the first member
    of each two-outcome projector pair (the complement is implied)."""
    return _design(d).states


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix in the Pauli (product) operator basis."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise TomographyError(f"chi must be square, got shape {mat.shape}")
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise TomographyError("chi must be Hermitian")
        object.__setattr__(self, "mat", mat)

    @property
    def dim_basis(self):
        return len(self.mat)

    @property
    def tp_residual(self):
        # trace part of the trace-preservation constraint; the off-trace part
        # is not enforced by the linear inversion
        return abs(np.trace(self.mat).real - 1)

    @property
    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.mat).min())

    def to_json(self):
        return {"dim_basis": self.dim_basis,
                "re": self.mat.real.ravel().tolist(),
                "im": self.mat.imag.ravel().tolist()}

    @classmethod
    def from_json(cls, obj):
        n = obj["dim_basis"]
        return cls((np.array(obj["re"]) + 1j * np.array(obj["im"])).reshape(n, n))


def _probe_dim(n):
    """Probe dimension d of an n x n table or chi matrix (n = d*d); 0 when n
    is not a square, which `_design` rejects."""
    d = math.isqrt(n)
    return d if d * d == n else 0


def chi_theory(ch):
    """Exact chi matrix of a Kraus channel, via Pauli expansion of each operator."""
    d = ch.dim
    basis = _design(d).basis
    c = np.array([[np.trace(b.conj().T @ k) / d for b in basis] for k in ch.kraus])
    return ChiMatrix(c.T @ c.conj())


def chi_apply(chi, rho):
    """Apply a chi-form process to a state."""
    basis = _design(_probe_dim(chi.dim_basis)).basis
    return np.einsum('ab,aij,jk,blk->il', chi.mat, basis, np.asarray(rho, dtype=complex),
                     basis.conj(), optimize=True)


@dataclass(frozen=True)
class QptDataset:
    """Counts for every (input state, measurement setting) pair of the
    `product_states` design: a 16 x 16 table with the ancilla, 4 x 4 without."""

    counts: np.ndarray             # (n_inputs, n_bases, 2) nonnegative ints

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.min() < 0:
            raise TomographyError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)


def born_probabilities(ch):
    """Exact outcome-0 probabilities, shape (n_inputs, n_bases)."""
    states = _design(ch.dim).states
    outs = evolve(states, ch.kraus)
    p = np.einsum('mij,lji->lm', states, outs).real
    return np.clip(p, 0.0, 1.0)


def simulate_qpt(ch, shots=20000, seed=0):
    """Draw two-outcome counts for every setting.

    Each (input, setting) pair uses its own deterministic substream, so the
    table is identical regardless of evaluation order.
    """
    if shots < 1:
        raise TomographyError("shots must be at least 1")
    p = born_probabilities(ch)
    # setting (l, m) draws from default_rng([seed, l, m]), seeded in one batch
    pairs = np.indices(p.shape).reshape(2, -1).T
    n0 = np.array([rng.binomial(shots, q)
                   for rng, q in zip(substreams([seed], pairs), p.ravel())])
    counts = np.stack([n0, shots - n0], axis=-1).reshape(*p.shape, 2)
    return QptDataset(counts)


def reconstruct_from_probabilities(probs):
    """Linear inversion of an (n_inputs, n_bases) table of outcome-0
    probabilities, then clip to positive semidefinite and rescale the trace."""
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    design = _design(_probe_dim(len(probs)))
    nb = len(design.basis)
    if probs.shape != (nb, nb):
        raise TomographyError(f"probabilities must have shape {(nb, nb)}, got {probs.shape}")
    x = (design.inverse @ probs.ravel()).reshape(nb, nb)
    chi = nearest_psd((x + x.conj().T) / 2)
    tr = np.trace(chi).real
    if tr <= 0:
        raise TomographyError("reconstructed chi has nonpositive trace")
    return ChiMatrix(chi / tr)


def _frequencies(counts):
    """Outcome-0 frequency per setting; 0.5 where a setting drew no counts."""
    totals = counts.sum(axis=2)
    return np.where(totals > 0, counts[:, :, 0], 0.5) / np.where(totals > 0, totals, 1)


def reconstruct_chi(data):
    """Reconstruct chi from a counted dataset using per-setting frequencies."""
    return reconstruct_from_probabilities(_frequencies(data.counts))


@dataclass(frozen=True)
class FidelityReport:
    value: float
    imag_residual: float


def process_fidelity(exp, th):
    """Normalized Hilbert-Schmidt overlap of two chi matrices."""
    na = np.trace(exp.mat.conj().T @ exp.mat).real
    nb = np.trace(th.mat.conj().T @ th.mat).real
    if na <= 0 or nb <= 0:
        raise TomographyError("zero-norm chi matrix")
    ov = np.trace(th.mat.conj().T @ exp.mat) / np.sqrt(na * nb)
    report = FidelityReport(value=float(ov.real), imag_residual=float(abs(ov.imag)))
    if report.imag_residual > 1e-8:
        raise TomographyError(f"fidelity has imaginary residual {report.imag_residual:.2e}")
    return report


def poisson_uncertainty(data, chi_ref, resamples=50, seed=0):
    """Std-dev of the process fidelity to chi_ref under Poisson re-draws of the
    counts."""
    if resamples < 2:
        raise TomographyError("need at least 2 resamples")
    fids = np.empty(resamples)
    # resample r draws from default_rng([seed, r])
    for r, rng in enumerate(substreams([seed], np.arange(resamples))):
        chi = reconstruct_from_probabilities(_frequencies(rng.poisson(data.counts)))
        fids[r] = process_fidelity(chi, chi_ref).value
    return float(np.std(fids))
