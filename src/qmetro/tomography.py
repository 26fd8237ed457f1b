"""Simulated process tomography: product-state preparations, projective
two-outcome measurement settings, multinomial counts, linear-inversion chi
reconstruction with positivity projection, and process fidelity.
"""
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


def product_states(extended=True):
    """Pure product states, 16 for probe+ancilla or 4 for one qubit: both the
    preparations and the first member of each two-outcome projector pair (the
    complement is implied)."""
    single = [projector(k) for k in INPUT_KETS]
    if not extended:
        return np.stack(single)
    return np.stack([np.kron(a, b) for a in single for b in single])


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix in the Pauli (product) operator basis."""

    dim_basis: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (self.dim_basis, self.dim_basis):
            raise TomographyError(f"chi must be {self.dim_basis}x{self.dim_basis}")
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise TomographyError("chi must be Hermitian")
        object.__setattr__(self, "mat", mat)

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
        mat = (np.array(obj["re"]) + 1j * np.array(obj["im"])).reshape(n, n)
        return cls(n, mat)


def _basis_for(dim):
    if dim == 2:
        return pauli_basis(1)
    if dim == 4:
        return pauli_basis(2)
    raise TomographyError(f"unsupported channel dimension {dim}")


def chi_theory(ch):
    """Exact chi matrix of a Kraus channel, via Pauli expansion of each operator."""
    basis = _basis_for(ch.dim)
    d = ch.dim
    c = np.array([[np.trace(b.conj().T @ k) / d for b in basis] for k in ch.kraus])
    return ChiMatrix(len(basis), c.T @ c.conj())


def chi_apply(chi, rho):
    """Apply a chi-form process to a state."""
    basis = _basis_for(2 if chi.dim_basis == 4 else 4)
    return np.einsum('ab,aij,jk,blk->il', chi.mat, basis, np.asarray(rho, dtype=complex),
                     basis.conj(), optimize=True)


@dataclass(frozen=True)
class QptDataset:
    """Counts for every (input state, measurement setting) pair of the
    `product_states` design: a 16 x 16 table with the ancilla, 4 x 4 without."""

    counts: np.ndarray             # (n_inputs, n_bases, 2) nonnegative ints
    shots_per_setting: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.min() < 0:
            raise TomographyError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)


def born_probabilities(ch, extended=True):
    """Exact outcome-0 probabilities, shape (n_inputs, n_bases)."""
    states = product_states(extended)
    if states.shape[1] != ch.dim:
        raise TomographyError(f"channel dimension {ch.dim} does not match extended={extended}")
    outs = evolve(states, ch.kraus)
    p = np.einsum('mij,lji->lm', states, outs).real
    return np.clip(p, 0.0, 1.0)


def simulate_qpt(ch, extended=True, shots=20000, seed=0):
    """Draw two-outcome counts for every setting.

    Each (input, setting) pair uses its own deterministic substream, so the
    table is identical regardless of evaluation order.
    """
    if shots < 1:
        raise TomographyError("shots must be at least 1")
    p = born_probabilities(ch, extended)
    # setting (l, m) draws from default_rng([seed, l, m]), seeded in one batch
    pairs = np.indices(p.shape).reshape(2, -1).T
    n0 = np.array([rng.binomial(shots, q)
                   for rng, q in zip(substreams([seed], pairs), p.ravel())])
    counts = np.stack([n0, shots - n0], axis=-1).reshape(*p.shape, 2)
    return QptDataset(counts, shots)


# probe dimension of the design by the shape of its probability table
_DESIGN_DIMS = {(4, 4): 2, (16, 16): 4}


@lru_cache(maxsize=None)
def _design_inverse(d):
    """Inverse of the linear map chi -> outcome-0 probabilities of the
    `product_states` design on a d-dimensional probe, chi as a complex matrix."""
    basis = _basis_for(d)
    states = product_states(d == 4)
    # T[l, m, a, b] = Tr(P_m B_a rho_l B_b^dag); the projectors are the states
    t = np.einsum('mij,ajk,lkn,bin->lmab', states, basis, states, basis.conj(),
                  optimize=True)
    amat = t.reshape(len(states) ** 2, len(basis) ** 2)
    if np.linalg.cond(amat) > 1e9:
        raise TomographyError("singular design matrix: input states or bases "
                              "are not informationally complete")
    inv = np.linalg.inv(amat)
    inv.flags.writeable = False
    return inv


def reconstruct_from_probabilities(probs):
    """Linear inversion of an (n_inputs, n_bases) table of outcome-0
    probabilities, then clip to positive semidefinite and rescale the trace."""
    probs = np.asarray(probs, dtype=float)
    d = _DESIGN_DIMS.get(probs.shape)
    if d is None:
        raise TomographyError(f"probabilities must have shape (4, 4) or (16, 16), "
                              f"got {probs.shape}")
    nb = d * d
    x = (_design_inverse(d) @ probs.ravel()).reshape(nb, nb)
    chi = nearest_psd((x + x.conj().T) / 2)
    tr = np.trace(chi).real
    if tr <= 0:
        raise TomographyError("reconstructed chi has nonpositive trace")
    return ChiMatrix(nb, chi / tr)


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
    chi_exp: ChiMatrix
    chi_th: ChiMatrix


def process_fidelity(exp, th):
    """Normalized Hilbert-Schmidt overlap of two chi matrices."""
    na = np.trace(exp.mat.conj().T @ exp.mat).real
    nb = np.trace(th.mat.conj().T @ th.mat).real
    if na <= 0 or nb <= 0:
        raise TomographyError("zero-norm chi matrix")
    ov = np.trace(th.mat.conj().T @ exp.mat) / np.sqrt(na * nb)
    report = FidelityReport(value=float(ov.real), imag_residual=float(abs(ov.imag)),
                            chi_exp=exp, chi_th=th)
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
