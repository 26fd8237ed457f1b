"""Simulated process tomography: product-state preparations, projective
two-outcome measurement settings, multinomial counts, linear-inversion chi
reconstruction with positivity projection, and process fidelity.
"""
import io
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .channels import evolve
from .linalg import herm_from_params, nearest_psd, pauli_basis, projector

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
    """Counts for every (input state, measurement setting) pair."""

    input_states: np.ndarray       # (n_inputs, d, d)
    measurement_bases: np.ndarray  # (n_bases, d, d) projector per setting
    counts: np.ndarray             # (n_inputs, n_bases, 2) nonnegative ints
    shots_per_setting: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.min() < 0:
            raise TomographyError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    def to_csv(self):
        buf = io.StringIO()
        buf.write("input_index,basis_index,outcome_index,count\n")
        nl, nm, _ = self.counts.shape
        for l in range(nl):
            for m in range(nm):
                for o in range(2):
                    buf.write(f"{l},{m},{o},{int(self.counts[l, m, o])}\n")
        return buf.getvalue()


def born_probabilities(ch, extended=True):
    """Exact outcome-0 probabilities, shape (n_inputs, n_bases)."""
    states = product_states(extended)
    if states.shape[1] != ch.dim:
        raise TomographyError(f"channel dimension {ch.dim} does not match extended={extended}")
    outs = evolve(states, np.stack(ch.kraus))
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
    nl, nm = p.shape
    counts = np.empty((nl, nm, 2), dtype=np.int64)
    for l in range(nl):
        for m in range(nm):
            rng = np.random.default_rng([seed, l, m])
            n0 = rng.binomial(shots, p[l, m])
            counts[l, m] = (n0, shots - n0)
    states = product_states(extended)
    return QptDataset(states, states, counts, shots)


_design_cache = {}


def _design(states, projs):
    key = (states.tobytes(), projs.tobytes())
    hit = _design_cache.get(key)
    if hit is not None:
        return hit
    basis = _basis_for(states.shape[1])
    nb = len(basis)
    # T[l, m, a, b] = Tr(P_m B_a rho_l B_b^dag)
    xal = np.einsum('aij,ljk->alik', basis, states)
    mab = np.einsum('alik,bjk->albij', xal, basis.conj())
    t = np.einsum('mij,albji->lmab', projs, mab, optimize=True)
    rows = t.reshape(states.shape[0] * projs.shape[0], nb, nb)
    cols = [rows[:, a, a].real for a in range(nb)]
    for a in range(nb):
        for b in range(a + 1, nb):
            cols.append(2 * rows[:, a, b].real)
            cols.append(-2 * rows[:, a, b].imag)
    amat = np.stack(cols, axis=1)
    if amat.shape[0] != amat.shape[1] or np.linalg.cond(amat) > 1e9:
        raise TomographyError("singular design matrix: input states or bases "
                              "are not informationally complete")
    entry = (lu_factor(amat), nb)
    _design_cache[key] = entry
    return entry


def reconstruct_from_probabilities(probs, states, projs):
    """Linear inversion, then clip to positive semidefinite and rescale the trace."""
    lu, nb = _design(states, projs)
    x = lu_solve(lu, np.asarray(probs, dtype=float).ravel())
    chi = nearest_psd(herm_from_params(x, nb))
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
    return reconstruct_from_probabilities(_frequencies(data.counts), data.input_states,
                                          data.measurement_bases)


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


def poisson_uncertainty(data, chi_ref=None, resamples=50, seed=0):
    """Std-dev of the process fidelity under Poisson re-draws of the counts."""
    if resamples < 2:
        raise TomographyError("need at least 2 resamples")
    if chi_ref is None:
        chi_ref = reconstruct_chi(data)
    fids = np.empty(resamples)
    for r in range(resamples):
        rng = np.random.default_rng([seed, r])
        chi = reconstruct_from_probabilities(_frequencies(rng.poisson(data.counts)),
                                             data.input_states, data.measurement_bases)
        fids[r] = process_fidelity(chi, chi_ref).value
    return float(np.std(fids))
