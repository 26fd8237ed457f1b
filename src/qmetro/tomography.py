"""Simulated process tomography: product-state preparations, projective
two-outcome measurement settings, multinomial counts, linear-inversion chi
reconstruction with positivity projection, and process fidelity.

Each sampled stage draws from one generator of its own, seeded by an int or a
sequence of ints `seed` with the stage index appended, as Monte-Carlo
estimation does. `simulate_qpt(ch, shots, seed)` draws all outcome-0 counts as
one `default_rng(seed + [0]).binomial(shots, p)` call over the (inputs,
settings) table in C order. `poisson_uncertainty(data, chi_ref, resamples,
seed)` makes one `default_rng(seed + [1]).poisson(counts, size=(rows,
*counts.shape))` call per block of at most `_CHUNK_ROWS` resamples; numpy
draws the rows in order, so resample r does not depend on the number of
resamples.
"""
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import evolve
from .linalg import _seed_list, nearest_psd, pauli_basis, projector

# preparation kets; the measurement settings project onto the same set
INPUT_KETS = (
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, -1j]) / np.sqrt(2),
    np.array([1, 1], dtype=complex) / np.sqrt(2),
)

# Poisson tables that one bootstrap block draws and reconstructs as a stack
_CHUNK_ROWS = 4096


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


def _require_hermitian(mats):
    """Raise unless every matrix of the stack is finite and Hermitian (NaN fails)."""
    if not np.abs(mats - np.swapaxes(mats, -1, -2).conj()).max() <= 1e-10:
        raise TomographyError("chi must be finite and Hermitian")


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix in the Pauli (product) operator basis."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise TomographyError(f"chi must be square and non-empty, got shape {mat.shape}")
        _require_hermitian(mat)
        object.__setattr__(self, "mat", mat)

    @property
    def dim_basis(self):
        return len(self.mat)

    def json_text(self):
        """The chi file: the text `json.dump` writes for {"dim_basis", "re",
        "im"} (flattened parts) with indent=2 and sorted keys, with no trailing
        newline. `float.__repr__` is json's float format; the matrix is finite
        and non-empty, so neither NaN nor an empty list can occur."""
        def floats(part):
            return "[\n    " + ",\n    ".join(map(float.__repr__, part.ravel().tolist())) + "\n  ]"
        return (f'{{\n  "dim_basis": {self.dim_basis},\n  "im": {floats(self.mat.imag)},'
                f'\n  "re": {floats(self.mat.real)}\n}}')


def chi_theory(ch):
    """Exact chi matrix of a Kraus channel, via Pauli expansion of each operator."""
    d = ch.dim
    basis = _design(d).basis
    c = np.einsum('bji,mji->mbi', basis.conj(), ch.kraus).sum(-1) / d
    return ChiMatrix(c.T @ c.conj())


@dataclass(frozen=True)
class QptDataset:
    """Counts for every (input state, measurement setting) pair of the
    `product_states` design: a 16 x 16 table with the ancilla, 4 x 4 without."""

    counts: np.ndarray             # (n_inputs, n_bases, 2) nonnegative ints

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if not counts.size:
            raise TomographyError(f"counts table is empty, shape {counts.shape}")
        # finiteness first: `min() < 0` is False for NaN
        if not np.isfinite(counts).all() or counts.min() < 0 or (counts % 1).any():
            raise TomographyError("counts must be finite nonnegative integers")
        object.__setattr__(self, "counts", counts)


def born_probabilities(ch):
    """Exact outcome-0 probabilities, shape (n_inputs, n_bases)."""
    states = _design(ch.dim).states
    outs = evolve(states, ch.kraus)
    p = np.einsum('mij,lji->lm', states, outs).real
    return np.clip(p, 0.0, 1.0)


def simulate_qpt(ch, shots=20000, seed=0):
    """Two-outcome counts of every setting, one binomial draw (module docstring)."""
    if not (shots >= 1 and float(shots).is_integer()):
        raise TomographyError(f"shots must be a whole number of at least 1, got {shots}")
    shots = int(shots)
    rng = np.random.default_rng(_seed_list(seed) + [0])
    n0 = rng.binomial(shots, born_probabilities(ch))
    return QptDataset(np.stack([n0, shots - n0], axis=-1))


def _reconstruct(probs):
    """`reconstruct_from_probabilities` over tables (..., n_inputs, n_bases): each
    table gets its own matrix-vector product and eigendecomposition, so each
    chi equals the one reconstructed from its table alone, bit for bit."""
    design = _design(math.isqrt(probs.shape[-2]))
    nb, lead = len(design.basis), probs.shape[:-2]
    if probs.shape[-2:] != (nb, nb):
        raise TomographyError(f"probabilities must have shape {(nb, nb)}, got {probs.shape}")
    if not np.isfinite(probs).all():  # before the eigendecomposition sees them
        raise TomographyError("probability table holds a NaN or an inf")
    x = np.matmul(design.inverse, probs.reshape(*lead, nb * nb, 1)).reshape(*lead, nb, nb)
    chi = nearest_psd((x + np.swapaxes(x, -1, -2).conj()) / 2)
    tr = np.trace(chi, axis1=-2, axis2=-1).real
    if not np.min(tr) > 0:
        raise TomographyError("reconstructed chi has nonpositive trace")
    chi = chi / tr[..., None, None]
    _require_hermitian(chi)
    return chi


def reconstruct_from_probabilities(probs):
    """Linear inversion of an (n_inputs, n_bases) table of outcome-0
    probabilities, then clip to positive semidefinite and rescale the trace."""
    return ChiMatrix(_reconstruct(np.atleast_2d(np.asarray(probs, dtype=float))))


def _frequencies(counts):
    """Outcome-0 frequency per setting of count tables (..., n_inputs, n_bases,
    2); 0.5 where a setting drew no counts."""
    totals = counts.sum(axis=-1)
    return np.where(totals > 0, counts[..., 0], 0.5) / np.where(totals > 0, totals, 1)


def reconstruct_chi(data):
    """Reconstruct chi from a counted dataset using per-setting frequencies."""
    return reconstruct_from_probabilities(_frequencies(data.counts))


@dataclass(frozen=True)
class FidelityReport:
    value: float
    imag_residual: float


def _overlap(a, b):
    """Normalized Hilbert-Schmidt overlaps of chi matrices a and b, which
    broadcast over their leading axes; returns (value, imag_residual) arrays."""
    def inner(x, y):
        return np.trace(np.matmul(np.swapaxes(x, -1, -2).conj(), y), axis1=-2, axis2=-1)

    na, nb = inner(a, a).real, inner(b, b).real
    if not (np.min(na) > 0 and np.min(nb) > 0):
        raise TomographyError("zero-norm chi matrix")
    ov = inner(b, a) / np.sqrt(na * nb)
    residual = np.abs(ov.imag)
    if not np.max(residual) <= 1e-8:
        raise TomographyError(f"fidelity has imaginary residual {np.max(residual):.2e}")
    return ov.real, residual


def process_fidelity(exp, th):
    """Normalized Hilbert-Schmidt overlap of two chi matrices."""
    return FidelityReport(*map(float, _overlap(exp.mat, th.mat)))


def poisson_uncertainty(data, chi_ref, resamples=50, seed=0):
    """Std-dev of the process fidelity to chi_ref under Poisson re-draws of the
    counts."""
    if resamples < 2:
        raise TomographyError("need at least 2 resamples")
    rng, fids = np.random.default_rng(_seed_list(seed) + [1]), []
    # the contract of the module docstring: stacks of a few thousand tables
    for start in range(0, resamples, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, resamples - start)
        counts = rng.poisson(data.counts, size=(rows, *data.counts.shape))
        fids.append(_overlap(_reconstruct(_frequencies(counts)), chi_ref.mat)[0])
    return float(np.std(np.concatenate(fids)))
