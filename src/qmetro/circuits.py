"""Flagged realization of the depolarizing probe: a two-qubit dilation whose
ancilla heralds whether the probe passed untouched, and the variance bookkeeping
showing the herald recovers the assisted precision bound.
"""
from dataclasses import dataclass

import numpy as np

from .channels import (KrausChannel, PhaseChannelFamily, choi_matrix,
                       depolarizing, extend_with_ancilla, phase_unitary)
from .linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, projector
from .qfi import channel_qfi_minimax, closed_form_qfi


class CircuitError(ValueError):
    pass


# probe-controlled NOT on the ancilla, basis ordered kron(probe, ancilla)
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def build_flagged_channel(p):
    """Two-qubit channel applying isotropic Pauli noise to the probe while
    writing a which-error flag onto the ancilla.

    The phase flip leaves the ancilla alone; bit and bit-phase flips toggle it.
    """
    if not 0 <= p <= 1:
        raise CircuitError(f"noise weight must lie in [0, 1], got {p}")
    weights = (1 - 3 * p / 4, p / 4, p / 4, p / 4)
    pairs = ((PAULI_I, PAULI_I), (PAULI_Z, PAULI_I),
             (PAULI_X, PAULI_X), (PAULI_Y, PAULI_X))
    ops = [np.sqrt(w) * np.kron(a, b) for w, (a, b) in zip(weights, pairs) if w > 0]
    return KrausChannel(ops, label=f"flagged_depol({p:g})")


def conjugation_residual(p):
    """Max Choi-matrix deviation between the flagged channel and the same noise
    conjugated by probe-controlled NOTs acting on a fresh ancilla."""
    flagged = build_flagged_channel(p)
    conjugated = KrausChannel(CNOT @ extend_with_ancilla(depolarizing(p)).kraus @ CNOT,
                              label="conjugated")
    diff = choi_matrix(flagged) - choi_matrix(conjugated)
    return float(np.abs(diff).max())


@dataclass(frozen=True)
class FlaggedOutputReport:
    flag_weights: tuple          # probability of ancilla 0 / 1
    block_residuals: tuple       # max deviation from the predicted blocks
    offdiag_residual: float      # coherence between flag sectors (should vanish)
    mixing_parameter: float      # depolarized fraction of the heralded state
    conditional_residual: float


def _flag_block(rho4, a):
    return rho4[np.ix_([a, 2 + a], [a, 2 + a])]


def verify_flagged_output(p, phi):
    """Push a phase-encoded probe and a fresh ancilla through the flagged
    channel and compare both flag sectors with their closed forms."""
    ch = build_flagged_channel(p)
    u = phase_unitary(phi)
    probe = projector(u @ np.array([1, 1], dtype=complex) / np.sqrt(2))
    ancilla = projector(np.array([1, 0], dtype=complex))
    out = ch.apply(np.kron(probe, ancilla))

    block0 = _flag_block(out, 0)
    block1 = _flag_block(out, 1)
    pred0 = (1 - p) * probe + (p / 4) * np.eye(2)
    pred1 = (p / 4) * np.eye(2)
    w0, w1 = np.trace(block0).real, np.trace(block1).real

    offdiag = out.copy()
    offdiag[np.ix_([0, 2], [0, 2])] = 0
    offdiag[np.ix_([1, 3], [1, 3])] = 0

    q = (p / 2) / (1 - p / 2)
    cond_pred = (1 - q) * probe + q * np.eye(2) / 2
    cond_res = float(np.abs(block0 / w0 - cond_pred).max()) if w0 > 0 else 0.0

    return FlaggedOutputReport(
        flag_weights=(float(w0), float(w1)),
        block_residuals=(float(np.abs(block0 - pred0).max()),
                         float(np.abs(block1 - pred1).max())),
        offdiag_residual=float(np.abs(offdiag).max()),
        mixing_parameter=float(q),
        conditional_residual=cond_res,
    )


def flagged_variance(p):
    """Asymptotic phase variances per event: heralding on the no-flip flag
    versus discarding the flag.  Returns (flagged, unflagged)."""
    if not 0 <= p < 1:
        raise CircuitError(f"variance defined for noise weight in [0, 1), got {p}")
    flagged = (1 - p / 2) / (1 - p) ** 2
    unflagged = 1 / (1 - p) ** 2
    return float(flagged), float(unflagged)


@dataclass(frozen=True)
class VarianceReport:
    flagged_variance: float
    unflagged_variance: float
    inverse_flagged: float
    assisted_qfi: float
    closed_form_residual: float
    minimax_residual: float


def variance_consistency_check(p):
    """Check 1 / flagged variance against the assisted information of the
    isotropic channel, both in closed form and by the optimizer."""
    flagged, unflagged = flagged_variance(p)
    inv = 1 / flagged
    closed = closed_form_qfi("depol", p, assisted=True)
    fam = PhaseChannelFamily(depolarizing(p))
    minimax = channel_qfi_minimax(fam, extended=True).value
    return VarianceReport(
        flagged_variance=flagged,
        unflagged_variance=unflagged,
        inverse_flagged=float(inv),
        assisted_qfi=float(closed),
        closed_form_residual=float(abs(inv - closed)),
        minimax_residual=float(abs(inv - minimax)),
    )
