"""Quantum Fisher information four ways: spectral SLD formula, channel minimax
over equivalent Kraus representations, closed forms, and matrix-element
shortcuts, with cross-validation hooks.
"""
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .channels import (GeneratorH, PhaseChannelFamily, amplitude_damping, evolve,
                       rotate_kraus)
from .linalg import PAULIS, herm_from_params

SUPPORT_CUTOFF = 1e-10
DUALITY_GAP_TOL = 1e-6
BLOCH_GRID = 64


class QfiError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """The supremum's spectral bound exceeds its primal value by more than
    DUALITY_GAP_TOL."""


@dataclass(frozen=True)
class QfiResult:
    value: float
    method: str
    optimal_input: np.ndarray = None
    optimal_h: GeneratorH = None


@dataclass(frozen=True)
class SldOperator:
    mat: np.ndarray
    support_cutoff: float
    residual: float


def sld_qfi(rho, drho, cutoff=SUPPORT_CUTOFF):
    """QFI and logarithmic-derivative operator from (rho, drho).

    Works in the eigenbasis of rho; eigenvalue pairs with li + lj <= cutoff
    are outside the support and dropped.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if np.abs(rho - rho.conj().T).max() > 1e-9 or np.abs(drho - drho.conj().T).max() > 1e-9:
        raise QfiError("rho and drho must be Hermitian")
    w, v = np.linalg.eigh(rho)
    m = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    mask = denom > cutoff
    value = (2 * np.abs(m) ** 2 / np.where(mask, denom, 1.0))[mask].sum()
    lam = np.where(mask, 2 * m / np.where(mask, denom, 1.0), 0.0)
    sld = v @ lam @ v.conj().T
    # defining relation checked on the support only
    proj = v[:, w > cutoff] @ v[:, w > cutoff].conj().T
    resid = proj @ (drho - (sld @ rho + rho @ sld) / 2) @ proj
    return (QfiResult(value=float(value.real), method="sld"),
            SldOperator(mat=sld, support_cutoff=cutoff, residual=float(np.abs(resid).max())))


def closed_form_qfi(kind, param, assisted):
    """The four single-probe closed forms."""
    if not 0 <= param <= 1:
        raise QfiError(f"parameter must lie in [0, 1], got {param}")
    if kind == "ad":
        return 2 * (1 - param) / (2 - param) if assisted else 1 - param
    if kind == "depol":
        return 2 * (1 - param) ** 2 / (2 - param) if assisted else (1 - param) ** 2
    raise QfiError(f"unknown channel kind {kind!r}")


def two_probe_collective_ad_qfi(eta, phi):
    """Published two-probe collective closed form, evaluated exactly as printed."""
    if not 0 <= eta <= 1:
        raise QfiError(f"eta must lie in [0, 1], got {eta}")
    a = (eta - 1) ** 2
    b = (eta - 2) * eta
    num = 8 * a * (2 * a * np.cos(8 * phi) + b * (b + 2) + 2)
    return num / (b + 2) ** 3


def two_probe_sld_oracle(eta, phi):
    """Independent check of the two-probe curve: SLD QFI of the four-qubit
    probe-ancilla GHZ state with phase plus decay on both probes."""
    fam = PhaseChannelFamily(amplitude_damping(eta))
    psi = np.zeros(16, dtype=complex)
    psi[0] = psi[15] = 1 / np.sqrt(2)
    # the GHZ input is symmetric under qubit permutation, so the probes may
    # come first and the ancilla pair last
    rho, drho = evolve(np.outer(psi, psi.conj()), *fam.composite(phi, 2, ancilla=True))
    result, _ = sld_qfi(rho, drho)
    return result.value


@lru_cache(maxsize=None)
def _rotation_basis(m):
    """i times each of the m*m Hermitian matrices that herm_from_params weighs
    by its parameters."""
    basis = 1j * np.stack([herm_from_params(e, m) for e in np.eye(m * m)])
    basis.flags.writeable = False
    return basis


def _rotation_lstsq(ks, dks, s):
    """Exact minimization over Hermitian h of sum_i ||(dK_i - i h_ij K_j) S||_F^2.

    The objective is a convex quadratic in h's real parameters, so the optimum
    is a linear least-squares problem. ks and dks are stacked (m, d, d) arrays.
    Returns (4 * minimum, optimal params).
    """
    m = len(ks)
    b = (dks @ s).ravel()
    # column p holds i * sum_j E_p[i, j] K_j S in block i, E_p the p-th basis matrix
    amat = np.einsum('pij,jn->inp', _rotation_basis(m),
                     (ks @ s).reshape(m, -1)).reshape(b.size, m * m)
    areal = np.vstack([amat.real, amat.imag])
    breal = np.concatenate([b.real, b.imag])
    # unit columns, so that near-zero Kraus operators keep their directions
    # above the rank cutoff instead of driving h to huge, cancelling values
    norms = np.linalg.norm(areal, axis=0)
    norms[norms == 0] = 1.0
    areal /= norms
    x, _, _, _ = np.linalg.lstsq(areal, breal, rcond=None)
    r = breal - areal @ x
    return 4 * float(r @ r), x / norms


def _pure_inner_values(ks, dks, kets):
    """_rotation_lstsq's minimum at each pure probe of the (n, d) stack kets,
    in closed form.

    With U and V the (m, d) stacks of K_i s and dK_i s, the optimal h solves
    hG + Gh = C for G = U U^dag and C = i(V U^dag - U V^dag), so in G's
    eigenbasis the minimum is ||V||^2 - 1/2 sum_ab |C_ab|^2 / (g_a + g_b).
    Pairs with g_a + g_b at round-off level are outside the span and dropped.
    """
    u = np.einsum('mij,nj->nmi', ks, kets)
    v = np.einsum('mij,nj->nmi', dks, kets)
    vu = v @ u.conj().transpose(0, 2, 1)
    g, e = np.linalg.eigh(u @ u.conj().transpose(0, 2, 1))
    c = e.conj().transpose(0, 2, 1) @ (1j * (vu - vu.conj().transpose(0, 2, 1))) @ e
    denom = g[:, :, None] + g[:, None, :]
    keep = denom > np.finfo(float).eps * len(ks) * g[:, -1:, None]
    drop = (np.abs(c) ** 2 / np.where(keep, denom, 1.0) * keep).sum(axis=(1, 2))
    return 4 * (np.einsum('nmi,nmi->n', v.conj(), v).real - drop / 2)


def _bloch_ket(theta, beta):
    return np.array([np.cos(theta / 2), np.exp(1j * beta) * np.sin(theta / 2)])


def _bloch_vector(theta, beta):
    return np.array([np.sin(theta) * np.cos(beta),
                     np.sin(theta) * np.sin(beta),
                     np.cos(theta)])


@lru_cache(maxsize=None)
def _bloch_grid():
    """The bare search's grid in scan order: theta and beta of each point, its
    ket, and the lexicographic rank of its Bloch vector rounded to 9 digits
    (equal vectors share a rank)."""
    thetas, betas = (a.ravel() for a in np.meshgrid(
        np.linspace(0, np.pi, BLOCH_GRID),
        np.linspace(0, 2 * np.pi, BLOCH_GRID, endpoint=False), indexing="ij"))
    rank = np.unique(np.round(_bloch_vector(thetas, betas).T, 9), axis=0,
                     return_inverse=True)[1].ravel()
    grid = (thetas, betas, _bloch_ket(thetas, betas).T, rank)
    for a in grid:
        a.flags.writeable = False
    return grid


def channel_qfi_minimax(fam, extended=True, phi0=0.0):
    """Channel QFI by minimizing over equivalent Kraus representations.

    extended=True: the ancilla-assisted value, evaluated at the balanced
    maximally entangled probe, where the representation optimum is an exact
    least-squares solve. extended=False: maximum over pure single-probe
    inputs of the inner representation minimum (closed form on a
    BLOCH_GRID x BLOCH_GRID Bloch grid, then simplex refinement).
    """
    ks, dks = fam.composite(phi0)
    m = len(ks)
    if extended:
        s = np.eye(2) / np.sqrt(2)
        value, x = _rotation_lstsq(ks, dks, s)
        return QfiResult(value=value, method="minimax",
                         optimal_h=GeneratorH(herm_from_params(x, m)))

    def inner(theta, beta):
        return _rotation_lstsq(ks, dks, _bloch_ket(theta, beta)[:, None])

    thetas, betas, kets, rank = _bloch_grid()
    # in 16 slices, so that the stacked (n, m, m) temporaries stay under 1 MB
    vals = np.concatenate([_pure_inner_values(ks, dks, part)
                           for part in np.array_split(kets, 16)])
    top, lead, pick = -1.0, 0, 0
    for i, val in enumerate(vals.tolist()):
        if val > top + 1e-12:
            top, lead, pick = val, i, i
        elif abs(val - top) <= 1e-12 and rank[i] < rank[pick]:
            # degenerate maxima: keep the lexicographically smallest Bloch vector
            pick = i
    # the polish must beat the grid maximum as its own least-squares solve gives it
    best = inner(thetas[lead], betas[lead])[0]
    start = (thetas[pick], betas[pick])
    ref = minimize(lambda ang: -inner(ang[0], ang[1])[0], x0=start,
                   method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxfev": 400})
    theta, beta = (ref.x if -ref.fun >= best else start)
    value, x = inner(theta, beta)
    ket = _bloch_ket(theta, beta)
    return QfiResult(value=value, method="minimax",
                     optimal_input=np.outer(ket, ket.conj()),
                     optimal_h=GeneratorH(herm_from_params(x, m)))


def _ball_state(v):
    """Qubit state whose Bloch vector is v pulled radially into the unit ball."""
    r = v / max(1.0, np.linalg.norm(v))
    return (PAULIS[0] + np.tensordot(r, PAULIS[1:], axes=1)) / 2


def channel_qfi_supremum(fam, phi0=0.0):
    """Channel QFI maximized over all (arbitrarily entangled) probe-ancilla inputs.

    tr(rho alpha(h)), with alpha(h) = sum_i dtK_i^dag dtK_i and
    dtK_i = dK_i - i sum_j h_ij K_j, is convex in h and linear in the probe's
    reduced state rho. By Sion's minimax theorem the worst-representation
    spectral bound min_h 4 lambda_max(alpha(h)) therefore equals the maximum
    over the Bloch ball of the least-squares inner minimum with S = sqrt(rho),
    the same solve that channel_qfi_minimax makes at rho = I/2 (extended) and
    on the Bloch sphere (bare). That maximum is concave in rho, so a single
    simplex ascent from I/2 finds it.

    The spectral bound at the returned h is the dual value; a duality gap
    above DUALITY_GAP_TOL raises ConvergenceError. That also happens when the
    maximizing rho is pure, where the least-squares h need not be the minimax
    one. optimal_input is the maximizing reduced state; any purification of it
    with the ancilla attains the value.
    """
    ks, dks = fam.composite(phi0)
    m = len(ks)

    def inner(v):
        w, u = np.linalg.eigh(_ball_state(v))
        return _rotation_lstsq(ks, dks, (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T)

    ascent = minimize(lambda v: -inner(v)[0], x0=np.zeros(3), method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-14})
    value, x = inner(ascent.x)
    h = herm_from_params(x, m)
    rot = rotate_kraus(fam, h, phi0)
    dual = 4 * np.linalg.eigvalsh(np.einsum('ilk,ilm->km', rot.conj(), rot))[-1]
    if dual - value > DUALITY_GAP_TOL:
        raise ConvergenceError(
            f"duality gap {dual - value:.2e} exceeds {DUALITY_GAP_TOL:g}")
    return QfiResult(value=value, method="minimax",
                     optimal_input=_ball_state(ascent.x),
                     optimal_h=GeneratorH(h))


_MATRIX_ELEMENT_TERMS = {
    "ad_single": (2, [(0, 1)]),
    "depol_single": (2, [(0, 1)]),
    "ad_assisted": (4, [(0, 3)]),
    "depol_assisted": (4, [(0, 3), (1, 2)]),
}


def qfi_from_matrix_elements(rho, kind):
    """Coherence-over-population shortcut formulas for the optimized QFI."""
    try:
        dim, terms = _MATRIX_ELEMENT_TERMS[kind]
    except KeyError:
        raise QfiError(f"unknown kind {kind!r}") from None
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise QfiError(f"kind {kind!r} expects a {dim}x{dim} state, got {rho.shape}")
    total = 0.0
    for i, j in terms:
        pop = rho[i, i].real + rho[j, j].real
        if pop > 1e-14:
            total += (2 * abs(rho[i, j])) ** 2 / pop
    return total


def cramer_rao(j, nu):
    """Phase-deviation lower bound 1/sqrt(nu * J)."""
    if j <= 0:
        raise QfiError(f"information must be positive, got {j}")
    if nu < 1:
        raise QfiError("repetition count must be at least 1")
    return 1 / np.sqrt(nu * j)
