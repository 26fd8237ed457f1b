"""Quantum Fisher information four ways: spectral SLD formula, channel minimax
over equivalent Kraus representations, closed forms, and matrix-element
shortcuts, with cross-validation hooks.
"""
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (GeneratorH, PhaseChannelFamily, amplitude_damping, evolve,
                       rotate_kraus)
from .linalg import PAULIS

SUPPORT_CUTOFF = 1e-10
DUALITY_GAP_TOL = 1e-6
BLOCH_GRID = 64
SIMPLEX_XATOL = 1e-10
SIMPLEX_BUDGET = 200  # evaluations per coordinate


class QfiError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """The supremum's spectral bound exceeds its primal value by more than
    DUALITY_GAP_TOL."""


@dataclass(frozen=True)
class QfiResult:
    value: float
    optimal_input: np.ndarray = None
    optimal_h: GeneratorH = None


@dataclass(frozen=True)
class SldOperator:
    mat: np.ndarray
    residual: float


def sld_qfi(rho, drho):
    """QFI and logarithmic-derivative operator from (rho, drho).

    Works in the eigenbasis of rho; eigenvalue pairs with li + lj <=
    SUPPORT_CUTOFF are outside the support and dropped.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if np.abs(rho - rho.conj().T).max() > 1e-9 or np.abs(drho - drho.conj().T).max() > 1e-9:
        raise QfiError("rho and drho must be Hermitian")
    w, v = np.linalg.eigh(rho)
    m = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    mask = denom > SUPPORT_CUTOFF
    value = (2 * np.abs(m) ** 2 / np.where(mask, denom, 1.0))[mask].sum()
    lam = np.where(mask, 2 * m / np.where(mask, denom, 1.0), 0.0)
    sld = v @ lam @ v.conj().T
    # defining relation checked on the support only
    proj = v[:, w > SUPPORT_CUTOFF] @ v[:, w > SUPPORT_CUTOFF].conj().T
    resid = proj @ (drho - (sld @ rho + rho @ sld) / 2) @ proj
    return (QfiResult(value=float(value.real)),
            SldOperator(mat=sld, residual=float(np.abs(resid).max())))


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


def _inner(ks, dks, s, minimizer=True):
    """Exact minimum over Hermitian h of sum_i ||(dK_i - i sum_j h_ij K_j) S||_F^2
    at each S of the (..., d, k) stack s: kets have k = 1, square roots of
    states k = d. ks and dks are stacked (m, d, d) arrays.

    With U and V the (m, d*k) stacks of K_i S and dK_i S, G = U U^dag and
    C = i(V U^dag - U V^dag), the objective is ||V||^2 + tr(hGh) + tr(hC), so the
    optimal h solves hG + Gh = -C: in G's eigenbasis h_ab = -C_ab / (g_a + g_b),
    and the minimum is ||V||^2 - 1/2 sum_ab |C_ab|^2 / (g_a + g_b). Pairs with
    g_a + g_b at round-off level are outside the span of U and dropped
    (h_ab = 0 there). The value is the objective summed at that h, not the
    difference above, which cancels to ~1e-15 where the minimum is 0 (full
    damping); values at or below 64 eps ||V||^2 are round-off and returned
    as exact zeros.

    Returns (4 * minimum, optimal h), stacked over the leading axes of s; with
    minimizer=False h is None and is not rotated out of G's eigenbasis.
    """
    m = len(ks)
    lead = s.shape[:-2]
    u = np.einsum('mij,...jk->...mik', ks, s).reshape(lead + (m, -1))
    v = np.einsum('mij,...jk->...mik', dks, s).reshape(lead + (m, -1))
    vv = np.einsum('...mi,...mi->...', v.conj(), v).real
    g, e = np.linalg.eigh(u @ u.conj().swapaxes(-1, -2))
    eh = e.conj().swapaxes(-1, -2)
    u, v = eh @ u, eh @ v
    vu = v @ u.conj().swapaxes(-1, -2)
    denom = g[..., :, None] + g[..., None, :]
    keep = denom > np.finfo(float).eps * m * g[..., -1:, None]
    # -h in G's eigenbasis
    x = 1j * (vu - vu.conj().swapaxes(-1, -2)) / np.where(keep, denom, 1.0) * keep
    r = v + 1j * (x @ u)
    value = 4 * np.einsum('...mi,...mi->...', r.conj(), r).real
    value = value * (value > 64 * np.finfo(float).eps * vv)
    return value, (-(e @ x @ eh) if minimizer else None)


class _BudgetSpent(Exception):
    """The simplex asked for more evaluations than its budget."""


def _simplex_min(f, x0, fatol):
    """Nelder-Mead minimizer of f from x0 with xatol SIMPLEX_XATOL, the given
    fatol and a budget of SIMPLEX_BUDGET * n evaluations.

    It repeats the reference implementation that tests/test_qfi.py compares
    it with, step for step, so both return the same point bit for bit: the
    initial simplex moves each coordinate by 5 % (a zero one to 0.00025), the
    coefficients are reflection 1, expansion 2, contraction and shrink 1/2,
    vertices are ordered by np.argsort, and both tolerances are tested before
    each step. The evaluation that would exceed the budget abandons its step;
    vertices a shrink already moved stay moved, with their old values.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    left = SIMPLEX_BUDGET * n

    def fun(x):
        nonlocal left
        if left == 0:
            raise _BudgetSpent
        left -= 1
        return f(x)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return sim[ind], fsim[ind]

    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([fun(x) for x in sim], dtype=float)
    # ordered twice, as in the reference: argsort need not keep ties in place
    sim, fsim = ordered(*ordered(sim, fsim))
    while left > 0:
        if (np.max(np.abs(sim[1:] - sim[0])) <= SIMPLEX_XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = fun(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = fun(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = fun(xc)
                    shrink = not fxc <= fxr
                else:  # contract inside
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = fun(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = fun(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = ordered(sim, fsim)
    return sim[0]


def _bloch_ket(theta, beta):
    return np.array([np.cos(theta / 2), np.exp(1j * beta) * np.sin(theta / 2)])


def _bloch_vector(theta, beta):
    return np.array([np.sin(theta) * np.cos(beta),
                     np.sin(theta) * np.sin(beta),
                     np.cos(theta)])


@lru_cache(maxsize=None)
def _bloch_grid():
    """The bare search's grid in scan order: theta and beta of each point, its
    Bloch vector, and the lexicographic rank of that vector rounded to 9
    digits (equal vectors share a rank)."""
    thetas, betas = (a.ravel() for a in np.meshgrid(
        np.linspace(0, np.pi, BLOCH_GRID),
        np.linspace(0, 2 * np.pi, BLOCH_GRID, endpoint=False), indexing="ij"))
    vectors = _bloch_vector(thetas, betas).T
    rank = np.unique(np.round(vectors, 9), axis=0, return_inverse=True)[1].ravel()
    grid = (thetas, betas, vectors, rank)
    for a in grid:
        a.flags.writeable = False
    return grid


def _bloch_information(ks, dks, r0):
    """SLD information of the output at the pure inputs with Bloch vectors r0
    (n, 3), which for a pure input is _inner's minimum over Kraus
    representations (Fujiwara & Imai, J. Phys. A 41, 255304 (2008); Escher,
    de Matos Filho & Davidovich, Nat. Phys. 7, 406 (2011)).

    rho -> sum_i K_i rho K_i^dag is the affine Bloch map r = M r0 + c, and its
    phase derivative dr = dM r0 + dc comes from sum_i dK_i rho K_i^dag + h.c.;
    both are read off t_nab = sum_i tr(sigma_a X_i sigma_b K_i^dag), X = K or
    dK. A qubit state's information is |dr|^2 + (r.dr)^2 / (1 - |r|^2), the
    second term dropped where 1 - |r|^2 <= SUPPORT_CUTOFF (pure output).
    """
    t = np.einsum('aij,nmjk,bkl,mil->nab', PAULIS, np.stack([ks, dks]),
                  PAULIS, ks.conj()).real
    # rho = (I + r0.sigma) / 2 halves both sums; the derivative's two terms
    # are complex conjugates, which doubles its real part back
    t[0] /= 2
    r, dr = r0 @ t[:, 1:, 1:].swapaxes(1, 2) + t[:, None, 1:, 0]
    gap = 1 - np.einsum('ni,ni->n', r, r)
    mixed = gap > SUPPORT_CUTOFF
    return (np.einsum('ni,ni->n', dr, dr)
            + mixed * np.einsum('ni,ni->n', r, dr) ** 2 / np.where(mixed, gap, 1.0))


def _grid_pick(vals):
    """Index of the grid maximum; degenerate maxima go to the lexicographically
    smallest Bloch vector among them."""
    near = np.flatnonzero(vals >= vals.max() - 1e-12)
    return near[np.argmin(_bloch_grid()[3][near])]


def channel_qfi_minimax(fam, extended=True, phi0=0.0):
    """Channel QFI by minimizing over equivalent Kraus representations.

    extended=True: the ancilla-assisted value, evaluated at the balanced
    maximally entangled probe (S = I/sqrt(2) in _inner). extended=False:
    maximum over pure single-probe inputs of the inner representation minimum.
    For a pure input that minimum is the SLD information of the qubit output,
    so the BLOCH_GRID x BLOCH_GRID grid is scored in closed form from one
    affine Bloch map (_bloch_information); the simplex then polishes the
    grid's best point with single-ket _inner solves, and the value is the
    _inner minimum at the polished ket.
    """
    ks, dks = fam.composite(phi0)
    if extended:
        value, h = _inner(ks, dks, np.eye(2) / np.sqrt(2))
        return QfiResult(value=float(value), optimal_h=GeneratorH(h))

    def loss(ang):
        return -_inner(ks, dks, _bloch_ket(*ang)[:, None], minimizer=False)[0]

    thetas, betas, vectors, _ = _bloch_grid()
    pick = _grid_pick(_bloch_information(ks, dks, vectors))
    ket = _bloch_ket(*_simplex_min(loss, (thetas[pick], betas[pick]), fatol=1e-12))
    value, h = _inner(ks, dks, ket[:, None])
    return QfiResult(value=float(value), optimal_input=np.outer(ket, ket.conj()),
                     optimal_h=GeneratorH(h))


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
    over the Bloch ball of the inner minimum _inner with S = sqrt(rho), the
    same solve that channel_qfi_minimax makes at rho = I/2 (extended) and on
    the Bloch sphere (bare). That maximum is concave in rho, so a single
    simplex ascent from I/2 finds it.

    The spectral bound at the returned h is the dual value; a duality gap
    above DUALITY_GAP_TOL raises ConvergenceError. That also happens when the
    maximizing rho is pure, where the inner minimizer h need not be the minimax
    one. optimal_input is the maximizing reduced state; any purification of it
    with the ancilla attains the value.
    """
    ks, dks = fam.composite(phi0)

    def root(v):
        w, u = np.linalg.eigh(_ball_state(v))
        return (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T

    top = _simplex_min(lambda v: -_inner(ks, dks, root(v), minimizer=False)[0],
                       np.zeros(3), fatol=1e-14)
    value, h = _inner(ks, dks, root(top))
    rot = rotate_kraus(fam, h, phi0)
    dual = 4 * np.linalg.eigvalsh(np.einsum('ilk,ilm->km', rot.conj(), rot))[-1]
    if dual - value > DUALITY_GAP_TOL:
        raise ConvergenceError(
            f"duality gap {dual - value:.2e} exceeds {DUALITY_GAP_TOL:g}")
    return QfiResult(value=float(value), optimal_input=_ball_state(top),
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

