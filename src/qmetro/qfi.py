"""Quantum Fisher information four ways: spectral SLD formula, channel minimax
over equivalent Kraus representations, closed forms, and matrix-element
shortcuts, with cross-validation hooks.
"""
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import GeneratorH, PhaseChannelFamily, amplitude_damping, evolve
from .linalg import PAULIS

SUPPORT_CUTOFF = 1e-10
DUALITY_GAP_TOL = 1e-6
BLOCH_GRID = 64
NEWTON_STEPS = 16  # most steps of the bare polish
NEWTON_HALVINGS = 40  # step scales 1, 1/2, ... each line search tries
NEWTON_FLOOR = 1e-8  # least curvature magnitude, as a fraction of the value
NEWTON_RTOL = 1e-15  # least predicted gain, as a fraction of the value
RIDGE_RTOL = 1e-8  # largest sigma_2 / sigma_1 of a ridge ket's K_i psi (m >= 3)


class QfiError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """No candidate of the supremum is certified: at each one the spectral
    bound exceeds the value by more than DUALITY_GAP_TOL, or falls below it
    by more than round-off."""


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
    if not all(np.abs(a - a.conj().T).max() <= 1e-9 for a in (rho, drho)):
        raise QfiError("rho and drho must be finite and Hermitian")
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


def _bloch_map(ks, dks):
    """The affine Bloch map of rho -> sum_i K_i rho K_i^dag and its phase
    derivative: (a, b), stacked (2, 3, 3) and (2, 3), such that the input with
    Bloch vector r0 has output r = a[0] r0 + b[0] and dr = a[1] r0 + b[1].

    Both are read off t_nab = sum_i tr(sigma_a X_i sigma_b K_i^dag), X = K or
    dK; the derivative is sum_i dK_i rho K_i^dag + h.c.
    """
    t = np.einsum('aij,nmjk,bkl,mil->nab', PAULIS, np.stack([ks, dks]),
                  PAULIS, ks.conj()).real
    # rho = (I + r0.sigma) / 2 halves both sums; the derivative's two terms
    # are complex conjugates, which doubles its real part back
    t[0] /= 2
    return t[:, 1:, 1:], t[:, 1:, 0]


def _bloch_information(bmap, r0):
    """SLD information of the output at the pure inputs with Bloch vectors r0
    (n, 3), which for a pure input with a mixed output is _inner's minimum
    over Kraus representations (Fujiwara & Imai, J. Phys. A 41, 255304 (2008);
    Escher, de Matos Filho & Davidovich, Nat. Phys. 7, 406 (2011)).

    bmap is _bloch_map's (a, b). A qubit state's information is
    |dr|^2 + (r.dr)^2 / (1 - |r|^2), the second term dropped where
    1 - |r|^2 <= SUPPORT_CUTOFF (pure output).
    """
    a, b = bmap
    # the bits of one stacked (2, n, 3) product, without its heap-cycling temporary
    r, dr = (r0 @ a[k].T + b[k] for k in (0, 1))
    gap = 1 - np.einsum('ni,ni->n', r, r)
    mixed = gap > SUPPORT_CUTOFF
    return (np.einsum('ni,ni->n', dr, dr)
            + mixed * np.einsum('ni,ni->n', r, dr) ** 2 / np.where(mixed, gap, 1.0))


def _bloch_derivatives(bmap, theta, beta):
    """Gradient (2,) and Hessian (2, 2) of _bloch_information in (theta, beta)
    at the input _bloch_vector(theta, beta).

    With q = |dr|^2, p = r.dr and g = 1 - |r|^2 the information is
    q + p^2 / g. Each of q, p and |r|^2 is a dot product u.v of two affine
    images of the input, so its derivatives come from the dot products of
    the input's Bloch vector and its first and second angle derivatives.
    """
    st, ct, sb, cb = np.sin(theta), np.cos(theta), np.sin(beta), np.cos(beta)
    # rows: r0, d/dtheta, d/dbeta, d2/dtheta2, d2/dtheta dbeta, d2/dbeta2
    x = np.array([[st * cb, st * sb, ct], [ct * cb, ct * sb, -st],
                  [-st * sb, st * cb, 0], [-st * cb, -st * sb, -ct],
                  [-ct * sb, ct * cb, 0], [-st * cb, -st * sb, 0]])
    a, b = bmap
    r, dr = x @ a.swapaxes(1, 2)
    r[0] += b[0]
    dr[0] += b[1]
    second = np.array([[3, 4], [4, 5]])

    def dot(u, v):
        """u.v with its gradient and Hessian in the angles."""
        w = u @ v.T
        first = w[1:3, 1:3]
        return (w[0, 0], w[0, 1:3] + w[1:3, 0],
                w[0, second] + w[second, 0] + first + first.T)

    _, grad, hess = dot(dr, dr)
    p, dp, ddp = dot(r, dr)
    rr, drr, ddrr = dot(r, r)
    gap = 1 - rr
    if gap > SUPPORT_CUTOFF:
        # p^2 / g with dg = -drr: its gradient is w (2 dp + w drr) and its
        # Hessian 2 v v^T / g + 2 w ddp + w^2 ddrr, with w = p / g, v = dp + w drr
        w = p / gap
        v = dp + w * drr
        grad = grad + w * (2 * dp + w * drr)
        hess = hess + 2 * np.outer(v, v) / gap + 2 * w * ddp + w * w * ddrr
    return grad, hess


def _newton_ascent(derivatives, values, x, value, cap, steps):
    """Newton ascent from x, where the function has the given value; returns
    the final x. derivatives(x) gives the gradient and Hessian at x, and
    values(xs) the function at each row of xs.

    Each step scales the gradient in the Hessian's eigenbasis by the inverse
    curvature magnitudes, floored at NEWTON_FLOOR * value: a Newton step
    where the function is concave, an ascent step elsewhere, and a bounded
    step along flat directions, where the Hessian is singular. The step is
    capped at length cap, and the line search tries it at scales
    1, 1/2, ..., 2^-(NEWTON_HALVINGS - 1) in one stacked evaluation and keeps
    the best, so the value never decreases. The ascent stops when the
    predicted gain falls to NEWTON_RTOL * value, when no scale improves on
    the current value, or after the given number of steps.
    """
    scales = 0.5 ** np.arange(NEWTON_HALVINGS)
    for _ in range(steps):
        if not value > 0:
            break
        grad, hess = derivatives(x)
        w, v = np.linalg.eigh(hess)
        gv = grad @ v
        ratio = gv / np.maximum(np.abs(w), NEWTON_FLOOR * value)
        if gv @ ratio <= 2 * NEWTON_RTOL * value:
            break
        step = v @ ratio
        step *= min(1.0, cap / np.linalg.norm(step))
        trials = x + scales[:, None] * step
        vals = values(trials)
        best = np.argmax(vals)
        if vals[best] < value:
            break
        x, value = trials[best], vals[best]
    return x


def _ridge_kets(ks):
    """Pure inputs whose output is pure: every K_i psi is parallel, so
    _inner's Gram matrix has rank 1 there, and the information is singular.

    Such a psi is a null vector of the pencil s K_2 - t K_1 at a root of the
    quadratic det(s K_2 - t K_1) = a t^2 + b t s + c s^2, a = det K_1 and
    c = det K_2. Its roots are taken in homogeneous form, (t, s) = (q, a) and
    (c, q) with q = -(b +- sqrt(b^2 - 4ac)) / 2, so that a singular K_1 or K_2
    (an infinite or zero eigenvalue) needs no special case. With m = 2 operators both kets are
    candidates; with m >= 3 a ket is kept only where every K_i psi is
    parallel (second singular value at most RIDGE_RTOL of the first), which
    holds only at common eigenvectors of the pencils, so usually none is.
    """
    if len(ks) < 2:
        return []
    k1, k2 = ks[0], ks[1]
    a, c = np.linalg.det(k1), np.linalg.det(k2)
    b = -(k2[0, 0] * k1[1, 1] + k2[1, 1] * k1[0, 0]
          - k2[0, 1] * k1[1, 0] - k2[1, 0] * k1[0, 1])
    root = np.sqrt(b * b - 4 * a * c + 0j)
    q = -(b + root if abs(b + root) >= abs(b - root) else b - root) / 2
    roots = np.array([[q, a], [c, q]])
    pencils = roots[:, 1, None, None] * k2 - roots[:, 0, None, None] * k1
    kets = np.linalg.svd(pencils)[2][:, -1].conj()
    if len(ks) > 2:
        sv = np.linalg.svd(np.einsum('mij,nj->nmi', ks, kets), compute_uv=False)
        kets = kets[sv[:, 1] <= RIDGE_RTOL * sv[:, 0]]
    return list(kets)


def _grid_pick(vals):
    """Index of the grid maximum; degenerate maxima go to the lexicographically
    smallest Bloch vector among them."""
    near = np.flatnonzero(vals >= vals.max() - 1e-12)
    return near[np.argmin(_bloch_grid()[3][near])]


def _bare_kets(ks, dks):
    """The bare search's candidates: the grid's best point, polished by Newton
    steps of at most one grid spacing on the Bloch information, and the
    ridge kets."""
    bmap = _bloch_map(ks, dks)
    thetas, betas, vectors, _ = _bloch_grid()
    vals = _bloch_information(bmap, vectors)
    pick = _grid_pick(vals)
    top = _newton_ascent(lambda x: _bloch_derivatives(bmap, *x),
                         lambda xs: _bloch_information(bmap, _bloch_vector(*xs.T).T),
                         np.array([thetas[pick], betas[pick]]), vals[pick],
                         2 * np.pi / BLOCH_GRID, NEWTON_STEPS)
    return [_bloch_ket(*top), *_ridge_kets(ks)]


def channel_qfi_minimax(fam, extended=True, phi0=0.0):
    """Channel QFI by minimizing over equivalent Kraus representations.

    extended=True: the ancilla-assisted value, evaluated at the balanced
    maximally entangled probe (S = I/sqrt(2) in _inner). extended=False:
    maximum over pure single-probe inputs of the inner representation minimum.
    For a pure input with a mixed output that minimum is the SLD information
    of the qubit output, so one affine Bloch map (_bloch_map) scores the
    BLOCH_GRID x BLOCH_GRID grid in closed form (_bloch_information), and
    Newton steps on that information polish the grid's best point. Where the
    output is pure the information is singular, and the minimum can peak
    there on a ridge narrower than the grid; those inputs are the pencil kets
    of _ridge_kets. The polished ket and every ridge ket (_bare_kets) are
    scored with single-ket _inner solves, and the best one gives the value,
    the input and the generator.
    """
    ks, dks = fam.composite(phi0)
    if extended:
        value, h = _inner(ks, dks, np.eye(2) / np.sqrt(2))
        return QfiResult(value=float(value), optimal_h=GeneratorH(h))

    value, h, ket = max(((*_inner(ks, dks, k[:, None]), k) for k in _bare_kets(ks, dks)),
                        key=lambda c: c[0])
    return QfiResult(value=float(value), optimal_input=np.outer(ket, ket.conj()),
                     optimal_h=GeneratorH(h))


# dL/dx_p of the factor L(x) = [[x_0, 0], [x_1 + i x_2, x_3]] of a qubit state
# L L^dag / |x|^2; tr(L L^dag) = |x|^2, and every qubit state has such a factor
_FACTOR_BASIS = np.array([[[1, 0], [0, 0]], [[0, 0], [1, 0]],
                          [[0, 0], [1j, 0]], [[0, 0], [0, 1]]])


def _rotated(ks, dks, h):
    """The rotated derivatives dtK_i = dK_i - i sum_j h_ij K_j, stacked over
    the leading axes of h."""
    if np.shape(h)[-2:] != (len(ks),) * 2:
        raise QfiError(f"h must be {len(ks)}x{len(ks)} for {len(ks)} Kraus operators")
    return dks - 1j * np.einsum('...ij,jkl->...ikl', h, ks)


def _alpha(ks, dks, h):
    """alpha(h) = sum_i dtK_i^dag dtK_i over the `_rotated` derivatives,
    stacked over the leading axes of h."""
    rot = _rotated(ks, dks, h)
    return np.einsum('...ilk,...ilm->...km', rot.conj(), rot)


def _certificate(ks, dks, s):
    """(value, gap, h, s) at the probe S: _inner's value and generator h, and
    the duality gap 4 lambda_max(alpha(h)) - value, the spectral bound being
    an upper bound on the supremum at every h.

    At a ket psi, h is free on P P^dag, P spanning the Gram matrix's kernel
    (singular values of the K_i psi stack above RIDGE_RTOL of the largest
    count as its rank). Every h + c P P^dag has the same value, and alpha psi
    = r0 + c r1 there, so the c that best cancels r0 + c r1 across psi is the
    only one that can make psi alpha's top eigenvector.
    """
    value, h = _inner(ks, dks, s)
    if s.shape[1] == 1:
        psi = s[:, 0]
        u, sv, _ = np.linalg.svd(ks @ psi)
        p = u[:, np.count_nonzero(sv > RIDGE_RTOL * sv[0]):]
        pp = p @ p.conj().T
        # the rotated operators at h + c pp are rot_i - i c Q_i, with Q_i psi = 0
        rot = _rotated(ks, dks, h)
        r = np.einsum('nilk,il->nk', np.stack(
            [rot, -1j * np.einsum('ij,jkl->ikl', pp, ks)]).conj(), rot @ psi)
        r0, r1 = r - np.outer(r @ psi.conj(), psi)
        h = h - np.vdot(r1, r0).real / max(np.vdot(r1, r1).real, np.finfo(float).tiny) * pp
    return value, 4 * np.linalg.eigvalsh(_alpha(ks, dks, h))[-1] - value, h, s


def channel_qfi_supremum(fam, phi0=0.0):
    """Channel QFI maximized over all (arbitrarily entangled) probe-ancilla inputs.

    tr(rho alpha(h)) (_alpha) is convex in h and linear in the probe's
    reduced state rho. By Sion's minimax theorem the worst-representation
    spectral bound min_h 4 lambda_max(alpha(h)) therefore equals the maximum
    over qubit states of the inner minimum F(rho), _inner at any S with
    S S^dag = rho: the solve channel_qfi_minimax makes at rho = I/2
    (extended) and at pure states (bare) (Fujiwara & Imai, J. Phys. A 41,
    255304 (2008)). F is concave in rho.

    The bare search's kets (_bare_kets) are certified first (_certificate).
    When none is, _newton_ascent climbs F from I/2 over x in R^4 with
    S = L(x) / |x| (_FACTOR_BASIS), which reaches every state with no
    boundary to stall on, for up to 4 * NEWTON_STEPS steps of length up to 0.5
    (|x| = sqrt 2 at the start). Its gradient is Danskin's,
    8 (A x - (F / 4) x) / |x|^2 with x.Ax = tr(L L^dag alpha(h*)) at _inner's
    generator h*, and its Hessian is central differences of that gradient.
    The best certified candidate gives the value, the state and the
    generator; when none is certified, ConvergenceError reports the least
    gap. optimal_input is the maximizing reduced state; any purification of
    it with the ancilla attains the value.
    """
    ks, dks = fam.composite(phi0)

    def root(xs):
        return np.tensordot(xs, _FACTOR_BASIS, axes=1) / np.linalg.norm(
            xs, axis=-1)[..., None, None]

    def values(xs):
        return _inner(ks, dks, root(xs), minimizer=False)[0]

    def gradients(xs):
        a = np.einsum('pij,qkj,nki->npq', _FACTOR_BASIS, _FACTOR_BASIS.conj(),
                      _alpha(ks, dks, _inner(ks, dks, root(xs))[1])).real
        ax = np.einsum('npq,nq->np', a, xs)
        rr = np.einsum('np,np->n', xs, xs)[:, None]
        return 8 * (ax - np.einsum('np,np->n', xs, ax)[:, None] / rr * xs) / rr

    def derivatives(x):
        grads = gradients(x + np.vstack([np.zeros(4), 1e-5 * np.eye(4), -1e-5 * np.eye(4)]))
        hess = (grads[1:5] - grads[5:]) / 2e-5
        # F is constant along x, so only curvature across x counts
        across = np.eye(4) - np.outer(x, x) / (x @ x)
        return grads[0], across @ (hess + hess.T) @ across / 2

    # a gap below -1e-9 would break weak duality, so it is round-off, not a
    # certificate; NaN fails both tests
    scored = [_certificate(ks, dks, k[:, None]) for k in _bare_kets(ks, dks)]
    if not any(-1e-9 <= c[1] <= DUALITY_GAP_TOL for c in scored):
        # in x a straight ridge of F bends, so Newton takes more steps than
        # the bare polish: up to 46 on two-operator channels
        x0 = np.array([1.0, 0, 0, 1])
        top = _newton_ascent(derivatives, values, x0, values(x0[None])[0], 0.5,
                             4 * NEWTON_STEPS)
        scored.append(_certificate(ks, dks, root(top)))
    found = [c for c in scored if -1e-9 <= c[1] <= DUALITY_GAP_TOL]
    if not found:
        raise ConvergenceError(f"duality gap {min(c[1] for c in scored):.2e} "
                               f"exceeds {DUALITY_GAP_TOL:g}")
    value, _, h, s = max(found, key=lambda c: c[0])
    return QfiResult(value=float(value), optimal_input=s @ s.conj().T,
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

