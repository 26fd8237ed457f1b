"""Monte-Carlo phase estimation for the six measurement schemes: outcome
models with interferometric visibility, multinomial sampling, arcsine moment
inversion, classical Fisher information, and error curves with bootstrap bars.

Finite visibility v enters every scheme the same way: the ideal distribution
at +phi is mixed with the one at -phi with weights (1+v)/2 and (1-v)/2, which
reproduces the published v-dependent formulas exactly.
"""
import math
from dataclasses import dataclass

import numpy as np

from .channels import NOISE, PhaseChannelFamily, evolve
from .linalg import _CHUNK_ROWS, _pcg64_doubles, _pcg64_seed, projector, substream_states


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class Scheme:
    """One readout scheme: the `channels.NOISE` family it runs under, the
    probes it sends through the channel, whether an entangled ancilla assists,
    the interference visibility of its optical setup, and its outcome labels."""

    noise: str
    probes: int
    assisted: bool
    visibility: float
    outcome_labels: tuple

    @property
    def default_events(self):
        """Events per repetition when a run does not set them."""
        return 2000 if self.probes == 2 else 20000


# one interference visibility per optical setup, shared by both variants
SCHEMES = {
    "ad_single_assisted": Scheme(
        "ad", 1, True, 0.9969, ("(HU+iVD)/sqrt2", "(HU-iVD)/sqrt2", "HD", "VU")),
    "depol_single_assisted": Scheme(
        "depol", 1, True, 0.9928, ("(HU+iVD)/sqrt2", "(HU-iVD)/sqrt2", "err_a", "err_b")),
    "ad_two_probe_assisted": Scheme(
        "ad", 2, True, 0.9699, ("plus", "minus", "double_decay", "decay_01", "decay_10")),
    "ad_single_bare": Scheme(
        "ad", 1, False, 0.9969, ("(H+iV)/sqrt2", "(H-iV)/sqrt2")),
    "depol_single_bare": Scheme(
        "depol", 1, False, 0.9928, ("(H+iV)/sqrt2", "(H-iV)/sqrt2")),
    "ad_two_probe_bare": Scheme(
        "ad", 2, False, 0.9699, ("(HH-iVV)/sqrt2", "(HH+iVV)/sqrt2", "decay_01", "decay_10")),
}


@dataclass(frozen=True)
class MeasurementModel:
    scheme: str
    noise_param: float
    visibility: float

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise EstimationError(f"unknown scheme {self.scheme!r}")
        if not 0 <= self.noise_param <= 1:
            raise EstimationError(f"noise parameter must lie in [0, 1], got {self.noise_param}")
        if not 0 <= self.visibility <= 1:
            raise EstimationError(f"visibility must lie in [0, 1], got {self.visibility}")

    @property
    def spec(self):
        """The scheme's record in `SCHEMES`."""
        return SCHEMES[self.scheme]

    @property
    def outcome_labels(self):
        return self.spec.outcome_labels


def model_for(scheme, noise_param, visibility=None):
    if scheme not in SCHEMES:
        raise EstimationError(f"unknown scheme {scheme!r}")
    if visibility is None:
        visibility = SCHEMES[scheme].visibility
    return MeasurementModel(scheme, float(noise_param), float(visibility))


# ---------------------------------------------------------------- bare probes

def _bare_setups():
    """(input state, readout projectors) of the bare schemes, by probe count."""
    e = np.eye(4, dtype=complex)
    # Y-basis readout for the single bare probe
    single = (projector(np.array([1, 1j]) / np.sqrt(2)),
              projector(np.array([1, -1j]) / np.sqrt(2)))
    two = (projector((e[0] - 1j * e[3]) / np.sqrt(2)),
           projector((e[0] + 1j * e[3]) / np.sqrt(2)),
           projector(e[1]), projector(e[2]))
    return {1: (projector(np.array([1, 1]) / np.sqrt(2)), single),
            2: (projector((e[0] + e[3]) / np.sqrt(2)), two)}


_BARE_SETUPS = _bare_setups()


def _bare_probs(model, phi, derivative=False):
    spec = model.spec
    rho_in, projs = _BARE_SETUPS[spec.probes]
    fam = PhaseChannelFamily(NOISE[spec.noise](model.noise_param))
    ks, dks = fam.composite(phi, spec.probes)
    out = evolve(rho_in, ks, dks)[1] if derivative else evolve(rho_in, ks)
    return np.array([np.trace(pj @ out).real for pj in projs])


def _ideal_probs(model, phi, derivative=False):
    """Outcome distribution (or its phi-derivative) at perfect visibility."""
    eta = model.noise_param
    scheme = model.scheme
    if scheme == "ad_single_assisted":
        s, ds = 2 * np.sqrt(1 - eta) * np.sin(phi), 2 * np.sqrt(1 - eta) * np.cos(phi)
        if derivative:
            return np.array([ds / 4, -ds / 4, 0.0, 0.0])
        return np.array([(2 - eta + s) / 4, (2 - eta - s) / 4, eta / 2, 0.0])
    if scheme == "depol_single_assisted":
        s, ds = 2 * (1 - eta) * np.sin(phi), 2 * (1 - eta) * np.cos(phi)
        if derivative:
            return np.array([ds / 4, -ds / 4, 0.0, 0.0])
        return np.array([(2 - eta + s) / 4, (2 - eta - s) / 4, eta / 4, eta / 4])
    if scheme == "ad_two_probe_assisted":
        s, ds = 2 * (1 - eta) * np.sin(2 * phi), 4 * (1 - eta) * np.cos(2 * phi)
        base = 2 - 2 * eta + eta ** 2
        if derivative:
            return np.array([-ds / 4, ds / 4, 0.0, 0.0, 0.0])
        return np.array([(base - s) / 4, (base + s) / 4, eta ** 2 / 2,
                         eta * (1 - eta) / 2, eta * (1 - eta) / 2])
    return _bare_probs(model, phi, derivative)


def probabilities(model, phi):
    """Outcome probabilities at phase phi, visibility folded in by mixing the
    ideal distributions at +phi and -phi."""
    v = model.visibility
    p = (1 + v) / 2 * _ideal_probs(model, phi) + (1 - v) / 2 * _ideal_probs(model, -phi)
    return np.clip(p, 0.0, 1.0)


def probability_derivatives(model, phi):
    v = model.visibility
    return ((1 + v) / 2 * _ideal_probs(model, phi, derivative=True)
            - (1 - v) / 2 * _ideal_probs(model, -phi, derivative=True))


def classical_fisher(model, phi):
    """Sum of (dP/dphi)^2 / P over the supported outcomes."""
    p = probabilities(model, phi)
    dp = probability_derivatives(model, phi)
    mask = p > 1e-12
    return float((dp[mask] ** 2 / p[mask]).sum())


def _contrast(model):
    eta = model.noise_param
    single_ad = model.spec.noise == "ad" and model.spec.probes == 1
    return model.visibility * (np.sqrt(1 - eta) if single_ad else 1 - eta)


def _arcsine(model, counts):
    """Arcsine estimates of every row of a (..., n_outcomes) counts array, and
    the mask of rows whose argument was clamped to +/-1."""
    counts = np.asarray(counts)
    total = counts.sum(axis=-1)
    if np.any(total <= 0):
        raise EstimationError("empty acquisition")
    denom = _contrast(model)
    if denom <= 0:
        raise EstimationError("zero contrast: the phase is invisible at these parameters")
    arg = np.clip((counts[..., 0] - counts[..., 1]) / (total * denom), -1.0, 1.0)
    estimates = np.arcsin(arg)
    if model.spec.probes == 2:
        # outcome 0 loses weight as the phase grows, and the doubled phase
        # halves on inversion
        estimates = -estimates / 2
    return estimates, np.abs(arg) == 1.0


def estimate_phase(model, counts):
    """Invert the +/- count asymmetry of one acquisition through the arcsine,
    clamped to [-1, 1]."""
    return float(_arcsine(model, counts)[0])


@dataclass(frozen=True)
class TrialEnsemble:
    counts: np.ndarray     # (repetitions, n_outcomes)
    estimates: np.ndarray  # (repetitions,)


@dataclass(frozen=True)
class ErrorReport:
    sqrt_nu_dphi: float
    bootstrap_std: float
    cr_bound: float
    shot_noise: float
    clamped: int           # repetitions whose arcsine argument hit +/-1


# ------------------------------------------------------------------ sampling
#
# `_multinomial_rows` gives each row of seed words the counts that
# `Generator(PCG64(...)).multinomial(events, pn)` draws, bit for bit, without a
# generator per row. It runs numpy's sampler (random_multinomial ->
# random_binomial -> inversion, or BTPE of Kachitvichyanukul & Schmeiser 1988)
# elementwise over the rows, in rounds over the rows still drawing, in C's
# order of operations. np.log can differ from libm's log by an ulp, and every
# log here feeds a comparison or a floor, so a decision within a relative
# _NEAR of flipping is redone with math.log, which is libm's.

_TRIES = 4     # BTPE attempts per stream in each round after the first
_RING = 2 * _TRIES  # doubles a stream holds drawn ahead: the prefill, or one request
_NEAR = 1e-12
_BLOCK = 128   # subsets of streams are padded to a multiple of this many


def _pad(idx):
    """idx with its last entry repeated up to a multiple of _BLOCK entries.

    Every step of the sampler is per stream, so a repeated stream computes
    and writes the same values twice. The padding keeps the temporaries of a
    round to a few sizes: numpy keeps up to 7 freed blocks of each size under
    1024 bytes, and rounds over subsets of every size would fill that cache
    with megabytes of them."""
    if len(idx) % _BLOCK == 0:
        return idx
    return idx.take(np.arange(len(idx) - len(idx) % _BLOCK + _BLOCK), mode="clip")


class _Draws:
    """Uniform doubles of the PCG64 streams `state` (see `linalg._pcg64_seed`),
    drawn ahead into a ring buffer. `peek(cols, k)` shows the next k doubles
    of each stream in cols, and `take(cols, used)` spends the first `used`."""

    def __init__(self, state, ahead):
        self.state = state
        self.ring = np.empty((_RING, state.shape[1]))
        self.ring[:ahead] = _pcg64_doubles(state, ahead)
        self.pos = np.zeros(state.shape[1], dtype=np.int64)
        self.end = np.full(state.shape[1], ahead, dtype=np.int64)

    def peek(self, cols, k):
        pos = self.pos[cols]
        short = pos + k - self.end[cols]
        need = short.max()
        if need > 0:  # each short stream draws just its shortfall
            at = _pad(np.flatnonzero(short > 0))
            sel, short = cols[at], short[at]
            rows = (self.end[sel] + np.arange(need)[:, None]) % _RING
            fresh = _pcg64_doubles(self.state, need, sel, short)
            self.ring[rows, sel] = np.where(np.arange(need)[:, None] < short, fresh,
                                            self.ring[rows, sel])
            self.end[sel] += short
        return self.ring[(pos + np.arange(k)[:, None]) % _RING, cols]

    def take(self, cols, used):
        self.pos[cols] += used


def _libm_log(x, values, near):
    """values = np.log(x), with libm's log where near holds (as in C, -inf at 0
    and NaN below it)."""
    if near.any():
        values[near] = [math.log(v) if v > 0 else -math.inf if v == 0 else math.nan
                        for v in x[near].tolist()]
    return values


def _inversion(draws, cols, n, p):
    """numpy's random_binomial_inversion on the streams cols (p <= 0.5)."""
    u = draws.peek(cols, 1)[0]
    draws.take(cols, 1)
    x = np.zeros(len(n), dtype=np.int64)
    q = 1.0 - p
    if not q < 1.0:  # p <= 0: qn = q**n >= 1 exceeds every uniform, so X = 0
        return x
    log_q = math.log1p(-p)  # numpy takes q**n as exp(n * log1p(-p))
    keys, at = np.unique(n, return_inverse=True)
    qn = np.array([math.exp(k * log_q) for k in keys.tolist()])[at]
    mean = n * p
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * q + 1)).astype(np.int64)
    px = qn.copy()
    act = _pad(np.flatnonzero(u > px))
    while act.size:
        x[act] += 1
        fresh = _pad(act[x[act] > bound[act]])
        if fresh.size:  # past the bound: start over with a new uniform
            x[fresh] = 0
            px[fresh] = qn[fresh]
            u[fresh] = draws.peek(cols[fresh], 1)[0]
            draws.take(cols[fresh], 1)
        go = _pad(act[x[act] > 0])
        xs = x[go]
        u[go] -= px[go]
        px[go] = (n[go] - xs + 1) * p * px[go] / (xs * q)
        act = _pad(act[u[act] > px[act]])
    return x


def _btpe_table(n, r):
    """BTPE's set-up for each n at p = r <= 0.5, in C's order of operations:
    a float table (rows p1, xm, c, laml, lamr, p2, p3, p4, nrq, a) and an
    int64 table (n, m)."""
    q = 1.0 - r
    f = np.empty((10, len(n)))
    p1, xm, c, laml, lamr, p2, p3, p4, nrq, a = f
    fm = n * r + r
    m = np.floor(fm)
    np.multiply(n * r, q, out=nrq)
    np.floor(2.195 * np.sqrt(nrq) - 4.6 * q, out=p1)
    p1 += 0.5
    np.add(m, 0.5, out=xm)
    xl, xr = xm - p1, xm + p1
    np.divide(20.5, 15.3 + m, out=c)
    c += 0.134
    al = (fm - xl) / (fm - xl * r)
    np.multiply(al, 1.0 + al / 2.0, out=laml)
    ar = (xr - fm) / (xr * q)
    np.multiply(ar, 1.0 + ar / 2.0, out=lamr)
    np.multiply(p1, 1.0 + 2.0 * c, out=p2)
    np.divide(c, laml, out=p3)
    p3 += p2
    np.divide(c, lamr, out=p4)
    p4 += p3
    np.multiply(n + 1, r / q, out=a)
    return f, np.array([n, m.astype(np.int64)])


def _stirling_bound(terms, g):
    """Step 52's bound on log v: the three log terms, then the Stirling
    corrections of f1, z, x1 and w (the rows of g), summed left to right."""
    g2 = g * g
    corr = (13680. - (462. - (132. - (99. - 140. / g2) / g2) / g2) / g2) / g / 166320.
    return terms[0] + terms[1] + terms[2] + corr[0] + corr[1] + corr[2] + corr[3]


def _btpe_attempts(u, v, f, i, r, q):
    """BTPE attempts (Steps 10-60) from uniforms u, v of shape (tries, m), for
    the m streams whose columns of the `_btpe_table` tables are f and i:
    (accepted, y), each of shape (tries, m)."""
    # every branch tests `u > bound` as C does, so a NaN takes C's way too
    u = u * f[7]
    ok = ~(u > f[0])
    y = f[0] * v
    np.subtract(f[1], y, out=y)
    y += u
    with np.errstate(invalid="ignore"):
        y = np.floor(y, out=y).astype(np.int64)
    rest = _pad(np.flatnonzero(~ok))
    if not rest.size:
        return ok, y
    col = rest % u.shape[1]
    u, v = u.take(rest), v.take(rest)
    p1, xm, c, laml, lamr, p2, p3, _, nrq, a = f.take(col, axis=1)
    n, m = i.take(col, axis=1)
    xl, xr, mf = xm - p1, xm + p1, m.astype(float)
    # Steps 20-40: the parallelograms and the two exponential tails
    mid, left = ~(u > p2), ~(u > p3)
    x = xl + (u - p1) / c
    with np.errstate(divide="ignore", invalid="ignore"):  # v = 0 is rejected
        log_v = np.log(v)
        tail = np.where(left, xl + log_v / laml, xr - log_v / lamr)
        near = np.abs(tail - np.rint(tail)) <= _NEAR * (np.abs(tail) + xr)
        if near.any():
            log_v = _libm_log(v, log_v, near)
            tail = np.where(left, xl + log_v / laml, xr - log_v / lamr)
        ys = np.floor(np.where(mid, x, tail)).astype(np.int64)
    v2 = v * c + 1.0 - np.abs(mf - x + 0.5) / p1
    good = np.where(mid, ~(v2 > 1.0), np.where(left, ys >= 0, ys <= n) & (v != 0.0))
    v = np.where(mid, v2, np.where(left, v * (u - p2) * laml, v * (u - p3) * lamr))
    k = np.abs(ys - m)
    squeeze = good & (k > 20) & (k < nrq / 2.0 - 1)
    # Step 50: the pmf ratio F by recursion
    s50 = good & ~squeeze
    for s in (_pad(np.flatnonzero(s50 & (k <= 20))), _pad(np.flatnonzero(s50 & (k > 20)))):
        if s.size:  # the rare long products apart, so they do not pad the short
            ks, lo = k[s], np.minimum(m[s], ys[s])
            j = np.arange(1, ks.max() + 1)[:, None]
            terms = np.divide(a[s], lo + j)
            terms -= r / q
            terms[j > ks] = 1.0
            F = np.where(ys[s] > m[s], np.multiply.reduce(terms, axis=0),
                         np.divide.reduce(terms, axis=0, initial=1.0))
            good[s] = ~(v[s] > F)
    # Step 52: the squeeze on log v, then the Stirling bound
    s = _pad(np.flatnonzero(squeeze))
    if s.size:
        kk, nq, w = k[s], nrq[s], v[s]
        kf = kk.astype(float)
        rho = (kf / nq) * ((kf * (kf / 3.0 + 0.625) + 0.16666666666666666) / nq + 0.5)
        t = -kk * kk / (2 * nq)
        below, above = t - rho, t + rho
        with np.errstate(divide="ignore", invalid="ignore"):  # C's log(0), log(< 0)
            big_a = np.log(w)
        near = np.minimum(np.abs(big_a - below), np.abs(big_a - above))
        big_a = _libm_log(w, big_a, near <= _NEAR * np.abs(big_a))
        take = big_a < below
        band = _pad(np.flatnonzero(~take & ~(big_a > above)))
        if band.size:
            b = s[band]
            A, yb, mb, nb = big_a[band], ys[b], m[b], n[b]
            g = np.array([mb + 1, nb + 1 - mb, yb + 1, nb - yb + 1], dtype=float)
            f1, z, x1, w1 = g
            ratio = np.array([f1 / x1, z / w1, w1 * r / (x1 * q)])
            coef = np.array([xm[b], (nb - mb) + 0.5, yb - mb], dtype=float)
            logs = np.log(ratio)
            bound = _stirling_bound(coef * logs, g)
            near = np.abs(A - bound) <= _NEAR * (np.abs(coef * logs).sum(axis=0) + np.abs(A))
            if near.any():
                A = _libm_log(w[band], A, near)
                logs = _libm_log(ratio, logs, np.broadcast_to(near, logs.shape))
                bound = _stirling_bound(coef * logs, g)
            take[band] = ~(A > bound)
        good[s] = take
    ok.ravel()[rest] = good
    y.ravel()[rest] = ys
    return ok, y


def _btpe(draws, cols, n, r):
    """numpy's random_binomial_btpe on the streams cols (p = r <= 0.5). A
    stream tries once in the first round; a later round tries _TRIES times and
    spends only the uniforms up to each stream's first acceptance. The tables
    shrink to the streams still drawing after every round."""
    q = 1.0 - r
    f, i = _btpe_table(n, r)
    uv = draws.peek(cols, 2)
    draws.take(cols, 2)
    ok, y = _btpe_attempts(uv[:1], uv[1:], f, i, r, q)
    y = y[0]
    keep = _pad(np.flatnonzero(~ok[0]))
    at = keep
    while at.size:
        f, i = f.take(keep, axis=1), i.take(keep, axis=1)
        uv = draws.peek(cols[at], 2 * _TRIES)
        ok, ys = _btpe_attempts(uv[0::2], uv[1::2], f, i, r, q)
        first = ok.argmax(axis=0)
        hit = ok[first, np.arange(at.size)]
        draws.take(cols[at], np.where(hit, 2 * first + 2, 2 * _TRIES))
        y[at[hit]] = ys[first[hit], hit]
        keep = _pad(np.flatnonzero(~hit))
        at = at[keep]
    return y


def _binomial(draws, cols, n, p):
    """numpy's random_binomial on the streams cols: Bin(n, p) by inversion
    when n * p <= 30, else by BTPE; for p > 0.5 it draws n - Bin(n, 1 - p)."""
    flip = not p <= 0.5
    if flip:
        p = 1.0 - p
    small = p * n <= 30.0
    x = np.empty_like(n)
    for sub, draw in ((small, _inversion), (~small, _btpe)):
        at = _pad(np.flatnonzero(sub))
        if at.size:
            x[at] = draw(draws, cols[at], n[at], p)
    return n - x if flip else x


def _multinomial_rows(words, events, pn):
    """Counts (rows, len(pn)) that `multinomial(events, pn)` draws from the
    PCG64 stream of each row of `linalg.substream_states` words. As numpy's
    random_multinomial, outcome j takes Bin(left, pn[j] / remaining), a row
    stops once it has no events left, and the last outcome takes the rest."""
    rows, d = len(words), len(pn)
    # two uniforms per binomial: the first BTPE try of every row
    draws = _Draws(_pcg64_seed(words), min(2 * (d - 1), _RING))
    counts = np.zeros((rows, d), dtype=np.int64)
    left = np.full(rows, events, dtype=np.int64)
    live = np.arange(rows)
    remaining = 1.0
    for j, pj in enumerate(pn[:-1].tolist()):
        p = pj / remaining
        if p != 0.0:
            n = left[live]
            x = _binomial(draws, live, n, p)
            counts[live, j] = x
            n -= x
            left[live] = n
            live = _pad(live[n > 0])
            if not live.size:
                break
        remaining -= pj
    counts[live, d - 1] = left[live]
    return counts


def _seed_list(seed):
    if np.isscalar(seed):
        return [int(seed)]
    return [int(s) for s in seed]


def run_experiment(model, phi_true=0.0, events=None, repetitions=100, seed=0,
                   bootstrap=200):
    """Repeat acquisitions, estimate the phase each time, and report
    sqrt(nu) * std(estimates) with a bootstrap error bar."""
    if repetitions < 2:
        raise EstimationError("need at least 2 repetitions")
    if events is None:
        events = model.spec.default_events
    if events < 1:
        raise EstimationError("events must be at least 1")
    if not np.isfinite(phi_true):
        raise EstimationError(f"phi_true must be finite, got {phi_true}")
    base = _seed_list(seed)
    p = probabilities(model, phi_true)
    pn = p / p.sum()
    # multinomial's own checks, which the sampler below does not make
    if not (np.all(pn >= 0) and np.all(pn <= 1)) or pn[:-1].sum() > 1 + 1e-12:
        raise EstimationError(f"outcome probabilities {pn} are not a distribution")
    # repetition r draws from default_rng(base + [r]); the rows are seeded and
    # sampled a chunk at a time, which bounds the temporaries
    counts = np.empty((repetitions, len(p)), dtype=np.int64)
    for start in range(0, repetitions, _CHUNK_ROWS):
        rows = np.arange(start, min(start + _CHUNK_ROWS, repetitions))
        counts[rows] = _multinomial_rows(substream_states(base, rows), events, pn)
    estimates, clamped = _arcsine(model, counts)
    sqrt_nu = np.sqrt(float(events))
    stat = estimates.std(ddof=1) * sqrt_nu
    boot_rng = np.random.default_rng(base + [repetitions])
    stats = np.empty(bootstrap)
    for b in range(bootstrap):
        idx = boot_rng.integers(0, repetitions, repetitions)
        stats[b] = estimates[idx].std(ddof=1) * sqrt_nu
    fisher = classical_fisher(model, phi_true)
    report = ErrorReport(
        sqrt_nu_dphi=float(stat),
        bootstrap_std=float(stats.std(ddof=1)),
        cr_bound=float(1 / np.sqrt(fisher)) if fisher > 0 else float("inf"),
        shot_noise=1 / np.sqrt(model.spec.probes),
        clamped=int(clamped.sum()),
    )
    return TrialEnsemble(counts, estimates), report


def error_curve(scheme, noise_grid, visibility=None, events=None, repetitions=100,
                seed=0, phi_true=0.0):
    """One experiment per grid point; returns rows in grid order."""
    rows = []
    for i, noise in enumerate(noise_grid):
        model = model_for(scheme, noise, visibility)
        _, report = run_experiment(model, phi_true=phi_true, events=events,
                                   repetitions=repetitions, seed=_seed_list(seed) + [i])
        rows.append({
            "noise": float(noise),
            "sqrt_nu_dphi": report.sqrt_nu_dphi,
            "bootstrap_std": report.bootstrap_std,
            "cr_bound": report.cr_bound,
            "shot_noise": report.shot_noise,
        })
    return rows
