"""Monte-Carlo phase estimation for the six measurement schemes: outcome
models with interferometric visibility, multinomial sampling, arcsine moment
inversion, classical Fisher information, and error curves with bootstrap bars.

Finite visibility v enters every scheme the same way: the ideal distribution
at +phi is mixed with the one at -phi with weights (1+v)/2 and (1-v)/2, which
reproduces the published v-dependent formulas exactly.

A run seeded `base` draws its repetitions in chunks of `linalg._CHUNK_ROWS`
(4096): chunk c holds repetitions 4096c to 4096c + 4095, the rows of
`default_rng(base + [c]).multinomial(events, pn, size=rows)`. numpy draws those
rows in order, so repetition r's counts do not depend on the repetition count.
The bootstrap resamples from `default_rng(base + [repetitions])`, a seed that
no chunk meets because c < repetitions.
"""
from dataclasses import dataclass

import numpy as np

from .channels import NOISE, PhaseChannelFamily, evolve
from .linalg import _CHUNK_ROWS, projector


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
    diff, scale = counts[..., 0] - counts[..., 1], total * denom
    # clamped before the division, which overflows at a subnormal contrast
    arg = np.sign(diff) * (np.minimum(np.abs(diff), scale) / scale)
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
    # checked here, so that a bad law raises EstimationError, not numpy's ValueError
    if not (np.all(pn >= 0) and np.all(pn <= 1)) or pn[:-1].sum() > 1 + 1e-12:
        raise EstimationError(f"outcome probabilities {pn} are not a distribution")
    # the chunk contract of the module docstring
    counts = np.concatenate([
        np.random.default_rng(base + [c]).multinomial(
            events, pn, size=min(_CHUNK_ROWS, repetitions - start))
        for c, start in enumerate(range(0, repetitions, _CHUNK_ROWS))])
    estimates, clamped = _arcsine(model, counts)
    sqrt_nu = np.sqrt(float(events))
    stat = estimates.std(ddof=1) * sqrt_nu
    # resamples are drawn a block of rows at a time: the same draws in the same
    # order as one call per resample, with at most 2**16 indices per block
    boot_rng = np.random.default_rng(base + [repetitions])
    block = max(1, 2 ** 16 // repetitions)
    stats = np.empty(bootstrap)
    for b in range(0, bootstrap, block):
        idx = boot_rng.integers(0, repetitions, (min(block, bootstrap - b), repetitions))
        stats[b:b + block] = estimates.take(idx).std(axis=1, ddof=1) * sqrt_nu
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
