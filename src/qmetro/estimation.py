"""Monte-Carlo phase estimation for the six measurement schemes: outcome
laws with interferometric visibility, multinomial sampling, arcsine moment
inversion, classical Fisher information, and error curves with bootstrap bars.

Each scheme's law is one closed form, `_law`, which the sampler, the Fisher
information and the arcsine estimator all read.

A run seeded `base` draws in two stages, each from a generator of its own: the
data are one `default_rng(base + [0]).multinomial(events, pn, size=repetitions)`
call, and the bootstrap resamples from `default_rng(base + [1])`. numpy draws
the rows in order, so repetition r's counts do not depend on the repetition
count.
"""
from dataclasses import dataclass

import numpy as np

from .linalg import _seed_list


class EstimationError(ValueError):
    pass


class EstimationNumericError(EstimationError):
    """A numeric failure, not a bad configuration: say, a law that is no distribution."""


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


# --------------------------------------------------------------- outcome law

def _law(model):
    """The scheme's outcome law as (contrast, losses).

    Outcomes 0 and 1 have P = (1 - sum(losses) +/- contrast sin(probes phi)) / 2,
    and the losses follow as phase-independent outcomes in label order. Finite
    visibility v mixes the ideal laws at +phi and -phi with weights (1+v)/2 and
    (1-v)/2; that scales only the odd sine term, so v multiplies the contrast.
    """
    spec, eta, v = model.spec, model.noise_param, model.visibility
    if spec.probes == 2:
        # one probe of the two decays, either one, or with the ancilla both;
        # outcome 0 loses weight as the phase grows, so the contrast is negative
        one = eta * (1 - eta) / 2
        return -v * (1 - eta), ([eta ** 2 / 2] if spec.assisted else []) + [one, one]
    # (coherence left, losses of the assisted readout) of one probe
    damping, losses = {"ad": (np.sqrt(1 - eta), [eta / 2, 0.0]),
                       "depol": (1 - eta, [eta / 4, eta / 4])}[spec.noise]
    return v * damping, losses if spec.assisted else []


def probabilities(model, phi):
    """Outcome probabilities at phase phi (`_law`)."""
    contrast, losses = _law(model)
    rest, odd = 1 - sum(losses), contrast * np.sin(model.spec.probes * phi)
    return np.clip([(rest + odd) / 2, (rest - odd) / 2, *losses], 0.0, 1.0)


def probability_derivatives(model, phi):
    contrast, losses = _law(model)
    k = model.spec.probes
    slope = contrast * k * np.cos(k * phi) / 2
    return np.array([slope, -slope] + [0.0] * len(losses))


def classical_fisher(model, phi):
    """Sum of (dP/dphi)^2 / P over the supported outcomes."""
    p = probabilities(model, phi)
    dp = probability_derivatives(model, phi)
    mask = p > 1e-12
    return float((dp[mask] ** 2 / p[mask]).sum())


def _arcsine(model, counts):
    """Arcsine estimates of every row of a (..., n_outcomes) counts array, and
    the mask of rows whose argument was clamped to +/-1."""
    counts = np.asarray(counts)
    total = counts.sum(axis=-1)
    if np.any(total <= 0):
        raise EstimationError("empty acquisition")
    contrast = _law(model)[0]
    if not abs(contrast) > 0:
        raise EstimationError("zero contrast: the phase is invisible at these parameters")
    diff, scale = counts[..., 0] - counts[..., 1], total * abs(contrast)
    # clamped before the division, which overflows at a subnormal contrast
    arg = np.sign(diff) * (np.minimum(np.abs(diff), scale) / scale)
    return np.arcsin(np.sign(contrast) * arg) / model.spec.probes, np.abs(arg) == 1.0


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
        raise EstimationNumericError(f"outcome probabilities {pn} are not a distribution")
    # the stage contract of the module docstring
    counts = np.random.default_rng(base + [0]).multinomial(events, pn, size=repetitions)
    estimates, clamped = _arcsine(model, counts)
    sqrt_nu = np.sqrt(float(events))
    stat = estimates.std(ddof=1) * sqrt_nu
    # resamples are drawn a block of rows at a time: the same draws in the same
    # order as one call per resample, with at most 2**16 indices per block
    boot_rng = np.random.default_rng(base + [1])
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
