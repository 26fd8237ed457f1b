from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmetro import estimation
from qmetro.channels import NOISE, PhaseChannelFamily, evolve
from qmetro.estimation import (RATIO, SCHEMES, EstimationError,
                               EstimationNumericError, MeasurementModel, _arcsine,
                               classical_fisher, cramer_rao, error_curve, estimate_phase,
                               probabilities, probability_derivatives, run_experiment)
from qmetro.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, format_csv, main
from qmetro.linalg import projector
from qmetro.qfi import closed_form_qfi, two_probe_collective_ad_qfi

QUOTED_CFI = {
    "ad_single_assisted": lambda x: 2 * (1 - x) / (2 - x),
    "depol_single_assisted": lambda x: 2 * (1 - x) ** 2 / (2 - x),
    "ad_two_probe_assisted": lambda x: 8 * (1 - x) ** 2 / (2 - 2 * x + x ** 2),
    "ad_single_bare": lambda x: 1 - x,
    "depol_single_bare": lambda x: (1 - x) ** 2,
    "ad_two_probe_bare": lambda x: 4 * (1 - x) ** 2 / (1 - x + x ** 2),
}


# ------------------------------------------------------------ probabilities

def test_probability_anchors():
    m = MeasurementModel("ad_single_assisted", 0.5, visibility=1.0)
    assert np.abs(probabilities(m, 0.0) - [0.375, 0.375, 0.25, 0.0]).max() < 1e-12
    m = MeasurementModel("depol_single_assisted", 0.0, visibility=1.0)
    assert np.abs(probabilities(m, np.pi / 2) - [1, 0, 0, 0]).max() < 1e-12
    m = MeasurementModel("ad_two_probe_assisted", 0.0, visibility=1.0)
    assert np.abs(probabilities(m, 0.0) - [0.5, 0.5, 0, 0, 0]).max() < 1e-12


def test_bare_probability_anchors():
    m = MeasurementModel("ad_single_bare", 0.5, visibility=1.0)
    p0 = (1 + np.sqrt(0.5) * np.sin(0.3)) / 2
    assert np.abs(probabilities(m, 0.3) - [p0, 1 - p0]).max() < 1e-12
    m = MeasurementModel("ad_two_probe_bare", 0.0, visibility=1.0)
    p = probabilities(m, 0.2)
    assert abs(p[0] - (1 - np.sin(0.4)) / 2) < 1e-12
    assert abs(p[2]) < 1e-12 and abs(p[3]) < 1e-12


def test_probabilities_sum_to_one():
    for scheme in SCHEMES:
        for noise in (0.0, 0.3, 0.8):
            for v in (0.97, 1.0):
                m = MeasurementModel(scheme, noise, visibility=v)
                for phi in (-0.4, 0.0, 0.7):
                    p = probabilities(m, phi)
                    assert p.min() >= 0
                    assert abs(p.sum() - 1) < 1e-12


def test_visibility_mixes_opposite_phases():
    m1 = MeasurementModel("ad_single_assisted", 0.2, visibility=1.0)
    mv = MeasurementModel("ad_single_assisted", 0.2, visibility=0.9)
    phi = 0.4
    mixed = 0.95 * probabilities(m1, phi) + 0.05 * probabilities(m1, -phi)
    assert np.abs(probabilities(mv, phi) - mixed).max() < 1e-12


def _bell(e, last, phase=1):
    """Projector on (e_0 + phase e_last) / sqrt(2), for the basis rows e."""
    return projector((e[0] + phase * e[last]) / np.sqrt(2))


E2, E4, E16 = np.eye(2), np.eye(4), np.eye(16)
# (input state, readout projectors in outcome-label order) of each scheme, by
# (probes, assisted); the probes come first in the index, then the ancilla
LAYOUTS = {
    (1, False): (_bell(E2, 1), [_bell(E2, 1, 1j), _bell(E2, 1, -1j)]),
    (2, False): (_bell(E4, 3), [_bell(E4, 3, -1j), _bell(E4, 3, 1j),
                                projector(E4[1]), projector(E4[2])]),
    (1, True): (_bell(E4, 3), [_bell(E4, 3, 1j), _bell(E4, 3, -1j),
                               projector(E4[1]), projector(E4[2])]),
    (2, True): (_bell(E16, 15), [_bell(E16, 15, -1j), _bell(E16, 15, 1j), projector(E16[3]),
                                 projector(E16[7]), projector(E16[11])]),
}


def born_readout(model, phi):
    """The law and its phi-derivative by the Born rule on the evolved state,
    with visibility v mixing the runs at +phi and -phi by (1+v)/2 and (1-v)/2:
    an independent route to `probabilities` and `probability_derivatives`."""
    spec = model.spec
    rho, projs = LAYOUTS[spec.probes, spec.assisted]
    family = PhaseChannelFamily(NOISE[spec.noise](model.noise_param))
    p = dp = 0.0
    for weight, sign in ((1 + model.visibility) / 2, 1), ((1 - model.visibility) / 2, -1):
        out, dout = evolve(rho, *family.composite(sign * phi, spec.probes,
                                                  ancilla=spec.assisted))
        p = p + weight * np.einsum('kij,ji->k', projs, out).real
        dp = dp + sign * weight * np.einsum('kij,ji->k', projs, dout).real
    return p, dp


@settings(max_examples=150)
@given(st.sampled_from(list(SCHEMES)), st.floats(0, 1), st.floats(0, 1),
       st.floats(-4, 4))
@example("ad_two_probe_assisted", 1.0, 1.0, 0.3)
@example("depol_single_assisted", 0.0, 0.0, 0.3)
def test_law_is_the_born_rule_readout(scheme, eta, visibility, phi):
    m = MeasurementModel(scheme, eta, visibility)
    p, dp = born_readout(m, phi)
    assert np.abs(probabilities(m, phi) - p).max() <= 1e-12
    assert np.abs(probability_derivatives(m, phi) - dp).max() <= 1e-12


def test_probability_derivatives_finite_difference():
    step = 1e-6
    for scheme in SCHEMES:
        m = MeasurementModel(scheme, 0.35, visibility=0.98)
        for phi in (0.0, 0.5):
            fd = (probabilities(m, phi + step) - probabilities(m, phi - step)) / (2 * step)
            assert np.abs(probability_derivatives(m, phi) - fd).max() < 1e-6


# ---------------------------------------------------------------- validation

def test_model_validation():
    with pytest.raises(EstimationError):
        MeasurementModel("unknown_scheme", 0.3)
    with pytest.raises(EstimationError):
        MeasurementModel("ad_single_assisted", 1.2)
    with pytest.raises(EstimationError):
        MeasurementModel("ad_single_assisted", -0.1)
    with pytest.raises(EstimationError):
        MeasurementModel("ad_single_assisted", 0.3, visibility=-0.1)
    with pytest.raises(EstimationError):
        MeasurementModel("ad_single_assisted", 0.3, visibility=1.1)


def test_default_visibility_table():
    # one interference visibility per optical setup, shared by both variants
    assert SCHEMES["ad_single_assisted"].visibility == 0.9969
    assert SCHEMES["ad_single_bare"].visibility == 0.9969
    assert SCHEMES["depol_single_assisted"].visibility == 0.9928
    assert SCHEMES["depol_single_bare"].visibility == 0.9928
    assert SCHEMES["ad_two_probe_assisted"].visibility == 0.9699
    assert SCHEMES["ad_two_probe_bare"].visibility == 0.9699
    m = MeasurementModel("ad_single_assisted", 0.3)
    assert m.visibility == 0.9969
    # both parameters are kept as python floats, whatever type they came as
    m = MeasurementModel("ad_single_assisted", np.float32(0.5), 1)
    assert (type(m.noise_param), type(m.visibility)) == (float, float)
    assert (m.noise_param, m.visibility) == (0.5, 1.0)


def test_default_events():
    assert SCHEMES["ad_single_assisted"].default_events == 20000
    assert SCHEMES["ad_two_probe_bare"].default_events == 2000
    assert SCHEMES["ad_two_probe_assisted"].probes == 2
    assert SCHEMES["depol_single_bare"].probes == 1


def test_scheme_names_match_records():
    # the records, not the names, drive the code; the names must still say
    # what the records hold
    assert list(SCHEMES) == ["ad_single_assisted", "depol_single_assisted",
                             "ad_two_probe_assisted", "ad_single_bare",
                             "depol_single_bare", "ad_two_probe_bare"]
    for name, spec in SCHEMES.items():
        probes = {1: "single", 2: "two_probe"}[spec.probes]
        variant = "assisted" if spec.assisted else "bare"
        assert name == f"{spec.noise}_{probes}_{variant}"


def test_outcome_label_arity():
    for scheme in SCHEMES:
        m = MeasurementModel(scheme, 0.1)
        assert len(m.spec.outcome_labels) == len(probabilities(m, 0.0))


def test_runs_follow_the_scheme_record():
    for scheme, spec in SCHEMES.items():
        m = MeasurementModel(scheme, 0.3)
        assert m.spec is spec
        assert m.visibility == spec.visibility
        ensemble, rep = run_experiment(m, repetitions=3, seed=1, bootstrap=2)
        assert (ensemble.counts.sum(axis=1) == spec.default_events).all()
        assert rep.shot_noise == 1 / np.sqrt(spec.probes)
        assert rep.shot_noise == (1 / np.sqrt(2) if "two_probe" in scheme else 1.0)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_error_curve_theory_columns_come_from_the_scheme_pair(scheme, tmp_path):
    out = tmp_path / "err.csv"
    assert main(["error-curve", "--scheme", scheme, "--grid", "0.3", "--visibility", "1",
                 "--events", "10", "--reps", "2", "--out", str(out)]) == EXIT_OK
    header, row = out.read_text().split("\n")[:2]
    row = dict(zip(header.split(","), map(float, row.split(","))))
    stem = scheme.rsplit("_", 1)[0]
    for variant in ("assisted", "bare"):
        assert row[f"theory_{variant}"] == pytest.approx(
            1 / np.sqrt(QUOTED_CFI[f"{stem}_{variant}"](0.3)), rel=1e-5)
    # both columns are the bounds at the run's phase, so the scheme's own is cr_bound
    own = f"theory_{'assisted' if SCHEMES[scheme].assisted else 'bare'}"
    for phi in ("-0.7", "0.3", "0.77", "1.5"):
        assert main(["error-curve", "--scheme", scheme, "--grid", "0.15,0.55", "--reps", "2",
                     "--events", "10", "--phi", phi, "--out", str(out)]) == EXIT_OK
        header, *rows = out.read_text().splitlines()
        assert len(rows) == 2
        for row in rows:
            row = dict(zip(header.split(","), row.split(",")))
            assert row[own] == row["cr_bound"]


# ------------------------------------------------------------ Fisher values

def test_classical_fisher_matches_quoted_information():
    for scheme, quoted in QUOTED_CFI.items():
        for noise in (0.0, 0.2, 0.5, 0.8):
            m = MeasurementModel(scheme, noise, visibility=1.0)
            assert abs(classical_fisher(m, 0.0) - quoted(noise)) < 1e-10


def test_assisted_fisher_dominates_bare():
    for assisted, bare in (("ad_single_assisted", "ad_single_bare"),
                           ("depol_single_assisted", "depol_single_bare"),
                           ("ad_two_probe_assisted", "ad_two_probe_bare")):
        for noise in np.arange(0, 0.95, 0.05):
            fa = classical_fisher(MeasurementModel(assisted, noise, visibility=1.0), 0.0)
            fb = classical_fisher(MeasurementModel(bare, noise, visibility=1.0), 0.0)
            assert fa >= fb - 1e-12


def test_fisher_matches_channel_information():
    # the readouts saturate the channel bounds at the working point
    for eta in (0.1, 0.5):
        m = MeasurementModel("ad_single_assisted", eta, visibility=1.0)
        assert abs(classical_fisher(m, 0.0)
                   - closed_form_qfi("ad", eta, assisted=True)) < 1e-10
        m = MeasurementModel("ad_two_probe_assisted", eta, visibility=1.0)
        assert abs(classical_fisher(m, 0.0)
                   - two_probe_collective_ad_qfi(eta, 0.0)) < 1e-10


# -------------------------------------------------------------- acquisition

def test_run_experiment_counts_deterministic():
    m = MeasurementModel("ad_single_assisted", 0.4, visibility=1.0)
    a, b, c = (run_experiment(m, 0.1, 5000, repetitions=50, seed=s,
                              bootstrap=2)[0].counts for s in (7, 7, 8))
    assert np.array_equal(a, b)
    assert (a.sum(axis=1) == 5000).all()
    assert not np.array_equal(a, c)


def test_run_experiment_rejects_empty():
    m = MeasurementModel("ad_single_assisted", 0.4)
    with pytest.raises(EstimationError):
        run_experiment(m, 0.0, 0, seed=0)


def test_run_experiment_law_of_large_numbers():
    m = MeasurementModel("depol_single_assisted", 0.3, visibility=0.99)
    events = 1_000_000
    counts = run_experiment(m, 0.25, events, repetitions=2, seed=5, bootstrap=2)[0].counts
    p = probabilities(m, 0.25)
    sigma = np.sqrt(np.maximum(p * (1 - p) * events, 1.0))
    assert (np.abs(counts - p * events) < 5 * sigma).all()


def index_loop_std(ensemble, seed, events, resamples):
    """The index-path reference: one draw of R indices per resample."""
    r = len(ensemble.estimates)
    rng = np.random.default_rng(seed + [1])
    stats = [ensemble.estimates[rng.integers(0, r, r)].std(ddof=1) * np.sqrt(float(events))
             for _ in range(resamples)]
    return float(np.std(stats, ddof=1))


def weights_std(ensemble, seed, events, resamples):
    """The weights-path reference: one multinomial call over the distinct
    estimates in ascending order, each resample's std taken from its weights."""
    r = len(ensemble.estimates)
    values, c = np.unique(ensemble.estimates, return_counts=True)
    w = np.random.default_rng(seed + [1]).multinomial(r, c / r, size=resamples)
    stats = [np.sqrt((wb * (values - wb @ values / r) ** 2).sum() / (r - 1))
             * np.sqrt(float(events)) for wb in w]
    return float(np.std(stats, ddof=1))


def on_index_path(ensemble):
    """Whether a run bootstraps with indices: R < RATIO * K distinct estimates."""
    return len(ensemble.estimates) < RATIO * len(np.unique(ensemble.estimates))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SCHEMES)), st.floats(0, 0.9),
       st.sampled_from([1, 40, 400, 2000, 20000, 10 ** 5]), st.integers(2, 3000),
       st.floats(-1.5, 1.5), st.integers(2, 30))
@example("ad_single_assisted", 0.1, 500, 3000, 1.5, 7)  # many clamped estimates
@example("ad_two_probe_bare", 0.5, 10 ** 5, 2, 0.2, 3)  # two distinct estimates
def test_bootstrap_follows_the_ratio_rule(scheme, noise, events, r, phi, resamples):
    # below RATIO repetitions per distinct estimate, one index draw per
    # resample, bit for bit; from there, one multinomial call over the values
    m = MeasurementModel(scheme, noise)
    ensemble, report = run_experiment(m, phi, events, repetitions=r, seed=[4, 2],
                                      bootstrap=resamples)
    if on_index_path(ensemble):
        assert report.bootstrap_std == index_loop_std(ensemble, [4, 2], events, resamples)
    else:
        assert report.bootstrap_std == pytest.approx(
            weights_std(ensemble, [4, 2], events, resamples), rel=1e-12, abs=1e-15)


# (repetitions, resamples): one block of 32 768 rows; 10 blocks of 21 with a
# partial last one; blocks of 4 and 3 rows. 10**6 events spread the estimates
# wide enough that each point takes the index path
@pytest.mark.parametrize("repetitions, resamples", [(2, 200), (3001, 200), (14999, 7)])
def test_blocked_bootstrap_equals_one_draw_per_resample(repetitions, resamples):
    m = MeasurementModel("ad_two_probe_assisted", 0.5, visibility=0.98)
    ensemble, report = run_experiment(m, 0.2, 10 ** 6, repetitions=repetitions,
                                      seed=[9, 4], bootstrap=resamples)
    assert on_index_path(ensemble)
    assert report.bootstrap_std == index_loop_std(ensemble, [9, 4], 10 ** 6, resamples)


def test_wide_spread_points_keep_one_index_draw_per_resample():
    # 10**9 events leave fewer than RATIO of the 65 537 repetitions per
    # distinct estimate, so the point keeps the index path, one resample per block
    m = MeasurementModel("ad_two_probe_assisted", 0.5, visibility=0.98)
    ensemble, report = run_experiment(m, 0.2, 10 ** 9, repetitions=65537, seed=[9, 4],
                                      bootstrap=3)
    assert on_index_path(ensemble)
    assert report.bootstrap_std == index_loop_std(ensemble, [9, 4], 10 ** 9, 3)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_weights_path_is_one_multinomial_call_over_distinct_estimates(scheme, monkeypatch):
    # at 400 events 15 000 repetitions hold far more than RATIO per distinct
    # estimate, so resample b is row b of one multinomial call over them
    m = MeasurementModel(scheme, 0.5)
    ensemble, report = run_experiment(m, 0.1, 400, repetitions=15000, seed=[3, 5])
    assert not on_index_path(ensemble)
    assert report.bootstrap_std == pytest.approx(weights_std(ensemble, [3, 5], 400, 200),
                                                 rel=1e-12)
    # the path switches at R = RATIO * K exactly: a ratio just above R / K
    # takes indices, and R / K itself takes weights
    k = len(np.unique(ensemble.estimates))
    monkeypatch.setattr(estimation, "RATIO", Fraction(15001, k))
    _, report = run_experiment(m, 0.1, 400, repetitions=15000, seed=[3, 5], bootstrap=3)
    assert report.bootstrap_std == index_loop_std(ensemble, [3, 5], 400, 3)
    monkeypatch.setattr(estimation, "RATIO", Fraction(15000, k))
    _, report = run_experiment(m, 0.1, 400, repetitions=15000, seed=[3, 5], bootstrap=3)
    assert report.bootstrap_std == pytest.approx(weights_std(ensemble, [3, 5], 400, 3),
                                                 rel=1e-12)


@settings(max_examples=50)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=40), st.integers(0, 2 ** 32 - 1))
def test_weighted_std_is_the_indexed_sample_std(sample, seed):
    # the std from per-value counts of one index draw is that draw's std(ddof=1)
    sample = np.array(sample)
    idx = np.random.default_rng(seed).integers(0, len(sample), len(sample))
    values, inverse = np.unique(sample, return_inverse=True)
    w = np.bincount(inverse[idx], minlength=len(values))
    expected = sample[idx].std(ddof=1)
    assert estimation._weighted_std(w, values) == pytest.approx(expected, rel=1e-9,
                                                                abs=1e-12)


@pytest.mark.parametrize("bootstrap", [1, 0, -1])
def test_run_experiment_needs_two_resamples(bootstrap):
    m = MeasurementModel("ad_single_assisted", 0.3)
    with pytest.raises(EstimationError, match="need at least 2 bootstrap resamples"):
        run_experiment(m, repetitions=10, bootstrap=bootstrap)


@pytest.mark.parametrize("count", ["events", "repetitions", "bootstrap"])
@pytest.mark.parametrize("value", [2000.5, np.nan, np.inf])
def test_run_experiment_rejects_counts_that_are_not_whole(count, value):
    m = MeasurementModel("ad_single_assisted", 0.3)
    with pytest.raises(EstimationError, match="as a whole number"):
        run_experiment(m, **{"events": 2000, "repetitions": 10, "bootstrap": 5, count: value})


def test_run_experiment_takes_integral_float_counts():
    m = MeasurementModel("ad_single_assisted", 0.3)
    ints = run_experiment(m, events=2000, repetitions=10, seed=3, bootstrap=5)
    floats = run_experiment(m, events=2000.0, repetitions=10.0, seed=3, bootstrap=5.0)
    assert np.array_equal(ints[0].counts, floats[0].counts)
    assert ints[1] == floats[1]


# ---------------------------------------------------------------- estimator

@settings(max_examples=100)
@given(st.sampled_from(list(SCHEMES)), st.floats(0, 0.95), st.floats(0.05, 1),
       st.floats(-1.5, 1.5))
@example("ad_single_assisted", 0.3, 1.0, 0.1)
def test_estimate_phase_exact_frequencies(scheme, eta, visibility, k_phi):
    # the law's exact expected counts give back phi wherever |probes phi| < pi/2
    m = MeasurementModel(scheme, eta, visibility)
    phi = k_phi / m.spec.probes
    freq = probabilities(m, phi) * 10 ** 6
    estimate, clamped = _arcsine(m, freq)
    assert abs(estimate - phi) <= 1e-12 and not clamped
    assert estimate_phase(m, freq) == estimate


def test_estimate_phase_clamps():
    m = MeasurementModel("ad_single_assisted", 0.5, visibility=1.0)
    assert estimate_phase(m, np.array([100, 0, 0, 0])) == pytest.approx(np.pi / 2)
    assert estimate_phase(m, np.array([0, 100, 0, 0])) == pytest.approx(-np.pi / 2)
    m = MeasurementModel("ad_two_probe_assisted", 0.0, visibility=1.0)
    assert estimate_phase(m, np.array([100, 0, 0, 0, 0])) == pytest.approx(-np.pi / 4)


def test_estimate_phase_zero_contrast():
    m = MeasurementModel("ad_single_assisted", 1.0, visibility=1.0)
    with pytest.raises(EstimationError):
        estimate_phase(m, np.array([10, 10, 5, 0]))
    with pytest.raises(EstimationError, match="zero contrast"):
        run_experiment(m, events=100, repetitions=5)
    m2 = MeasurementModel("ad_single_assisted", 0.3)
    with pytest.raises(EstimationError):
        estimate_phase(m2, np.zeros(4))


def test_estimator_unbiased_near_origin():
    # fixed seeds per scheme, so that a failure reproduces (a seed taken from
    # the salted str hash changed from one interpreter to the next)
    for k, scheme in enumerate(SCHEMES):
        m = MeasurementModel(scheme, 0.3, visibility=1.0)
        for phi in (0.0, 0.05, -0.05):
            # the data draw from default_rng([9, k, 0])
            ensemble, _ = run_experiment(m, phi_true=phi, events=20000,
                                         repetitions=1000, seed=[9, k], bootstrap=2)
            ests = ensemble.estimates
            se = ests.std(ddof=1) / np.sqrt(len(ests))
            assert abs(ests.mean() - phi) <= 3 * se + 1e-9


def test_estimator_saturates_cramer_rao():
    for scheme in SCHEMES:
        m = MeasurementModel(scheme, 0.5, visibility=1.0)
        _, rep = run_experiment(m, phi_true=0.0, events=20000, repetitions=400,
                                seed=0, bootstrap=50)
        ratio = rep.sqrt_nu_dphi / rep.cr_bound
        assert 0.9 < ratio < 1.1, (scheme, ratio)


# ---------------------------------------------------------------- ensembles

def test_run_experiment_recovers_phase():
    m = MeasurementModel("ad_two_probe_assisted", 0.0, visibility=1.0)
    ensemble, _ = run_experiment(m, phi_true=0.5, events=2000, repetitions=50,
                                 seed=3, bootstrap=20)
    assert abs(ensemble.estimates.mean() - 0.5) < 0.05
    assert (ensemble.counts.sum(axis=1) == 2000).all()
    assert ensemble.counts.shape == (50, 5)


def test_run_experiment_reproducible():
    m = MeasurementModel("ad_single_assisted", 0.4)
    a = run_experiment(m, events=1000, repetitions=20, seed=6, bootstrap=30)
    b = run_experiment(m, events=1000, repetitions=20, seed=6, bootstrap=30)
    assert np.array_equal(a[0].counts, b[0].counts)
    assert a[1] == b[1]


def test_run_experiment_report_fields():
    m = MeasurementModel("ad_two_probe_bare", 0.2, visibility=1.0)
    _, rep = run_experiment(m, events=2000, repetitions=30, seed=1, bootstrap=20)
    assert rep.shot_noise == pytest.approx(1 / np.sqrt(2))
    assert rep.cr_bound == pytest.approx(1 / np.sqrt(classical_fisher(m, 0.0)))
    assert rep.bootstrap_std > 0
    m2 = MeasurementModel("ad_single_bare", 0.2, visibility=1.0)
    _, rep2 = run_experiment(m2, events=2000, repetitions=30, seed=1, bootstrap=20)
    assert rep2.shot_noise == 1.0


def stage_counts(model, phi, events, repetitions, seed):
    """The reference: every repetition is a row of one multinomial call on
    default_rng(seed + [0])."""
    base = [seed] if np.isscalar(seed) else list(seed)
    p = probabilities(model, phi)
    return np.random.default_rng(base + [0]).multinomial(events, p / p.sum(),
                                                          size=repetitions)


@pytest.mark.parametrize("scheme,noise,repetitions,seed", [
    ("ad_single_assisted", 0.3, 400, 0),
    ("depol_single_bare", 0.6, 250, [4, 1]),
    ("ad_two_probe_assisted", 0.2, 300, [0, 2, 1]),
    ("ad_two_probe_bare", 0.5, 200, 2 ** 40),
])
def test_run_experiment_matches_per_repetition_loop(scheme, noise, repetitions, seed):
    # the counts are the data stage's multinomial rows, and every repetition is
    # estimated on its own, bit for bit
    m = MeasurementModel(scheme, noise)
    ensemble, _ = run_experiment(m, phi_true=0.1, repetitions=repetitions, seed=seed,
                                 bootstrap=5)
    counts = stage_counts(m, 0.1, SCHEMES[scheme].default_events, repetitions, seed)
    assert np.array_equal(ensemble.counts, counts)
    assert np.array_equal(ensemble.estimates, [estimate_phase(m, c) for c in counts])


def test_run_experiment_crosses_a_chunk_boundary():
    # 8195 repetitions, past two multiples of 4096 rows, are still one call
    m = MeasurementModel("depol_single_assisted", 0.2)
    ensemble, _ = run_experiment(m, 0.1, events=40, repetitions=8195, seed=[5],
                                 bootstrap=2)
    assert np.array_equal(ensemble.counts, stage_counts(m, 0.1, 40, 8195, [5]))


COUNTS = st.integers(2, 8194)


@settings(max_examples=25)
@given(st.sampled_from(sorted(SCHEMES)), st.sampled_from([1, 40, 2000]), COUNTS, COUNTS,
       st.integers(0, 2 ** 32 - 1))
@example("ad_single_bare", 40, 4096, 4097, 0)
@example("ad_two_probe_assisted", 2000, 4097, 8193, 1)
def test_a_run_is_a_prefix_of_every_longer_run(scheme, events, r, big_r, seed):
    # the first r repetitions of a run of R >= r repetitions are a run of r
    r, big_r = sorted((r, big_r))
    m = MeasurementModel(scheme, 0.4)
    short, _ = run_experiment(m, 0.1, events, repetitions=r, seed=[seed], bootstrap=2)
    long, _ = run_experiment(m, 0.1, events, repetitions=big_r, seed=[seed], bootstrap=2)
    assert np.array_equal(long.counts[:r], short.counts)
    assert np.array_equal(long.estimates[:r], short.estimates)


def test_run_experiment_rejects_non_distributions(monkeypatch, capsys):
    m = MeasurementModel("ad_single_assisted", 0.3)
    argv = ["error-curve", "--scheme", "ad_single_assisted", "--grid", "0.3", "--reps", "2"]
    # a bad configuration that estimation finds still exits 2
    assert main(argv + ["--visibility", "0"]) == EXIT_CONFIG
    assert "invalid configuration: zero contrast" in capsys.readouterr().err
    for p in ([0.7, 0.7, -0.4, 0.0], [0.5, np.nan, 0.5, 0.0], [2.0, -1.0, 0.0, 0.0]):
        monkeypatch.setattr(estimation, "probabilities", lambda model, phi, p=p: np.array(p))
        with pytest.raises(EstimationNumericError, match="not a distribution"):
            run_experiment(m, repetitions=2)
    # the CLI reports the law as a numeric failure, without a traceback
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: outcome probabilities") and "Traceback" not in err


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
def test_non_finite_phase_is_a_configuration_error(phi):
    # probabilities owns the check; the Fisher information and the experiment
    # (and so error-curve's --phi) read the phase through it
    m = MeasurementModel("ad_single_assisted", 0.3)
    for call in (probabilities, classical_fisher,
                 lambda model, phi: run_experiment(model, phi_true=phi, repetitions=2)):
        with pytest.raises(EstimationError, match="must be finite"):
            call(m, phi)


def test_run_experiment_counts_clamped_estimates():
    # near phi = pi/2 the count asymmetry often exceeds the contrast
    m = MeasurementModel("ad_single_assisted", 0.1)
    ensemble, rep = run_experiment(m, phi_true=1.5, repetitions=200, seed=3,
                                   bootstrap=5)
    at_edge = np.abs(ensemble.estimates) == np.pi / 2
    assert rep.clamped == at_edge.sum()
    assert 0 < rep.clamped < 200
    m = MeasurementModel("ad_two_probe_bare", 0.0, visibility=1.0)
    ensemble, rep = run_experiment(m, phi_true=np.pi / 4, events=500,
                                   repetitions=50, seed=1, bootstrap=5)
    assert rep.clamped == (np.abs(ensemble.estimates) == np.pi / 4).sum() > 0
    _, rep = run_experiment(m, phi_true=0.0, events=500, repetitions=50, seed=1,
                            bootstrap=5)
    assert rep.clamped == 0


# near the arcsine's edge the clamp merges several count differences into one
# estimate, +/-pi/(2 probes); the bootstrap runs over the unique estimates
@pytest.mark.parametrize("scheme,noise,phi,visibility", [
    ("ad_single_assisted", 0.1, 1.5, None),
    ("ad_two_probe_bare", 0.0, 0.75, 0.98),
])
def test_distinct_values_are_the_unique_estimates(scheme, noise, phi, visibility):
    m = MeasurementModel(scheme, noise, visibility)
    ensemble, report = run_experiment(m, phi, events=500, repetitions=3000, seed=[2, 7])
    diff = ensemble.counts[:, 0] - ensemble.counts[:, 1]
    at_edge = np.abs(ensemble.estimates) == np.pi / (2 * m.spec.probes)
    assert report.clamped == at_edge.sum() > 0
    assert len(np.unique(diff[at_edge])) > 1
    if on_index_path(ensemble):
        assert report.bootstrap_std == index_loop_std(ensemble, [2, 7], 500, 200)
    else:
        assert report.bootstrap_std == pytest.approx(
            weights_std(ensemble, [2, 7], 500, 200), rel=1e-12, abs=1e-15)


def test_cr_bound_values():
    # the bound is 1/sqrt(F) per event; F = 1 - eta for the bare single probe
    # and 8(1 - eta)^2 / (2 - 2 eta + eta^2) for the assisted two-probe scheme
    def bound(scheme, noise):
        m = MeasurementModel(scheme, noise, visibility=1.0)
        return run_experiment(m, events=100, repetitions=2, bootstrap=2)[1].cr_bound

    assert bound("ad_single_bare", 0.0) == pytest.approx(1.0, abs=1e-12)
    assert bound("ad_two_probe_assisted", 0.0) == pytest.approx(0.5, abs=1e-12)
    assert abs(bound("ad_single_bare", 0.55) / np.sqrt(20000) - 1.054e-2) < 1e-5
    # no information, or no events, gives no bound
    with pytest.raises(EstimationError):
        bound("ad_single_bare", 1.0)
    with pytest.raises(EstimationError):
        run_experiment(MeasurementModel("ad_single_bare", 0.0), events=0)


def test_cramer_rao_is_the_one_bound():
    # run_experiment's cr_bound is cramer_rao at the true phase; zero
    # information gives an infinite bound
    for scheme in SCHEMES:
        m = MeasurementModel(scheme, 0.3, visibility=0.98)
        bound = cramer_rao(m, 0.0)
        assert type(bound) is float
        assert bound == 1 / np.sqrt(classical_fisher(m, 0.0))
        assert run_experiment(m, events=100, repetitions=2, bootstrap=2)[1].cr_bound == bound
    assert cramer_rao(MeasurementModel("ad_single_bare", 1.0), 0.0) == float("inf")


def test_run_experiment_validation():
    m = MeasurementModel("ad_single_assisted", 0.3)
    with pytest.raises(EstimationError):
        run_experiment(m, repetitions=1)
    with pytest.raises(EstimationError):
        run_experiment(m, events=0)


# -------------------------------------------------------------- error curve

def test_error_curve_rows():
    grid = [0.2, 0.5, 0.8]
    rows = error_curve("ad_single_assisted", grid, visibility=1.0,
                       events=4000, repetitions=60, seed=2)
    assert [r["noise"] for r in rows] == grid
    for r in rows:
        assert set(r) == {"noise", "sqrt_nu_dphi", "bootstrap_std",
                          "cr_bound", "shot_noise"}
        # statistical error tracks the bound within a loose multiple
        assert abs(r["sqrt_nu_dphi"] - r["cr_bound"]) < 8 * r["bootstrap_std"]


def test_error_curve_assisted_beats_bare():
    grid = [0.3, 0.6]
    a = error_curve("ad_single_assisted", grid, visibility=1.0,
                    events=20000, repetitions=200, seed=4)
    b = error_curve("ad_single_bare", grid, visibility=1.0,
                    events=20000, repetitions=200, seed=4)
    for ra, rb in zip(a, b):
        gap = rb["sqrt_nu_dphi"] - ra["sqrt_nu_dphi"]
        allowance = 2 * np.hypot(ra["bootstrap_std"], rb["bootstrap_std"])
        assert gap > -allowance


def test_error_curve_csv_format():
    rows = error_curve("depol_single_bare", [0.0, 0.4], visibility=1.0,
                       events=500, repetitions=20, seed=0, phi_true=0.0)
    text = format_csv(["noise", "sqrt_nu_dphi", "bootstrap_std", "cr_bound",
                       "shot_noise"], rows)
    lines = text.split("\n")
    assert lines[0] == "noise,sqrt_nu_dphi,bootstrap_std,cr_bound,shot_noise"
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 4  # header + 2 rows + trailing blank
    assert lines[1].startswith("0,")
    assert lines[2].startswith("0.4,")
