import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import chi_apply, rand_herm, rand_rho, random_channel
from qmetro.channels import (KrausChannel, amplitude_damping, depolarizing,
                             extend_with_ancilla, general_pauli)
from qmetro.linalg import require_hermitian
from qmetro.optics import build_ad_network, build_pauli_network, extract_channel
from qmetro.tomography import (ChiMatrix, QptDataset, TomographyError,
                               _design, _frequencies, _overlap, _reconstruct,
                               born_probabilities,
                               chi_theory, poisson_uncertainty,
                               process_fidelity, product_states,
                               reconstruct_chi, reconstruct_from_probabilities,
                               simulate_qpt)

AD_HALF = extend_with_ancilla(amplitude_damping(0.5))
DEPOL_04 = extend_with_ancilla(depolarizing(0.4))
IDENTITY4 = extend_with_ancilla(general_pauli([1, 0, 0, 0]))


# -------------------------------------------------------------- chi theory

def test_chi_identity_single_entry():
    chi = chi_theory(IDENTITY4)
    expected = np.zeros((16, 16))
    expected[0, 0] = 1.0
    assert np.abs(chi.mat - expected).max() < 1e-12


def test_chi_depol_diagonal_weights():
    p = 0.4
    chi = chi_theory(DEPOL_04)
    # probe Pauli index i lives at 4*i (ancilla factor is the identity)
    diag = np.diag(chi.mat).real
    assert abs(diag[0] - (1 - 3 * p / 4)) < 1e-12
    for k in (4, 8, 12):
        assert abs(diag[k] - p / 4) < 1e-12
    off = chi.mat - np.diag(np.diag(chi.mat))
    assert np.abs(off).max() < 1e-12


def test_chi_damping_coefficients():
    eta = 0.3
    chi = chi_theory(extend_with_ancilla(amplitude_damping(eta)))
    a0 = (1 + np.sqrt(1 - eta)) / 2
    a3 = (1 - np.sqrt(1 - eta)) / 2
    assert abs(chi.mat[0, 0] - a0 ** 2) < 1e-12
    assert abs(chi.mat[12, 12] - a3 ** 2) < 1e-12
    assert abs(chi.mat[0, 12] - eta / 4) < 1e-12   # a0*a3 = eta/4
    assert abs(chi.mat[4, 4] - eta / 4) < 1e-12
    assert abs(chi.mat[4, 8] - (-1j * eta / 4)) < 1e-12
    assert abs(chi.mat[8, 4] - (1j * eta / 4)) < 1e-12


def test_chi_apply_matches_channel():
    rng = np.random.default_rng(7)
    for ch in (AD_HALF, DEPOL_04):
        chi = chi_theory(ch)
        for _ in range(100):
            rho = rand_rho(rng, 4)
            assert np.abs(chi_apply(chi, rho) - ch.apply(rho)).max() < 1e-10


def test_chi_theory_equals_the_per_operator_expansion():
    # c[m, b] = trace(B_b^dagger K_m) / d, one operator and one basis element
    # at a time, gives the same bits as chi_theory's single contraction
    weights = np.random.default_rng(5).dirichlet(np.ones(4), 8)
    channels = [f(x) for x in np.linspace(0, 1, 21) for f in (amplitude_damping, depolarizing)]
    channels += [extend_with_ancilla(ch) for ch in channels]
    channels += [general_pauli(p) for p in weights]
    channels += [extract_channel(build_pauli_network(p))[0] for p in weights]
    channels += [extract_channel(build_ad_network(x))[0] for x in np.linspace(0, 1, 6)]
    for ch in channels:
        d = ch.dim
        c = np.array([[np.trace(b.conj().T @ k) / d for b in _design(d).basis]
                      for k in ch.kraus])
        assert np.array_equal(chi_theory(ch).mat, c.T @ c.conj())


def test_chi_matrix_invariants():
    chi = chi_theory(AD_HALF)
    assert np.abs(chi.mat - chi.mat.conj().T).max() < 1e-12
    assert abs(np.trace(chi.mat).real - 1) < 1e-12
    assert np.linalg.eigvalsh(chi.mat).min() > -1e-9


# ----------------------------------------------------------- probabilities

def test_born_probabilities_shape_and_range():
    p = born_probabilities(AD_HALF)
    assert p.shape == (16, 16)
    assert p.min() >= -1e-12 and p.max() <= 1 + 1e-12


def test_born_probabilities_dimension_check():
    # the design follows the channel: a qubit channel gets the 4 x 4 table
    assert born_probabilities(amplitude_damping(0.5)).shape == (4, 4)
    with pytest.raises(TomographyError):
        born_probabilities(random_channel(3, 2, np.random.default_rng(0)))


def test_product_states_are_states():
    for d in (2, 4):
        states = product_states(d)
        assert states.shape == (d * d, d, d)
        for rho in states:
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12
        # built once per dimension and shared, so nobody may write to it
        assert product_states(d) is states
        assert not states.flags.writeable


@pytest.mark.parametrize("d", [2, 4])
def test_design_follows_the_input_dimension(d):
    # every entry point takes the channel, table or chi alone
    rng = np.random.default_rng(d)
    ch = random_channel(d, 2, rng)
    p = born_probabilities(ch)
    assert p.shape == (d * d, d * d)
    data = simulate_qpt(ch, shots=100, seed=1)
    assert data.counts.shape == (d * d, d * d, 2)
    assert reconstruct_chi(data).dim_basis == d * d
    chi = chi_theory(ch)
    assert chi.dim_basis == d * d
    assert np.abs(reconstruct_from_probabilities(p).mat - chi.mat).max() < 1e-10
    rho = rand_rho(rng, d)
    assert np.abs(chi_apply(chi, rho) - ch.apply(rho)).max() < 1e-10


def test_unsupported_probe_dimension():
    qutrit = random_channel(3, 2, np.random.default_rng(1))
    for call in (born_probabilities, chi_theory,
                 lambda ch: simulate_qpt(ch, shots=10)):
        with pytest.raises(TomographyError, match="unsupported probe dimension 3"):
            call(qutrit)
    with pytest.raises(TomographyError, match="unsupported probe dimension 3"):
        reconstruct_from_probabilities(np.full((9, 9), 0.5))
    with pytest.raises(TomographyError, match="unsupported probe dimension 3"):
        chi_apply(ChiMatrix(np.eye(9) / 9), np.eye(3) / 3)


def test_chi_matrix_shape():
    assert ChiMatrix(np.eye(16) / 16).dim_basis == 16
    # the empty matrix used to reach numpy's "zero-size array" ValueError
    for shape in [(4, 2), (0, 0), (0,), (2, 2, 2)]:
        with pytest.raises(TomographyError, match="square and non-empty"):
            ChiMatrix(np.ones(shape))


# 5e-324 is the least subnormal; float repr switches to an exponent below
# 1e-4 and at 1e16
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 9.999999999999999e-05, 1e-4,
               0.1, 1.0, 9999999999999998.0, 1e16, 1e300, -1e300, 1.7976931348623157e308]


@st.composite
def hermitian_matrices(draw):
    # the entries cycle through the edge floats and a few drawn ones, in a
    # drawn order, which keeps d = 16 cheap to draw and to shrink; at d = 16
    # every value appears in both parts
    d = draw(st.sampled_from([16, 4, 2, 1]))
    drawn = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    pool = np.array(draw(st.permutations(EDGE_FLOATS + drawn)))
    re, im = np.resize(pool, (d, d)), np.resize(pool[::-1], (d, d))
    # mirrored by selection, not by sums, so that every -0.0 survives
    upper = np.triu(np.ones((d, d), dtype=bool))
    mat = np.empty((d, d), dtype=complex)
    mat.real = np.where(upper, re, re.T)
    mat.imag = np.where(upper, im, -im.T)
    np.fill_diagonal(mat.imag, np.copysign(0.0, np.diag(im)))
    return mat


@settings(max_examples=60)
@given(hermitian_matrices())
def test_chi_json_text_is_json_dump_output(mat):
    chi = ChiMatrix(mat)
    expected = json.dumps({"dim_basis": len(mat), "re": mat.real.ravel().tolist(),
                           "im": mat.imag.ravel().tolist()}, indent=2, sort_keys=True)
    # compared by line: a failure names the first differing line, which is
    # also far quicker to explain than one long string
    assert chi.json_text().split("\n") == expected.split("\n")


# ----------------------------------------------------------- reconstruction

@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]), st.integers(1, 4))
def test_reconstruct_exact_probabilities_is_identity(seed, d, n_kraus):
    # d = 2 is the single-qubit design, d = 4 the probe with its ancilla
    ch = random_channel(d, n_kraus, np.random.default_rng(seed))
    chi = reconstruct_from_probabilities(born_probabilities(ch))
    assert np.abs(chi.mat - chi_theory(ch).mat).max() < 1e-10


@pytest.mark.parametrize("shape", [(16, 4), (3, 3)])
def test_reconstruct_rejects_wrong_shape(shape):
    with pytest.raises(TomographyError):
        reconstruct_from_probabilities(np.full(shape, 0.5))


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]), st.integers(1, 6),
       st.sampled_from([1, 10, 20000]))
def test_stacked_kernels_match_single_tables_bit_for_bit(seed, d, size, shots):
    # count tables around a random channel's probabilities; about a fifth of
    # the settings drew no counts and read as frequency 0.5
    rng = np.random.default_rng(seed)
    ch = random_channel(d, 2, rng)
    ref = chi_theory(ch)
    totals = rng.integers(0, shots + 1, (size, d * d, d * d))
    totals[rng.random(totals.shape) < 0.2] = 0
    n0 = rng.binomial(totals, born_probabilities(ch))
    counts = np.stack([n0, totals - n0], axis=-1)
    probs = _frequencies(counts)
    chis = _reconstruct(probs)
    value, residual = _overlap(chis, ref.mat)
    for i in range(size):
        assert np.array_equal(probs[i], _frequencies(counts[i]))
        single = reconstruct_from_probabilities(probs[i])
        assert np.array_equal(chis[i], single.mat)
        fid = process_fidelity(single, ref)
        assert (value[i], residual[i]) == (fid.value, fid.imag_residual)


def _raised(call):
    with pytest.raises(TomographyError) as err:
        call()
    return str(err.value)


# a stack with one bad member, mid-stack so that neither end decides a check,
# fails with the message of that member alone
STACK = np.stack([chi_theory(random_channel(2, 2, np.random.default_rng(s))).mat
                  for s in range(5)])


def test_reconstruct_stack_with_one_nonpositive_trace():
    probs = np.stack([born_probabilities(random_channel(2, 2, np.random.default_rng(s)))
                      for s in range(5)])
    probs[2] = 0
    single = _raised(lambda: reconstruct_from_probabilities(probs[2]))
    assert single == "reconstructed chi has nonpositive trace"
    assert _raised(lambda: _reconstruct(probs)) == single


@pytest.mark.parametrize("fault,message", [
    ("zero norm", "zero-norm chi matrix"),
    ("nan", "zero-norm chi matrix"),
    ("imaginary overlap", "fidelity has imaginary residual 7.07e-01"),
])
def test_overlap_stack_with_one_bad_member(fault, message):
    stack, ref = STACK.copy(), STACK[0]
    if fault == "zero norm":
        stack[2] = 0
        assert _raised(lambda: process_fidelity(ChiMatrix(stack[2]), ChiMatrix(ref))) == message
    elif fault == "nan":
        stack[2, 1, 2] = np.nan
    else:
        stack[2] = (1 + 1j) * ref
    assert _raised(lambda: _overlap(stack[2], ref)) == message
    assert _raised(lambda: _overlap(stack, ref)) == message


@pytest.mark.parametrize("fault", ["nan", "not hermitian"])
def test_hermitian_check_stack_with_one_bad_member(fault):
    stack = STACK.copy()
    if fault == "nan":
        stack[2, 1, 2] = np.nan
    else:
        stack[2, 0, 1] += 1e-9
    single = _raised(lambda: ChiMatrix(stack[2]))
    assert single == "chi must be finite and Hermitian"
    # the check ChiMatrix and the reconstruction make, on the whole stack
    assert _raised(lambda: require_hermitian("chi", 1e-10, TomographyError, stack)) == single


def test_simulate_qpt_deterministic():
    a = simulate_qpt(AD_HALF, shots=500, seed=42)
    b = simulate_qpt(AD_HALF, shots=500, seed=42)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_qpt(AD_HALF, shots=500, seed=43)
    assert not np.array_equal(a.counts, c.counts)


@pytest.mark.parametrize("ancilla,seed", [(True, 0), (False, 7), (True, 2 ** 33 + 5)])
def test_simulate_qpt_matches_per_setting_streams(ancilla, seed):
    # one generator, default_rng([seed, 0]), draws setting (l, m) after every
    # setting before it in C order, bit for bit
    ch = AD_HALF if ancilla else amplitude_damping(0.5)
    data = simulate_qpt(ch, shots=900, seed=seed)
    p = born_probabilities(ch)
    rng = np.random.default_rng([seed, 0])
    n0 = [[rng.binomial(900, p[l, m]) for m in range(p.shape[1])]
          for l in range(p.shape[0])]
    assert np.array_equal(data.counts[:, :, 0], n0)
    assert data.counts.dtype == np.int64


def test_simulate_qpt_count_totals():
    data = simulate_qpt(AD_HALF, shots=777, seed=0)
    assert data.counts.shape == (16, 16, 2)
    # every setting spends all its shots
    assert (data.counts.sum(axis=2) == 777).all()


def test_simulate_qpt_frequencies_converge():
    probs = born_probabilities(AD_HALF)
    shots = 1_000_000
    data = simulate_qpt(AD_HALF, shots=shots, seed=9)
    freq = data.counts[:, :, 0] / shots
    sigma = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / shots)
    assert (np.abs(freq - probs) < 5 * sigma + 1e-6).all()


def test_sampled_reconstruction_fidelity():
    for ch in (AD_HALF, DEPOL_04):
        data = simulate_qpt(ch, shots=20000, seed=1)
        chi = reconstruct_chi(data)
        fid = process_fidelity(chi, chi_theory(ch))
        assert fid.value >= 0.99
        assert np.linalg.eigvalsh(chi.mat).min() > -1e-9
        assert abs(np.trace(chi.mat).real - 1) < 0.05


def test_reconstruction_counts_shape_check():
    data = simulate_qpt(AD_HALF, shots=100, seed=0)
    with pytest.raises(TomographyError):
        QptDataset = type(data)
        QptDataset(-data.counts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5])
def test_dataset_rejects_non_integral_counts(bad):
    # NaN passes a `min() < 0` check, and would reach numpy's Poisson draw
    counts = simulate_qpt(AD_HALF, shots=100, seed=0).counts.astype(float)
    counts[3, 5, 0] = bad
    with pytest.raises(TomographyError, match="finite nonnegative integers"):
        QptDataset(counts)
    assert QptDataset(np.round(counts[:3])).counts.dtype == float


@pytest.mark.parametrize("shape", [(0, 4, 2), (0,), (16, 16, 0)])
def test_dataset_rejects_an_empty_table(shape):
    # numpy's `min()` of an empty array raises its own ValueError
    with pytest.raises(TomographyError, match="empty"):
        QptDataset(np.zeros(shape))


@pytest.mark.parametrize("shots", [2.5, 0, 0.5, np.nan, np.inf])
def test_simulate_qpt_rejects_non_integral_shots(shots):
    with pytest.raises(TomographyError, match="whole number of at least 1"):
        simulate_qpt(AD_HALF, shots=shots)


def test_simulate_qpt_takes_integral_float_shots():
    a = simulate_qpt(AD_HALF, shots=300.0, seed=4).counts
    assert a.dtype == np.int64
    assert np.array_equal(a, simulate_qpt(AD_HALF, shots=300, seed=4).counts)


# ----------------------------------------------------------------- fidelity

def test_fidelity_self_is_one():
    chi = chi_theory(AD_HALF)
    assert abs(process_fidelity(chi, chi).value - 1) < 1e-12


def test_fidelity_identity_vs_full_depolarizing():
    a = chi_theory(IDENTITY4)
    b = chi_theory(extend_with_ancilla(depolarizing(1.0)))
    assert abs(process_fidelity(a, b).value - 0.5) < 1e-12


def test_fidelity_orthogonal_rotations():
    x = chi_theory(extend_with_ancilla(general_pauli([0, 1, 0, 0])))
    z = chi_theory(extend_with_ancilla(general_pauli([0, 0, 0, 1])))
    assert process_fidelity(x, z).value < 1e-12


def test_fidelity_symmetric():
    a = chi_theory(AD_HALF)
    b = chi_theory(DEPOL_04)
    assert abs(process_fidelity(a, b).value - process_fidelity(b, a).value) < 1e-12


def test_fidelity_unitary_invariant():
    rng = np.random.default_rng(12)
    u = expm(1j * rand_herm(rng, 4))
    rot = KrausChannel((u,), label="rot")
    a = chi_theory(AD_HALF)
    b = chi_theory(DEPOL_04)
    ka = KrausChannel(tuple(u @ k for k in AD_HALF.kraus), label="ua")
    kb = KrausChannel(tuple(u @ k for k in DEPOL_04.kraus), label="ub")
    ra = chi_theory(ka)
    rb = chi_theory(kb)
    assert abs(process_fidelity(a, b).value - process_fidelity(ra, rb).value) < 1e-10
    del rot


def test_fidelity_imag_residual_small():
    rep = process_fidelity(chi_theory(AD_HALF), chi_theory(DEPOL_04))
    assert rep.imag_residual < 1e-12


# ------------------------------------------------------------- uncertainty

def test_poisson_uncertainty_reproducible():
    data = simulate_qpt(AD_HALF, shots=2000, seed=11)
    chi_th = chi_theory(AD_HALF)
    a = poisson_uncertainty(data, chi_ref=chi_th, resamples=50, seed=3)
    b = poisson_uncertainty(data, chi_ref=chi_th, resamples=50, seed=3)
    assert a == b
    assert abs(a - 5.480409e-03) < 1e-8


def test_poisson_uncertainty_matches_per_resample_streams():
    # one generator, default_rng([seed, 1]), draws resample r after every
    # resample before it; each table is reconstructed and scored on its own
    data = simulate_qpt(AD_HALF, shots=2000, seed=11)
    chi_th = chi_theory(AD_HALF)
    rng = np.random.default_rng([3, 1])
    fids = [process_fidelity(reconstruct_chi(QptDataset(rng.poisson(data.counts))),
                             chi_th).value for _ in range(12)]
    assert poisson_uncertainty(data, chi_ref=chi_th, resamples=12, seed=3) == np.std(fids)


SINGLE = simulate_qpt(amplitude_damping(0.3), shots=500, seed=5)
SINGLE_TH = chi_theory(amplitude_damping(0.3))
# resamples per block: 2**16 draws over the 4 x 4 x 2 table
BLOCK = 2 ** 16 // SINGLE.counts.size
PREFIX_ROWS = 2 * BLOCK + 2
PREFIX_FIDS = _overlap(_reconstruct(_frequencies(np.random.default_rng([8, 1]).poisson(
    SINGLE.counts, size=(PREFIX_ROWS, *SINGLE.counts.shape)))), SINGLE_TH.mat)[0]


@settings(max_examples=6, deadline=None)
@given(st.integers(2, PREFIX_ROWS))
@example(BLOCK)
@example(BLOCK + 1)
@example(PREFIX_ROWS)
def test_poisson_resamples_are_a_prefix_of_one_draw(resamples):
    # R resamples, in blocks of at most BLOCK, are the first R rows of
    # one draw from default_rng([seed, 1]), whatever R is
    assert (poisson_uncertainty(SINGLE, SINGLE_TH, resamples=resamples, seed=8)
            == np.std(PREFIX_FIDS[:resamples]))


def test_each_stage_draws_from_one_generator_of_its_own(monkeypatch):
    seeds, default_rng = [], np.random.default_rng

    def spy(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    simulate_qpt(AD_HALF, shots=2000, seed=6)
    assert seeds == [[6, 0]]
    # two blocks of resamples, still one generator, and not the data's
    poisson_uncertainty(SINGLE, SINGLE_TH, resamples=BLOCK + 3, seed=6)
    assert seeds == [[6, 0], [6, 1]]


def test_poisson_uncertainty_shrinks_fast():
    # resampled fidelity spread drops roughly like 1/shots here, i.e. much
    # faster per decade than a 1/sqrt(shots) law would allow
    chi_th = chi_theory(AD_HALF)
    stds = []
    for shots in (2000, 20000, 200000):
        data = simulate_qpt(AD_HALF, shots=shots, seed=11)
        stds.append(poisson_uncertainty(data, chi_ref=chi_th, resamples=50, seed=3))
    assert stds[0] > stds[1] > stds[2]
    assert stds[0] / stds[1] > 5
    assert stds[1] / stds[2] > 5
    assert stds[2] < 1e-3
