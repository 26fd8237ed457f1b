import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import chi_apply, rand_herm, rand_rho, random_channel
from qmetro.channels import (KrausChannel, amplitude_damping, depolarizing,
                             extend_with_ancilla, general_pauli)
from qmetro.tomography import (ChiMatrix, QptDataset, TomographyError,
                               _frequencies, _overlap, _reconstruct,
                               _require_hermitian, born_probabilities,
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


def test_chi_matrix_invariants():
    chi = chi_theory(AD_HALF)
    assert np.abs(chi.mat - chi.mat.conj().T).max() < 1e-12
    assert chi.tp_residual < 1e-12
    assert chi.min_eigenvalue > -1e-9


def test_chi_json_round_trip():
    chi = chi_theory(AD_HALF)
    back = ChiMatrix.from_json(chi.to_json())
    assert back.dim_basis == chi.dim_basis
    assert np.abs(back.mat - chi.mat).max() < 1e-14


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
    with pytest.raises(TomographyError):
        ChiMatrix(np.ones((4, 2)))


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
    assert _raised(lambda: _require_hermitian(stack)) == single


def test_simulate_qpt_deterministic():
    a = simulate_qpt(AD_HALF, shots=500, seed=42)
    b = simulate_qpt(AD_HALF, shots=500, seed=42)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_qpt(AD_HALF, shots=500, seed=43)
    assert not np.array_equal(a.counts, c.counts)


@pytest.mark.parametrize("ancilla,seed", [(True, 0), (False, 7), (True, 2 ** 33 + 5)])
def test_simulate_qpt_matches_per_setting_streams(ancilla, seed):
    # setting (l, m) draws from default_rng([seed, l, m]), bit for bit
    ch = AD_HALF if ancilla else amplitude_damping(0.5)
    data = simulate_qpt(ch, shots=900, seed=seed)
    p = born_probabilities(ch)
    n0 = [[np.random.default_rng([seed, l, m]).binomial(900, p[l, m])
           for m in range(p.shape[1])] for l in range(p.shape[0])]
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
        assert chi.min_eigenvalue > -1e-9
        assert chi.tp_residual < 0.05


def test_reconstruction_counts_shape_check():
    data = simulate_qpt(AD_HALF, shots=100, seed=0)
    with pytest.raises(TomographyError):
        QptDataset = type(data)
        QptDataset(-data.counts)


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
    assert abs(a - 3.596056e-03) < 1e-8


def test_poisson_uncertainty_matches_per_resample_streams():
    # resample r draws from default_rng([seed, r])
    data = simulate_qpt(AD_HALF, shots=2000, seed=11)
    chi_th = chi_theory(AD_HALF)
    fids = [process_fidelity(reconstruct_chi(QptDataset(
        np.random.default_rng([3, r]).poisson(data.counts))), chi_th).value
        for r in range(12)]
    assert poisson_uncertainty(data, chi_ref=chi_th, resamples=12, seed=3) == np.std(fids)


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
