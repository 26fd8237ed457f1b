import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bell_state, partial_trace, rand_rho, random_channel
from qmetro.channels import (ChannelError, GeneratorH, KrausChannel,
                             PhaseChannelFamily, amplitude_damping,
                             choi_matrix, depolarizing, evolve,
                             extend_with_ancilla, general_pauli,
                             kraus_from_choi, phase_unitary)
from qmetro import estimation, optics, qfi, tomography
from qmetro.linalg import PAULI_X, projector

PLUS = projector(np.array([1, 1]) / np.sqrt(2))


def all_test_channels():
    return [amplitude_damping(0.3), depolarizing(0.4),
            general_pauli([0.5, 0, 0.5, 0]), general_pauli([0.2, 0.3, 0.4, 0.1])]


def test_phase_unitary_values():
    assert np.abs(phase_unitary(0) - np.eye(2)).max() < 1e-15
    assert np.abs(phase_unitary(np.pi) - np.diag([1, -1])).max() < 1e-12
    assert np.abs(phase_unitary(np.pi / 2) - np.diag([1, 1j])).max() < 1e-12


def test_completeness_enforced():
    # the residual is one contraction; the loop over the operators sums in
    # another order, so the two agree to a few ulps
    for ch in all_test_channels() + [random_channel(4, 6, np.random.default_rng(3))]:
        assert ch.completeness_residual() < 1e-10
        loop = sum(k.conj().T @ k for k in ch.kraus)
        assert abs(ch.completeness_residual() - np.abs(loop - np.eye(ch.dim)).max()) < 1e-15
    with pytest.raises(ChannelError):
        KrausChannel((np.eye(2), np.eye(2)), label="broken")


@pytest.mark.parametrize("ops", [[], [np.eye(2), np.eye(3)], [np.zeros((2, 3))]],
                         ids=["empty", "ragged", "non-square"])
def test_kraus_shape_validated(ops):
    with pytest.raises(ChannelError):
        KrausChannel(ops)


def test_kraus_stack_is_a_read_only_copy():
    a0 = np.diag([1, np.sqrt(0.7)]).astype(complex)
    a1 = np.array([[0, np.sqrt(0.3)], [0, 0]], dtype=complex)
    ch = KrausChannel([a0, a1])
    before = ch.kraus.copy()
    a0[0, 0] = 5
    assert ch.kraus.shape == (2, 2, 2) and ch.kraus.dtype == complex
    assert np.array_equal(ch.kraus, before)
    assert ch.completeness_residual() < 1e-10
    for built in (ch, amplitude_damping(0.3)):
        with pytest.raises(ValueError):
            built.kraus[0][1, 1] = 9


def test_amplitude_damping_limits():
    rng = np.random.default_rng(0)
    rho = rand_rho(rng, 2)
    assert np.abs(amplitude_damping(0).apply(rho) - rho).max() < 1e-12
    out = amplitude_damping(1).apply(projector([0, 1]))
    assert np.abs(out - np.diag([1, 0])).max() < 1e-12
    with pytest.raises(ChannelError):
        amplitude_damping(1.2)


def test_amplitude_damping_half_on_plus():
    out = amplitude_damping(0.5).apply(PLUS)
    assert abs(out[0, 1] - np.sqrt(0.5) / 2) < 1e-12
    assert abs(out[0, 0] - 0.75) < 1e-12
    assert abs(out[1, 1] - 0.25) < 1e-12


def test_general_pauli_cases():
    rng = np.random.default_rng(1)
    rho = rand_rho(rng, 2)
    assert np.abs(general_pauli([1, 0, 0, 0]).apply(rho) - rho).max() < 1e-12
    # orthogonal noise erases the equator coherence entirely
    assert np.abs(general_pauli([0.5, 0, 0.5, 0]).apply(PLUS) - np.eye(2) / 2).max() < 1e-12
    with pytest.raises(ChannelError):
        general_pauli([0.5, 0.2, 0.2, 0.2])
    with pytest.raises(ChannelError):
        general_pauli([1.2, -0.2, 0, 0])


def test_general_pauli_drops_zero_weights():
    assert len(general_pauli([1, 0, 0, 0]).kraus) == 1
    assert len(general_pauli([0.5, 0, 0.5, 0]).kraus) == 2
    # a weight rounded just below zero gives no operator either
    assert len(general_pauli([0.5, 0.5 + 1e-13, -1e-13, 0]).kraus) == 2
    assert len(depolarizing(0.4).kraus) == 4
    # the decay operator of undamped decay is zero
    assert np.array_equal(amplitude_damping(0).kraus, np.eye(2)[None])


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]), st.integers(1, 4),
       st.lists(st.integers(0, 4), max_size=5))
def test_zero_operators_are_dropped(seed, d, n, slots):
    # exactly-zero operators interleaved anywhere leave the stack bit for bit
    ks = random_channel(d, n, np.random.default_rng(seed)).kraus
    padded = list(ks)
    for s in slots:
        padded.insert(min(s, len(padded)), np.zeros((d, d)))
    got = KrausChannel(padded).kraus
    assert got.shape == ks.shape and got.tobytes() == ks.tobytes()


def test_depolarizing_matches_pauli_weights():
    p = 0.4
    a = depolarizing(p)
    b = general_pauli([1 - 3 * p / 4, p / 4, p / 4, p / 4])
    for ka, kb in zip(a.kraus, b.kraus):
        assert np.abs(np.asarray(ka) - np.asarray(kb)).max() < 1e-15


def test_depolarizing_convex_identity():
    rng = np.random.default_rng(2)
    for p in np.arange(0, 1.01, 0.1):
        rho = rand_rho(rng, 2)
        expected = (1 - p) * rho + p * np.eye(2) / 2
        assert np.abs(depolarizing(p).apply(rho) - expected).max() < 1e-12


def test_depolarizing_full_noise():
    out = depolarizing(1).apply(projector([1, 0]))
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12
    coherent = depolarizing(0.4).apply(PLUS)
    assert abs(coherent[0, 1] - 0.6 / 2) < 1e-12


def test_apply_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(3)
    for ch in all_test_channels():
        for _ in range(1000):
            rho = rand_rho(rng, 2)
            out = ch.apply(rho)
            assert abs(np.trace(out).real - 1) < 1e-10
            assert np.abs(out - out.conj().T).max() < 1e-12


def test_extend_with_ancilla():
    eta = 0.3
    ext = extend_with_ancilla(amplitude_damping(eta))
    out = ext.apply(bell_state())
    assert abs(out[0, 3] - np.sqrt(1 - eta) / 2) < 1e-12
    # the idle ancilla keeps its maximally mixed reduction
    assert np.abs(partial_trace(out, [2, 2], [1]) - np.eye(2) / 2).max() < 1e-12
    ident = extend_with_ancilla(general_pauli([1, 0, 0, 0]))
    rng = np.random.default_rng(4)
    rho4 = rand_rho(rng, 4)
    assert np.abs(ident.apply(rho4) - rho4).max() < 1e-12
    # the family's ancilla layout is the same tensor
    fam = PhaseChannelFamily(amplitude_damping(eta))
    assert np.array_equal(ext.kraus, fam.composite(0.0, ancilla=True)[0])


def test_composite_two_probes():
    ch = amplitude_damping(0.3)
    fam = PhaseChannelFamily(ch)
    ks, dks = fam.composite(0.0)
    assert np.array_equal(ks, ch.kraus)
    assert np.array_equal(dks, fam.dkraus_at(0.0))
    two = fam.composite(0.0, 2)[0]
    assert len(two) == 4
    assert np.abs(np.einsum('kji,kjl->il', two.conj(), two) - np.eye(4)).max() < 1e-10
    rng = np.random.default_rng(5)
    rho, sig = rand_rho(rng, 2), rand_rho(rng, 2)
    assert np.abs(evolve(np.kron(rho, sig), two)
                  - np.kron(ch.apply(rho), ch.apply(sig))).max() < 1e-12
    dead = evolve(bell_state(), PhaseChannelFamily(amplitude_damping(1)).composite(0.0, 2)[0])
    assert np.abs(dead - np.diag([1, 0, 0, 0])).max() < 1e-12
    with pytest.raises(ChannelError):
        fam.composite(0.0, 0)


def test_evolve_matches_kraus_loop():
    fam = PhaseChannelFamily(depolarizing(0.4))
    rho = rand_rho(np.random.default_rng(8), 2)
    ks, dks = fam.composite(0.7)
    out, dout = evolve(rho, ks, dks)
    assert np.abs(out - sum(k @ rho @ k.conj().T for k in ks)).max() < 1e-15
    assert np.abs(dout - sum(dk @ rho @ k.conj().T + k @ rho @ dk.conj().T
                             for k, dk in zip(ks, dks))).max() < 1e-15
    assert np.array_equal(evolve(rho, ks), out)
    with pytest.raises(ChannelError):
        evolve(np.eye(3) / 3, ks)


def test_evolve_stack_matches_per_state():
    rng = np.random.default_rng(9)
    for ancilla in (False, True):
        ks, dks = PhaseChannelFamily(amplitude_damping(0.3)).composite(0.7, ancilla=ancilla)
        d = ks.shape[-1]
        rhos = np.stack([rand_rho(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
        out, dout = evolve(rhos, ks, dks)
        assert out.shape == dout.shape == (2, 3, d, d)
        assert np.array_equal(evolve(rhos, ks), out)
        for idx in np.ndindex(2, 3):
            one, done = evolve(rhos[idx], ks, dks)
            assert np.array_equal(out[idx], one)
            assert np.array_equal(dout[idx], done)
        with pytest.raises(ChannelError):
            evolve(np.zeros((4, d + 1, d + 1)), ks)


# random phase families: (seed, number of Kraus operators, phase)
FAMILIES = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
                     st.floats(-np.pi, np.pi))
KERNEL_SETTINGS = settings(max_examples=40)


def draw(case):
    seed, n, phi = case
    rng = np.random.default_rng(seed)
    return PhaseChannelFamily(random_channel(2, n, rng)), phi, rng


@KERNEL_SETTINGS
@given(FAMILIES, st.integers(1, 2), st.booleans())
def test_evolve_output_is_a_state(case, n_probes, ancilla):
    fam, phi, rng = draw(case)
    ks, _ = fam.composite(phi, n_probes, ancilla)
    out = evolve(rand_rho(rng, ks.shape[-1]), ks)
    assert abs(np.trace(out) - 1) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(out).min() > -1e-12


@KERNEL_SETTINGS
@given(FAMILIES, st.integers(1, 2), st.booleans())
def test_evolve_derivative_matches_finite_difference(case, n_probes, ancilla):
    fam, phi, rng = draw(case)
    step = 1e-5
    ks, dks = fam.composite(phi, n_probes, ancilla)
    rho = rand_rho(rng, ks.shape[-1])
    fd = (evolve(rho, fam.composite(phi + step, n_probes, ancilla)[0])
          - evolve(rho, fam.composite(phi - step, n_probes, ancilla)[0])) / (2 * step)
    assert np.abs(evolve(rho, ks, dks)[1] - fd).max() < 1e-8


@KERNEL_SETTINGS
@given(FAMILIES)
def test_composite_acts_on_each_probe(case):
    fam, phi, rng = draw(case)
    ks, dks = fam.composite(phi)
    two, dtwo = fam.composite(phi, 2)
    rho, sig = rand_rho(rng, 2), rand_rho(rng, 2)
    (a, da), (b, db) = evolve(rho, ks, dks), evolve(sig, ks, dks)
    out, dout = evolve(np.kron(rho, sig), two, dtwo)
    assert np.abs(out - np.kron(a, b)).max() < 1e-12
    assert np.abs(dout - np.kron(da, b) - np.kron(a, db)).max() < 1e-12


@KERNEL_SETTINGS
@given(FAMILIES, st.integers(1, 2))
def test_idle_ancilla_stays_maximally_mixed(case, n_probes):
    fam, phi, _ = draw(case)
    d = 2 ** n_probes
    psi = np.eye(d).ravel() / np.sqrt(d)
    out = evolve(np.outer(psi, psi), fam.composite(phi, n_probes, ancilla=True)[0])
    assert np.abs(partial_trace(out, [d, d], [1]) - np.eye(d) / d).max() < 1e-12


def test_phase_family_derivative_matches_finite_difference():
    step = 1e-5
    for ch in all_test_channels():
        fam = PhaseChannelFamily(ch)
        for phi in np.linspace(0, 2 * np.pi, 9, endpoint=False):
            dks = fam.dkraus_at(phi)
            for k_plus, k_minus, dk in zip(fam.kraus_at(phi + step),
                                           fam.kraus_at(phi - step), dks):
                fd = (np.asarray(k_plus) - np.asarray(k_minus)) / (2 * step)
                assert np.abs(fd - dk).max() < 1e-8


def test_phase_family_completeness_at_all_phases():
    fam = PhaseChannelFamily(amplitude_damping(0.6))
    for phi in (0.0, 0.7, 2.1, 5.5):
        acc = sum(k.conj().T @ k for k in fam.kraus_at(phi))
        assert np.abs(acc - np.eye(2)).max() < 1e-10


def test_generator_h_validation():
    with pytest.raises(ChannelError):
        GeneratorH(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ChannelError, match="h must be finite and Hermitian"):
        GeneratorH(np.array([[0, 1], [1 + 1e-11, 0]], dtype=complex))
    with pytest.raises(ChannelError):
        GeneratorH(np.zeros((2, 3)))
    h = GeneratorH([[1, 1j], [-1j, 0]])
    assert h.h.dtype == complex


NON_FINITE_ENTRY_POINTS = {
    "KrausChannel": (ChannelError, lambda bad: KrausChannel([[[1, 0], [0, bad]]])),
    "general_pauli": (ChannelError, lambda bad: general_pauli([1, bad, 0, 0])),
    "GeneratorH": (ChannelError, lambda bad: GeneratorH([[1, 0], [0, bad]])),
    "composite": (ChannelError, lambda bad: PhaseChannelFamily(depolarizing(0.3)).composite(bad)),
    "bare minimax": (ChannelError, lambda bad: qfi.channel_qfi_minimax(
        PhaseChannelFamily(depolarizing(0.3)), extended=False, phi0=bad)),
    "channel_qfi_supremum": (ChannelError, lambda bad: qfi.channel_qfi_supremum(
        PhaseChannelFamily(amplitude_damping(0.3)), phi0=bad)),
    "sld_qfi": (qfi.QfiError, lambda bad: qfi.sld_qfi(np.diag([bad, 0.5]), np.zeros((2, 2)))),
    "qfi_from_matrix_elements": (qfi.QfiError, lambda bad: qfi.qfi_from_matrix_elements(
        np.where(np.eye(2), 0.5, bad), "ad_single")),
    "two_probe_collective_ad_qfi": (qfi.QfiError,
                                    lambda bad: qfi.two_probe_collective_ad_qfi(0.3, bad)),
    "ChiMatrix": (tomography.TomographyError, lambda bad: tomography.ChiMatrix(np.diag([bad, 0.5]))),
    "reconstruct_from_probabilities": (tomography.TomographyError, lambda bad: (
        tomography.reconstruct_from_probabilities(np.where(np.eye(4), bad, 0.5)))),
    "run_experiment": (estimation.EstimationError, lambda bad: estimation.run_experiment(
        estimation.MeasurementModel("ad_single_assisted", 0.3), phi_true=bad, repetitions=2)),
    "build_pauli_network": (optics.OpticsError, lambda bad: optics.build_pauli_network([1, bad, 0, 0])),
}


# arithmetic on inf warns on its way to the guard
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_ENTRY_POINTS))
def test_non_finite_input_raises_the_module_error(name, bad):
    # every guard reads `not x <= tol`, which NaN fails as well
    error, call = NON_FINITE_ENTRY_POINTS[name]
    with pytest.raises(error):
        call(bad)


def test_choi_matches_kraus_loop():
    # reference: sum over Kraus operators of K|i><j|K^dag, block by block
    rng = np.random.default_rng(3)
    for ch in [random_channel(d, n, rng) for d in (2, 3, 4) for n in (1, 2, 5)]:
        d = ch.dim
        ref = np.zeros((d * d, d * d), dtype=complex)
        for k in ch.kraus:
            for i in range(d):
                for j in range(d):
                    ref[i * d:(i + 1) * d, j * d:(j + 1) * d] += np.outer(k[:, i], k[:, j].conj())
        assert np.abs(choi_matrix(ch) - ref).max() <= 1e-15


def test_choi_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(5):
        ch = random_channel(2, 3, rng)
        c = choi_matrix(ch)
        # trace-preservation shows up as identity blocks on the input index
        for i in range(2):
            for j in range(2):
                block = np.trace(c[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2])
                assert abs(block - (1.0 if i == j else 0.0)) < 1e-10
        rebuilt = KrausChannel(kraus_from_choi(c), label="rebuilt")
        assert np.abs(choi_matrix(rebuilt) - c).max() < 1e-10
    with pytest.raises(ChannelError):
        kraus_from_choi(-np.eye(4))


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]), st.integers(1, 4))
def test_choi_round_trip_property(seed, d, n):
    c = choi_matrix(random_channel(d, n, np.random.default_rng(seed)))
    rebuilt = KrausChannel(kraus_from_choi(c), label="rebuilt")
    assert np.abs(choi_matrix(rebuilt) - c).max() <= 1e-10


def test_random_channel_seeded():
    a = random_channel(2, 4, np.random.default_rng(11))
    b = random_channel(2, 4, np.random.default_rng(11))
    assert len(a.kraus) == 4
    for ka, kb in zip(a.kraus, b.kraus):
        assert np.array_equal(np.asarray(ka), np.asarray(kb))
    assert a.completeness_residual() < 1e-10
