from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import differential_evolution

from conftest import bell_state, rand_herm, random_channel
from qmetro.channels import (ChannelError, KrausChannel, PhaseChannelFamily,
                             amplitude_damping, depolarizing, evolve,
                             general_pauli)
from qmetro.linalg import PAULIS, herm_from_params, projector
from qmetro import qfi
from qmetro.qfi import (DUALITY_GAP_TOL, SUPPORT_CUTOFF, QfiError, _bloch_derivatives,
                        _bloch_grid, _bloch_information, _bloch_ket, _bloch_map,
                        _bloch_vector,
                        _grid_pick, _inner, _ridge_kets, _rotated,
                        channel_qfi_minimax, channel_qfi_supremum, closed_form_qfi,
                        qfi_from_matrix_elements, sld_qfi,
                        two_probe_collective_ad_qfi, two_probe_sld_oracle)

PLUS = projector(np.array([1, 1]) / np.sqrt(2))
NOISELESS = PhaseChannelFamily(general_pauli([1, 0, 0, 0]))


def assisted_bell_output(fam, phi):
    return evolve(bell_state(), *fam.composite(phi, ancilla=True))


# ------------------------------------------------------------- closed forms

def test_closed_form_values():
    assert abs(closed_form_qfi("ad", 0.5, assisted=False) - 0.5) < 1e-15
    assert abs(closed_form_qfi("ad", 0.5, assisted=True) - 2 / 3) < 1e-15
    assert abs(closed_form_qfi("depol", 0.4, assisted=True) - 0.45) < 1e-15
    assert abs(closed_form_qfi("depol", 0.4, assisted=False) - 0.36) < 1e-15
    with pytest.raises(QfiError):
        closed_form_qfi("phaseflip", 0.3, assisted=True)
    with pytest.raises(QfiError):
        closed_form_qfi("ad", 1.5, assisted=True)


# ------------------------------------------------- output states and SLD QFI

def test_state_derivative_noiseless_plus():
    _, drho = evolve(PLUS, *NOISELESS.composite(0.0))
    expected = np.array([[0, -0.5j], [0.5j, 0]])
    assert np.abs(drho - expected).max() < 1e-12


def test_state_derivative_invisible_on_mixed():
    _, drho = evolve(np.eye(2) / 2, *NOISELESS.composite(0.0))
    assert np.abs(drho).max() < 1e-14


@pytest.mark.parametrize("fam", [PhaseChannelFamily(amplitude_damping(0.3)),
                                 PhaseChannelFamily(depolarizing(0.4))])
def test_state_derivative_matches_finite_difference(fam):
    step = 1e-5
    for phi in (0.0, 0.9, 2.4):
        fd = (evolve(PLUS, fam.composite(phi + step)[0]) -
              evolve(PLUS, fam.composite(phi - step)[0])) / (2 * step)
        assert np.abs(evolve(PLUS, *fam.composite(phi))[1] - fd).max() < 1e-8


def test_sld_qfi_pure_noiseless():
    result, sld = sld_qfi(*evolve(PLUS, *NOISELESS.composite(0.0)))
    assert abs(result.value - 1.0) < 1e-10
    assert sld.residual < 1e-8


def test_sld_qfi_two_probe_heisenberg():
    # collective noiseless phase on the two-probe entangled state
    result, _ = sld_qfi(*evolve(bell_state(), *NOISELESS.composite(0.0, 2)))
    assert abs(result.value - 4.0) < 1e-10


def test_sld_qfi_vanishes_on_mixed():
    result, _ = sld_qfi(np.eye(2) / 2, np.zeros((2, 2)))
    assert result.value == 0.0


def test_sld_qfi_unitary_invariance():
    fam = PhaseChannelFamily(amplitude_damping(0.3))
    rho, drho = assisted_bell_output(fam, 0.4)
    base, _ = sld_qfi(rho, drho)
    u = expm(1j * rand_herm(np.random.default_rng(5), 4))
    conj, _ = sld_qfi(u @ rho @ u.conj().T, u @ drho @ u.conj().T)
    assert abs(base.value - conj.value) < 1e-10


def test_sld_defining_relation_residual():
    for eta in (0.1, 0.5, 0.9):
        fam = PhaseChannelFamily(amplitude_damping(eta))
        rho, drho = assisted_bell_output(fam, 0.7)
        _, sld = sld_qfi(rho, drho)
        assert sld.residual < 1e-8


def test_sld_matches_closed_form_on_bell_probe():
    for eta in (0.0, 0.25, 0.5, 0.75):
        fam = PhaseChannelFamily(amplitude_damping(eta))
        rho, drho = assisted_bell_output(fam, 0.0)
        result, _ = sld_qfi(rho, drho)
        assert abs(result.value - closed_form_qfi("ad", eta, assisted=True)) < 1e-10


def test_sld_rejects_non_hermitian():
    with pytest.raises(QfiError):
        sld_qfi(np.array([[0.5, 0.5], [0.0, 0.5]]), np.zeros((2, 2)))


def test_output_state_dimension_check():
    fam = PhaseChannelFamily(amplitude_damping(0.3))
    with pytest.raises(ChannelError):
        evolve(np.eye(4) / 4, *fam.composite(0.0))
    with pytest.raises(ChannelError):
        evolve(np.eye(2) / 2, *fam.composite(0.0, ancilla=True))


# ------------------------------------------------------------------ minimax

@pytest.mark.parametrize("kind,maker", [("ad", amplitude_damping),
                                        ("depol", depolarizing)])
def test_minimax_matches_closed_forms(kind, maker):
    # 1e-28 gives Kraus operators of norm ~1e-14, near the inner solve's round-off cutoff
    for x in (0.0, 1e-28, 0.25, 0.5, 0.9):
        fam = PhaseChannelFamily(maker(x))
        ext = channel_qfi_minimax(fam, extended=True).value
        assert abs(ext - closed_form_qfi(kind, x, assisted=True)) < 1e-10
        bare = channel_qfi_minimax(fam, extended=False).value
        assert abs(bare - closed_form_qfi(kind, x, assisted=False)) < 1e-6


def test_assisted_dominates_bare():
    for kind in ("ad", "depol"):
        for x in np.arange(0, 1.0, 0.05):
            assert (closed_form_qfi(kind, x, assisted=True)
                    >= closed_form_qfi(kind, x, assisted=False) - 1e-12)


def test_minimax_phase_point_independent():
    fam = PhaseChannelFamily(amplitude_damping(0.4))
    vals = [channel_qfi_minimax(fam, extended=True, phi0=p).value
            for p in (0.0, 0.7, 2.1)]
    assert max(vals) - min(vals) < 1e-6
    bare = [channel_qfi_minimax(fam, extended=False, phi0=p).value
            for p in (0.0, 0.7, 2.1)]
    assert max(bare) - min(bare) < 1e-6


def test_depol_optimal_generator_pattern():
    p = 0.4
    fam = PhaseChannelFamily(depolarizing(p))
    h = channel_qfi_minimax(fam, extended=True).optimal_h.h
    corner = np.sqrt(p * (4 - 3 * p)) / (2 * (2 - p))
    assert np.abs(np.diag(h) - 0.5).max() < 1e-6
    assert abs(abs(h[0, 3]) - corner) < 1e-6
    assert abs(abs(h[1, 2]) - 0.5) < 1e-6
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert abs(h[i, j]) < 1e-6


def test_rotated_derivatives():
    fam = PhaseChannelFamily(depolarizing(0.4))
    m = len(fam.noise.kraus)
    dks = fam.dkraus_at(0.0)
    for a, b in zip(_rotated(*fam.composite(0.0), np.zeros((m, m))), dks):
        assert np.abs(a - b).max() < 1e-14
    # any Hermitian h generates a unitary mixing that preserves completeness
    rng = np.random.default_rng(6)
    h = rand_herm(rng, m)
    u = expm(1j * h)
    ks = fam.kraus_at(0.3)
    mixed = [sum(u[i, j] * ks[j] for j in range(m)) for i in range(m)]
    acc = sum(k.conj().T @ k for k in mixed)
    assert np.abs(acc - np.eye(2)).max() < 1e-10
    with pytest.raises(QfiError):
        _rotated(*fam.composite(0.0), np.zeros((3, 3)))


def test_depol_unextended_optimum_on_equator():
    res = channel_qfi_minimax(PhaseChannelFamily(depolarizing(0.4)), extended=False)
    rho = res.optimal_input
    z = np.trace(rho @ np.diag([1, -1])).real
    assert abs(res.value - 0.36) < 1e-6
    assert abs(z) < 1e-6
    # the rotated representation reproduces the optimum on its own probe
    w, v = np.linalg.eigh(rho)
    ket = v[:, -1]
    rot = _rotated(*PhaseChannelFamily(depolarizing(0.4)).composite(0.0), res.optimal_h.h)
    val = 4 * sum(np.linalg.norm(r @ ket) ** 2 for r in rot)
    assert abs(val - res.value) < 1e-8


def test_orthogonal_noise_channel():
    fam = PhaseChannelFamily(general_pauli([0.5, 0, 0.5, 0]))
    ext = channel_qfi_minimax(fam, extended=True).value
    assert abs(ext - 1.0) < 1e-6
    # the faithful no-ancilla channel maximum is NOT small; the protocol
    # value the matrix-element shortcut reports at phi=0 is exactly zero
    bare = channel_qfi_minimax(fam, extended=False).value
    assert abs(bare - 1.0) < 1e-6
    rho = evolve(PLUS, fam.composite(0.0)[0])
    assert qfi_from_matrix_elements(rho, "ad_single") <= 1e-6


# bare-probe values of random_channel(2, 2, default_rng(seed)); each agrees with
# the dual route min_h 4 lambda_max(alpha(h)) within 6e-12. The optimum sits on a
# ridge less than 1e-4 rad wide in theta, which a coarse search misses.
BARE_RIDGE_CASES = [(2, 0.604418452147), (5, 0.407343929255), (10, 0.512006424382),
                    (32, 0.790834263056729), (54, 0.830041112123388)]


def test_bare_minimax_on_singular_ridge():
    for seed, expected in BARE_RIDGE_CASES:
        fam = PhaseChannelFamily(random_channel(2, 2, np.random.default_rng(seed)))
        val = channel_qfi_minimax(fam, extended=False).value
        assert abs(val - expected) < 1e-9, seed


SUPREMUM_CASES = [
    # semidefinite-programming reference values for the spectral variant
    (amplitude_damping(0.3), 0.8300427934),
    (amplitude_damping(0.5), 4 * (3 - 2 * np.sqrt(2))),
    # for Pauli channels the worst-case and balanced-probe values agree
    (depolarizing(0.4), 0.45),
    (general_pauli([0.6, 0.1, 0.2, 0.1]), 0.3904761905),
]


def test_supremum_against_frozen_oracles():
    for ch, expected in SUPREMUM_CASES:
        val = channel_qfi_supremum(PhaseChannelFamily(ch)).value
        assert abs(val - expected) < 1e-6, ch.label


def spectral_bound(fam, h, phi=0.0):
    """4 lambda_max(alpha(h)), an upper bound on the supremum at every h."""
    rot = _rotated(*fam.composite(phi), h)
    return 4 * np.linalg.eigvalsh(sum(r.conj().T @ r for r in rot))[-1]


def assert_input_attains(fam, rho, value, phi, tol):
    """A purification of rho with the ancilla has output SLD information value.

    At a ridge ket the output is pure only at phi itself, and the SLD
    information there drops the vanishing eigenvalue's term; at the phase
    points next to it the output is mixed and the information tends to the
    value, within 1e-6.
    """
    ridge = _ridge_kets(fam.composite(phi)[0])
    at_ridge = any(abs(ket.conj() @ rho @ ket - 1) <= 1e-12 for ket in ridge)
    w, v = np.linalg.eigh(rho)
    psi = sum(np.sqrt(max(w[k], 0)) * np.kron(v[:, k], np.eye(2)[k]) for k in range(2))
    for d in (-1e-3, 1e-3) if at_ridge else (0.0,):
        sld, _ = sld_qfi(*evolve(np.outer(psi, psi.conj()),
                                 *fam.composite(phi + d, ancilla=True)))
        assert abs(sld.value - value) <= (1e-6 if at_ridge else tol)


def assert_supremum_certified(fam, res, phi=0.0):
    # dual side, two-sided: the spectral bound at the returned generator
    gap = spectral_bound(fam, res.optimal_h.h, phi) - res.value
    assert -1e-9 <= gap <= DUALITY_GAP_TOL
    # primal side: a purification of the returned state attains the value
    assert_input_attains(fam, res.optimal_input, res.value, phi, 1e-8)


def test_supremum_certificate():
    for ch, _ in SUPREMUM_CASES:
        fam = PhaseChannelFamily(ch)
        assert_supremum_certified(fam, channel_qfi_supremum(fam))


def _ball_information(ks, dks, p):
    """_inner at the square root of the state with Bloch vector p[0] times the
    unit vector at angles (p[1], p[2])."""
    r = p[0] * _bloch_vector(p[1], p[2])
    w, u = np.linalg.eigh((PAULIS[0] + np.tensordot(r, PAULIS[1:], axes=1)) / 2)
    return _inner(ks, dks, (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T,
                  minimizer=False)[0]


# (Kraus count, seed, where the optimum lies, value) of random_channel(2, n,
# default_rng(seed)) at phi = 0: two pure optima, where the inner minimizer
# need not be the minimax generator (a ridge ket, and the bare search's
# optimum), and an interior optimum at |r| = 0.864
SUPREMUM_HARD_CASES = [(2, 7, "ridge", 0.38677531070564575),
                       (2, 13, "bare", 0.5633096809467416),
                       (3, 18, "interior", 0.7553209861230274)]


@pytest.mark.parametrize("n, seed, where, expected", SUPREMUM_HARD_CASES)
def test_supremum_hard_cases(n, seed, where, expected):
    fam = PhaseChannelFamily(random_channel(2, n, np.random.default_rng(seed)))
    res = channel_qfi_supremum(fam)
    assert abs(res.value - expected) <= 1e-12
    assert_supremum_certified(fam, res)
    # above: the spectral bound at the returned generator
    assert expected - 1e-12 <= spectral_bound(fam, res.optimal_h.h) <= expected + DUALITY_GAP_TOL
    # below: a value some input attains
    ks, dks = fam.composite(0.0)
    if where == "interior":
        low = -differential_evolution(lambda p: -_ball_information(ks, dks, p),
                                      [(0, 1), (0, np.pi), (0, 2 * np.pi)],
                                      seed=0, popsize=5, tol=1e-3).fun
        assert abs(np.linalg.norm([np.trace(p @ res.optimal_input).real
                                   for p in PAULIS[1:]]) - 0.864) <= 1e-3
    else:
        low = channel_qfi_minimax(fam, extended=False).value
        assert np.trace(res.optimal_input @ res.optimal_input).real >= 1 - 1e-12
    assert expected - 1e-9 <= low <= expected + 1e-12


def test_supremum_exceeds_balanced_value_for_damping():
    # the spectral bound genuinely exceeds the balanced-probe QFI here; both
    # are reported rather than reconciled
    fam = PhaseChannelFamily(amplitude_damping(0.3))
    sup = channel_qfi_supremum(fam).value
    bal = channel_qfi_minimax(fam, extended=True).value
    assert sup > bal + 5e-3


NOISY_CHANNELS = st.one_of(
    st.integers(0, 2 ** 32 - 1).map(
        lambda s: general_pauli(np.random.default_rng(s).dirichlet(np.ones(4)))),
    st.floats(0, 1).map(amplitude_damping),
    st.floats(0, 1).map(depolarizing),
)


@settings(max_examples=24)
@given(NOISY_CHANNELS, st.floats(0, 2 * np.pi, exclude_max=True))
def test_minimax_independent_of_phase_point(ch, phi0):
    fam = PhaseChannelFamily(ch)
    for extended in (True, False):
        here = channel_qfi_minimax(fam, extended, phi0).value
        assert abs(here - channel_qfi_minimax(fam, extended).value) < 1e-6


def composed(first, second):
    """second after first: the Kraus products B_j A_i."""
    return KrausChannel((second.kraus[:, None] @ first.kraus[None]).reshape(-1, 2, 2))


# 16 pairs, each with up to 16 Kraus products
@settings(max_examples=16)
@given(NOISY_CHANNELS, NOISY_CHANNELS)
def test_later_noise_never_adds_information(first, second):
    # data processing: the composed channel carries no more information
    both = composed(first, second)
    before, after = ([channel_qfi_minimax(fam, extended=True).value,
                      channel_qfi_minimax(fam, extended=False).value,
                      channel_qfi_supremum(fam).value]
                     for fam in (PhaseChannelFamily(first), PhaseChannelFamily(both)))
    assert all(b <= a + 1e-9 for a, b in zip(before, after))


PROBE_FAMILIES = st.one_of(
    NOISY_CHANNELS,
    # Kraus operators of norm ~1e-14, at the round-off cutoff of both solves
    st.sampled_from([amplitude_damping(1e-28), depolarizing(1e-28)]),
    st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 4)).map(
        lambda c: random_channel(2, c[1], np.random.default_rng(c[0]))),
)


@settings(max_examples=40)
@given(PROBE_FAMILIES, st.floats(0, 2 * np.pi))
def test_supremum_bounds_balanced_and_bare(ch, phi):
    fam = PhaseChannelFamily(ch)
    res = channel_qfi_supremum(fam, phi)
    assert channel_qfi_minimax(fam, extended=True, phi0=phi).value <= res.value + 1e-12
    assert channel_qfi_minimax(fam, extended=False, phi0=phi).value <= res.value + 1e-12
    assert_supremum_certified(fam, res, phi)


@lru_cache(maxsize=None)
def _rotation_basis(m):
    """i times each of the m*m Hermitian matrices that herm_from_params weighs
    by its parameters."""
    basis = 1j * np.stack([herm_from_params(e, m) for e in np.eye(m * m)])
    basis.flags.writeable = False
    return basis


def _rotation_lstsq(ks, dks, s):
    """Reference for _inner: the same minimum as a real least-squares problem
    in h's m*m parameters. Returns (4 * minimum, optimal params)."""
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


def _objective(ks, dks, h, s):
    """4 sum_i ||(dK_i - i sum_j h_ij K_j) S||_F^2, one operator at a time."""
    return 4 * sum(np.linalg.norm((dk - 1j * sum(hij * k for hij, k in zip(row, ks))) @ s) ** 2
                   for dk, row in zip(dks, h))


@lru_cache(maxsize=None)
def _grid_kets():
    """The (4096, 2) kets of the bare search's Bloch grid, in scan order."""
    kets = _bloch_ket(*_bloch_grid()[:2]).T
    kets.flags.writeable = False
    return kets


def _probes(rng):
    """Probe matrices S of both shapes _inner takes: kets (d, 1), and square
    roots of rank-1, rank-2 and maximally mixed states (d, d)."""
    g = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    ket = g[0, :, :1] / np.linalg.norm(g[0, :, 0])
    rho = g[1] @ g[1].conj().T
    w, u = np.linalg.eigh(rho / np.trace(rho).real)
    return [ket, projector(g[2, :, 0] / np.linalg.norm(g[2, :, 0])),
            (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T, np.eye(2) / np.sqrt(2)]


@settings(max_examples=60)
@given(PROBE_FAMILIES, st.integers(0, 2 ** 32 - 1), st.floats(0, 2 * np.pi))
def test_inner_matches_lstsq_reference(ch, seed, phi):
    ks, dks = PhaseChannelFamily(ch).composite(phi)
    rng = np.random.default_rng(seed)
    # kets of the minimax's Bloch grid as one stack, then single probes of both shapes
    grid = _grid_kets()
    kets = grid[rng.integers(0, len(grid), 48), :, None]
    cases = list(zip(kets, *_inner(ks, dks, kets)))
    cases += [(s, *_inner(ks, dks, s)) for s in _probes(rng)]
    for s, val, h in cases:
        assert abs(val - _rotation_lstsq(ks, dks, s)[0]) <= 1e-12
        # the returned h attains the value
        assert abs(_objective(ks, dks, h, s) - val) <= 1e-12


@settings(max_examples=30)
@given(PROBE_FAMILIES, st.integers(0, 2 ** 32 - 1), st.floats(0, 2 * np.pi))
def test_inner_equals_sld_of_purified_output(ch, seed, phi):
    # independent route: the SLD information of the output of |psi> = vec(S),
    # the probe (rows of S) with an ancilla (columns) when S is square
    fam = PhaseChannelFamily(ch)
    for s in _probes(np.random.default_rng(seed)):
        ancilla = s.shape[1] > 1
        psi = s.ravel()
        sld, _ = sld_qfi(*evolve(np.outer(psi, psi.conj()),
                                 *fam.composite(phi, ancilla=ancilla)))
        assert abs(_inner(*fam.composite(phi), s)[0] - sld.value) <= 1e-10


def test_inner_on_full_grid():
    # four Kraus operators on a qubit: the Gram matrix has rank 2 at every ket,
    # and at a few grid kets round-off leaves both null eigenvalues tiny and positive
    ks, dks = PhaseChannelFamily(depolarizing(0.5)).composite(0.0)
    kets = _grid_kets()
    vals = _inner(ks, dks, kets[..., None], minimizer=False)[0]
    ref = [_rotation_lstsq(ks, dks, ket[:, None])[0] for ket in kets]
    assert np.abs(vals - ref).max() <= 1e-12
    # a stack of kets is solved exactly as one ket at a time
    single = [_inner(ks, dks, ket[:, None])[0] for ket in kets]
    assert vals.tolist() == single


# up to 16 Kraus operators
NOISE_PRODUCTS = st.tuples(NOISY_CHANNELS, NOISY_CHANNELS).map(lambda c: composed(*c))


@settings(max_examples=24)
@given(st.one_of(PROBE_FAMILIES, NOISE_PRODUCTS), st.integers(0, 2 ** 32 - 1),
       st.floats(0, 2 * np.pi))
def test_bloch_grid_matches_inner(ch, seed, phi):
    ks, dks = PhaseChannelFamily(ch).composite(phi)
    vals = _bloch_information(_bloch_map(ks, dks), _bloch_grid()[2])
    # the stacked inner solve over the grid, 256 kets at a time
    ref = np.concatenate([_inner(ks, dks, part[..., None], minimizer=False)[0]
                          for part in np.array_split(_grid_kets(), 16)])
    assert np.abs(vals - ref).max() <= 1e-11
    # the polish starts where the inner solve over the grid would have started
    pick = _grid_pick(vals)
    assert pick == _grid_pick(ref)
    rng = np.random.default_rng(seed)
    for i in [pick, *rng.integers(0, len(vals), 4)]:
        assert abs(vals[i] - _inner(ks, dks, _grid_kets()[i, :, None])[0]) <= 1e-11
    # independent route at random kets: the SLD information of the output
    for g in rng.standard_normal((4, 2, 2)):
        ket = (g[0] + 1j * g[1]) / np.linalg.norm(g)
        r0 = [np.trace(p @ np.outer(ket, ket.conj())).real for p in PAULIS[1:]]
        sld, _ = sld_qfi(*evolve(np.outer(ket, ket.conj()), ks, dks))
        assert abs(_bloch_information(_bloch_map(ks, dks), np.array([r0]))[0]
                   - sld.value) <= 1e-10


@settings(max_examples=40)
@given(st.one_of(PROBE_FAMILIES, NOISE_PRODUCTS), st.floats(0, 2 * np.pi),
       st.integers(0, 2 ** 32 - 1))
def test_bloch_information_split_equals_stacked_form(ch, phi, seed):
    # r and dr come from two (n, 3) products, which equal the slices of one
    # stacked (2, n, 3) product bit for bit, on channel maps and on random ones
    rng = np.random.default_rng(seed)
    maps = [_bloch_map(*PhaseChannelFamily(ch).composite(phi)),
            (rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3)))]
    for a, b in maps:
        for r0 in (_bloch_grid()[2], rng.standard_normal((7, 3))):
            r, dr = r0 @ a.swapaxes(1, 2) + b[:, None]
            gap = 1 - np.einsum('ni,ni->n', r, r)
            mixed = gap > SUPPORT_CUTOFF
            stacked = (np.einsum('ni,ni->n', dr, dr) + mixed
                       * np.einsum('ni,ni->n', r, dr) ** 2 / np.where(mixed, gap, 1.0))
            assert np.array_equal(_bloch_information((a, b), r0), stacked)


def test_bare_search_solves_single_kets_only(monkeypatch):
    # the grid is scored and polished in the Bloch picture; the inner solve
    # sees one ket at a time
    shapes = []

    def spy(ks, dks, s, minimizer=True):
        shapes.append(s.shape)
        return _inner(ks, dks, s, minimizer)

    monkeypatch.setattr(qfi, "_inner", spy)
    for ch in (amplitude_damping(0.5), depolarizing(0.5),
               composed(general_pauli([0.6, 0.1, 0.2, 0.1]), depolarizing(0.3))):
        shapes.clear()
        channel_qfi_minimax(PhaseChannelFamily(ch), extended=False)
        assert shapes and set(shapes) == {(2, 1)}


@settings(max_examples=60)
@given(PROBE_FAMILIES, st.integers(0, 2 ** 32 - 1), st.floats(0, 2 * np.pi))
def test_bloch_derivatives_match_finite_differences(ch, seed, phi):
    ks, dks = PhaseChannelFamily(ch).composite(phi)
    bmap = _bloch_map(ks, dks)
    step = 1e-5
    shifts = step * np.array([[1, 0], [0, 1]])

    def info(x):
        return _bloch_information(bmap, _bloch_vector(*np.transpose(x)).T)

    for x in np.random.default_rng(seed).uniform([0, 0], [np.pi, 2 * np.pi], (8, 2)):
        r = bmap[0][0] @ _bloch_vector(*x) + bmap[1][0]
        # the information is smooth where the output is clearly mixed, and
        # where it is pure to round-off (a single Kraus operator, 1e-28 noise);
        # between the two, its second term switches off at SUPPORT_CUTOFF
        if 1e-12 <= 1 - r @ r <= 1e-6:
            continue
        value = info([x])[0]
        grad, hess = _bloch_derivatives(bmap, *x)
        up, down = info(x + shifts), info(x - shifts)
        fd_grad = (up - down) / (2 * step)
        fd_hess = np.array([(_bloch_derivatives(bmap, *(x + e))[0]
                             - _bloch_derivatives(bmap, *(x - e))[0]) / (2 * step)
                            for e in shifts])
        # relative 1e-6, against the value where the gradient itself vanishes
        assert np.abs(grad - fd_grad).max() <= 1e-6 * max(np.abs(grad).max(), value)
        assert np.abs(hess - fd_hess).max() <= 1e-6 * max(np.abs(hess).max(), value)


@settings(max_examples=60)
@given(PROBE_FAMILIES, st.floats(0, 2 * np.pi))
def test_bare_search_certificate(ch, phi):
    fam = PhaseChannelFamily(ch)
    ks, dks = fam.composite(phi)
    res = channel_qfi_minimax(fam, extended=False, phi0=phi)
    # no grid point and no ridge candidate beats the returned value
    assert res.value >= _bloch_information(_bloch_map(ks, dks), _bloch_grid()[2]).max() - 1e-12
    ridge = _ridge_kets(ks)
    for ket in ridge:
        assert res.value >= _inner(ks, dks, ket[:, None])[0] - 1e-12
    # the returned input attains the value: the SLD information of its output
    assert_input_attains(fam, res.optimal_input, res.value, phi, 1e-10)


# ------------------------------------------------------------ two-probe QFI

def test_two_probe_printed_formula_anchors():
    assert two_probe_collective_ad_qfi(0.0, 0.0) == 4.0
    for phi in (0.0, 0.3, 1.1):
        assert abs(two_probe_collective_ad_qfi(1.0, phi)) < 1e-12


def test_two_probe_oracle_phase_independent():
    vals = [two_probe_sld_oracle(0.3, phi) for phi in (0.0, 0.4, 1.0)]
    assert max(vals) - min(vals) < 1e-9


def test_two_probe_oracle_closed_form():
    for eta in (0.0, 0.2, 0.5, 0.8):
        u = (1 - eta) ** 2
        assert abs(two_probe_sld_oracle(eta, 0.0) - 8 * u / (1 + u)) < 1e-8


def test_two_probe_printed_agrees_with_oracle_at_zero_phase():
    for eta in (0.0, 0.2, 0.5, 0.8):
        assert abs(two_probe_collective_ad_qfi(eta, 0.0)
                   - two_probe_sld_oracle(eta, 0.0)) < 1e-8


def test_two_probe_printed_oscillates_while_oracle_does_not():
    # the printed expression carries a cos(8 phi) term; the simulated state's
    # information does not depend on the phase point. The disagreement away
    # from phi=0 is surfaced deliberately.
    eta = 0.3
    printed_gap = abs(two_probe_collective_ad_qfi(eta, np.pi / 8)
                      - two_probe_collective_ad_qfi(eta, 0.0))
    oracle_gap = abs(two_probe_sld_oracle(eta, np.pi / 8)
                     - two_probe_sld_oracle(eta, 0.0))
    assert printed_gap > 0.1
    assert oracle_gap < 1e-9


# ------------------------------------------------------------ matrix elements

def test_matrix_element_assisted_ad():
    for eta in (0.0, 0.3, 0.6, 0.9):
        fam = PhaseChannelFamily(amplitude_damping(eta))
        rho = evolve(bell_state(), fam.composite(0.2, ancilla=True)[0])
        val = qfi_from_matrix_elements(rho, "ad_assisted")
        assert abs(val - closed_form_qfi("ad", eta, assisted=True)) < 1e-10


def test_matrix_element_assisted_depol():
    fam = PhaseChannelFamily(depolarizing(0.4))
    rho = evolve(bell_state(), fam.composite(0.0, ancilla=True)[0])
    assert abs(qfi_from_matrix_elements(rho, "depol_assisted") - 0.45) < 1e-10


def test_matrix_element_single_probe():
    for eta in (0.0, 0.3, 0.7):
        fam = PhaseChannelFamily(amplitude_damping(eta))
        rho = evolve(PLUS, fam.composite(0.5)[0])
        assert abs(qfi_from_matrix_elements(rho, "ad_single") - (1 - eta)) < 1e-10
    fam = PhaseChannelFamily(depolarizing(0.4))
    rho = evolve(PLUS, fam.composite(0.0)[0])
    assert abs(qfi_from_matrix_elements(rho, "depol_single") - 0.36) < 1e-10


def test_matrix_element_on_maximally_mixed():
    assert qfi_from_matrix_elements(np.eye(4) / 4, "ad_assisted") == 0.0


def test_matrix_element_agrees_with_sld():
    fam = PhaseChannelFamily(amplitude_damping(0.45))
    rho, drho = assisted_bell_output(fam, 0.0)
    sld_val = sld_qfi(rho, drho)[0].value
    me_val = qfi_from_matrix_elements(rho, "ad_assisted")
    assert abs(sld_val - me_val) < 1e-8


def test_matrix_element_validation():
    with pytest.raises(QfiError):
        qfi_from_matrix_elements(np.eye(2) / 2, "ad_assisted")
    with pytest.raises(QfiError):
        qfi_from_matrix_elements(np.eye(2) / 2, "unknown")
