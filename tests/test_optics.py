import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_network, network_reference, rand_rho
from qmetro.channels import ChannelError, amplitude_damping, evolve, general_pauli
from qmetro.linalg import projector
from qmetro.optics import (ModeSpace, OpticalNetwork, OpticsError, _network_kraus, bd,
                           build_ad_network, build_pauli_network,
                           damping_plate_angle, dephase, element_unitary,
                           extract_channel, hwp, jones_hwp, jones_qwp, nbs,
                           pauli_angle_residuals, phase, postselect, qwp,
                           solve_pauli_angles)
from qmetro.tomography import chi_theory, process_fidelity

PLUS = projector(np.array([1, 1]) / np.sqrt(2))


def channel_match(net, ch):
    got, success = extract_channel(net)
    fid = process_fidelity(chi_theory(got), chi_theory(ch))
    return fid.value, success


# ------------------------------------------------------------- wave plates

def test_hwp_axis_and_diagonal():
    assert np.abs(jones_hwp(0.0) - np.diag([1, -1])).max() < 1e-15
    x = np.array([[0, 1], [1, 0]])
    assert np.abs(jones_hwp(np.pi / 4) - x).max() < 1e-15


def test_hwp_decay_rotation_angle():
    # the transmitted-arm angle for half transmission
    theta = damping_plate_angle(0.5)
    r = 1 / np.sqrt(2)
    expected = np.array([[-r, r], [r, r]])
    assert np.abs(jones_hwp(theta) - expected).max() < 1e-12


def test_qwp_circular_anchor():
    # QWP(0) then HWP(pi/8) sends the two circular states to the linear basis
    u = jones_hwp(np.pi / 8) @ jones_qwp(0.0)
    right = np.array([1, -1j]) / np.sqrt(2)
    left = np.array([1, 1j]) / np.sqrt(2)
    assert abs(abs((u @ right)[0]) - 1) < 1e-12
    assert abs(abs((u @ left)[1]) - 1) < 1e-12


def test_qwp_squared_is_hwp():
    for theta in (0.0, 0.3, 1.1):
        sq = jones_qwp(theta) @ jones_qwp(theta)
        target = jones_hwp(theta)
        # equal up to a global phase
        ratio = sq[np.abs(target) > 1e-9] / target[np.abs(target) > 1e-9]
        assert np.abs(ratio - ratio[0]).max() < 1e-12
        assert abs(abs(ratio[0]) - 1) < 1e-12


def test_plates_unitary():
    for theta in np.linspace(0, 2 * np.pi, 17):
        for mat in (jones_hwp(theta), jones_qwp(theta)):
            assert np.abs(mat @ mat.conj().T - np.eye(2)).max() < 1e-12


# ---------------------------------------------------------------- elements

def test_bd_is_permutation():
    space = ModeSpace(n_lateral=3)
    for direction in (1, -1):
        u = element_unitary(space, bd(direction))
        assert np.array_equal(np.abs(u) > 0.5, np.abs(u) > 1e-15)
        assert (np.abs(u).sum(axis=0) == 1).all()
        assert (np.abs(u).sum(axis=1) == 1).all()
        # vertical polarization stays put, horizontal shifts laterally
        assert u[space.index(1, 0), space.index(1, 0)] == 1
        assert u[space.index(0, (0 + direction) % 3), space.index(0, 0)] == 1


def test_empty_network_is_identity():
    net = OpticalNetwork(ModeSpace(n_lateral=1), ())
    rho, success = apply_network(net, PLUS)
    assert np.abs(rho - PLUS).max() < 1e-14
    assert abs(success - 1) < 1e-14


def test_polarization_dephase_destroys_coherence():
    net = OpticalNetwork(ModeSpace(n_lateral=1), (dephase("polarization"),))
    rho, success = apply_network(net, PLUS)
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-14
    assert abs(success - 1) < 1e-14


def test_dephase_partition_must_cover():
    net = OpticalNetwork(ModeSpace(n_lateral=3), (dephase([[0], [1]]),))
    with pytest.raises(OpticsError):
        apply_network(net, PLUS)


def loop_unitary(space, elem):
    """Index-by-index construction of the element unitaries, the reference
    for their Kronecker-product form."""
    n, idx = space.n_lateral, space.index
    u = np.eye(space.dim, dtype=complex)
    laterals = range(n) if elem.modes is None else elem.modes
    if elem.kind in ("hwp", "qwp"):
        jones = jones_hwp(elem.angle) if elem.kind == "hwp" else jones_qwp(elem.angle)
        for lat in laterals:
            ab = [idx(0, lat), idx(1, lat)]
            u[np.ix_(ab, ab)] = jones
    elif elem.kind == "phase":
        for lat in laterals:
            for pol in (0, 1):
                u[idx(pol, lat), idx(pol, lat)] = np.exp(1j * elem.angle)
    elif elem.kind == "bd":
        u[:] = 0
        for lat in range(n):
            u[idx(0, (lat + elem.direction) % n), idx(0, lat)] = 1
            u[idx(1, lat), idx(1, lat)] = 1
    elif elem.kind == "nbs":
        r = 1 / np.sqrt(2)
        for pol in (0, 1):
            ab = [idx(pol, elem.pair[0]), idx(pol, elem.pair[1])]
            u[np.ix_(ab, ab)] = [[r, r], [r, -r]]
    return u


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_element_unitary_matches_index_loops(n):
    space = ModeSpace(n_lateral=n)
    elems = [hwp(0.3), qwp(1.1), phase(0.7), bd(1), bd(-1), hwp(0.2, []),
             hwp(0.4, [n - 1]), qwp(0.9, [0]), phase(-0.5, [n - 1])]
    if n > 1:
        elems += [nbs(0, n - 1), nbs(n - 1, 0), hwp(-0.6, [0, n - 1])]
    for elem in elems:
        assert np.array_equal(element_unitary(space, elem), loop_unitary(space, elem))


def test_element_unitary_flags():
    space = ModeSpace(n_lateral=2)
    for elem in (hwp(0.2), bd(), bd(-1), nbs(0, 1), qwp(0.5), phase(0.3),
                 hwp(0.7, [1]), qwp(0.4, [0]), phase(1.1, [1])):
        u = element_unitary(space, elem)
        assert np.abs(u @ u.conj().T - np.eye(space.dim)).max() < 1e-10
    for elem in (dephase([[0], [1]]), dephase(), postselect([0])):
        with pytest.raises(OpticsError):
            element_unitary(space, elem)


@pytest.mark.parametrize("elem", [
    hwp(0.3, [-1]), hwp(0.3, [3]), hwp(0.3, [1.5]), qwp(0.3, [0, 3]),
    phase(0.2, [-1]), nbs(0, 3), nbs(-1, 0), nbs(1, 1), postselect([-1]),
    postselect([0, 3]), dephase([[-1], [0, 1]]), dephase([[0], [1], [2], [3]]),
    nbs(0.7, 1.9), nbs(0, 1.5), dephase([[0.6], [1.2], [2]]),
], ids=lambda e: f"{e.kind}{e.modes or e.pair or e.keep or e.partition}")
def test_lateral_indices_validated(elem):
    # a negative index must not wrap onto the last mode, and a fractional one
    # must not be truncated onto a valid mode
    net = OpticalNetwork(ModeSpace(n_lateral=3), (elem,))
    with pytest.raises(OpticsError):
        apply_network(net, PLUS)
    with pytest.raises(OpticsError):
        extract_channel(net)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", [hwp, qwp, phase])
def test_non_finite_angles_rejected(make, angle):
    with pytest.raises(OpticsError):
        make(angle)


def test_mode_space_validation():
    for n in (0, 5, 2.5):
        with pytest.raises(OpticsError):
            ModeSpace(n_lateral=n)


def test_apply_network_shape_check():
    net = OpticalNetwork(ModeSpace(n_lateral=2), ())
    with pytest.raises(OpticsError):
        apply_network(net, np.eye(4) / 4)


# ----------------------------------------------------------- decay network

def test_decay_network_across_transmission_grid():
    for eta in np.arange(0, 1.0001, 0.1):
        net = build_ad_network(eta)
        fid, success = channel_match(net, amplitude_damping(eta))
        assert fid >= 1 - 1e-9
        assert abs(success - 0.5) < 1e-10


def test_decay_network_limits():
    rho0, _ = apply_network(build_ad_network(0.0), PLUS)
    assert np.abs(rho0 - PLUS).max() < 1e-9
    rho1, _ = apply_network(build_ad_network(1.0), np.diag([0.0, 1.0]))
    assert np.abs(rho1 - np.diag([1.0, 0.0])).max() < 1e-9


def test_decay_network_rejects_bad_eta():
    with pytest.raises(OpticsError):
        build_ad_network(1.2)


# ----------------------------------------------------------- Pauli network

def test_pauli_angles_uniform_weights():
    angles = solve_pauli_angles((0.25, 0.25, 0.25, 0.25))
    assert abs(angles[0] - np.pi / 12) < 1e-12
    assert np.abs(pauli_angle_residuals((0.25,) * 4, angles)).max() < 1e-12


def test_pauli_angles_pure_branches():
    for p in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (0.5, 0, 0.5, 0)):
        angles = solve_pauli_angles(p)
        assert np.abs(pauli_angle_residuals(p, angles)).max() < 1e-12


def test_pauli_angles_random_weights():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = rng.dirichlet([1, 1, 1, 1])
        angles = solve_pauli_angles(p)
        assert np.abs(pauli_angle_residuals(p, angles)).max() < 1e-10


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.sets(st.integers(0, 3), max_size=2))
def test_pauli_angles_solve_dirichlet_weights(seed, zeros):
    # Dirichlet weights, on the faces where one or two branches vanish too
    p = np.random.default_rng(seed).dirichlet([1, 1, 1, 1])
    p[list(zeros)] = 0
    p /= p.sum()
    angles = solve_pauli_angles(p)
    assert np.abs(pauli_angle_residuals(p, angles)).max() <= 1e-10


def test_pauli_network_identity_branch():
    fid, success = channel_match(build_pauli_network((1, 0, 0, 0)),
                                 general_pauli([1, 0, 0, 0]))
    assert fid >= 1 - 1e-9
    assert abs(success - 0.5) < 1e-10


def test_pauli_network_bit_flip_branch():
    fid, _ = channel_match(build_pauli_network((0, 1, 0, 0)),
                           general_pauli([0, 1, 0, 0]))
    assert fid >= 1 - 1e-9


def test_pauli_network_random_mixtures():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = rng.dirichlet([1, 1, 1, 1])
        fid, success = channel_match(build_pauli_network(p), general_pauli(p))
        assert fid >= 1 - 1e-9
        assert abs(success - 0.5) < 1e-10


def test_pauli_network_rejects_bad_weights():
    with pytest.raises(OpticsError):
        build_pauli_network((0.5, 0.5, 0.5, -0.5))
    with pytest.raises(OpticsError):
        build_pauli_network((0.3, 0.3, 0.3, 0.3))


@pytest.mark.parametrize("p", [
    (0.25, 0.25, 0.25, 0.25 + 5e-10), (0.25, 0.25, 0.25, 0.25 + 2e-12),
    (0.5, 0.5, 2e-12, -2e-12), (0.5, 0.5),
])
def test_pauli_network_and_channel_share_weight_rule(p):
    # a network is built only for weights whose target channel can be built
    with pytest.raises(ChannelError):
        general_pauli(p)
    with pytest.raises(OpticsError):
        build_pauli_network(p)


# ------------------------------------------------------- channel extraction

def test_extract_channel_identity_network():
    net = OpticalNetwork(ModeSpace(n_lateral=1), ())
    ch, success = extract_channel(net)
    assert success == 1.0
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    assert np.abs(ch.apply(rho) - rho).max() < 1e-12


def test_extract_channel_matches_single_state_runs():
    # the Kraus form against the element-by-element density-matrix reference
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    for net in (build_ad_network(0.35), build_pauli_network((0.4, 0.1, 0.2, 0.3))):
        ch, success = extract_channel(net)
        out, p = apply_network(net, rho)
        assert abs(p - success) < 1e-12
        assert np.abs(ch.apply(rho) - out).max() < 1e-12


def test_extract_channel_completeness():
    ch, _ = extract_channel(build_ad_network(0.35))
    assert ch.completeness_residual() < 1e-9
    # of one operator per (dephasing branch, lateral mode), only the branches
    # that reach the kept modes survive: a minimal list
    assert len(ch.kraus) == 2
    assert len(extract_channel(build_pauli_network((0.4, 0.1, 0.2, 0.3)))[0].kraus) == 4


def test_extract_channel_rejects_input_dependent_network():
    # only H is displaced onto mode 1, so the success depends on the input
    net = OpticalNetwork(ModeSpace(2), (bd(1), postselect([0])))
    with pytest.raises(OpticsError, match="depends on the input"):
        extract_channel(net)


def test_extract_channel_rejects_blocking_network():
    net = OpticalNetwork(ModeSpace(2), (hwp(0.3), postselect([])))
    with pytest.raises(OpticsError, match="blocks every input"):
        extract_channel(net)


@st.composite
def networks(draw):
    """A random element sequence on 1..4 lateral modes, every element kind."""
    n = draw(st.integers(1, 4))
    lateral = st.integers(0, n - 1)
    angles = st.floats(-np.pi, np.pi)
    modes = st.none() | st.lists(lateral, unique=True)
    labels = st.lists(lateral, min_size=n, max_size=n)
    partitions = labels.map(lambda lab: [[l for l in range(n) if lab[l] == k]
                                         for k in set(lab)])
    kinds = [st.builds(hwp, angles, modes), st.builds(qwp, angles, modes),
             st.builds(phase, angles, modes), st.builds(bd, st.sampled_from([1, -1])),
             st.builds(dephase, st.none() | st.just("polarization") | partitions),
             st.builds(postselect, st.lists(lateral, unique=True, min_size=1))]
    if n > 1:
        kinds.append(st.lists(lateral, min_size=2, max_size=2, unique=True)
                     .map(lambda ab: nbs(*ab)))
    return OpticalNetwork(ModeSpace(n), draw(st.lists(st.one_of(kinds), max_size=10)))


@settings(max_examples=150)
@given(networks(), st.integers(0, 2 ** 32 - 1))
def test_network_kraus_matches_density_matrix_reference(net, seed):
    rho = rand_rho(np.random.default_rng(seed), 2)
    assert np.abs(evolve(rho, _network_kraus(net)) - network_reference(net, rho)).max() <= 1e-12
    try:
        ch, _ = extract_channel(net)
    except OpticsError:
        return
    assert ch.kraus.any(axis=(1, 2)).all()
