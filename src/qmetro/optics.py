"""Jones-calculus simulation of beam-displacer interferometer networks on a
polarization x lateral-mode space, plus the two published channel
constructions and their angle solver.

Basis layout: index = pol * n_lateral + lateral with pol 0 = H, pol 1 = V, so
every element is a Kronecker product over the two axes. Beam displacers shift
the H component cyclically through the lateral modes and transmit V unchanged.
"""
from dataclasses import dataclass

import numpy as np

from .channels import ChannelError, KrausChannel, pauli_weights

POL_SECTORS = "polarization"


class OpticsError(ValueError):
    pass


def jones_hwp(theta):
    """Half-wave plate at angle theta."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def jones_qwp(theta):
    """Quarter-wave plate at angle theta.

    Convention fixed so that QWP(0) followed by HWP(pi/8) maps the two
    circular states (|H> -+ i|V>)/sqrt2 onto |H> and |V> up to phase.
    """
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return rot @ np.diag([1.0, 1j]) @ rot.conj().T


@dataclass(frozen=True)
class ModeSpace:
    n_lateral: int

    def __post_init__(self):
        if not isinstance(self.n_lateral, (int, np.integer)) or not 1 <= self.n_lateral <= 4:
            raise OpticsError(f"n_lateral must be an integer in 1..4, got {self.n_lateral!r}")

    @property
    def dim(self):
        return 2 * self.n_lateral

    def index(self, pol, lateral):
        return pol * self.n_lateral + lateral


@dataclass(frozen=True)
class OpticalElement:
    kind: str                 # hwp | qwp | bd | nbs | dephase | phase | postselect
    angle: float = None       # hwp, qwp, phase
    modes: tuple = None       # lateral targets for plates and phase
    direction: int = None     # bd
    pair: tuple = None        # nbs
    partition: object = None  # dephase: tuple of lateral tuples, or "polarization"
    keep: tuple = None        # postselect


def _finite(angle):
    angle = float(angle)
    if not np.isfinite(angle):
        raise OpticsError(f"angle must be finite, got {angle}")
    return angle


def hwp(angle, modes=None):
    return OpticalElement("hwp", angle=_finite(angle),
                          modes=None if modes is None else tuple(modes))


def qwp(angle, modes=None):
    return OpticalElement("qwp", angle=_finite(angle),
                          modes=None if modes is None else tuple(modes))


def bd(direction=1):
    if direction not in (1, -1):
        raise OpticsError("beam displacer direction must be +1 or -1")
    return OpticalElement("bd", direction=direction)


def nbs(a, b):
    return OpticalElement("nbs", pair=(a, b))


def dephase(partition=None):
    """Erase coherences between blocks.

    partition: iterable of disjoint lateral-mode groups covering every lateral
    mode, the string "polarization" for the two polarization sectors, or None
    for one block per lateral mode.
    """
    if partition is None or partition == POL_SECTORS:
        return OpticalElement("dephase", partition=partition)
    return OpticalElement("dephase",
                          partition=tuple(tuple(part) for part in partition))


def phase(angle, modes=None):
    return OpticalElement("phase", angle=_finite(angle),
                          modes=None if modes is None else tuple(modes))


def postselect(keep):
    return OpticalElement("postselect", keep=tuple(keep))


@dataclass(frozen=True)
class OpticalNetwork:
    space: ModeSpace
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))


def _select(space, modes):
    """Mask over the lateral modes named in modes (every mode when None)."""
    n = space.n_lateral
    if modes is None:
        return np.ones(n, dtype=bool)
    if any(m not in range(n) for m in modes):
        raise OpticsError(f"lateral modes {list(modes)} outside 0..{n - 1}")
    return (np.arange(n)[:, None] == np.array(modes, dtype=int)).any(axis=1)


def _kron(pol, lat):
    """np.kron(pol, lat) for a 2x2 pol and a square lat, without its overhead."""
    return (pol[:, None, :, None] * lat[None, :, None, :]).reshape(2 * len(lat), -1)


def element_unitary(space, elem):
    """Unitary matrix of a non-decohering element on the full mode space."""
    n = space.n_lateral
    pol_id = np.eye(2, dtype=complex)
    if elem.kind in ("hwp", "qwp"):
        jones = (jones_hwp if elem.kind == "hwp" else jones_qwp)(elem.angle)
        sel = np.diag(_select(space, elem.modes).astype(float))
        return _kron(jones, sel) + _kron(pol_id, np.eye(n) - sel)
    if elem.kind == "phase":
        shift = np.where(_select(space, elem.modes), np.exp(1j * elem.angle), 1)
        return _kron(pol_id, np.diag(shift))
    if elem.kind == "bd":
        # |H><H| (x) cyclic shift + |V><V| (x) identity
        shift = np.eye(n)[(np.arange(n) - elem.direction) % n]
        return _kron(np.diag([1, 0j]), shift) + _kron(np.diag([0j, 1]), np.eye(n))
    if elem.kind == "nbs":
        if _select(space, elem.pair).sum() != 2:
            raise OpticsError(f"coupler modes must differ, got {list(elem.pair)}")
        pair = np.array(elem.pair, dtype=int)
        block = np.eye(n)
        block[np.ix_(pair, pair)] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        return _kron(pol_id, block)
    raise OpticsError(f"element {elem.kind} has no unitary form")


def _sector_labels(space, partition):
    """Block label of each basis index under a dephase partition."""
    n = space.n_lateral
    if partition == POL_SECTORS:
        return np.repeat([0, 1], n)
    if partition is None:
        return np.tile(np.arange(n), 2)
    if sorted(l for part in partition for l in part) != list(range(n)):
        raise OpticsError("dephase partition must cover each lateral mode exactly once")
    labels = np.empty(n, dtype=int)
    for k, part in enumerate(partition):
        labels[np.array(part, dtype=int)] = k
    return np.tile(labels, 2)


def _network_kraus(net):
    """Unnormalized (m, 2, 2) polarization Kraus stack, input on lateral mode 0,
    one operator per (dephasing branch, traced-out lateral mode) pair."""
    n = net.space.n_lateral
    ks = np.kron(np.eye(2, dtype=complex), np.eye(n, 1))[None]  # |p> -> |p, 0>
    for elem in net.elements:
        if elem.kind == "dephase":
            labels = _sector_labels(net.space, elem.partition)
            sectors = labels == np.arange(labels.max() + 1)[:, None]
            ks = (sectors[:, None, :, None] * ks).reshape(-1, 2 * n, 2)
        elif elem.kind == "postselect":
            ks = np.tile(_select(net.space, elem.keep), 2)[:, None] * ks
        else:
            ks = element_unitary(net.space, elem) @ ks
    # K[(b, l)][p, i] = K_b[(p, l), i]: the partial trace over lateral modes
    return ks.reshape(-1, 2, n, 2).swapaxes(1, 2).reshape(-1, 2, 2)


def extract_channel(net):
    """Polarization channel a network realizes, and its success probability;
    an input-dependent success is a network construction bug."""
    ks = _network_kraus(net)
    success = np.vdot(ks, ks).real / 2
    if success <= 0:
        raise OpticsError("network blocks every input")
    try:
        return KrausChannel(ks / np.sqrt(success), label="extracted"), float(success)
    except ChannelError as exc:
        raise OpticsError(f"network success depends on the input: {exc}") from None


def damping_plate_angle(eta):
    """Decay-network plate angle theta_A: cos(2 theta_A) = -sqrt(1 - eta)."""
    return 0.5 * np.arccos(-np.sqrt(1 - eta))


def build_ad_network(eta):
    """Dual-interferometer decay channel on three lateral modes.

    Splits the polarizations, rotates the transmitted arm by theta_A
    (damping_plate_angle), recombines, erases the inter-branch
    coherence, and closes with a balanced recombination stage postselected on
    its bright port (probability 1/2).
    """
    if not 0 <= eta <= 1:
        raise OpticsError(f"eta must lie in [0, 1], got {eta}")
    elements = (
        bd(+1),
        hwp(np.pi / 4, [1]),
        hwp(damping_plate_angle(eta), [0]),
        bd(+1),
        dephase(POL_SECTORS),
        hwp(3 * np.pi / 8, [0, 1]),
        bd(+1),
        hwp(np.pi / 4, [1]),
        postselect([1]),
    )
    return OpticalNetwork(ModeSpace(n_lateral=3), elements)


def solve_pauli_angles(p):
    """Closed-form wave-plate angles for the four-branch Pauli mixer.

    Successive inversion of the eight signed amplitude equations; negative
    probabilities from roundoff are clamped to zero first. theta_6 can leave
    the principal quarter-wave range, which is the sign-resolving branch.
    """
    p0, p1, p2, p3 = (max(float(x), 0.0) for x in p)
    r = np.sqrt
    return (0.5 * np.arctan2(r(p1), r(1 - p1)),
            0.5 * np.arctan2(r(p2), r(1 - p2)),
            0.5 * np.arctan2(r(p0), r(p2 + p3)),
            0.5 * np.arctan2(-r(p3), r(p0 + p1)),
            0.5 * np.arctan2(r(p3), r(p2)),
            0.5 * np.arctan2(r(p0), -r(p1)))


def pauli_angle_residuals(p, angles):
    """The eight signed equations the six angles must satisfy, at the
    weights clamped as solve_pauli_angles clamps them."""
    p0, p1, p2, p3 = np.maximum(p, 0.0)
    c = [np.cos(2 * t) for t in angles]
    s = [np.sin(2 * t) for t in angles]
    r = np.sqrt
    return np.array([
        c[0] * s[2] - r(p0), c[1] * c[3] * s[5] - r(p0),
        s[0] - r(p1), -c[1] * c[3] * c[5] - r(p1),
        c[0] * c[2] * c[4] - r(p2), s[1] - r(p2),
        c[0] * c[2] * s[4] - r(p3), -c[1] * s[3] - r(p3),
    ])


def build_pauli_network(p):
    """Space-multiplexed Pauli mixer: five beam displacers route the four
    branch amplitudes onto separate lateral modes, per-branch plates implement
    the Pauli conjugations, and two balanced couplers recombine after the
    branches are made incoherent. Postselected with probability 1/2.
    """
    p = pauli_weights(p, OpticsError)
    th1, th2, th3, th4, th5, th6 = solve_pauli_angles(p)
    elements = (
        bd(+1),
        hwp(th1, [1]), hwp(th2, [0]),
        bd(+1),
        hwp(th3, [2]), hwp(th4, [0]),
        bd(+1),
        hwp(th5, [3]), hwp(th6, [0]),
        bd(+1),
        hwp(np.pi / 4, [0]),
        bd(+1),
        hwp(0.0, [0]),                        # branch carrying the Y flip
        hwp(np.pi / 4, [2]),                  # identity branch correction
        hwp(np.pi / 4, [3]), hwp(0.0, [3]),   # Z branch correction
        dephase([[0], [1], [2], [3]]),
        nbs(0, 1),
        nbs(2, 3),
        postselect([0, 2]),
    )
    return OpticalNetwork(ModeSpace(n_lateral=4), elements)
