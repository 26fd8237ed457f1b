import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator

from conftest import (bell_state, is_density_matrix, params_from_herm,
                      partial_trace, rand_herm, rand_rho)
from qmetro.linalg import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, PAULIS, _pcg64_doubles,
                           _pcg64_seed, _Words, herm_from_params, nearest_psd,
                           pauli_basis, projector, substream_states, substreams)

# the PCG64 kernel's uint64 arithmetic wraps on purpose and must stay silent
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_pauli_constants():
    assert np.array_equal(PAULI_X, [[0, 1], [1, 0]])
    assert np.array_equal(PAULI_Y, [[0, -1j], [1j, 0]])
    assert np.array_equal(PAULI_Z, [[1, 0], [0, -1]])
    assert np.array_equal(PAULIS[0], PAULI_I)


@pytest.mark.parametrize("n,scale", [(1, 2.0), (2, 4.0)])
def test_pauli_basis_orthogonality(n, scale):
    basis = pauli_basis(n)
    assert basis.shape == (4 ** n, 2 ** n, 2 ** n)
    gram = np.einsum('aij,bji->ab', basis.conj().transpose(0, 2, 1), basis)
    assert np.abs(gram - scale * np.eye(4 ** n)).max() < 1e-12


def test_tensor_products():
    assert np.array_equal(np.kron(PAULI_I, PAULI_I), np.eye(4))
    assert np.array_equal(np.kron(PAULI_Z, PAULI_I), np.diag([1, 1, -1, -1]))
    assert np.array_equal(np.kron(PAULI_X, PAULI_X), np.fliplr(np.eye(4)))
    rng = np.random.default_rng(0)
    a, b, c = (rand_herm(rng, 2) for _ in range(3))
    assert np.abs(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))).max() < 1e-14


@pytest.mark.parametrize("m", [2, 4])
def test_herm_param_round_trip(m, seed=7):
    rng = np.random.default_rng(seed)
    h = rand_herm(rng, m)
    x = params_from_herm(h)
    assert x.shape == (m * m,)
    assert np.abs(herm_from_params(x, m) - h).max() < 1e-12


def test_herm_from_params_rejects_bad_size():
    with pytest.raises(ValueError):
        herm_from_params(np.zeros(3), 2)
    with pytest.raises(ValueError):
        params_from_herm(np.array([[0, 1], [0, 0]]))


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(1)
    a, b = rand_herm(rng, 2), rand_herm(rng, 2)
    m = np.kron(a, b)
    assert np.abs(partial_trace(m, [2, 2], [0]) - a * np.trace(b)).max() < 1e-12
    assert np.abs(partial_trace(m, [2, 2], [1]) - b * np.trace(a)).max() < 1e-12
    assert abs(np.trace(partial_trace(m, [2, 2], [0])) - np.trace(m)) < 1e-12


def test_partial_trace_bell_reduction():
    assert np.abs(partial_trace(bell_state(), [2, 2], [0]) - np.eye(2) / 2).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 3], [0])


def test_eigh_reconstruction():
    rng = np.random.default_rng(2)
    for d in (2, 4, 16):
        h = rand_herm(rng, d)
        w, v = np.linalg.eigh(h)
        assert np.abs((v * w) @ v.conj().T - h).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10


def test_nearest_psd():
    assert np.abs(nearest_psd(np.diag([1.0, -0.5])) - np.diag([1.0, 0.0])).max() < 1e-12
    rng = np.random.default_rng(3)
    rho = rand_rho(rng, 4)
    assert np.abs(nearest_psd(rho) - rho).max() < 1e-12


def test_is_density_matrix():
    assert is_density_matrix(np.eye(2) / 2)
    assert not is_density_matrix(np.eye(2))
    assert not is_density_matrix(np.diag([1.5, -0.5]))
    assert not is_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_projector():
    assert np.array_equal(projector([1, 0]), np.diag([1, 0]))
    p = projector(np.array([1, 1j]) / np.sqrt(2))
    assert np.abs(p @ p - p).max() < 1e-12
    assert abs(np.trace(p) - 1) < 1e-12


# ------------------------------------------------------------- substreams

# a base longer than SeedSequence's 4-word pool runs its second mixing loop;
# base entries of 2**32 and up are split into several words
SEED_BASES = st.lists(st.integers(0, 2 ** 64), max_size=6)
SEED_TAILS = st.integers(1, 2).flatmap(lambda k: st.lists(
    st.tuples(*[st.integers(0, 2 ** 32 - 1)] * k), min_size=1, max_size=8))


@settings(max_examples=120)
@given(SEED_BASES, SEED_TAILS)
def test_substreams_match_default_rng(base, tail):
    rows = [base + list(row) for row in tail]
    expected = [np.random.SeedSequence(row).generate_state(4, np.uint64) for row in rows]
    tail = np.array(tail, dtype=np.uint64)
    assert np.array_equal(substream_states(base, tail), expected)
    p = [0.5, 0.3, 0.15, 0.05]
    for rng, row in zip(substreams(base, tail), rows, strict=True):
        assert np.array_equal(rng.multinomial(1000, p),
                              np.random.default_rng(row).multinomial(1000, p))


def test_substreams_one_column_tail():
    # a 1-D tail is one column, as run_experiment passes its repetition index
    states = substream_states([1, 2, 0], np.arange(300))
    for r in (0, 1, 299):
        assert np.array_equal(
            states[r], np.random.SeedSequence([1, 2, 0, r]).generate_state(4, np.uint64))
    assert substream_states([7], np.arange(0)).shape == (0, 4)


def test_substreams_reject_out_of_range_entries():
    # default_rng raises the same ValueError for a negative entry
    with pytest.raises(ValueError, match="non-negative"):
        substream_states([-1], np.arange(3))
    with pytest.raises(ValueError, match="non-negative"):
        substream_states([0], np.array([2, -1]))
    # a tail entry is one 32-bit entropy word
    with pytest.raises(ValueError, match="below 2"):
        substream_states([0], np.array([1, 2 ** 32]))


# ------------------------------------------------------------ PCG64 kernel

# any four seed words, the extremes included, so that every carry is taken
SEED_WORDS = st.lists(st.tuples(*[st.integers(0, 2 ** 64 - 1)] * 4), min_size=1, max_size=12)


@settings(max_examples=80)
@given(SEED_WORDS, st.integers(0, 5), st.integers(1, 5), st.data())
def test_pcg64_kernel_matches_numpy(words, first, then, data):
    # the stacked streams give Generator(PCG64(...)).random's doubles, and
    # advancing some of them leaves the others where they were
    words = np.array(words, dtype=np.uint64)
    some = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=len(words),
                                             max_size=len(words))))
    state = _pcg64_seed(words)
    a = _pcg64_doubles(state, first)
    b = _pcg64_doubles(state, then, some)
    c = _pcg64_doubles(state, 1)
    assert a.shape == (first, len(words)) and b.shape == (then, len(some))
    for r, w in enumerate(words):
        ref = Generator(PCG64(_Words(w))).random(first + then + 1)
        assert np.array_equal(a[:, r], ref[:first])
        if r in some:
            assert np.array_equal(b[:, list(some).index(r)], ref[first:first + then])
            assert c[0, r] == ref[first + then]
        else:
            assert c[0, r] == ref[first]


def test_pcg64_kernel_on_substream_words():
    # seeded from substream_states, row r runs as default_rng(base + [r])
    state = _pcg64_seed(substream_states([3, 2 ** 40], np.arange(50)))
    got = _pcg64_doubles(state, 7)
    for r in (0, 17, 49):
        assert np.array_equal(got[:, r], np.random.default_rng([3, 2 ** 40, r]).random(7))


def test_pcg64_kernel_advances_each_stream_by_its_steps():
    # the trail's words set each stream back to its state after steps[r] steps
    state = _pcg64_seed(substream_states([9], np.arange(6)))
    steps = np.array([1, 3, 2, 3, 1, 2])
    trail = np.empty((3, 2, 6), dtype=np.uint64)
    first = _pcg64_doubles(state, 3, np.arange(6), trail)
    state[:2] = trail[steps - 1, :, np.arange(6)].T
    then = _pcg64_doubles(state, 1)
    for r in range(6):
        ref = np.random.default_rng([9, r]).random(4)
        assert np.array_equal(first[:, r], ref[:3])
        assert then[0, r] == ref[steps[r]]
