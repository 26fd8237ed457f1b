"""Small shared linear-algebra helpers: Pauli bases, the Hermitian
parameterization, positive-semidefinite projection, and batched seeding of
random substreams."""
import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# order (identity, X, Y, Z) fixed; serialization and chi matrices index into it
PAULIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def pauli_basis(n_qubits):
    """All n-fold Pauli tensor products, shape (4**n, 2**n, 2**n)."""
    basis = PAULIS
    for _ in range(n_qubits - 1):
        basis = np.stack([np.kron(a, b) for a in basis for b in PAULIS])
    return basis


def herm_from_params(x, m):
    """Hermitian m x m matrix from m**2 reals.

    Layout: m diagonal entries, then (re, im) for each off-diagonal pair
    (a, b) with a < b in lexicographic order.
    """
    x = np.asarray(x, dtype=float)
    if x.size != m * m:
        raise ValueError(f"expected {m * m} parameters, got {x.size}")
    h = np.zeros((m, m), dtype=complex)
    h[np.arange(m), np.arange(m)] = x[:m]
    k = m
    for a in range(m):
        for b in range(a + 1, m):
            h[a, b] = x[k] + 1j * x[k + 1]
            h[b, a] = x[k] - 1j * x[k + 1]
            k += 2
    return h


def nearest_psd(h):
    """Frobenius-nearest positive-semidefinite matrix to Hermitian h, for each
    matrix of a stack (..., n, n)."""
    w, v = np.linalg.eigh(h)
    return (v * np.clip(w, 0, None)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def projector(ket):
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


# SeedSequence's entropy mixing (numpy/random/bit_generator.pyx): pool size
# and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF
_CHUNK_ROWS = 4096


def _hashmix(value, h):
    """One hashmix step on a uint32 column; returns it and the next constant."""
    value = value ^ np.uint32(h)
    h = h * _MULT_A & _MASK32
    value = value * np.uint32(h)
    return value ^ value >> 16, h


def _mix(x, y):
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ out >> 16


def _uint32_words(n):
    """Little-endian 32-bit words of a non-negative int, one word for 0."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def substream_states(base, tail):
    """PCG64 seed words of the substreams `default_rng(list(base) + list(row))`,
    one per row of tail.

    Returns the (rows, 4) uint64 array that
    `SeedSequence(base + row).generate_state(4, np.uint64)` gives for each row,
    from one vectorized pass of SeedSequence's entropy mixing. base is a
    sequence of non-negative ints of any size; tail is a 1-D array (one
    column) or a (rows, columns) array of ints in [0, 2**32), one entropy word
    each. Like `default_rng`, a negative entry raises ValueError.
    """
    prefix = [w for n in base for w in _uint32_words(n)]
    tail = np.asarray(tail)
    if tail.ndim == 1:
        tail = tail[:, None]
    if tail.size and tail.min() < 0:
        raise ValueError("expected non-negative integer")
    if tail.size and tail.max() > _MASK32:
        raise ValueError("substream tail entries must lie below 2**32")
    rows = len(tail)
    entropy = [np.full(rows, w, dtype=np.uint32) for w in prefix]
    entropy += list(tail.T.astype(np.uint32))
    h = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, h = _hashmix(entropy[i] if i < len(entropy) else np.zeros(rows, np.uint32), h)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            value, h = _hashmix(entropy[src], h)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(4, np.uint64): eight 32-bit words, paired little-endian
    h = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        value = value * np.uint32(h)
        words.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(words[::2], words[1::2])],
                    axis=1)


class _Words(ISeedSequence):
    """Seed sequence that hands PCG64 its four precomputed uint64 state words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def substreams(base, tail):
    """Generators equal to `default_rng(list(base) + list(row))` for each row of
    tail, in order (see `substream_states`)."""
    tail = np.asarray(tail)
    # seed words for a few thousand rows at a time: a run of 50 000
    # repetitions would otherwise hold about 10 MB of mixing temporaries
    for start in range(0, len(tail), _CHUNK_ROWS):
        for words in substream_states(base, tail[start:start + _CHUNK_ROWS]):
            yield Generator(PCG64(_Words(words)))
