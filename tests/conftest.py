from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from scramble import (
    MEMORY_BUDGET,
    AlgebraDescriptor,
    BlockStructure,
    OperatorAlgebra,
    RandomSeed,
    build_algebra,
    haar_unitary,
)

#: The refusal of an input above the memory budget names both numbers.
BUDGET_MESSAGE = rf"needs about [\d,]+ bytes, above the memory budget of {MEMORY_BUDGET:,} bytes"

BELL_COLUMNS = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
        [1, 0, 0, -1],
    ],
    dtype=float,
).T / np.sqrt(2)

NRC_SPECTRUM = np.array([0.0, 1.0, 3.0, 7.0])


@pytest.fixture(scope="session")
def masa2():
    return build_algebra(AlgebraDescriptor.diagonal(2))


@pytest.fixture(scope="session")
def masa4():
    return build_algebra(AlgebraDescriptor.diagonal(4))


@pytest.fixture(scope="session")
def bipartite22():
    return build_algebra(AlgebraDescriptor.factor(2, 2))


@pytest.fixture(scope="session")
def z2_local2():
    return build_algebra(AlgebraDescriptor.group_z2(2))


@pytest.fixture(scope="session")
def symmetric_local2():
    return build_algebra(AlgebraDescriptor.symmetric_swap(2))


@pytest.fixture(scope="session")
def loschmidt4():
    return build_algebra(AlgebraDescriptor.loschmidt(np.eye(4)[0]))


@pytest.fixture(scope="session")
def bell_hamiltonian():
    return (BELL_COLUMNS * NRC_SPECTRUM) @ BELL_COLUMNS.T


def random_partition(d: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random block pattern (n_J, d_J) with sum n_J d_J = d."""
    pairs = []
    left = d
    while left > 0:
        options = [
            (n, dj)
            for n in range(1, left + 1)
            for dj in range(1, left + 1)
            if n * dj <= left
        ]
        n, dj = options[rng.integers(len(options))]
        pairs.append((n, dj))
        left -= n * dj
    return pairs


def planted_generators(d: int, seed: int) -> tuple[list[np.ndarray], list[tuple[int, int]]]:
    """Two generic elements of a hidden block algebra, plus the hidden pattern.

    The span closure of the generators recovers the full planted algebra for
    generic draws, making the expected block structure known in advance.
    """
    rng = np.random.default_rng(seed)
    pairs = random_partition(d, rng)
    gens = []
    for _ in range(2):
        blockdiag = np.zeros((d, d), dtype=complex)
        offset = 0
        for n, dj in pairs:
            h = rng.standard_normal((dj, dj)) + 1j * rng.standard_normal((dj, dj))
            h = (h + h.conj().T) / 2
            size = n * dj
            blockdiag[offset : offset + size, offset : offset + size] = np.kron(np.eye(n), h)
            offset += size
        gens.append(blockdiag)
    basis_change = haar_unitary(d, RandomSeed(seed, 999))
    return [basis_change @ g @ basis_change.conj().T for g in gens], pairs


def _units(k: int) -> np.ndarray:
    units = np.zeros((k * k, k, k), dtype=complex)
    units[np.arange(k * k), np.repeat(np.arange(k), k), np.tile(np.arange(k), k)] = 1.0
    return units


def planted_algebra(pairs, frame: np.ndarray) -> OperatorAlgebra:
    """``frame (⊕_J 1_{n_J} (x) M_{d_J}) frame^dag`` with its commutant and center."""
    pairs = sorted(pairs, key=lambda p: (-p[1], -p[0]))
    d = sum(n * dj for n, dj in pairs)
    basis_a, basis_ap, projections = [], [], []

    def embed(local, sl):
        full = np.zeros((d, d), dtype=complex)
        full[sl, sl] = local
        return frame @ full @ frame.conj().T

    offset = 0
    for n, dj in pairs:
        sl = slice(offset, offset + n * dj)
        basis_a += [embed(np.kron(np.eye(n), u) / np.sqrt(n), sl) for u in _units(dj)]
        basis_ap += [embed(np.kron(u, np.eye(dj)) / np.sqrt(dj), sl) for u in _units(n)]
        projections.append(embed(np.eye(n * dj), sl))
        offset += n * dj
    return OperatorAlgebra(
        dim=d,
        basis_a=np.stack(basis_a),
        basis_aprime=np.stack(basis_ap),
        center_projections=np.stack(projections),
        blocks=BlockStructure(tuple(pairs)),
    )


def unitary(d: int, seed: int, stream: int = 0) -> np.ndarray:
    return haar_unitary(d, RandomSeed(seed, stream))


@contextmanager
def traced_peak():
    """Yields a list that receives the peak, in bytes, of the allocations
    traced while the block ran."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
