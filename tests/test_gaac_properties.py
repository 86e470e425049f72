"""Property tests of the block-frame GAAC on planted block patterns (d <= 12).

Each algebra is assembled by hand from a random pattern ``{(n_J, d_J)}`` in a
Haar-random frame, so its block frame is derived from the bases and the
center projections alone, as for any hand-assembled ``OperatorAlgebra``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scramble import RandomSeed, gaac, haar_unitary
from conftest import planted_algebra

PAIR = st.tuples(st.integers(1, 4), st.integers(1, 4))
PATTERN = st.lists(PAIR, min_size=1, max_size=4).filter(
    lambda pairs: sum(n * dj for n, dj in pairs) <= 12
)
SEED = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None)


def _draw(pairs, seed: int):
    d = sum(n * dj for n, dj in pairs)
    alg = planted_algebra(pairs, haar_unitary(d, RandomSeed(seed, 0)))
    return alg, haar_unitary(d, RandomSeed(seed, 1))


def _exp_i_hermitian_in(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    h = np.tensordot(coeffs, basis, axes=1)
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


@PROPERTY
@given(PATTERN, SEED)
def test_time_reversal(pairs, seed):
    alg, u = _draw(pairs, seed)
    assert abs(gaac(alg, u).value - gaac(alg, u.conj().T).value) <= 1e-10


@PROPERTY
@given(PATTERN, SEED, st.booleans())
def test_invariance_under_algebra_and_commutant_unitaries(pairs, seed, swap):
    alg, u = _draw(pairs, seed)
    rng = np.random.default_rng(seed)
    first, second = (alg.basis_a, alg.basis_aprime)[:: -1 if swap else 1]
    moved = _exp_i_hermitian_in(first, rng) @ u @ _exp_i_hermitian_in(second, rng)
    assert abs(gaac(alg, moved).value - gaac(alg, u).value) <= 1e-10


@PROPERTY
@given(PATTERN, SEED)
def test_covariance_under_global_basis_change(pairs, seed):
    alg, u = _draw(pairs, seed)
    w = haar_unitary(alg.dim, RandomSeed(seed, 2))
    rotated = planted_algebra(alg.blocks.pairs, w @ haar_unitary(alg.dim, RandomSeed(seed, 0)))
    assert abs(gaac(rotated, w @ u @ w.conj().T).value - gaac(alg, u).value) <= 1e-10


@PROPERTY
@given(PATTERN, SEED)
def test_residual_identity(pairs, seed):
    alg, u = _draw(pairs, seed)
    report = gaac(alg, u)
    kp = alg.dim_aprime
    assert abs(report.saturation_residual**2 - (kp * (1.0 - report.value) - 1.0)) <= 1e-10 * kp
