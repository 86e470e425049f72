"""The block frame drawn from two random algebra elements: planted patterns,
spans that are not algebras, and hand-assembled algebras whose block pattern
disagrees with their basis."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scramble import (
    AlgebraDescriptor,
    BlockStructure,
    DecompositionError,
    RandomSeed,
    build_algebra,
    haar_unitary,
)
from scramble import algebra
from scramble.algebra import _block_frame
from conftest import planted_algebra, random_partition

DIM = st.integers(1, 16)
SEED = st.integers(0, 2**32 - 1)


def block_form_residual(w: np.ndarray, pairs) -> float:
    """Distance of ``w`` from ``⊕_J 1_{n_J} (x) M_J``, with ``M_J`` read off the
    first diagonal ``d_J x d_J`` sub-block of block ``J``."""
    expected = np.zeros_like(w)
    offset = 0
    for n, dj in pairs:
        first = w[offset : offset + dj, offset : offset + dj]
        expected[offset : offset + n * dj, offset : offset + n * dj] = np.kron(np.eye(n), first)
        offset += n * dj
    return float(np.linalg.norm(w - expected))


@settings(max_examples=60, deadline=None)
@given(DIM, SEED)
def test_frame_recovers_planted_pattern(d, seed):
    pairs = random_partition(d, np.random.default_rng(seed))
    alg = planted_algebra(pairs, haar_unitary(d, RandomSeed(seed, 0)))
    blocks, frame = _block_frame(alg.basis_a)
    assert blocks.pairs == alg.blocks.pairs
    v = frame.unitary
    assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-12
    for b in alg.basis_a:
        assert block_form_residual(v.conj().T @ b @ v, blocks.pairs) <= 1e-10


def test_frame_runs_cover_the_blocks():
    alg = build_algebra(AlgebraDescriptor.group_z2(3))
    assert alg.blocks.pairs == ((6, 1), (3, 1))
    assert alg.block_frame.runs == ((0, 1, 6, 1), (6, 1, 3, 1))
    for proj, (n, dj) in zip(alg.center_projections, alg.blocks.pairs):
        assert abs(np.trace(proj).real - n * dj) < 1e-12


@pytest.mark.parametrize("tol", [0.5, 0.9])
def test_span_not_closed_under_multiplication_is_refused(tol):
    # at a loose rank cut the span of {1, |psi><psi|} keeps one element, a
    # combination of both that is not closed under multiplication
    state = haar_unitary(4, RandomSeed(41))[:, 0]
    with pytest.raises(DecompositionError, match="not closed under multiplication"):
        build_algebra(AlgebraDescriptor.loschmidt(state), tol=tol)


def test_frame_redraws_then_refuses(monkeypatch):
    draws = []

    def uncertified(basis_a, y, z):
        draws.append(y)
        return None

    monkeypatch.setattr(algebra, "_frame_from_draw", uncertified)
    with pytest.raises(DecompositionError, match="not closed under multiplication"):
        _block_frame(np.eye(2, dtype=complex)[None] / np.sqrt(2))
    assert len(draws) == algebra._MAX_FRAME_ATTEMPTS
    assert not any(np.array_equal(draws[0], y) for y in draws[1:])


def test_keyword_algebra_with_wrong_blocks_refuses_its_frame(masa4):
    wrong = dataclasses.replace(masa4, blocks=BlockStructure(((2, 1), (1, 1), (1, 1))))
    with pytest.raises(DecompositionError, match="block pattern"):
        wrong.block_frame


def test_keyword_algebra_derives_its_frame(masa4):
    copy = dataclasses.replace(masa4)
    assert "block_frame" not in copy.__dict__
    v = copy.block_frame.unitary
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-12
    assert copy.block_frame.runs == masa4.block_frame.runs
