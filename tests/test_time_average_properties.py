"""The infinite-time formula against the Haar mean on collinear pairs.

For a collinear pair the Gram-matrix formula ``time_average_nrc`` is at most
the Haar mean ``(d^2 - k')(k' - 1) / (k' (d^2 - 1))`` for every eigenbasis
(see ``nrc_upper_bound``), while ``nrc_upper_bound`` itself, the value on
fully scrambled eigenstates, is exceeded by generic spectra.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scramble import (
    AlgebraDescriptor,
    RandomSeed,
    analyze_hamiltonian,
    build_algebra,
    gue_hamiltonian,
    haar_average_analytic,
    haar_unitary,
    nrc_upper_bound,
    time_average_nrc,
)
from conftest import planted_algebra

SLACK = 1e-12
GUE_DRAWS = 50

NAMED = [
    AlgebraDescriptor.diagonal(2),
    AlgebraDescriptor.diagonal(4),
    AlgebraDescriptor.diagonal(6),
    AlgebraDescriptor.factor(2, 2),
    AlgebraDescriptor.factor(2, 3),
    AlgebraDescriptor.factor(3, 2),
    AlgebraDescriptor.factor(2, 4),
]

#: Collinear patterns ``(m q, m p)``: every block has d_J / n_J = p / q.
COLLINEAR = st.builds(
    lambda p, q, ms: [(m * q, m * p) for m in ms],
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
).filter(lambda pairs: sum(n * dj for n, dj in pairs) <= 12)


def formula_excess(alg, seed: int) -> float:
    """Formula value minus the Haar mean for one GUE draw."""
    model = analyze_hamiltonian(gue_hamiltonian(alg.dim, RandomSeed(seed)))
    return time_average_nrc(alg, model) - haar_average_analytic(alg)


@pytest.mark.parametrize("desc", NAMED, ids=lambda desc: f"{desc.kind}{desc.params}")
def test_formula_below_haar_mean_on_named_algebras(desc):
    alg = build_algebra(desc)
    assert alg.blocks.collinear
    excess = [formula_excess(alg, 70000 + seed) for seed in range(GUE_DRAWS)]
    assert max(excess) <= SLACK


@settings(max_examples=60, deadline=None)
@given(COLLINEAR, st.integers(0, 2**32 - 1))
def test_formula_below_haar_mean_on_planted_collinear_algebras(pairs, seed):
    d = sum(n * dj for n, dj in pairs)
    alg = planted_algebra(pairs, haar_unitary(d, RandomSeed(seed, 0)))
    assert alg.blocks.collinear
    assert formula_excess(alg, seed) <= SLACK


def test_scrambled_value_is_not_an_upper_bound():
    # GUE(4) seed 3 is the draw of the CLI's time-average example
    alg = build_algebra(AlgebraDescriptor.factor(2, 2))
    model = analyze_hamiltonian(gue_hamiltonian(4, RandomSeed(3)))
    assert time_average_nrc(alg, model) > nrc_upper_bound(alg) + 1e-3
