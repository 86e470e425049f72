from __future__ import annotations

import numpy as np
import pytest

from scramble import (
    AlgebraDescriptor,
    RandomSeed,
    ValidationError,
    build_algebra,
    concentration_scan,
    gaac,
    haar_average_analytic,
    haar_average_mc,
    haar_unitary,
    upper_bound,
)
from oracles import haar_twirl_oracle


def test_full_algebra_has_zero_mean():
    d = 3
    units = []
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    alg = build_algebra(AlgebraDescriptor.generators(units))
    assert alg.dim_aprime == 1
    assert haar_average_analytic(alg) == pytest.approx(0.0)


def test_masa2_mean_is_one_third(masa2):
    assert haar_average_analytic(masa2) == pytest.approx(1.0 / 3.0)


def test_dimension_four_collinear_mean(masa4, bipartite22):
    assert haar_average_analytic(masa4) == pytest.approx(0.6)
    assert haar_average_analytic(bipartite22) == pytest.approx(0.6)


def test_loschmidt3_mean():
    alg = build_algebra(AlgebraDescriptor.loschmidt(np.eye(3)[0]))
    assert alg.dim_aprime == 5
    assert haar_average_analytic(alg) == pytest.approx(0.4)  # (9-5)(5-1)/(5*8)
    assert haar_twirl_oracle(alg) == pytest.approx(0.4, abs=1e-10)


@pytest.mark.parametrize(
    "fixture",
    ["masa2", "masa4", "bipartite22", "z2_local2", "symmetric_local2", "loschmidt4"],
)
def test_twirl_oracle_matches_analytic(fixture, request):
    alg = request.getfixturevalue(fixture)
    assert abs(haar_twirl_oracle(alg) - haar_average_analytic(alg)) < 1e-10


@pytest.mark.parametrize("fixture", ["masa4", "bipartite22"])
def test_mc_mean_within_four_standard_errors(fixture, request):
    alg = request.getfixturevalue(fixture)
    summary = haar_average_mc(alg, 500, RandomSeed(314))
    stderr = summary.mc_std / np.sqrt(summary.samples)
    assert abs(summary.mc_mean - summary.analytic_mean) <= 4 * stderr


def test_mc_degenerate_sample_size(masa2):
    summary = haar_average_mc(masa2, 2, RandomSeed(1))
    assert summary.samples == 2
    assert summary.mc_std >= 0.0


def test_mc_rejects_single_sample(masa2):
    with pytest.raises(ValidationError):
        haar_average_mc(masa2, 1, RandomSeed(1))


def test_mc_deterministic_and_worker_independent(masa4, monkeypatch):
    one = haar_average_mc(masa4, 50, RandomSeed(2718))
    two = haar_average_mc(masa4, 50, RandomSeed(2718))
    assert one == two
    # sample i is the GAAC of haar_unitary(d, seed.child(i)), whatever the batching
    values = [gaac(masa4, haar_unitary(4, RandomSeed(2718).child(i))).value for i in range(50)]
    assert one.mc_mean == pytest.approx(np.mean(values), abs=1e-15)
    assert one.mc_std == pytest.approx(np.std(values, ddof=1), abs=1e-15)
    # chunks of 3 samples, the last one short
    monkeypatch.setattr("scramble.haar.CHUNK_ENTRIES", 3 * masa4.dim**2)
    chunked = haar_average_mc(masa4, 50, RandomSeed(2718))
    assert chunked.mc_mean == pytest.approx(np.mean(values), abs=1e-15)
    assert chunked.mc_std == pytest.approx(np.std(values, ddof=1), abs=1e-15)


def test_every_sample_respects_bound(masa4):
    bound = upper_bound(masa4)
    for i in range(60):
        u = haar_unitary(4, RandomSeed(99, i))
        value = gaac(masa4, u).value
        assert -1e-10 <= value <= bound + 1e-8


def test_concentration_scan_masa_family():
    descs = [AlgebraDescriptor.diagonal(d) for d in (4, 8, 16)]
    rows = concentration_scan(descs, 200, RandomSeed(1618))
    stds = [row.mc_std for row in rows]
    assert stds[0] > stds[1] > stds[2]
    for row in rows:
        assert row.bound_gap <= 1.0 / row.dim
        assert abs(row.analytic - haar_average_analytic(build_algebra(
            AlgebraDescriptor.diagonal(row.dim)))) < 1e-12


def test_concentration_scan_single_dimension():
    rows = concentration_scan([AlgebraDescriptor.diagonal(4)], 10, RandomSeed(5))
    assert len(rows) == 1
    assert rows[0].dim == 4
    assert rows[0].samples == 10


@pytest.mark.parametrize(
    "desc",
    [
        AlgebraDescriptor.diagonal(4),
        AlgebraDescriptor.diagonal(16),
        AlgebraDescriptor.factor(2, 2),
        AlgebraDescriptor.factor(4, 4),
        AlgebraDescriptor.factor(2, 8),
    ],
)
def test_analytic_mean_swap_consistent_for_collinear(desc):
    # with dim A * dim A' = d^2, substituting d^2 / dim A' leaves the mean fixed
    from scramble import commutant_algebra

    alg = build_algebra(desc)
    assert alg.blocks.collinear
    swapped = commutant_algebra(alg)
    assert haar_average_analytic(alg) == pytest.approx(
        haar_average_analytic(swapped), abs=1e-12
    )
