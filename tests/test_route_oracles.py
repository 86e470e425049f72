"""The spectral-kernel time averages and the overlap-matrix saturation residual
against their superoperator and per-time-point reference routes, including
dimensions above the superprojector cap of 16."""

from __future__ import annotations

import numpy as np
import pytest

from scramble import (
    AlgebraDescriptor,
    RandomSeed,
    analyze_hamiltonian,
    build_algebra,
    fluctuation_scan,
    gaac,
    grid_time_average,
    gue_hamiltonian,
    haar_unitary,
    saturation_residual,
    time_average_exact,
    time_average_nrc,
    upper_bound,
)
from conftest import planted_generators, unitary
from oracles import evolution_values, omega_time_average, superprojector_residual

TOL = 1e-12

FIXTURES = ["masa2", "masa4", "bipartite22", "z2_local2", "symmetric_local2", "loschmidt4"]
PLANTED = [(3, 11), (5, 12), (6, 13), (7, 14)]
SPECTRA = ["generic", "resonant", "degenerate"]


def model_for(d: int, kind: str, seed: int):
    """GUE draw, equally spaced levels, or a doubly degenerate ground level with
    random excited levels; the last two in a Haar-random eigenbasis."""
    if kind == "generic":
        return analyze_hamiltonian(gue_hamiltonian(d, RandomSeed(seed)))
    if kind == "resonant":
        levels = np.arange(d, dtype=float)
    else:
        rng = np.random.default_rng(seed)
        levels = np.concatenate([[0.0, 0.0], rng.uniform(1.0, 3.0, d - 2)])
    basis = haar_unitary(d, RandomSeed(seed, 1))
    return analyze_hamiltonian((basis * levels) @ basis.conj().T)


def check_routes(alg, kind: str, seed: int) -> None:
    model = model_for(alg.dim, kind, seed)
    exact = time_average_exact(alg, model)
    assert abs(exact - omega_time_average(alg, model)) <= TOL
    if model.nrc:
        assert abs(exact - time_average_nrc(alg, model)) <= TOL
    grid = grid_time_average(alg, model, 7.0, 24)
    assert abs(grid - np.mean(evolution_values(alg, model, 7.0, 24))) <= TOL
    if alg.blocks.collinear:
        (row,) = fluctuation_scan(alg, model, [0.1], horizon=7.0, points=24)
        assert row.markov_bound == pytest.approx((upper_bound(alg) - exact) / 0.1, abs=TOL)
    for stream in range(3):
        u = unitary(alg.dim, seed, stream)
        report = gaac(alg, u)
        assert abs(report.saturation_residual - superprojector_residual(alg, u)) <= TOL
        assert report.saturation_residual == saturation_residual(alg, u)


@pytest.mark.parametrize("kind", SPECTRA)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_routes_match_oracles(fixture, kind, request):
    check_routes(request.getfixturevalue(fixture), kind, 900 + FIXTURES.index(fixture))


@pytest.mark.parametrize("kind", SPECTRA)
@pytest.mark.parametrize("d,seed", PLANTED)
def test_planted_routes_match_oracles(d, seed, kind):
    gens, _ = planted_generators(d, 9100 + seed)
    check_routes(build_algebra(AlgebraDescriptor.generators(gens)), kind, 9200 + seed)


def test_fluctuation_scan_uses_exact_mean_above_cap():
    # above the superprojector cap, on a resonant spectrum where the Gram
    # formula differs from the exact average
    alg = build_algebra(AlgebraDescriptor.factor(2, 9))
    model = model_for(alg.dim, "resonant", 1818)
    exact = omega_time_average(alg, model)
    assert abs(exact - time_average_nrc(alg, model)) > 1e-3
    rows = fluctuation_scan(alg, model, [0.1, 0.25], points=50)
    for row in rows:
        assert row.markov_bound == pytest.approx(
            (upper_bound(alg) - exact) / row.epsilon, abs=1e-12
        )


def test_saturation_residual_identity_at_dimension_20():
    alg = build_algebra(AlgebraDescriptor.factor(2, 10))
    kp = alg.dim_aprime
    for stream in range(2):
        u = unitary(20, 2020, stream)
        report = gaac(alg, u)
        assert isinstance(report.saturation_residual, float)
        assert report.saturation_residual**2 == pytest.approx(
            kp * (1.0 - report.value) - 1.0, abs=1e-10
        )
        assert abs(report.saturation_residual - superprojector_residual(alg, u)) <= TOL
