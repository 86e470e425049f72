"""The streamed commutant and span closure, the gap-class exact time
average, the spectral-kernel grids, the block-frame GAAC with its saturation
residual and Monte-Carlo samples (on each algebra and its commutant view),
the overlap matrix, the center basis and the scrambling witness against
their one-shot stack, kernel, doubled-space, superoperator, overlap,
contraction, projector-stack and loop reference routes, including
dimensions above 16.  The time-average oracles group the spectrum by pair
sums, independently of the production gap classes."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import scramble
from scramble import (
    RANK_TOL,
    AlgebraDescriptor,
    RandomSeed,
    algebra_closure,
    analyze_hamiltonian,
    build_algebra,
    commutant,
    commutant_algebra,
    fluctuation_scan,
    gaac,
    grid_time_average,
    gue_hamiltonian,
    haar_unitary,
    saturation_residual,
    scrambling_witness,
    time_average_exact,
    time_average_nrc,
    upper_bound,
)
from scramble.algebra import _center_basis, _named_generator_basis
from scramble.haar import _sample_values
from conftest import planted_generators, unitary
from oracles import (
    _overlaps,
    _residual_from_overlaps,
    _two_point_value,
    center_projector_stack,
    closure_stack,
    commutant_stack,
    evolution_values,
    kernel_time_average,
    omega_time_average,
    overlaps_einsum,
    pair_sum_nrc,
    superprojector_residual,
    witness_loop,
)

TOL = 1e-12

FIXTURES = ["masa2", "masa4", "bipartite22", "z2_local2", "symmetric_local2", "loschmidt4"]
PLANTED = [(3, 11), (5, 12), (6, 13), (7, 14)]
NAMED = {
    "diagonal(20)": AlgebraDescriptor.diagonal(20),
    "factor(8,2)": AlgebraDescriptor.factor(8, 2),
    "factor(4,4)": AlgebraDescriptor.factor(4, 4),
    "symmetric_swap(3)": AlgebraDescriptor.symmetric_swap(3),
    "group_z2(4)": AlgebraDescriptor.group_z2(4),
}
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
    assert abs(exact - kernel_time_average(alg, model)) <= TOL
    assert model.nrc == pair_sum_nrc(model)
    if model.nrc:
        assert abs(exact - time_average_nrc(alg, model)) <= TOL
    grid = grid_time_average(alg, model, 7.0, 24)
    assert abs(grid - np.mean(evolution_values(alg, model, 7.0, 24))) <= TOL
    if alg.blocks.collinear:
        (row,) = fluctuation_scan(alg, model, [0.1], horizon=7.0, points=24)
        assert row.markov_bound == pytest.approx((upper_bound(alg) - exact) / 0.1, abs=TOL)
    for view in (alg, commutant_algebra(alg)):
        check_realignment(view, seed)


def check_realignment(alg, seed: int) -> None:
    """The block-frame realignment against the commutant-basis overlap matrix:
    value, saturation residual and every Monte-Carlo sample."""
    for stream in range(3):
        u = unitary(alg.dim, seed, stream)
        report = gaac(alg, u)
        overlaps = _overlaps(alg, u)
        assert abs(report.value - _two_point_value(overlaps)) <= TOL
        assert abs(report.saturation_residual - _residual_from_overlaps(alg, overlaps)) <= TOL
        assert abs(report.saturation_residual - superprojector_residual(alg, u)) <= TOL
        assert report.saturation_residual == saturation_residual(alg, u)
    mc_seed = RandomSeed(seed, 50)
    samples = _sample_values(alg, 6, mc_seed)
    for i, value in enumerate(samples):
        u = haar_unitary(alg.dim, mc_seed.child(i))
        assert abs(value - _two_point_value(_overlaps(alg, u))) <= TOL


@pytest.mark.parametrize("kind", SPECTRA)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_routes_match_oracles(fixture, kind, request):
    check_routes(request.getfixturevalue(fixture), kind, 900 + FIXTURES.index(fixture))


@pytest.mark.parametrize("kind", SPECTRA)
@pytest.mark.parametrize("d,seed", PLANTED)
def test_planted_routes_match_oracles(d, seed, kind):
    gens, _ = planted_generators(d, 9100 + seed)
    check_routes(build_algebra(AlgebraDescriptor.generators(gens)), kind, 9200 + seed)


def subspace_gap(basis, reference) -> float:
    """Sine of the largest principal angle between two equal-dimensional spans."""
    flat, ref = basis.reshape(len(basis), -1), reference.reshape(len(reference), -1)
    return float(np.linalg.norm(flat - (flat @ ref.conj().T) @ ref, 2))


def assert_same_span(basis, reference) -> None:
    assert basis.shape == reference.shape
    flat = basis.reshape(len(basis), -1)
    assert np.max(np.abs(flat.conj() @ flat.T - np.eye(len(flat))), initial=0.0) <= TOL
    assert subspace_gap(basis, reference) <= TOL


def check_commutant_and_closure(basis_a, generators) -> None:
    """The streamed commutant of ``basis_a`` and the streamed closure of
    ``generators`` against their one-shot stacks."""
    assert_same_span(commutant(basis_a), commutant_stack(basis_a))
    assert_same_span(algebra_closure(generators), closure_stack(generators))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_commutant_and_closure_match_stacks(fixture, request):
    alg = request.getfixturevalue(fixture)
    check_commutant_and_closure(alg.basis_a, alg.basis_a)


@pytest.mark.parametrize("d,seed", PLANTED)
def test_planted_commutant_and_closure_match_stacks(d, seed):
    gens, _ = planted_generators(d, 9100 + seed)
    check_commutant_and_closure(algebra_closure(gens), gens)


@pytest.mark.parametrize("name", NAMED)
def test_named_commutant_and_closure_match_stacks(name):
    basis = _named_generator_basis(NAMED[name], RANK_TOL)
    check_commutant_and_closure(basis, basis)


def test_closure_of_random_generators_matches_stack():
    rng = np.random.default_rng(606)
    gens = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(2)]
    basis = algebra_closure(gens)
    assert basis.shape == (36, 6, 6)
    assert_same_span(basis, closure_stack(gens))


def check_center_and_overlaps(alg, seed: int) -> None:
    center = _center_basis(alg.basis_a, alg.basis_aprime, RANK_TOL)
    reference = center_projector_stack(alg.basis_a, alg.basis_aprime, RANK_TOL)
    assert center.shape == reference.shape == (len(alg.blocks.pairs), alg.dim, alg.dim)
    assert subspace_gap(center, reference) <= TOL
    flat = center.reshape(center.shape[0], -1)
    assert np.max(np.abs(flat.conj() @ flat.T - np.eye(center.shape[0]))) <= TOL
    for stream in range(3):
        u = unitary(alg.dim, seed, stream)
        assert np.max(np.abs(_overlaps(alg, u) - overlaps_einsum(alg, u))) <= TOL


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_center_and_overlaps_match_oracles(fixture, request):
    check_center_and_overlaps(request.getfixturevalue(fixture), 700 + FIXTURES.index(fixture))


@pytest.mark.parametrize("d,seed", PLANTED)
def test_planted_center_and_overlaps_match_oracles(d, seed):
    gens, _ = planted_generators(d, 9100 + seed)
    check_center_and_overlaps(build_algebra(AlgebraDescriptor.generators(gens)), 9300 + seed)


def test_fluctuation_scan_uses_exact_mean_above_cap():
    # at d = 18, on a resonant spectrum where the Gram formula differs from
    # the exact average
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


def bell_basis(n: int) -> np.ndarray:
    """Columns ``sum_j w^(bj) |j, j+a> / sqrt(n)``: maximally entangled on C^n (x) C^n."""
    cols = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for j in range(n):
                cols[j * n + (j + a) % n, a * n + b] = np.exp(2j * np.pi * b * j / n) / np.sqrt(n)
    return cols


def bell_model(n: int):
    basis = bell_basis(n)
    levels = np.arange(n * n) + 0.1 * np.arange(n * n) ** 2
    return analyze_hamiltonian((basis * levels) @ basis.conj().T)


def check_witness(alg, model) -> None:
    assert abs(scrambling_witness(alg, model) - witness_loop(alg, model)) <= TOL


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_witness_matches_loop(fixture, request):
    alg = request.getfixturevalue(fixture)
    check_witness(alg, analyze_hamiltonian(gue_hamiltonian(alg.dim, RandomSeed(800))))
    if alg.dim == 4:
        check_witness(alg, bell_model(2))


@pytest.mark.parametrize("d,seed", PLANTED)
def test_planted_witness_matches_loop(d, seed):
    gens, _ = planted_generators(d, 9100 + seed)
    alg = build_algebra(AlgebraDescriptor.generators(gens))
    check_witness(alg, analyze_hamiltonian(gue_hamiltonian(d, RandomSeed(9400 + seed))))


@pytest.mark.parametrize("n", [2, 3])
def test_witness_vanishes_on_bell_spectra(n):
    # maximally entangled eigenstates saturate the bound, where a form that
    # subtracts 1/d from a squared norm would lose half the digits
    alg = build_algebra(AlgebraDescriptor.factor(n, n))
    model = bell_model(n)
    check_witness(alg, model)
    assert scrambling_witness(alg, model) <= TOL


def test_package_ships_no_oracles():
    modules = [scramble] + [
        importlib.import_module(f"scramble.{info.name}")
        for info in pkgutil.iter_modules(scramble.__path__)
    ]
    assert {"scramble.algebra", "scramble.gaac", "scramble.haar", "scramble.cli"} <= {
        m.__name__ for m in modules
    }
    for module in modules:
        assert not [name for name in dir(module) if "oracle" in name.lower()], module
    for name in ("SUPERPROJECTOR_CAP", "ResourceError", "superprojector_matrix",
                 "omega_operators", "structure_basis"):
        assert not hasattr(scramble, name), name
