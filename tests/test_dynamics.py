from __future__ import annotations

import warnings

import numpy as np
import pytest

from scramble import (
    AlgebraDescriptor,
    DomainError,
    RandomSeed,
    UndefinedMetricError,
    ShapeError,
    ValidationError,
    analyze_hamiltonian,
    build_algebra,
    chaoticity,
    default_horizon,
    dephased_state_purity,
    evolution,
    fluctuation_scan,
    grid_time_average,
    gue_hamiltonian,
    haar_average_analytic,
    haar_unitary,
    hamiltonian_from_json,
    matrix_to_json,
    nrc_upper_bound,
    r_matrices,
    scrambling_witness,
    time_average_exact,
    time_average_nrc,
)
from scramble.dynamics import _require_spectral_memory
from conftest import BELL_COLUMNS, BUDGET_MESSAGE, NRC_SPECTRUM, planted_generators, traced_peak
from oracles import time_average_collinear


@pytest.fixture(scope="module")
def bell_model(bell_hamiltonian):
    return analyze_hamiltonian(bell_hamiltonian)


@pytest.fixture(scope="module")
def masa_diag_model():
    return analyze_hamiltonian(np.diag(NRC_SPECTRUM))


def test_nrc_detection():
    assert analyze_hamiltonian(np.diag([0.0, 1.0, 3.0, 7.0])).nrc
    resonant = analyze_hamiltonian(np.diag([0.0, 1.0, 2.0]))
    assert not resonant.nrc
    assert not resonant.degenerate
    degenerate = analyze_hamiltonian(np.diag([0.0, 0.0, 1.0]))
    assert not degenerate.nrc
    assert degenerate.degenerate


def test_resonance_classes_partition_all_pairs():
    model = analyze_hamiltonian(np.diag([0.0, 1.0, 2.0]))
    # flat index i*d + j stands for the pair (i, j) with gap E_i - E_j
    members = np.concatenate(model.resonance_classes)
    assert sorted(members) == list(range(9))
    # the gap 0 holds the three diagonal pairs, the gaps ±1 two pairs each
    sizes = sorted(len(c) for c in model.resonance_classes)
    assert sizes == [1, 1, 2, 2, 3]
    assert [sorted(c) for c in model.resonance_classes] == [[2], [1, 5], [0, 4, 8], [3, 7], [6]]


def test_near_resonance_warns():
    with pytest.warns(UserWarning):
        analyze_hamiltonian(np.diag([0.0, 1.0, 2.0 + 3e-8]))


def test_near_resonance_window_follows_mean_level_spacing():
    # range 3 over d = 4 levels: mean spacing 1; the gaps 1 - delta, 1 and
    # 1 + delta are distinct classes 1e-8 of the mean spacing apart
    delta = 1e-8
    with pytest.warns(UserWarning, match="near-resonant"):
        model = analyze_hamiltonian(np.diag([0.0, 1.0, 2.0 - delta, 3.0]))
    assert model.nrc


def test_gue_64_has_no_near_resonance():
    # the range-scaled window caught 8 ordinary gaps of this draw
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = analyze_hamiltonian(gue_hamiltonian(64, RandomSeed(6464)))
    assert model.nrc


@pytest.mark.parametrize(
    "refused",
    [
        lambda: hamiltonian_from_json({"gue": 100000, "seed": 1}),
        lambda: gue_hamiltonian(100000, RandomSeed(1)),
    ],
    ids=["json", "library"],
)
def test_oversized_gue_refused_before_drawing(refused):
    with traced_peak() as peak, pytest.raises(ShapeError, match=BUDGET_MESSAGE):
        refused()
    assert peak[0] < 2**20


@pytest.mark.parametrize(
    "refused",
    [
        lambda alg, model: grid_time_average(alg, model, 10.0, 10**15),
        lambda alg, model: fluctuation_scan(alg, model, [0.1], horizon=10.0, points=10**15),
        lambda alg, model: grid_time_average(alg, model, 10.0, 10**400),
    ],
    ids=["grid", "scan", "beyond_float"],
)
def test_oversized_grid_refused_before_allocating(bipartite22, bell_model, refused):
    with traced_peak() as peak, pytest.raises(ShapeError, match=BUDGET_MESSAGE):
        refused(bipartite22, bell_model)
    assert peak[0] < 2**20


def test_spectral_memory_budget_admits_dimension_64():
    _require_spectral_memory(64)
    with pytest.raises(ShapeError, match=BUDGET_MESSAGE):
        _require_spectral_memory(100000)


def test_non_hermitian_rejected():
    with pytest.raises(ValidationError):
        analyze_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_r_matrices_masa_diagonal(masa4, masa_diag_model):
    mats = r_matrices(masa4, masa_diag_model)
    assert np.allclose(mats.r0, np.eye(4), atol=1e-12)
    assert np.allclose(mats.r1, np.eye(4), atol=1e-12)


def test_r_matrices_bell_basis(bipartite22, bell_model):
    mats = r_matrices(bipartite22, bell_model)
    assert np.allclose(mats.r0, 0.25, atol=1e-12)
    assert np.allclose(mats.r1, 0.25, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_r_matrix_invariants(seed, z2_local2):
    model = analyze_hamiltonian(gue_hamiltonian(4, RandomSeed(400 + seed)))
    mats = r_matrices(z2_local2, model)
    for r in (mats.r0, mats.r1):
        assert np.allclose(r, r.T, atol=1e-10)
        assert np.all(r >= -1e-12)
    assert np.allclose(np.diagonal(mats.r0), np.diagonal(mats.r1), atol=1e-10)
    assert np.allclose(mats.r1.sum(axis=1), 1.0, atol=1e-10)  # bistochastic rows


def test_time_average_masa_diagonal_is_zero(masa4, masa_diag_model):
    assert abs(time_average_nrc(masa4, masa_diag_model)) < 1e-12
    assert abs(time_average_exact(masa4, masa_diag_model)) < 1e-12


def test_time_average_bell_value(bipartite22, bell_model):
    assert time_average_nrc(bipartite22, bell_model) == pytest.approx(9.0 / 16.0, abs=1e-12)
    assert time_average_exact(bipartite22, bell_model) == pytest.approx(9.0 / 16.0, abs=1e-12)


def test_exact_equals_formula_under_nrc(bipartite22, bell_model):
    assert bell_model.nrc
    gap = abs(time_average_exact(bipartite22, bell_model) - time_average_nrc(bipartite22, bell_model))
    assert gap < 1e-9


def test_resonant_spectrum_lowers_exact_average(masa2):
    # eigenbasis misaligned with the diagonal algebra, resonant spectrum
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    model = analyze_hamiltonian(rot @ np.diag([1.0, -1.0]) @ rot.T)
    masa3 = build_algebra(AlgebraDescriptor.diagonal(3))
    resonant = analyze_hamiltonian(
        np.diag([0.0, 1.0, 2.0])
    )
    assert time_average_exact(masa3, resonant) <= time_average_nrc(masa3, resonant) + 1e-9


def test_flat_hamiltonian_gives_zero(masa4):
    model = analyze_hamiltonian(np.zeros((4, 4)))
    assert abs(time_average_exact(masa4, model)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_chain_inequality_random_pairs(seed):
    rng = np.random.default_rng(7100 + seed)
    d = int(rng.integers(2, 7))
    gens, _ = planted_generators(d, 7200 + seed)
    alg = build_algebra(AlgebraDescriptor.generators(gens))
    if seed % 3 == 0:
        # resonant integer spectrum in a random eigenbasis
        from scramble import haar_unitary

        basis = haar_unitary(d, RandomSeed(7300 + seed))
        spectrum = np.arange(d, dtype=float)
        model = analyze_hamiltonian((basis * spectrum) @ basis.conj().T)
    else:
        model = analyze_hamiltonian(gue_hamiltonian(d, RandomSeed(7400 + seed)))
    exact = time_average_exact(alg, model)
    formula = time_average_nrc(alg, model)
    mean = haar_average_analytic(alg)
    assert exact <= formula + 1e-9
    assert formula <= mean + 1e-9
    if model.nrc:
        assert abs(exact - formula) < 1e-9


def test_collinear_form_matches_and_is_symmetric(bipartite22, bell_model, masa4, masa_diag_model):
    for alg, model in ((bipartite22, bell_model), (masa4, masa_diag_model)):
        direct = time_average_nrc(alg, model)
        sym = time_average_collinear(alg, model)
        swapped = time_average_collinear(alg, model, swap_roles=True)
        assert abs(sym - direct) < 1e-10
        assert abs(sym - swapped) < 1e-10


def test_collinear_form_requires_collinearity(loschmidt4, bell_model):
    with pytest.raises(DomainError):
        time_average_collinear(loschmidt4, bell_model)


def test_grid_single_point_flat_hamiltonian(masa4):
    model = analyze_hamiltonian(np.zeros((4, 4)))
    assert grid_time_average(masa4, model, 1.0, 1) == pytest.approx(0.0, abs=1e-12)


def test_grid_masa_diagonal_stays_zero(masa4, masa_diag_model):
    assert grid_time_average(masa4, masa_diag_model, 10.0, 25) == pytest.approx(0.0, abs=1e-12)


def test_grid_converges_to_exact(bipartite22, bell_model):
    exact = time_average_exact(bipartite22, bell_model)
    horizon = default_horizon(bell_model)  # 200 / smallest gap
    assert horizon == pytest.approx(200.0)
    gaps = [
        abs(grid_time_average(bipartite22, bell_model, horizon / 4, 400) - exact),
        abs(grid_time_average(bipartite22, bell_model, horizon / 2, 400) - exact),
        abs(grid_time_average(bipartite22, bell_model, horizon, 400) - exact),
    ]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.02


def test_nrc_upper_bound_values(bipartite22, masa4):
    assert nrc_upper_bound(bipartite22) == pytest.approx(9.0 / 16.0)
    assert nrc_upper_bound(masa4) == pytest.approx(9.0 / 16.0)  # equals (1 - 1/d)^2


def test_nrc_upper_bound_noncollinear_rejected(loschmidt4):
    with pytest.raises(DomainError):
        nrc_upper_bound(loschmidt4)


def test_witness_zero_iff_bound_saturated(bipartite22, bell_model, masa4, masa_diag_model):
    # fully scrambled eigenstates: witness 0 and formula hits the bound
    assert scrambling_witness(bipartite22, bell_model) < 1e-10
    assert abs(time_average_nrc(bipartite22, bell_model) - nrc_upper_bound(bipartite22)) < 1e-9
    # aligned eigenstates: witness strictly positive, bound not reached
    witness = scrambling_witness(masa4, masa_diag_model)
    assert witness == pytest.approx(np.sqrt(1 - 1 / 4), abs=1e-12)
    assert time_average_nrc(masa4, masa_diag_model) < nrc_upper_bound(masa4) - 1e-3


def test_chaoticity_bell(bipartite22, bell_model):
    assert chaoticity(bipartite22, bell_model) == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_chaoticity_masa_diagonal(masa4, masa_diag_model):
    assert chaoticity(masa4, masa_diag_model) == pytest.approx(1.0, abs=1e-12)


def test_chaoticity_undefined_for_full_algebra():
    units = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    alg = build_algebra(AlgebraDescriptor.generators(units))
    model = analyze_hamiltonian(np.diag([0.0, 1.0]))
    with pytest.raises(UndefinedMetricError):
        chaoticity(alg, model)


def test_loschmidt_eigenstate_is_static(loschmidt4):
    psi = np.eye(4)[0]
    model = analyze_hamiltonian(np.diag([0.0, 1.0, 3.0, 7.0]))  # psi is an eigenstate
    assert abs(time_average_exact(loschmidt4, model)) < 1e-12
    assert chaoticity(loschmidt4, model) == pytest.approx(1.0)
    assert dephased_state_purity(model, psi) == pytest.approx(1.0)


def test_dephased_purity_spread_state():
    model = analyze_hamiltonian(np.diag([0.0, 1.0, 3.0, 7.0]))
    psi = np.ones(4) / 2.0
    # dephasing a flat superposition over four eigenstates leaves purity 1/4
    assert dephased_state_purity(model, psi) == pytest.approx(0.25)


def test_fluctuation_scan_bell(bipartite22, bell_model):
    rows = fluctuation_scan(bipartite22, bell_model, [0.2], horizon=50.0, points=200)
    row = rows[0]
    assert row.markov_bound == pytest.approx((0.75 - 0.5625) / 0.2, abs=1e-12)
    assert 0.0 <= row.frequency <= 1.0


def test_fluctuation_scan_static_dynamics(masa4, masa_diag_model):
    bound = 0.75
    rows = fluctuation_scan(masa4, masa_diag_model, [0.3, bound + 0.1], horizon=10.0, points=50)
    assert rows[0].frequency == pytest.approx(1.0)  # value stays 0, gap is always G_UB
    assert rows[1].frequency == pytest.approx(0.0)


def test_fluctuation_scan_noncollinear_rejected(loschmidt4, bell_model):
    with pytest.raises(DomainError):
        fluctuation_scan(loschmidt4, bell_model, [0.1])


def test_evolution_matches_direct_exponential(bell_model):
    t = 0.37
    evals, evecs = np.linalg.eigh(bell_model.matrix)
    direct = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    assert np.allclose(evolution(bell_model, t), direct)


def test_hamiltonian_json_matrix_form(bell_hamiltonian):
    model = hamiltonian_from_json(matrix_to_json(bell_hamiltonian))
    assert model.nrc
    assert np.allclose(model.matrix, bell_hamiltonian)


def test_hamiltonian_json_eigen_form():
    spec = {
        "eigenvalues": [0.0, 1.0, 3.0, 7.0],
        "eigenvectors": matrix_to_json(BELL_COLUMNS),
    }
    model = hamiltonian_from_json(spec)
    assert model.nrc
    expected = (BELL_COLUMNS * NRC_SPECTRUM) @ BELL_COLUMNS.T
    assert np.allclose(model.matrix, expected)


def test_hamiltonian_json_eigen_form_requires_unitary():
    spec = {
        "eigenvalues": [0.0, 1.0],
        "eigenvectors": matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]])),
    }
    with pytest.raises(ValidationError):
        hamiltonian_from_json(spec)


def test_hamiltonian_json_gue_form():
    model = hamiltonian_from_json({"gue": 4, "seed": 11})
    again = hamiltonian_from_json({"gue": 4, "seed": 11})
    assert np.array_equal(model.matrix, again.matrix)
    assert np.allclose(model.matrix, model.matrix.conj().T)


def test_hamiltonian_json_rejects_malformed():
    from scramble import ShapeError

    with pytest.raises(ShapeError):
        hamiltonian_from_json({"gue": 4})
    with pytest.raises(ShapeError):
        hamiltonian_from_json({"eigenvalues": [0.0, 1.0]})
    with pytest.raises(ShapeError):
        hamiltonian_from_json([1, 2, 3])


LEVEL_SPECTRA = {
    # spectrum, expected level sizes, smallest gap between distinct levels
    "generic": ([0.0, 0.5, 1.7, 3.1], [1, 1, 1, 1], 0.5),
    "resonant": ([0.0, 1.0, 2.0, 3.0], [1, 1, 1, 1], 1.0),
    "degenerate": ([0.0, 0.0, 1.5, 4.0], [2, 1, 1], 1.5),
}


@pytest.mark.parametrize("kind", sorted(LEVEL_SPECTRA))
def test_levels_partition_and_feed_horizon_and_purity(kind):
    spectrum, sizes, min_gap = LEVEL_SPECTRA[kind]
    d = len(spectrum)
    basis = haar_unitary(d, RandomSeed(404, d))
    model = analyze_hamiltonian((basis * np.asarray(spectrum)) @ basis.conj().T)
    assert sorted(np.concatenate(model.levels)) == list(range(d))
    assert [len(g) for g in model.levels] == sizes
    means = [float(np.mean(model.eigenvalues[g])) for g in model.levels]
    assert means == sorted(means)
    assert model.degenerate == (len(sizes) < d)
    assert default_horizon(model) == pytest.approx(200.0 / min_gap, rel=1e-12)
    # dephased purity of a pure state: sum over levels of <psi|P|psi>^2, with
    # P projecting onto the constructed eigenvectors of that level
    psi = haar_unitary(d, RandomSeed(405, d))[:, 0]
    weights = np.abs(basis.conj().T @ psi) ** 2
    start, expected = 0, 0.0
    for size in sizes:
        expected += float(np.sum(weights[start : start + size])) ** 2
        start += size
    assert dephased_state_purity(model, psi) == pytest.approx(expected, abs=1e-12)


def test_levels_of_gue_spectrum_are_singletons():
    model = analyze_hamiltonian(gue_hamiltonian(6, RandomSeed(17)))
    assert [list(g) for g in model.levels] == [[i] for i in range(6)]
    assert not model.degenerate
    gaps = np.diff(model.eigenvalues)
    assert default_horizon(model) == pytest.approx(200.0 / float(np.min(gaps)), rel=1e-12)


@pytest.mark.parametrize(
    "horizon, points",
    [(float("nan"), 10), (float("inf"), 10), (0.0, 10), (5.0, 2.5), (5.0, 0)],
    ids=["nan_horizon", "inf_horizon", "zero_horizon", "fractional_points", "no_points"],
)
def test_grid_parameters_refused(bipartite22, bell_model, horizon, points):
    with pytest.raises(ValidationError):
        grid_time_average(bipartite22, bell_model, horizon, points)
    with pytest.raises(ValidationError):
        fluctuation_scan(bipartite22, bell_model, [0.1], horizon=horizon, points=points)
