"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line per criterion (run with ``pytest -s`` to see them inline)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from scramble import (
    AlgebraDescriptor,
    BlockStructure,
    ClosedFormCase,
    OperatorAlgebra,
    RandomSeed,
    algebra_closure,
    analyze_hamiltonian,
    build_algebra,
    chaoticity,
    closed_form,
    commutant,
    commutant_algebra,
    gaac,
    grid_time_average,
    gue_hamiltonian,
    haar_average_analytic,
    haar_average_mc,
    haar_unitary,
    hs_inner,
    nrc_upper_bound,
    saturation_residual,
    scrambling_witness,
    swap_operator,
    time_average_exact,
    time_average_nrc,
    upper_bound,
)
from conftest import BELL_COLUMNS, NRC_SPECTRUM, planted_generators, unitary
from oracles import (
    gaac_distance_oracle,
    gaac_omega_oracle,
    haar_twirl_oracle,
    superprojector_matrix,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)

NAMED_DESCRIPTORS = [
    AlgebraDescriptor.diagonal(2),
    AlgebraDescriptor.diagonal(4),
    AlgebraDescriptor.factor(2, 2),
    AlgebraDescriptor.group_z2(2),
    AlgebraDescriptor.symmetric_swap(2),
    AlgebraDescriptor.loschmidt(np.eye(4)[0]),
]


def expm_i_hermitian(h):
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def test_criterion_1_closed_form_equivalence():
    cases = [
        (AlgebraDescriptor.factor(2, 2), ClosedFormCase.bipartite_otoc(2, 2)),
        (AlgebraDescriptor.diagonal(4), ClosedFormCase.cgp(4)),
        (AlgebraDescriptor.symmetric_swap(2), ClosedFormCase.symmetric(2)),
        (AlgebraDescriptor.group_z2(2), ClosedFormCase.z2(2)),
        (AlgebraDescriptor.loschmidt(np.eye(4)[0]), ClosedFormCase.loschmidt(np.eye(4)[0])),
    ]
    for desc, case in cases:
        alg = build_algebra(desc)
        for stream in range(20):
            u = unitary(alg.dim, 101, stream)
            assert abs(gaac(alg, u).value - closed_form(case, u)) < 1e-9
    print("ACCEPTANCE 1 (closed-form equivalence, 5 cases x 20 unitaries): PASS")


def test_criterion_2_route_triangulation():
    rng = np.random.default_rng(202)
    for trial in range(50):
        d = int(rng.integers(2, 9))
        gens, _ = planted_generators(d, 20000 + trial)
        alg = build_algebra(AlgebraDescriptor.generators(gens))
        u = unitary(d, 303, trial)
        value = gaac(alg, u).value
        assert abs(value - gaac_omega_oracle(alg, u)) < 1e-9
        assert abs(value - gaac_distance_oracle(alg, u)) < 1e-9
    print("ACCEPTANCE 2 (route triangulation on 50 random pairs): PASS")


def test_criterion_3_exact_values():
    masa2 = build_algebra(AlgebraDescriptor.diagonal(2))
    assert abs(gaac(masa2, HADAMARD).value - 0.5) < 1e-9
    assert abs(upper_bound(masa2) - 0.5) < 1e-12

    bipartite = build_algebra(AlgebraDescriptor.factor(2, 2))
    assert abs(gaac(bipartite, swap_operator(2)).value - 0.75) < 1e-9
    assert abs(upper_bound(bipartite) - 0.75) < 1e-12

    masa4 = build_algebra(AlgebraDescriptor.diagonal(4))
    assert abs(upper_bound(masa4) - 0.75) < 1e-12

    z2 = build_algebra(AlgebraDescriptor.group_z2(2))
    u = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    assert abs(hs_inner(swap_operator(2), u @ swap_operator(2) @ u.conj().T)) < 1e-12
    assert abs(gaac(z2, u).value - 0.4) < 1e-9
    assert abs(upper_bound(z2) - 0.5) < 1e-12

    loschmidt = build_algebra(AlgebraDescriptor.loschmidt(np.eye(4)[0]))
    shift = np.roll(np.eye(4), 1, axis=0)
    assert abs(gaac(loschmidt, shift).value - 0.4) < 1e-9
    print("ACCEPTANCE 3 (exact reference values and bounds): PASS")


def test_criterion_4_structure_theorem():
    rng = np.random.default_rng(404)
    bases = []
    for desc in NAMED_DESCRIPTORS:
        alg = build_algebra(desc)
        pairs = alg.blocks.pairs
        assert sum(n * dj for n, dj in pairs) == alg.dim
        assert sum(dj * dj for _, dj in pairs) == alg.dim_a
        assert sum(n * n for n, _ in pairs) == alg.dim_aprime
        bases.append(alg.basis_a)
    for trial in range(20):
        if trial < 12:
            gens, expected = planted_generators(int(rng.integers(3, 8)), 40000 + trial)
            alg = build_algebra(AlgebraDescriptor.generators(gens))
            assert sorted(alg.blocks.pairs) == sorted(expected)
            bases.append(alg.basis_a)
        else:
            d = int(rng.integers(2, 7))
            count = int(rng.integers(1, 4))
            gens = [
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(count)
            ]
            bases.append(algebra_closure(gens))
    for basis in bases:
        double = commutant(commutant(basis))
        assert double.shape[0] == basis.shape[0]
        gap = np.max(np.abs(superprojector_matrix(double) - superprojector_matrix(basis)))
        assert gap < 1e-8
    print("ACCEPTANCE 4 (double commutant + dimension accounting, 26 algebras): PASS")


def test_criterion_5_haar_statistics():
    for desc in NAMED_DESCRIPTORS:
        alg = build_algebra(desc)
        assert abs(haar_average_analytic(alg) - haar_twirl_oracle(alg)) < 1e-10

    stds = []
    for d in (4, 8, 16):
        alg = build_algebra(AlgebraDescriptor.diagonal(d))
        summary = haar_average_mc(alg, 500, RandomSeed(505 + d))
        stderr = summary.mc_std / np.sqrt(summary.samples)
        assert abs(summary.mc_mean - summary.analytic_mean) <= 4 * stderr
        assert upper_bound(alg) - summary.mc_mean <= 1.0 / d  # collinear family
        stds.append(summary.mc_std)
    assert stds[0] > stds[1] > stds[2]

    alg4 = build_algebra(AlgebraDescriptor.diagonal(4))
    bound = upper_bound(alg4)
    for i in range(500):
        value = gaac(alg4, haar_unitary(4, RandomSeed(509, i))).value
        assert -1e-10 <= value <= bound + 1e-8
    print("ACCEPTANCE 5 (Haar statistics: twirl oracle, MC windows, bound, decay): PASS")


def test_criterion_6_time_averages():
    assert analyze_hamiltonian(np.diag([0.0, 1.0, 3.0, 7.0])).nrc is True
    assert analyze_hamiltonian(np.diag([0.0, 1.0, 2.0])).nrc is False
    assert analyze_hamiltonian(np.diag([0.0, 0.0, 1.0])).nrc is False

    rng = np.random.default_rng(606)
    for trial in range(20):
        d = int(rng.integers(2, 7))
        gens, _ = planted_generators(d, 60000 + trial)
        alg = build_algebra(AlgebraDescriptor.generators(gens))
        if trial % 3 == 0:
            basis = haar_unitary(d, RandomSeed(60600 + trial))
            model = analyze_hamiltonian((basis * np.arange(d, dtype=float)) @ basis.conj().T)
        else:
            from scramble import gue_hamiltonian

            model = analyze_hamiltonian(gue_hamiltonian(d, RandomSeed(60700 + trial)))
        exact = time_average_exact(alg, model)
        formula = time_average_nrc(alg, model)
        assert exact <= formula + 1e-9
        assert formula <= haar_average_analytic(alg) + 1e-9
        if model.nrc:
            assert abs(exact - formula) < 1e-9

    bipartite = build_algebra(AlgebraDescriptor.factor(2, 2))
    bell_model = analyze_hamiltonian((BELL_COLUMNS * NRC_SPECTRUM) @ BELL_COLUMNS.T)
    assert abs(time_average_exact(bipartite, bell_model) - 9.0 / 16.0) < 1e-9
    assert abs(chaoticity(bipartite, bell_model) - 1.0 / 16.0) < 1e-9
    grid = grid_time_average(bipartite, bell_model, 200.0, 400)  # T = 200 / min gap
    assert abs(grid - 9.0 / 16.0) < 0.02
    print("ACCEPTANCE 6 (NRC detection, chain inequality, reference averages, grid): PASS")


def test_criterion_7_saturation_certificates():
    d = 4
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    masa4 = build_algebra(AlgebraDescriptor.diagonal(4))
    assert saturation_residual(masa4, fourier) < 1e-8
    assert abs(gaac(masa4, fourier).value - upper_bound(masa4)) < 1e-9

    bipartite = build_algebra(AlgebraDescriptor.factor(2, 2))
    assert saturation_residual(bipartite, swap_operator(2)) < 1e-8

    bell_model = analyze_hamiltonian((BELL_COLUMNS * NRC_SPECTRUM) @ BELL_COLUMNS.T)
    masa_model = analyze_hamiltonian(np.diag(NRC_SPECTRUM))
    # witness 0 <=> the infinite-time formula saturates its collinear bound
    assert scrambling_witness(bipartite, bell_model) < 1e-8
    assert abs(time_average_nrc(bipartite, bell_model) - nrc_upper_bound(bipartite)) < 1e-9
    assert scrambling_witness(masa4, masa_model) > 1e-3
    assert time_average_nrc(masa4, masa_model) < nrc_upper_bound(masa4) - 1e-3
    print("ACCEPTANCE 7 (saturation residuals and scrambling witness): PASS")


def test_criterion_8_invariance():
    rng = np.random.default_rng(808)
    for desc in [AlgebraDescriptor.diagonal(4), AlgebraDescriptor.factor(2, 2),
                 AlgebraDescriptor.group_z2(2)]:
        alg = build_algebra(desc)
        for basis in (alg.basis_a, alg.basis_aprime):
            coeffs = rng.standard_normal(basis.shape[0]) + 1j * rng.standard_normal(
                basis.shape[0]
            )
            h = np.einsum("k,kij->ij", coeffs, basis)
            u = expm_i_hermitian((h + h.conj().T) / 2)
            assert gaac(alg, u).value < 1e-9
        for stream in range(5):
            u = unitary(alg.dim, 809, stream)
            assert abs(gaac(alg, u).value - gaac(alg, u.conj().T).value) < 1e-10
        if alg.blocks.collinear:
            swapped = commutant_algebra(alg)
            for stream in range(5):
                u = unitary(alg.dim, 810, stream)
                assert abs(gaac(alg, u).value - gaac(swapped, u).value) < 1e-9
    print("ACCEPTANCE 8 (invariance, time reversal, collinear symmetry): PASS")


def test_smoke_dimension_64():
    # engine-scale check on an analytically assembled maximal abelian algebra
    d = 64
    eye_rows = np.eye(d, dtype=complex)
    basis = np.stack([np.diag(eye_rows[i]) for i in range(d)])
    alg = OperatorAlgebra(
        dim=d,
        basis_a=basis,
        basis_aprime=basis,
        center_projections=basis.copy(),
        blocks=BlockStructure(((1, 1),) * d),
    )
    u = haar_unitary(d, RandomSeed(6464))
    generic = gaac(alg, u).value
    assert abs(generic - closed_form(ClosedFormCase.cgp(d), u)) < 1e-9
    assert generic <= upper_bound(alg) + 1e-8
    assert haar_average_analytic(alg) == pytest.approx(
        (d * d - d) * (d - 1) / (d * (d * d - 1))
    )
    # the exact infinite-time average works gap class by gap class: a d^2 x d^2
    # kernel alone would be 134 MB here
    model = analyze_hamiltonian(gue_hamiltonian(d, RandomSeed(6464)))
    assert model.nrc
    tracemalloc.start()
    try:
        exact = time_average_exact(alg, model)
        chaos = chaoticity(alg, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert abs(exact - time_average_nrc(alg, model)) < 1e-12
    assert chaos == pytest.approx(1.0 - exact / haar_average_analytic(alg), abs=1e-12)
