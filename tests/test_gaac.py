from __future__ import annotations

import numpy as np
import pytest

from scramble import (
    AlgebraDescriptor,
    ClosedFormCase,
    ShapeError,
    ValidationError,
    bipartite_swap,
    build_algebra,
    closed_form,
    commutant_algebra,
    gaac,
    hs_inner,
    saturation_residual,
    swap_operator,
    upper_bound,
)
from conftest import planted_generators, unitary
from oracles import gaac_distance_oracle, gaac_omega_oracle, gaac_structure_oracle

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def expm_i_hermitian(h):
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def random_group_element(basis, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(basis.shape[0]) + 1j * rng.standard_normal(basis.shape[0])
    h = np.einsum("k,kij->ij", coeffs, basis)
    return expm_i_hermitian((h + h.conj().T) / 2)


@pytest.mark.parametrize(
    "fixture",
    ["masa2", "masa4", "bipartite22", "z2_local2", "symmetric_local2", "loschmidt4"],
)
def test_identity_channel_gives_zero(fixture, request):
    alg = request.getfixturevalue(fixture)
    assert abs(gaac(alg, np.eye(alg.dim)).value) < 1e-12


def test_hadamard_on_masa(masa2):
    report = gaac(masa2, HADAMARD)
    assert report.value == pytest.approx(0.5, abs=1e-12)
    assert report.upper_bound == pytest.approx(0.5)
    assert report.route == "realignment"


def test_swap_on_bipartite(bipartite22):
    report = gaac(bipartite22, swap_operator(2))
    assert report.value == pytest.approx(0.75, abs=1e-12)
    assert report.upper_bound == pytest.approx(0.75)


def test_z2_with_vanishing_swap_overlap(z2_local2):
    u = np.kron(np.diag([1.0, -1.0]), np.eye(2))  # traceless local factor kills <S, U(S)>
    assert abs(hs_inner(swap_operator(2), u @ swap_operator(2) @ u.conj().T)) < 1e-12
    assert gaac(z2_local2, u).value == pytest.approx(0.4, abs=1e-12)


def test_loschmidt_orthogonal_image(loschmidt4):
    shift = np.roll(np.eye(4), 1, axis=0)
    assert gaac(loschmidt4, shift).value == pytest.approx(0.4, abs=1e-12)


def test_loschmidt_omega_oracle_value(loschmidt4):
    shift = np.roll(np.eye(4), 1, axis=0)
    assert gaac_omega_oracle(loschmidt4, shift) == pytest.approx(0.4, abs=1e-12)


def test_fourier_saturates_cgp():
    d = 3
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    alg = build_algebra(AlgebraDescriptor.diagonal(d))
    assert gaac(alg, fourier).value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert closed_form(ClosedFormCase.cgp(d), fourier) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_symmetric_identity_vanishes(symmetric_local2):
    assert closed_form(ClosedFormCase.symmetric(2), np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    assert gaac(symmetric_local2, np.eye(4)).value == pytest.approx(0.0, abs=1e-12)


CASES = [
    ("bipartite_otoc", AlgebraDescriptor.factor(2, 2), ClosedFormCase.bipartite_otoc(2, 2), 4),
    ("cgp", AlgebraDescriptor.diagonal(4), ClosedFormCase.cgp(4), 4),
    ("symmetric", AlgebraDescriptor.symmetric_swap(2), ClosedFormCase.symmetric(2), 4),
    ("z2", AlgebraDescriptor.group_z2(2), ClosedFormCase.z2(2), 4),
    (
        "loschmidt",
        AlgebraDescriptor.loschmidt(np.eye(4)[0]),
        ClosedFormCase.loschmidt(np.eye(4)[0]),
        4,
    ),
]


@pytest.mark.parametrize("name,desc,case,dim", CASES, ids=[c[0] for c in CASES])
def test_closed_form_matches_generic_route(name, desc, case, dim):
    alg = build_algebra(desc)
    for stream in range(20):
        u = unitary(dim, 4242, stream)
        assert abs(gaac(alg, u).value - closed_form(case, u)) < 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_route_agreement_random_pairs(seed):
    gens, _ = planted_generators(4 + (seed % 3), 3000 + seed)
    alg = build_algebra(AlgebraDescriptor.generators(gens))
    u = unitary(alg.dim, 5000, seed)
    value = gaac(alg, u).value
    assert abs(value - gaac_omega_oracle(alg, u)) < 1e-9
    assert abs(value - gaac_distance_oracle(alg, u)) < 1e-9


@pytest.mark.parametrize("fixture", ["bipartite22", "z2_local2", "loschmidt4"])
def test_structure_basis_route_agrees(fixture, request):
    alg = request.getfixturevalue(fixture)
    u = unitary(alg.dim, 6000)
    assert abs(gaac(alg, u).value - gaac_structure_oracle(alg, u)) < 1e-9


def test_upper_bound_values(masa4, bipartite22, z2_local2):
    assert upper_bound(masa4) == pytest.approx(0.75)
    assert upper_bound(bipartite22) == pytest.approx(0.75)
    assert upper_bound(z2_local2) == pytest.approx(0.5)


@pytest.mark.parametrize("fixture", ["masa4", "bipartite22", "z2_local2", "loschmidt4"])
def test_value_within_bounds(fixture, request):
    alg = request.getfixturevalue(fixture)
    for stream in range(10):
        value = gaac(alg, unitary(alg.dim, 7000, stream)).value
        assert value >= -1e-10
        assert value <= upper_bound(alg) + 1e-8


@pytest.mark.parametrize("fixture", ["masa4", "bipartite22", "z2_local2"])
def test_invariance_under_algebra_unitaries(fixture, request):
    alg = request.getfixturevalue(fixture)
    for side in ("a", "aprime"):
        basis = alg.basis_a if side == "a" else alg.basis_aprime
        u = random_group_element(basis, seed=53)
        assert gaac(alg, u).value < 1e-9


def test_time_reversal_symmetry(bipartite22, z2_local2):
    for alg in (bipartite22, z2_local2):
        for stream in range(5):
            u = unitary(alg.dim, 8000, stream)
            assert abs(gaac(alg, u).value - gaac(alg, u.conj().T).value) < 1e-10


@pytest.mark.parametrize("desc", [AlgebraDescriptor.factor(2, 2), AlgebraDescriptor.diagonal(4)])
def test_collinear_commutant_symmetry(desc):
    alg = build_algebra(desc)
    assert alg.blocks.collinear
    swapped = commutant_algebra(alg)
    for stream in range(5):
        u = unitary(alg.dim, 9000, stream)
        assert abs(gaac(alg, u).value - gaac(swapped, u).value) < 1e-9


def test_saturation_residual_values(masa2, bipartite22):
    assert saturation_residual(masa2, HADAMARD) < 1e-8
    assert saturation_residual(masa2, np.eye(2)) == pytest.approx(1.0, abs=1e-10)
    assert saturation_residual(bipartite22, swap_operator(2)) < 1e-8


def test_report_fields(masa2):
    report = gaac(masa2, HADAMARD)
    assert report.saturation_residual is not None


def test_non_unitary_rejected(masa2):
    with pytest.raises(ValidationError):
        gaac(masa2, np.diag([1.0, 0.5]))


def test_bipartite_swap_construction():
    s_aa = bipartite_swap(2, 3)
    # acts as |a1 b1 a2 b2> -> |a2 b1 a1 b2>
    dims = [2, 3, 2, 3]
    state = np.zeros(36)

    def idx(a1, b1, a2, b2):
        return ((a1 * 3 + b1) * 2 + a2) * 3 + b2

    state[idx(1, 2, 0, 1)] = 1.0
    moved = s_aa @ state
    expected = np.zeros(36)
    expected[idx(0, 2, 1, 1)] = 1.0
    assert np.allclose(moved, expected)
    assert np.allclose(s_aa @ s_aa, np.eye(36))


@pytest.mark.parametrize("bad", [2.5, 0, -3, True, "3", None], ids=repr)
@pytest.mark.parametrize(
    "make",
    [
        lambda v: ClosedFormCase.bipartite_otoc(v, 2),
        lambda v: ClosedFormCase.bipartite_otoc(2, v),
        ClosedFormCase.cgp,
        ClosedFormCase.symmetric,
        ClosedFormCase.z2,
    ],
    ids=["otoc_a", "otoc_b", "cgp", "symmetric", "z2"],
)
def test_closed_form_constructors_refuse_non_positive_integers(make, bad):
    with pytest.raises(ShapeError):
        make(bad)


def test_closed_form_constructor_accepts_integral_float():
    case = ClosedFormCase.cgp(2.0)
    assert case.params == {"dim": 2}
    assert closed_form(case, HADAMARD) == pytest.approx(0.5)
