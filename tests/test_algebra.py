from __future__ import annotations

import numpy as np
import pytest

from scramble import (
    RANK_TOL,
    AlgebraDescriptor,
    DecompositionError,
    ShapeError,
    ValidationError,
    algebra_closure,
    build_algebra,
    commutant,
    commutant_algebra,
    hs_inner,
    hs_norm,
    orthonormalize,
    project_onto,
    swap_operator,
    verification_residuals,
)
from scramble.algebra import _block_frame, _named_generator_basis, _require_build_memory
from conftest import BUDGET_MESSAGE, planted_generators, traced_peak, unitary
from oracles import (
    bipartite_swap,
    block_basis_rotation,
    omega_operators,
    partial_trace,
    structure_basis,
    superprojector_matrix,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def full_matrix_basis(d):
    mats = []
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            mats.append(m)
    return orthonormalize(mats)


def test_diagonal_algebra_is_self_commutant(masa2):
    assert masa2.dim_a == 2
    assert masa2.dim_aprime == 2
    p_a = superprojector_matrix(masa2.basis_a)
    p_ap = superprojector_matrix(masa2.basis_aprime)
    assert np.max(np.abs(p_a - p_ap)) < 1e-10


def test_group_z2_dimensions(z2_local2):
    assert z2_local2.dim_a == 2
    assert z2_local2.dim_aprime == 10  # d^2 (d^2 + 1) / 2 at d = 2
    assert z2_local2.blocks.pairs == ((3, 1), (1, 1))


def test_symmetric_swap_is_commutant_of_z2(z2_local2, symmetric_local2):
    assert symmetric_local2.dim_a == 10
    assert symmetric_local2.dim_aprime == 2
    assert symmetric_local2.blocks.pairs == ((1, 3), (1, 1))
    p1 = superprojector_matrix(symmetric_local2.basis_a)
    p2 = superprojector_matrix(z2_local2.basis_aprime)
    assert np.max(np.abs(p1 - p2)) < 1e-10


def test_closure_of_single_generator_matches_abelian_span():
    gen = np.kron(SIGMA_Z, np.eye(2))
    basis = algebra_closure([gen])
    assert basis.shape[0] == 2  # span{1, sigma_z x 1}
    alg = build_algebra(AlgebraDescriptor.generators([gen]))
    assert alg.dim_a == 2


def test_commutant_of_full_algebra_is_scalars():
    basis = full_matrix_basis(3)
    comm = commutant(basis)
    assert comm.shape[0] == 1
    off = comm[0] - np.trace(comm[0]) / 3 * np.eye(3)
    assert hs_norm(off) < 1e-10


def test_commutant_of_swap_span_has_dimension_ten():
    s = swap_operator(2)
    span = orthonormalize([np.eye(4, dtype=complex), s])
    assert commutant(span).shape[0] == 10


def test_commutant_of_diagonal_is_itself():
    alg = build_algebra(AlgebraDescriptor.diagonal(4))
    assert alg.dim_aprime == 4
    for f in alg.basis_aprime:
        assert np.max(np.abs(f - np.diag(np.diagonal(f)))) < 1e-10


def test_factor_block_structure():
    alg = build_algebra(AlgebraDescriptor.factor(2, 3))
    assert alg.blocks.pairs == ((3, 2),)
    assert alg.dim_a == 4
    assert alg.dim_aprime == 9
    assert alg.blocks.collinear


def test_factor_side_b():
    alg = build_algebra(AlgebraDescriptor.factor(2, 3, side="B"))
    assert alg.dim_a == 9
    assert alg.dim_aprime == 4
    assert alg.blocks.pairs == ((2, 3),)


def test_diagonal_blocks_are_all_ones(masa4):
    assert masa4.blocks.pairs == ((1, 1),) * 4
    assert masa4.blocks.collinear
    assert str(masa4.blocks.lam) == "1"


def test_loschmidt_structure():
    alg = build_algebra(AlgebraDescriptor.loschmidt(np.eye(3)[0]))
    assert alg.dim_a == 2
    assert alg.dim_aprime == 5  # (d - 1)^2 + 1 at d = 3
    assert alg.blocks.pairs == ((2, 1), (1, 1))


def test_loschmidt_requires_normalized_state():
    with pytest.raises(ValidationError):
        build_algebra(AlgebraDescriptor.loschmidt(2.0 * np.eye(3)[0]))


def test_generators_must_share_dimension():
    with pytest.raises(ShapeError):
        algebra_closure([np.eye(2), np.eye(3)])


def test_project_onto_masa_is_diagonal_part(masa4):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(project_onto(masa4.basis_aprime, x), np.diag(np.diagonal(x)))


def test_project_onto_factor_commutant_is_normalized_partial_trace(bipartite22):
    rng = np.random.default_rng(37)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = np.kron(np.eye(2) / 2, partial_trace(x, [2, 2], keep=[1]))
    assert np.allclose(project_onto(bipartite22.basis_aprime, x), expected)


def test_project_onto_is_idempotent(z2_local2):
    rng = np.random.default_rng(41)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    once = project_onto(z2_local2.basis_aprime, x)
    assert hs_norm(project_onto(z2_local2.basis_aprime, once) - once) < 1e-12


def test_omega_masa_is_sum_of_projector_squares(masa2):
    pair = omega_operators(masa2)
    expected = sum(
        np.kron(np.diag(np.eye(2)[i]).astype(complex), np.diag(np.eye(2)[i])) for i in range(2)
    )
    assert np.allclose(pair.omega, expected)
    assert np.allclose(pair.omega_tilde, expected)


def test_omega_factor_is_scaled_partial_swap(bipartite22):
    pair = omega_operators(bipartite22)
    assert np.allclose(pair.omega, bipartite_swap(2, 2) / 2)


def test_omega_loschmidt_trace():
    alg = build_algebra(AlgebraDescriptor.loschmidt(np.eye(3)[0]))
    pair = omega_operators(alg)
    assert np.trace(pair.omega).real == pytest.approx(5.0)
    psi = np.eye(3)[0]
    proj = np.outer(psi, psi)
    expected = np.kron(proj, proj) + np.kron(np.eye(3) - proj, np.eye(3) - proj)
    assert np.allclose(pair.omega, expected)


@pytest.mark.parametrize(
    "fixture",
    ["masa2", "masa4", "bipartite22", "z2_local2", "symmetric_local2", "loschmidt4"],
)
def test_omega_invariants(fixture, request):
    alg = request.getfixturevalue(fixture)
    pair = omega_operators(alg)
    d = alg.dim
    s = swap_operator(d)
    assert np.allclose(pair.omega_tilde, s @ pair.omega)
    assert np.trace(pair.omega).real == pytest.approx(alg.dim_aprime, abs=1e-9)
    assert hs_inner(s, pair.omega).real == pytest.approx(d, abs=1e-9)
    assert hs_norm(pair.omega) ** 2 == pytest.approx(alg.dim_aprime, abs=1e-9)
    assert hs_norm(pair.omega_tilde) ** 2 == pytest.approx(alg.dim_aprime, abs=1e-9)
    assert np.max(np.abs(s @ pair.omega - pair.omega @ s)) < 1e-9


def test_omega_reconstructs_commutant_projection(z2_local2):
    # Tr over the first doubled factor of omega_tilde (X x 1) projects X onto A'
    rng = np.random.default_rng(43)
    d = z2_local2.dim
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    pair = omega_operators(z2_local2)
    lhs = partial_trace(pair.omega_tilde @ np.kron(x, np.eye(d)), [d, d], keep=[1])
    assert np.allclose(lhs, project_onto(z2_local2.basis_aprime, x), atol=1e-10)


def test_superprojector_full_algebra_is_identity():
    basis = full_matrix_basis(2)
    assert np.allclose(superprojector_matrix(basis), np.eye(4))


def test_superprojector_scalars_rank_one():
    basis = orthonormalize([np.eye(2, dtype=complex)])
    p = superprojector_matrix(basis)
    assert np.trace(p).real == pytest.approx(1.0)
    assert np.allclose(p @ p, p)


def test_superprojector_masa_trace(masa2):
    p = superprojector_matrix(masa2.basis_aprime)
    assert np.trace(p).real == pytest.approx(2.0)
    assert np.allclose(p, p.conj().T)


@pytest.mark.parametrize(
    "fixture",
    ["masa2", "masa4", "bipartite22", "z2_local2", "symmetric_local2", "loschmidt4"],
)
def test_double_commutant_named(fixture, request):
    alg = request.getfixturevalue(fixture)
    double = commutant(commutant(alg.basis_a))
    assert double.shape[0] == alg.dim_a
    p1 = superprojector_matrix(double)
    p2 = superprojector_matrix(alg.basis_a)
    assert np.max(np.abs(p1 - p2)) < 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_double_commutant_random_generators(seed):
    rng = np.random.default_rng(1000 + seed)
    d = int(rng.integers(2, 7))
    count = int(rng.integers(1, 4))
    gens = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(count)
    ]
    basis = algebra_closure(gens)
    double = commutant(commutant(basis))
    assert np.max(np.abs(superprojector_matrix(double) - superprojector_matrix(basis))) < 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_planted_block_structure_recovered(seed):
    gens, pairs = planted_generators(6, 2000 + seed)
    alg = build_algebra(AlgebraDescriptor.generators(gens))
    assert sorted(alg.blocks.pairs) == sorted(pairs)
    assert alg.dim_a == sum(dj * dj for _, dj in pairs)
    assert alg.dim_aprime == sum(n * n for n, _ in pairs)


@pytest.mark.parametrize(
    "fixture",
    ["masa2", "masa4", "bipartite22", "z2_local2", "symmetric_local2", "loschmidt4"],
)
def test_dimension_accounting(fixture, request):
    alg = request.getfixturevalue(fixture)
    pairs = alg.blocks.pairs
    assert sum(n * dj for n, dj in pairs) == alg.dim
    assert sum(dj * dj for _, dj in pairs) == alg.dim_a
    assert sum(n * n for n, _ in pairs) == alg.dim_aprime
    assert (alg.dim_a * alg.dim_aprime == alg.dim**2) == alg.blocks.collinear


def test_verification_residuals_are_tiny(bipartite22):
    residuals = verification_residuals(bipartite22)
    assert max(residuals.values()) < 1e-10


def test_block_ordering_and_fingerprint_stable():
    first = build_algebra(AlgebraDescriptor.group_z2(2))
    second = build_algebra(AlgebraDescriptor.group_z2(2))
    assert first.blocks == second.blocks
    assert first.blocks.fingerprint() == second.blocks.fingerprint()
    assert np.array_equal(first.center_projections, second.center_projections)


def test_commutant_algebra_swaps_roles(bipartite22):
    swapped = commutant_algebra(bipartite22)
    assert swapped.dim_a == bipartite22.dim_aprime
    assert swapped.blocks.pairs == ((2, 2),)
    assert max(verification_residuals(swapped).values()) < 1e-10


def blockwise_projection(alg, x, side):
    w, slices = block_basis_rotation(alg)
    xb = w.conj().T @ x @ w
    out = np.zeros_like(xb)
    for (n, dj), sl in zip(alg.blocks.pairs, slices):
        blk = xb[sl, sl].reshape(n, dj, n, dj)
        if side == "aprime":
            m = np.einsum("piqi->pq", blk)
            out[sl, sl] = np.kron(m, np.eye(dj) / dj)
        else:
            m = np.einsum("pipj->ij", blk)
            out[sl, sl] = np.kron(np.eye(n) / n, m)
    return w @ out @ w.conj().T


@pytest.mark.parametrize(
    "fixture", ["masa4", "bipartite22", "z2_local2", "loschmidt4"]
)
def test_projection_matches_block_formula(fixture, request):
    alg = request.getfixturevalue(fixture)
    rng = np.random.default_rng(47)
    d = alg.dim
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    got_ap = project_onto(alg.basis_aprime, x)
    assert hs_norm(got_ap - blockwise_projection(alg, x, "aprime")) < 1e-8
    got_a = project_onto(alg.basis_a, x)
    assert hs_norm(got_a - blockwise_projection(alg, x, "a")) < 1e-8


def test_descriptor_json_roundtrip():
    descs = [
        AlgebraDescriptor.diagonal(3),
        AlgebraDescriptor.factor(2, 3, side="B"),
        AlgebraDescriptor.group_z2(2),
        AlgebraDescriptor.symmetric_swap(2),
        AlgebraDescriptor.loschmidt(np.eye(3)[1]),
        AlgebraDescriptor.generators([SIGMA_Z, np.eye(2, dtype=complex)]),
    ]
    for desc in descs:
        back = AlgebraDescriptor.from_json(desc.to_json())
        assert back.kind == desc.kind
        first = build_algebra(desc)
        second = build_algebra(back)
        assert first.blocks == second.blocks


BAD_DIMS = [2.5, 0, -3, True, "3", None]


@pytest.mark.parametrize("bad", BAD_DIMS, ids=repr)
@pytest.mark.parametrize(
    "make",
    [
        lambda v: AlgebraDescriptor.factor(v, 2),
        lambda v: AlgebraDescriptor.factor(2, v),
        AlgebraDescriptor.diagonal,
        AlgebraDescriptor.symmetric_swap,
        AlgebraDescriptor.group_z2,
    ],
    ids=["factor_a", "factor_b", "diagonal", "symmetric_swap", "group_z2"],
)
def test_descriptor_constructors_refuse_non_positive_integers(make, bad):
    with pytest.raises(ShapeError):
        make(bad)


def test_descriptor_constructors_accept_integral_values():
    assert AlgebraDescriptor.factor(np.int64(2), 3.0).params == {
        "dim_a": 2, "dim_b": 3, "side": "A"
    }
    assert type(AlgebraDescriptor.diagonal(np.int32(4)).params["dim"]) is int


def test_descriptor_rejects_unknown_kind():
    with pytest.raises(ShapeError):
        AlgebraDescriptor.from_json({"kind": "nonsense", "params": {}})


def test_random_algebra_center_projections_commute_with_both_sides():
    gens, _ = planted_generators(6, 77)
    alg = build_algebra(AlgebraDescriptor.generators(gens))
    for proj in alg.center_projections:
        for basis in (alg.basis_a, alg.basis_aprime):
            for b in basis:
                assert hs_norm(proj @ b - b @ proj) < 1e-8


def test_structure_basis_is_orthogonal_with_block_norms(bipartite22):
    basis = structure_basis(bipartite22)
    assert basis.shape[0] == bipartite22.dim_a
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    # (n_J / d_J) on the diagonal, zero off it
    assert np.allclose(gram, np.diag(np.diagonal(gram)), atol=1e-10)
    assert np.allclose(np.diagonal(gram).real, 1.0)  # n = d = 2 per block here


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), 1.0, 2.0, float("inf")])
def test_build_algebra_refuses_tolerance_outside_unit_interval(tol):
    with pytest.raises(ShapeError):
        build_algebra(AlgebraDescriptor.factor(2, 2), tol=tol)


def test_block_frame_refuses_empty_basis():
    with pytest.raises(DecompositionError, match="empty algebra basis"):
        _block_frame(np.zeros((0, 2, 2), dtype=complex))


def test_build_refuses_empty_commutant():
    # a rank cut far below rounding keeps no commutator-map null vector
    with pytest.raises(DecompositionError, match="empty commutant basis"):
        build_algebra(AlgebraDescriptor.factor(2, 2), tol=1e-17)



def test_commutant_streams_its_maps():
    # the (64 d^2, d^2) stack of commutator maps alone would take 67 MB
    basis = _named_generator_basis(AlgebraDescriptor.factor(8, 2), RANK_TOL)
    with traced_peak() as peak:
        result = commutant(basis)
    assert result.shape == (4, 16, 16)
    assert peak[0] < 32 * 2**20


def test_closure_streams_its_products():
    # one round's (k^2, d^2) product stack at k = d^2 = 144 would take 48 MB
    rng = np.random.default_rng(1212)
    gens = [rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)) for _ in range(2)]
    with traced_peak() as peak:
        result = algebra_closure(gens)
    assert result.shape == (144, 12, 12)
    assert peak[0] < 32 * 2**20


@pytest.mark.parametrize(
    "desc",
    [
        AlgebraDescriptor.diagonal(100000),
        AlgebraDescriptor.factor(1000, 1000),
        AlgebraDescriptor.factor(100, 1, side="B"),
        AlgebraDescriptor.symmetric_swap(1000),
        AlgebraDescriptor.group_z2(1000),
        AlgebraDescriptor.loschmidt(np.eye(200)[0]),
        AlgebraDescriptor.generators([np.eye(200, dtype=complex)]),
    ],
    ids=lambda desc: desc.kind,
)
def test_build_refuses_oversized_dimension_before_allocating(desc):
    with traced_peak() as peak, pytest.raises(ShapeError, match=BUDGET_MESSAGE):
        build_algebra(desc)
    assert peak[0] < 2**20


def test_build_memory_budget_admits_dimension_64():
    _require_build_memory(64)
    with pytest.raises(ShapeError, match=BUDGET_MESSAGE):
        _require_build_memory(69)
