from __future__ import annotations

import numpy as np
import pytest

from scramble import (
    RandomSeed,
    ShapeError,
    gaussian_variates,
    haar_unitary,
    hs_inner,
    hs_norm,
    is_hermitian,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    orthonormalize,
    swap_operator,
)
from oracles import is_projection, partial_trace, permute_factors, unvec, vec

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def test_hs_inner_identity_gives_dimension():
    for d in (1, 2, 5):
        assert hs_inner(np.eye(d), np.eye(d)) == pytest.approx(d)


def test_hs_inner_swap_squared_traces_to_total_dimension():
    s = swap_operator(2)
    assert hs_inner(s, s) == pytest.approx(4.0)


def test_hs_inner_orthogonal_paulis():
    assert hs_inner(SIGMA_X, SIGMA_Z) == pytest.approx(0.0)


def test_hs_inner_conjugate_symmetric_and_linear():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
    assert hs_inner(a, 2.5j * b + c) == pytest.approx(2.5j * hs_inner(a, b) + hs_inner(a, c))


def test_cauchy_schwarz_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(hs_inner(a, b)) <= hs_norm(a) * hs_norm(b) + 1e-12


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ShapeError):
        hs_inner(np.eye(2), np.eye(3))


def test_vec_unvec_roundtrip_column_stacking():
    m = np.arange(4).reshape(2, 2).astype(complex)
    v = vec(m)
    assert np.allclose(v, [0, 2, 1, 3])  # columns stacked
    assert np.allclose(unvec(v, 2), m)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    rho_a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_a /= np.trace(rho_a)
    rho_b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho_b /= np.trace(rho_b)
    x = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(x, [2, 3], keep=[0]), rho_a)
    assert np.allclose(partial_trace(x, [2, 3], keep=[1]), rho_b)


def test_partial_trace_of_swap_is_identity():
    # direct index contraction: (tr_B S)_{ii'} = sum_j delta_{ij} delta_{ji'}
    s = swap_operator(2)
    assert np.allclose(partial_trace(s, [2, 2], keep=[0]), np.eye(2))


def test_partial_trace_identity():
    x = np.eye(4, dtype=complex)
    assert np.allclose(partial_trace(x, [2, 2], keep=[1]), 2 * np.eye(2))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for keep in ([0], [1], [2], [0, 2]):
        reduced = partial_trace(x, [2, 3, 2], keep=keep)
        assert np.trace(reduced) == pytest.approx(np.trace(x))


def test_partial_trace_complementary_composition():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    first = partial_trace(x, [2, 3], keep=[0])
    assert np.trace(first) == pytest.approx(np.trace(x))


def test_partial_trace_errors():
    with pytest.raises(ShapeError):
        partial_trace(np.eye(4), [2, 3], keep=[0])
    with pytest.raises(ShapeError):
        partial_trace(np.eye(4), [2, 2], keep=[])


def test_orthonormalize_collapses_duplicates():
    basis = orthonormalize([np.eye(2), np.eye(2)])
    assert basis.shape == (1, 2, 2)
    assert np.allclose(np.abs(basis[0]), np.eye(2) / np.sqrt(2))


def test_orthonormalize_spans_diagonal_algebra():
    basis = orthonormalize([SIGMA_Z, np.diag([1.0, 0.0])])
    assert basis.shape[0] == 2


def test_orthonormalize_zero_matrix():
    assert orthonormalize([np.zeros((2, 2))]).shape[0] == 0


def test_orthonormalize_gram_identity_and_idempotence():
    rng = np.random.default_rng(17)
    mats = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    basis = orthonormalize(mats)
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    assert np.allclose(gram, np.eye(basis.shape[0]), atol=1e-12)
    again = orthonormalize(basis)
    assert again.shape == basis.shape
    # same span: mutual projection leaves no residual
    coeffs = np.einsum("aij,bij->ab", again.conj(), basis)
    assert np.allclose(coeffs.conj().T @ coeffs, np.eye(basis.shape[0]), atol=1e-10)


def test_nullspace_identity_and_zero():
    assert nullspace(np.eye(3)).shape == (3, 0)
    assert nullspace(np.zeros((3, 3))).shape == (3, 1) or nullspace(np.zeros((3, 3))).shape[1] == 3


def test_nullspace_of_commutator_map_of_sigma_z():
    # matrices commuting with sigma_z are the diagonal ones, a 2-dim space
    eye = np.eye(2)
    m = np.kron(SIGMA_Z.T, eye) - np.kron(eye, SIGMA_Z)
    basis = nullspace(m)
    assert basis.shape == (4, 2)
    for j in range(2):
        mat = unvec(basis[:, j], 2)
        assert abs(mat[0, 1]) < 1e-12 and abs(mat[1, 0]) < 1e-12


def test_haar_unitary_is_unitary():
    u = haar_unitary(4, RandomSeed(42))
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_haar_unitary_dimension_one():
    u = haar_unitary(1, RandomSeed(0))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_reproducible():
    a = haar_unitary(3, RandomSeed(7, 5))
    b = haar_unitary(3, RandomSeed(7, 5))
    assert np.array_equal(a, b)
    c = haar_unitary(3, RandomSeed(7, 6))
    assert not np.allclose(a, c)


@pytest.mark.parametrize(
    "seed,stream",
    [(-1, 0), (2**64, 0), (True, 0), (1.0, 0), ("1", 0), (None, 0), (1, -1), (1, False),
     (np.int64(-2), 0)],
    ids=repr,
)
def test_random_seed_refuses_non_uint64(seed, stream):
    with pytest.raises(ShapeError):
        RandomSeed(seed, stream)


def test_random_seed_covers_exactly_uint64():
    top = RandomSeed(np.uint64(2**64 - 1), 2**64 - 1)
    assert haar_unitary(2, top).shape == (2, 2)
    with pytest.raises(ShapeError):
        RandomSeed(0, 2**64 - 1).child(1)


def test_haar_moment_first_entry():
    # E |U_00|^2 = 1/d; at d=2 the law of |U_00|^2 is uniform, variance 1/12
    n = 2000
    vals = np.array([abs(haar_unitary(2, RandomSeed(123, i))[0, 0]) ** 2 for i in range(n)])
    stderr = np.sqrt(1.0 / 12.0 / n)
    assert abs(vals.mean() - 0.5) < 4 * stderr


def test_gaussian_variates_moments():
    z = gaussian_variates(20000, RandomSeed(9))
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05


def test_swap_operator_properties():
    s = swap_operator(2)
    e01 = np.zeros(4)
    e01[1] = 1.0  # |0,1>
    assert np.allclose(s @ e01, np.eye(4)[2])  # |1,0>
    assert np.allclose(s @ s, np.eye(4))
    assert is_hermitian(s) and is_unitary(s)
    assert np.trace(s) == pytest.approx(2.0)


def test_swap_conjugation_exchanges_factors():
    rng = np.random.default_rng(19)
    s = swap_operator(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(s @ np.kron(a, b) @ s, np.kron(b, a))


def test_permute_factors_roundtrip():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    y = permute_factors(x, [2, 3, 2], [1, 0, 2])
    a, b = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2))
    assert np.allclose(
        permute_factors(np.kron(a, np.kron(b, c)), [2, 3, 2], [1, 0, 2]),
        np.kron(b, np.kron(a, c)),
    )
    assert np.allclose(permute_factors(y, [3, 2, 2], [1, 0, 2]), x)


def test_predicates():
    proj = np.diag([1.0, 0.0])
    assert is_projection(proj)
    assert is_hermitian(proj)
    assert not is_projection(0.5 * np.eye(2) + 0.1 * SIGMA_X @ np.diag([1, 2]))
    assert not is_unitary(np.diag([1.0, 0.5]))


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(matrix_from_json(matrix_to_json(m)), m)


@pytest.mark.parametrize(
    "bad",
    [
        {"dim": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]},  # ragged
        {"dim": 3, "entries": [[[1, 0]] * 3] * 2},  # not square
        {"dim": 2, "entries": [[[1, 0], "x"], [[0, 0], [1, 0]]]},  # bad cell
        {"entries": []},
        {"dim": 0, "entries": []},
        {"dim": 1, "entries": [[[float("nan"), 0]]]},  # json parses NaN
        {"dim": 1, "entries": [[[1, float("-inf")]]]},  # and -Infinity
        {"dim": 1, "entries": [[[10**400, 0]]]},  # overflows a double
    ],
)
def test_matrix_json_rejects_malformed(bad):
    with pytest.raises(ShapeError):
        matrix_from_json(bad)


@pytest.mark.parametrize("dim", [True, 2.5, "2", None, 10**400])
def test_matrix_json_dim_must_be_positive_integer(dim):
    with pytest.raises(ShapeError):
        matrix_from_json({"dim": dim, "entries": [[[1, 0]]]})


def test_matrix_json_accepts_integral_float_dim():
    assert matrix_from_json({"dim": 1.0, "entries": [[[2, 0]]]}).shape == (1, 1)
