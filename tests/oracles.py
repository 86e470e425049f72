"""Reference routes for the production formulas in ``operator_space``,
``algebra``, ``gaac``, ``haar`` and ``dynamics``.

Each oracle computes its quantity the long way, through a d^2 x d^2
superoperator, a doubled-space carrier, an explicit block frame, the
commutant-basis overlap matrix, a projector stack, a one-shot stack of
commutator maps or products, an elementwise contraction, a per-time-point
loop, a pair-sum grouping of the spectrum or a second algebraic form,
independently of the production route it checks.  None of them has a
dimension cap; the superoperator, doubled-space and stacked routes hold d^4
or more complex numbers, so callers keep d small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from scramble import (
    RANK_TOL,
    evolution,
    gaac,
    hs_inner,
    hs_norm,
    nullspace,
    orthonormalize,
    project_onto,
    swap_operator,
)
from scramble.dynamics import RESONANCE_TOL
from scramble.errors import DecompositionError, DomainError, ShapeError
from scramble.operator_space import ASSERT_TOL, as_operator, group_by_gaps, is_hermitian

#: Philox key of the block-frame draws; fixed so the rotation is reproducible.
_ROTATION_KEY = np.array([0x5EEDB10C, 1000], dtype=np.uint64)


# ---------------------------------------------------------------- operator space


def vec(a) -> np.ndarray:
    """Column-stacking vectorization of a square matrix."""
    return as_operator(a).reshape(-1, order="F")


def unvec(v, d: int) -> np.ndarray:
    """Inverse of the column-stacking ``vec``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise ShapeError(f"vector of length {v.size} does not unstack to {d}x{d}")
    return v.reshape(d, d, order="F")


def partial_trace(x, factor_dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out the tensor factors of ``x`` not listed in ``keep``.

    ``factor_dims`` gives the dimension of each tensor factor, in order;
    their product must equal the dimension of ``x``.  Kept factors retain
    their original order in the result.  The trace is preserved:
    ``Tr(result) == Tr(x)``.
    """
    x = as_operator(x)
    dims = [int(f) for f in factor_dims]
    if any(f <= 0 for f in dims):
        raise ShapeError(f"factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != x.shape[0]:
        raise ShapeError(
            f"product of factor dims {dims} does not match operator dimension {x.shape[0]}"
        )
    kept = sorted(set(int(k) for k in keep))
    if not kept:
        raise ShapeError("empty keep set would reduce to a scalar; use the full trace instead")
    n = len(dims)
    if kept[0] < 0 or kept[-1] >= n:
        raise ShapeError(f"keep indices {kept} out of range for {n} factors")
    tensor = x.reshape(dims + dims)
    row = list(range(n))
    col = [n + f if f in kept else f for f in range(n)]
    out = [f for f in kept] + [n + f for f in kept]
    reduced = np.einsum(tensor, row + col, out)
    side = int(np.prod([dims[f] for f in kept]))
    return reduced.reshape(side, side)


def is_projection(a, tol: float = ASSERT_TOL) -> bool:
    a = as_operator(a)
    return is_hermitian(a, tol) and bool(np.max(np.abs(a @ a - a)) <= tol)


def permute_factors(x, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Operator ``x`` re-expressed after reordering tensor factors by ``perm``.

    ``perm[i]`` names the original factor placed at position ``i``; the map is
    the conjugation of ``x`` by the corresponding permutation of basis labels.
    """
    x = as_operator(x)
    dims = [int(f) for f in dims]
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ShapeError(f"perm {perm} is not a permutation of {n} factors")
    if int(np.prod(dims)) != x.shape[0]:
        raise ShapeError("factor dims do not match operator dimension")
    axes = list(perm) + [n + p for p in perm]
    total = x.shape[0]
    return x.reshape(dims + dims).transpose(axes).reshape(total, total)


def bipartite_swap(dim_a: int, dim_b: int) -> np.ndarray:
    """Swap of the two A factors inside ``(H_A (x) H_B)^(x2)``."""
    da, db = int(dim_a), int(dim_b)
    base = np.kron(swap_operator(da), np.eye(db * db))
    # factor order of `base` is (A1, A2, B1, B2); interleave back to (A1, B1, A2, B2)
    return permute_factors(base, [da, da, db, db], [0, 2, 1, 3])


def channel_matrix(u) -> np.ndarray:
    """Matrix of ``X -> U X U^dag`` in the column-stacking convention."""
    u = as_operator(u)
    return np.kron(u.conj(), u)


# ---------------------------------------------------------------- superoperators


def superprojector_matrix(basis) -> np.ndarray:
    """Matrix of ``X -> project_onto(basis, X)`` on the vectorized operator space.

    A hermitian idempotent of side ``d^2`` whose trace equals the basis
    cardinality.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 3:
        raise ShapeError("expected a basis array of shape (k, d, d)")
    d = basis.shape[-1]
    cols = np.stack([vec(b) for b in basis], axis=1) if basis.shape[0] else \
        np.zeros((d * d, 0), dtype=complex)
    return cols @ cols.conj().T


@dataclass(frozen=True, eq=False)
class OmegaPair:
    """Doubled-space carriers of the anti-correlator as operator overlaps.

    ``omega_tilde = sum_g f_g (x) f_g^dag`` over an orthonormal commutant
    basis (basis-independent), and ``omega = S omega_tilde`` where ``S`` is
    the swap on the doubled space.  Both have squared norm and trace tied to
    the commutant dimension.
    """

    omega: np.ndarray
    omega_tilde: np.ndarray


def omega_operators(alg) -> OmegaPair:
    """Doubled-space operators carrying the anti-correlator (see ``OmegaPair``)."""
    d = alg.dim
    omega_tilde = np.zeros((d * d, d * d), dtype=complex)
    for f in alg.basis_aprime:
        omega_tilde += np.kron(f, f.conj().T)
    omega = swap_operator(d) @ omega_tilde
    return OmegaPair(omega=omega, omega_tilde=omega_tilde)


# ---------------------------------------------------------------- block frame


def _restricted(basis: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.einsum("ji,kjl,lm->kim", cols.conj(), basis, cols)


def _random_hermitian_in_span(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    k = basis.shape[0]
    coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    m = np.einsum("k,kij->ij", coeffs, basis)
    return (m + m.conj().T) / 2.0


def _factorize_block(
    a_blk: np.ndarray, b_blk: np.ndarray, n: int, dj: int, rng: np.random.Generator
) -> np.ndarray:
    """Unitary on one block mapping it onto ``C^n (x) C^dj`` with the
    commutant factor first."""
    size = n * dj
    if size == 1:
        return np.ones((1, 1), dtype=complex)
    for _ in range(20):
        x = _random_hermitian_in_span(a_blk, rng)
        zc = _random_hermitian_in_span(b_blk, rng)
        xe, xv = np.linalg.eigh(x)
        ze, zv = np.linalg.eigh(zc)
        xgroups = group_by_gaps(xe, 1e-8 * max(float(xe[-1] - xe[0]), 1e-3))
        zgroups = group_by_gaps(ze, 1e-8 * max(float(ze[-1] - ze[0]), 1e-3))
        if len(xgroups) != dj or any(len(g) != n for g in xgroups):
            continue
        if len(zgroups) != n or any(len(g) != dj for g in zgroups):
            continue
        xproj = [xv[:, g] @ xv[:, g].conj().T for g in xgroups]
        zproj = [zv[:, g] @ zv[:, g].conj().T for g in zgroups]
        start = zproj[0] @ xproj[0]
        col = start[:, int(np.argmax(np.linalg.norm(start, axis=0)))]
        if np.linalg.norm(col) < 1e-8:
            continue
        e1 = col / np.linalg.norm(col)
        a_gen = np.einsum(
            "k,kij->ij", rng.standard_normal(a_blk.shape[0]) + 1j * rng.standard_normal(a_blk.shape[0]), a_blk
        )
        b_gen = np.einsum(
            "k,kij->ij", rng.standard_normal(b_blk.shape[0]) + 1j * rng.standard_normal(b_blk.shape[0]), b_blk
        )
        cols = np.zeros((size, size), dtype=complex)
        ok = True
        for p in range(n):
            for i in range(dj):
                w = zproj[p] @ b_gen @ xproj[i] @ a_gen @ e1
                norm = np.linalg.norm(w)
                if norm < 1e-8:
                    ok = False
                    break
                cols[:, p * dj + i] = w / norm
            if not ok:
                break
        if not ok:
            continue
        if np.max(np.abs(cols.conj().T @ cols - np.eye(size))) > 1e-8:
            continue
        return cols
    raise DecompositionError(f"failed to factorize a block of shape ({n}, {dj})")


def block_basis_rotation(alg) -> tuple[np.ndarray, list[slice]]:
    """Unitary ``W`` mapping the Hilbert space onto the stacked blocks.

    In the rotated frame each block occupies a contiguous slice and carries
    the product structure ``C^{n_J} (x) C^{d_J}`` (commutant factor first),
    so algebra elements become ``1 (x) Y`` and commutant elements ``Z (x) 1``
    blockwise.
    """
    rng = np.random.Generator(np.random.Philox(key=_ROTATION_KEY))
    d = alg.dim
    w = np.zeros((d, d), dtype=complex)
    slices = []
    offset = 0
    for (n, dj), proj in zip(alg.blocks.pairs, alg.center_projections):
        evals, evecs = np.linalg.eigh(proj)
        cols = evecs[:, evals > 0.5]
        a_blk = orthonormalize(_restricted(alg.basis_a, cols), RANK_TOL)
        b_blk = orthonormalize(_restricted(alg.basis_aprime, cols), RANK_TOL)
        local = _factorize_block(a_blk, b_blk, n, dj, rng)
        size = n * dj
        w[:, offset : offset + size] = cols @ local
        slices.append(slice(offset, offset + size))
        offset += size
    return w, slices


def structure_basis(alg) -> np.ndarray:
    """Orthogonal (not orthonormal) algebra basis ``(1/sqrt d_J) 1_n (x) |l><m|``
    expressed in the original frame via the block rotation."""
    w, slices = block_basis_rotation(alg)
    mats = []
    for (n, dj), sl in zip(alg.blocks.pairs, slices):
        wb = w[:, sl]
        for l in range(dj):
            for m in range(dj):
                unit = np.zeros((dj, dj), dtype=complex)
                unit[l, m] = 1.0
                local = np.kron(np.eye(n), unit) / np.sqrt(dj)
                mats.append(wb @ local @ wb.conj().T)
    return np.stack(mats)


# ---------------------------------------------------------------- GAAC and Haar


def gaac_omega_oracle(alg, u) -> float:
    """Anti-correlator from the doubled-space overlap
    ``1 - <Omega, U^(x2) Omega U^(x2)dag> / ||Omega||^2``."""
    omega = omega_operators(alg).omega
    doubled = np.kron(u, u)
    evolved = doubled @ omega @ doubled.conj().T
    return 1.0 - hs_inner(omega, evolved).real / alg.dim_aprime


def gaac_distance_oracle(alg, u) -> float:
    """Anti-correlator as the squared, normalized superprojector distance
    ``||P - P_U||^2 / (2 dim A')``."""
    proj = superprojector_matrix(alg.basis_aprime)
    proj_evolved = superprojector_matrix(u @ alg.basis_aprime @ u.conj().T)
    return float(np.linalg.norm(proj - proj_evolved) ** 2) / (2.0 * alg.dim_aprime)


def gaac_structure_oracle(alg, u) -> float:
    """Anti-correlator from the algebra-side two-point sum over the
    orthogonal structure basis ``(1/sqrt d_J) 1 (x) |l><m|``."""
    basis = structure_basis(alg)
    evolved = u @ basis @ u.conj().T
    overlaps = np.einsum("aij,bij->ab", basis.conj(), evolved)
    return 1.0 - float(np.sum(np.abs(overlaps) ** 2)) / alg.dim_aprime


def bipartite_otoc_doubled(dim_a: int, dim_b: int, u) -> float:
    """Averaged bipartite OTOC ``1 - <S_AA, (U (x) U) S_AA (U (x) U)^dag> / d^2``
    in the doubled space."""
    s_aa = bipartite_swap(dim_a, dim_b)
    doubled = np.kron(u, u)
    return 1.0 - hs_inner(s_aa, doubled @ s_aa @ doubled.conj().T).real / (dim_a * dim_b) ** 2


def haar_twirl_oracle(alg) -> float:
    """Haar mean via the two-term twirl.

    Averaging the doubled channel projects onto the span of the identity and
    the swap with weights ``1/(d(d+-1))``; the mean anti-correlator follows
    from the overlaps of the doubled-space carrier with that span.
    """
    d = alg.dim
    if d == 1:
        return 0.0
    omega = omega_operators(alg).omega
    t_id = float(np.trace(omega).real)
    t_swap = hs_inner(swap_operator(d), omega).real
    twirled = 0.5 * sum(
        abs(t_id + sign * t_swap) ** 2 / (d * (d + sign)) for sign in (+1, -1)
    )
    return 1.0 - twirled / alg.dim_aprime


def superprojector_residual(alg, u) -> float:
    """``|| P U_sup P - T ||_HS`` from the commutant superprojector ``P``."""
    d = alg.dim
    proj = superprojector_matrix(alg.basis_aprime)
    ident = vec(np.eye(d, dtype=complex))
    depolarize = np.outer(ident, ident.conj()) / d
    return float(np.linalg.norm(proj @ channel_matrix(u) @ proj - depolarize))


def _overlaps(alg, u) -> np.ndarray:
    """Overlap matrix ``O_gh = <f_g, U f_h U^dag> = <f_g U, U f_h>`` over the
    commutant basis, as one (k', d^2) by (d^2, k') product."""
    basis = alg.basis_aprime
    k, d, _ = basis.shape
    left = (basis.reshape(k * d, d) @ u).reshape(k, -1)
    return left.conj() @ (u @ basis).reshape(k, -1).T


def trace_vector(alg) -> np.ndarray:
    """``a_g = <f_g, 1/sqrt(d)>``: 1/sqrt(d) lies in A' and is fixed by Ad_U, so
    the depolarizer restricted to A' is the rank-one ``a a^dag``."""
    return np.trace(alg.basis_aprime, axis1=1, axis2=2).conj() / np.sqrt(alg.dim)


def _two_point_value(overlaps: np.ndarray) -> float:
    return 1.0 - float(np.vdot(overlaps, overlaps).real) / overlaps.shape[0]


def _residual_from_overlaps(alg, overlaps: np.ndarray) -> float:
    a = trace_vector(alg)
    return float(np.linalg.norm(overlaps - np.outer(a, a.conj())))


def overlaps_einsum(alg, u) -> np.ndarray:
    """``O_gh = <f_g, U f_h U^dag>`` by an elementwise contraction."""
    basis = alg.basis_aprime
    return np.einsum("aij,bij->ab", basis.conj(), u @ basis @ u.conj().T)


def center_projector_stack(basis_a, basis_ap, tol: float) -> np.ndarray:
    """Orthonormal basis of ``span A ∩ span A'`` as the joint nullspace of the
    stacked (2d^2, d^2) complement projectors."""
    d = basis_a.shape[-1]
    va = np.stack([vec(a) for a in basis_a], axis=1)
    vp = np.stack([vec(f) for f in basis_ap], axis=1)
    eye = np.eye(d * d)
    cols = nullspace(np.concatenate([eye - va @ va.conj().T, eye - vp @ vp.conj().T]), tol)
    return np.stack([cols[:, j].reshape(d, d, order="F") for j in range(cols.shape[1])])


def commutant_stack(alg_basis, tol: float = RANK_TOL) -> np.ndarray:
    """Commutant basis from one SVD of the stacked ``(k d^2, d^2)`` commutator
    maps ``kron(b.T, 1) - kron(1, b)``."""
    basis = np.asarray(alg_basis, dtype=complex)
    d = basis.shape[-1]
    eye = np.eye(d)
    stacked = np.concatenate([np.kron(b.T, eye) - np.kron(eye, b) for b in basis])
    cols = nullspace(stacked, tol, scale_floor=1.0)
    return np.stack([unvec(cols[:, j], d) for j in range(cols.shape[1])]) \
        if cols.shape[1] else np.zeros((0, d, d), dtype=complex)


def closure_stack(generators, tol: float = RANK_TOL) -> np.ndarray:
    """Span closure that orthonormalizes the basis with all ``k^2`` of its
    products in one stack per round."""
    mats = [as_operator(g) for g in generators]
    d = mats[0].shape[0]
    basis = orthonormalize(mats + [m.conj().T for m in mats] + [np.eye(d, dtype=complex)], tol)
    while True:
        products = np.einsum("aij,bjk->abik", basis, basis).reshape(-1, d, d)
        grown = orthonormalize(np.concatenate([basis, products]), tol)
        if grown.shape[0] == basis.shape[0]:
            return grown
        basis = grown


# ---------------------------------------------------------------- dynamics


def pair_sum_classes(model) -> list[np.ndarray]:
    """Flat indices ``k*d + h`` grouped by the pair sum ``E_k + E_h`` at the
    production grouping threshold.  ``E_i + E_l = E_k + E_j`` exactly when
    ``E_i - E_j = E_k - E_l``, so these are the gap classes found another way."""
    evals = model.eigenvalues
    sums = np.add.outer(evals, evals).ravel()
    return group_by_gaps(sums, RESONANCE_TOL * float(evals[-1] - evals[0]))


def pair_sum_nrc(model) -> bool:
    """NRC from the pair-sum classes: every class is ``{(k, h), (h, k)}`` or
    a diagonal singleton, on a non-degenerate spectrum."""
    d = model.eigenvalues.size
    pairs = [sorted(divmod(int(i), d) for i in c) for c in pair_sum_classes(model)]
    return not model.degenerate and all(
        (len(c) == 1 and c[0][0] == c[0][1]) or (len(c) == 2 and c[0] == c[1][::-1])
        for c in pairs
    )


def omega_time_average(alg, model) -> float:
    """Exact infinite-time average from the doubled-space carrier: rotate
    ``Omega`` into the doubled eigenbasis and sum its squared entries inside
    each pair-sum class."""
    w = np.kron(model.eigenvectors, model.eigenvectors)
    rotated = w.conj().T @ omega_operators(alg).omega @ w
    total = 0.0
    for idx in pair_sum_classes(model):
        total += float(np.sum(np.abs(rotated[np.ix_(idx, idx)]) ** 2))
    return 1.0 - total / alg.dim_aprime


def kernel_time_average(alg, model) -> float:
    """Exact infinite-time average from the real ``d^2 x d^2`` kernel
    ``K = |M^dag M|^2 / dim A'``, summed where ``(i, l)`` and ``(k, j)`` share a
    pair-sum class."""
    d = alg.dim
    v = model.eigenvectors
    m = (v.conj().T @ alg.basis_aprime @ v).reshape(alg.dim_aprime, -1)
    kernel = np.abs(m.conj().T @ m) ** 2 / alg.dim_aprime
    # K[ij, kl] carries the phase exp(-i (E_i + E_l - E_k - E_j) t), which
    # survives the average exactly when (i, l) and (k, j) share a class
    label = np.empty(d * d, dtype=np.intp)
    for c, idx in enumerate(pair_sum_classes(model)):
        label[idx] = c
    label = label.reshape(d, d)
    same = label[:, None, None, :] == label.T[None, :, :, None]
    return 1.0 - float(np.sum(kernel.reshape(d, d, d, d), where=same))


def _r1(basis, model) -> np.ndarray:
    v = model.eigenvectors
    diags = np.diagonal(v.conj().T @ basis @ v, axis1=1, axis2=2)
    return np.einsum("gl,gk->lk", diags, diags.conj()).real


def time_average_collinear(alg, model, swap_roles: bool = False) -> float:
    """Symmetric form of the NRC formula value for collinear pairs.

    The two bistochastic-Gram terms weigh the algebra and commutant sides
    symmetrically; ``swap_roles`` moves the diagonal correction to the other
    side, which must not change the value.
    """
    if not alg.blocks.collinear:
        raise DomainError("collinear form requires a collinear algebra pair")
    r1_ap = _r1(alg.basis_aprime, model)
    r1_a = _r1(alg.basis_a, model)
    ka, kp = alg.dim_a, alg.dim_aprime
    diag = (
        float(np.sum(np.diagonal(r1_a) ** 2)) / ka
        if swap_roles
        else float(np.sum(np.diagonal(r1_ap) ** 2)) / kp
    )
    return 1.0 - float(np.sum(r1_a**2)) / ka - float(np.sum(r1_ap**2)) / kp + diag


def evolution_values(alg, model, horizon: float, points: int) -> np.ndarray:
    """``G(U_t)`` at ``t = j*horizon/points``, one ``evolution()`` per time."""
    times = horizon * np.arange(1, points + 1) / points
    return np.array([gaac(alg, evolution(model, t)).value for t in times])


def witness_loop(alg, model) -> float:
    """Scrambling witness as ``max_l || P(|l><l|) - 1/d ||`` over both sides,
    one projected eigenprojector at a time."""
    d = alg.dim
    v = model.eigenvectors
    mixed = np.eye(d, dtype=complex) / d
    worst = 0.0
    for l in range(d):
        dyad = np.outer(v[:, l], v[:, l].conj())
        for basis in (alg.basis_aprime, alg.basis_a):
            worst = max(worst, hs_norm(project_onto(basis, dyad) - mixed))
    return worst
