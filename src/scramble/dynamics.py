"""Infinite-time averages of the anti-correlator under Hamiltonian evolution.

For ``U_t = exp(-i H t)`` the infinite-time average of the anti-correlator
has an exact spectral expression; when the spectrum satisfies the
non-resonance condition (NRC: non-degenerate eigenvalues with non-degenerate
gaps) it reduces to a formula in two Gram matrices built from the projected
eigenprojectors.  Collinear algebra pairs additionally admit an upper bound
whose saturation is witnessed by the eigenstates being fully scrambled by
both conditional expectations.  The exact average and the time grids share
one real spectral kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import OperatorAlgebra, project_onto
from .errors import DomainError, ShapeError, UndefinedMetricError, ValidationError
from .gaac import upper_bound
from .haar import haar_average_analytic
from .operator_space import (
    ASSERT_TOL,
    RandomSeed,
    as_operator,
    ginibre,
    hs_norm,
    is_finite_real,
    is_hermitian,
    matrix_from_json,
)

#: Relative tolerance for grouping eigenvalue pair sums into resonance classes.
RESONANCE_TOL = 1e-9
#: Relative gaps in (RESONANCE_TOL, NEAR_RESONANCE_TOL] trigger a warning,
#: since the infinite-time limit is discontinuous across a resonance.
NEAR_RESONANCE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    """Hermitian generator with its spectral data and resonance structure.

    ``resonance_classes`` partitions the ordered eigenstate index pairs
    ``(k, h)`` by the value ``E_k + E_h`` at the grouping tolerance; ``nrc``
    is set when every class is ``{(k, h), (h, k)}`` or a diagonal singleton,
    which requires a non-degenerate spectrum with non-degenerate gaps.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    resonance_classes: tuple[tuple[tuple[int, int], ...], ...]
    nrc: bool
    degenerate: bool


@dataclass(frozen=True, eq=False)
class RMatrices:
    """Gram matrices of projected eigen-dyads and eigenprojectors.

    ``r0[l, k]`` is the squared norm of the projected dyad ``|l><k|`` and
    ``r1[l, k]`` the overlap of the projected eigenprojectors; both are
    symmetric, entrywise nonnegative, share their diagonal, and ``r1`` has
    unit row sums (it is bistochastic).
    """

    r0: np.ndarray
    r1: np.ndarray


@dataclass(frozen=True)
class FluctuationRow:
    epsilon: float
    frequency: float
    markov_bound: float


def _group_by_gaps(values: np.ndarray, thresh: float) -> list[list[int]]:
    order = np.argsort(values)
    groups = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] > thresh:
            groups.append([int(idx)])
        else:
            groups[-1].append(int(idx))
    return groups


def analyze_hamiltonian(h, tol_rel: float = RESONANCE_TOL) -> HamiltonianModel:
    """Eigendecompose a hermitian matrix and classify its resonances.

    Pair sums ``E_k + E_h`` are grouped at ``tol_rel * (E_max - E_min)``.
    Near-resonant gaps just above the grouping tolerance are reported with a
    warning because the infinite-time average is discontinuous there.
    """
    h = as_operator(h, "hamiltonian")
    if not is_hermitian(h):
        raise ValidationError("hamiltonian is not hermitian at tolerance")
    evals, evecs = np.linalg.eigh(h)
    d = h.shape[0]
    spread = float(evals[-1] - evals[0])
    thresh = tol_rel * spread

    degenerate = any(
        len(g) > 1 for g in _group_by_gaps(evals, thresh)
    ) if d > 1 else False

    pairs = [(k, hh) for k in range(d) for hh in range(d)]
    sums = np.array([evals[k] + evals[hh] for k, hh in pairs])
    groups = _group_by_gaps(sums, thresh)
    classes = tuple(tuple(pairs[i] for i in sorted(g)) for g in groups)

    if spread > 0:
        reps = np.sort([sums[g[0]] for g in groups])
        gaps = np.diff(reps) / spread
        near = gaps[(gaps > tol_rel) & (gaps <= NEAR_RESONANCE_TOL)]
        if near.size:
            warnings.warn(
              f"{near.size} near-resonant gap(s) within ({tol_rel:g}, {NEAR_RESONANCE_TOL:g}] "
                "of the spectral range; the infinite-time average is unstable there",
                stacklevel=2,
            )

    nrc = not degenerate and all(
        (len(c) == 1 and c[0][0] == c[0][1])
        or (len(c) == 2 and c[0] == (c[1][1], c[1][0]))
        for c in classes
    )
    return HamiltonianModel(
        matrix=h,
        eigenvalues=evals,
        eigenvectors=evecs,
        resonance_classes=classes,
        nrc=nrc,
        degenerate=degenerate,
    )


def _basis_in_eigenframe(basis: np.ndarray, model: HamiltonianModel) -> np.ndarray:
    v = model.eigenvectors
    return v.conj().T @ basis @ v


def _r1_for_basis(basis: np.ndarray, model: HamiltonianModel) -> np.ndarray:
    rotated = _basis_in_eigenframe(basis, model)
    diags = np.diagonal(rotated, axis1=1, axis2=2)  # (k_basis, d)
    return np.einsum("gl,gk->lk", diags, diags.conj()).real


def r_matrices(alg: OperatorAlgebra, model: HamiltonianModel) -> RMatrices:
    """Gram matrices of the commutant-projected eigen-dyads and projectors.

    For degenerate spectra these depend on the eigenbasis chosen inside each
    degenerate subspace; the exact spectral route is authoritative there.
    """
    if model.matrix.shape[0] != alg.dim:
        raise ShapeError("hamiltonian and algebra dimensions do not match")
    rotated = _basis_in_eigenframe(alg.basis_aprime, model)
    r0 = np.einsum("glk,glk->lk", rotated, rotated.conj()).real
    r1 = _r1_for_basis(alg.basis_aprime, model)
    return RMatrices(r0=r0, r1=r1)


def time_average_nrc(alg: OperatorAlgebra, model: HamiltonianModel) -> float:
    """Formula value of the infinite-time average from the Gram matrices.

    Computable for any spectrum; it equals the true infinite-time average
    exactly when ``model.nrc`` holds.
    """
    mats = r_matrices(alg, model)
    total = 0.0
    for r in (mats.r0, mats.r1):
        total += float(np.sum(r**2)) - 0.5 * float(np.sum(np.diagonal(r) ** 2))
    return 1.0 - total / alg.dim_aprime


def _spectral_kernel(alg: OperatorAlgebra, model: HamiltonianModel) -> np.ndarray:
    """Real ``d^2 x d^2`` kernel ``K = |M^dag M|^2 / dim A'`` (entrywise), with
    the rows of ``M`` the commutant basis in the energy eigenframe, flattened."""
    if model.matrix.shape[0] != alg.dim:
        raise ShapeError("hamiltonian and algebra dimensions do not match")
    m = _basis_in_eigenframe(alg.basis_aprime, model).reshape(alg.dim_aprime, -1)
    return np.abs(m.conj().T @ m) ** 2 / alg.dim_aprime


def _kernel_time_average(kernel: np.ndarray, model: HamiltonianModel) -> float:
    # K[ij, kl] carries the phase exp(-i (E_i + E_l - E_k - E_j) t), which
    # survives the average exactly when (i, l) and (k, j) share a class
    d = model.eigenvalues.size
    label = np.empty((d, d), dtype=np.intp)
    for c, cls in enumerate(model.resonance_classes):
        label[tuple(np.array(cls).T)] = c
    same = label[:, None, None, :] == label.T[None, :, :, None]
    return 1.0 - float(np.sum(kernel.reshape(d, d, d, d), where=same))


def _kernel_values(
    kernel: np.ndarray, model: HamiltonianModel, horizon: float, points: int
) -> np.ndarray:
    """``G(U_t) = 1 - <phi_t, K phi_t>`` with ``(phi_t)_ij = exp(-i (E_i - E_j) t)``
    at ``t = j*horizon/points``, ``j = 1..points``, in chunks of about 2^20 phases."""
    if horizon <= 0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    if points < 1:
        raise ValidationError(f"need at least one grid point, got {points}")
    times = horizon * np.arange(1, points + 1) / points
    gaps = np.subtract.outer(model.eigenvalues, model.eigenvalues).ravel()
    chunk = max(1, 2**20 // gaps.size)
    quad = np.zeros(times.size)
    for start in range(0, times.size, chunk):
        arg = np.outer(times[start : start + chunk], gaps)
        # K is real symmetric, so <phi, K phi> = cos.K.cos + sin.K.sin
        for part in (np.cos(arg), np.sin(arg)):
            quad[start : start + chunk] += np.einsum("tk,tk->t", part, part @ kernel)
    return 1.0 - quad


def time_average_exact(alg: OperatorAlgebra, model: HamiltonianModel) -> float:
    """Exact infinite-time average for any spectrum, degenerate or resonant.

    Sums the spectral kernel within ``model.resonance_classes``; whole classes
    make the result independent of the eigenbasis inside degenerate
    eigenspaces.  ``O(dim A' d^4)`` time, ``O(d^4)`` memory, no dimension cap.
    """
    return _kernel_time_average(_spectral_kernel(alg, model), model)


def time_average_collinear(
    alg: OperatorAlgebra, model: HamiltonianModel, swap_roles: bool = False
) -> float:
    """Symmetric form of the formula value for collinear pairs.

    The two bistochastic-Gram terms weigh the algebra and commutant sides
    symmetrically; ``swap_roles`` moves the diagonal correction to the other
    side, which must not change the value.
    """
    if not alg.blocks.collinear:
        raise DomainError("collinear form requires a collinear algebra pair")
    r1_ap = _r1_for_basis(alg.basis_aprime, model)
    r1_a = _r1_for_basis(alg.basis_a, model)
    ka, kp = alg.dim_a, alg.dim_aprime
    diag = (
        float(np.sum(np.diagonal(r1_a) ** 2)) / ka
        if swap_roles
        else float(np.sum(np.diagonal(r1_ap) ** 2)) / kp
    )
    return 1.0 - float(np.sum(r1_a**2)) / ka - float(np.sum(r1_ap**2)) / kp + diag


def evolution(model: HamiltonianModel, t: float) -> np.ndarray:
    """Unitary ``exp(-i H t)`` from the spectral data."""
    v = model.eigenvectors
    phases = np.exp(-1j * model.eigenvalues * t)
    return (v * phases) @ v.conj().T


def default_horizon(model: HamiltonianModel, factor: float = 200.0) -> float:
    """``factor / (smallest distinct eigenvalue gap)``, or 1 for flat spectra."""
    evals = model.eigenvalues
    spread = float(evals[-1] - evals[0])
    if spread == 0:
        return 1.0
    groups = _group_by_gaps(evals, RESONANCE_TOL * spread)
    reps = np.sort([evals[g[0]] for g in groups])
    if reps.size < 2:
        return 1.0
    return factor / float(np.min(np.diff(reps)))


def grid_time_average(
    alg: OperatorAlgebra, model: HamiltonianModel, horizon: float, points: int
) -> float:
    """Sampled time average of the anti-correlator at ``t = j*horizon/points``.

    An independent quadrature oracle that converges to the exact
    infinite-time average as the horizon and point count grow; the ``j = 0``
    endpoint is excluded since the anti-correlator vanishes there and would
    bias short averages.
    """
    return float(np.mean(_kernel_values(_spectral_kernel(alg, model), model, horizon, points)))


def nrc_upper_bound(alg: OperatorAlgebra) -> float:
    """Upper bound on the formula value for collinear pairs,
    ``1 - 1/dim A' - 1/dim A + 1/(d dim A')``."""
    if not alg.blocks.collinear:
        raise DomainError("the infinite-time bound is derived for collinear pairs only")
    return 1.0 - 1.0 / alg.dim_aprime - 1.0 / alg.dim_a + 1.0 / (alg.dim * alg.dim_aprime)


def scrambling_witness(alg: OperatorAlgebra, model: HamiltonianModel) -> float:
    """Largest distance of a projected eigenprojector from the maximally
    mixed state, over both sides; zero certifies saturation of the
    infinite-time bound."""
    if model.matrix.shape[0] != alg.dim:
        raise ShapeError("hamiltonian and algebra dimensions do not match")
    d = alg.dim
    v = model.eigenvectors
    mixed = np.eye(d, dtype=complex) / d
    worst = 0.0
    for l in range(d):
        dyad = np.outer(v[:, l], v[:, l].conj())
        for basis in (alg.basis_aprime, alg.basis_a):
            worst = max(worst, hs_norm(project_onto(basis, dyad) - mixed))
    return worst


def chaoticity(alg: OperatorAlgebra, model: HamiltonianModel) -> float:
    """Relative gap between the infinite-time and Haar averages,
    ``1 - mean_t / mean_Haar``."""
    mean_haar = haar_average_analytic(alg)
    if mean_haar == 0.0:
        raise UndefinedMetricError(
            "Haar mean vanishes for this algebra; the chaoticity ratio is undefined"
        )
    return 1.0 - time_average_exact(alg, model) / mean_haar


def dephased_state_purity(model: HamiltonianModel, psi) -> float:
    """Purity of the state dephased in the energy eigenbasis.

    Uses distinct-eigenvalue projectors, so degenerate spectra are handled
    exactly.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != model.matrix.shape[0]:
        raise ShapeError("state and hamiltonian dimensions do not match")
    if abs(np.linalg.norm(psi) - 1.0) > ASSERT_TOL:
        raise ValidationError("state must be normalized")
    evals = model.eigenvalues
    spread = float(evals[-1] - evals[0])
    groups = _group_by_gaps(evals, RESONANCE_TOL * spread)
    rho = np.outer(psi, psi.conj())
    purity = 0.0
    for g in groups:
        cols = model.eigenvectors[:, g]
        proj = cols @ cols.conj().T
        purity += hs_norm(proj @ rho @ proj) ** 2
    return purity


def fluctuation_scan(
    alg: OperatorAlgebra,
    model: HamiltonianModel,
    epsilons,
    horizon: float | None = None,
    points: int = 400,
) -> list[FluctuationRow]:
    """Empirical tail frequencies of ``G_UB - G(U_t) >= eps`` on a time grid.

    Each row carries the explicit Markov ratio ``(G_UB - mean_t) / eps``,
    with ``mean_t`` the exact infinite-time average at every dimension; at
    desk dimensions the ratio is often vacuous and is reported as-is.
    """
    if not alg.blocks.collinear:
        raise DomainError("fluctuation bounds are derived for collinear pairs only")
    gub = upper_bound(alg)
    kernel = _spectral_kernel(alg, model)
    mean = _kernel_time_average(kernel, model)
    span = horizon if horizon is not None else default_horizon(model)
    values = _kernel_values(kernel, model, span, points)
    rows = []
    for eps in epsilons:
        eps = float(eps)
        if eps <= 0:
            raise ValidationError(f"epsilon must be positive, got {eps}")
        freq = float(np.mean(gub - values >= eps))
        rows.append(FluctuationRow(epsilon=eps, frequency=freq, markov_bound=(gub - mean) / eps))
    return rows


def gue_hamiltonian(d: int, seed: RandomSeed) -> np.ndarray:
    """Gaussian-unitary-ensemble draw ``(G + G^dag)/2`` from a Ginibre matrix."""
    g = ginibre(d, seed)
    return (g + g.conj().T) / 2.0


def hamiltonian_from_json(obj, tol_rel: float = RESONANCE_TOL) -> HamiltonianModel:
    """Parse a Hamiltonian spec: a full hermitian matrix, an
    eigenvalue/eigenvector pair, or the ensemble shorthand
    ``{"gue": d, "seed": s}``."""
    if not isinstance(obj, dict):
        raise ShapeError("hamiltonian spec must be a JSON object")
    if "gue" in obj:
        d = obj["gue"]
        if not isinstance(d, int) or d < 1:
            raise ShapeError(f"'gue' must be a positive integer dimension, got {d!r}")
        if "seed" not in obj or not isinstance(obj["seed"], int):
            raise ShapeError("ensemble shorthand requires an integer 'seed'")
        return analyze_hamiltonian(gue_hamiltonian(d, RandomSeed(obj["seed"])), tol_rel)
    if "eigenvalues" in obj:
        evals = obj["eigenvalues"]
        if not isinstance(evals, list) or not all(is_finite_real(e) for e in evals):
            raise ShapeError("'eigenvalues' must be a list of finite real numbers")
        if "eigenvectors" not in obj:
            raise ShapeError("eigenvalue form requires 'eigenvectors'")
        vmat = matrix_from_json(obj["eigenvectors"])
        if vmat.shape[0] != len(evals):
            raise ShapeError("eigenvalue count does not match eigenvector matrix size")
        if np.max(np.abs(vmat.conj().T @ vmat - np.eye(len(evals)))) > ASSERT_TOL:
            raise ValidationError("'eigenvectors' matrix is not unitary at tolerance")
        h = (vmat * np.asarray(evals, dtype=float)) @ vmat.conj().T
        return analyze_hamiltonian(h, tol_rel)
    return analyze_hamiltonian(matrix_from_json(obj), tol_rel)
