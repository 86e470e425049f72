"""Infinite-time averages of the anti-correlator under Hamiltonian evolution.

For ``U_t = exp(-i H t)`` the anti-correlator, written in the energy
eigenframe, oscillates only at the gaps ``E_i - E_j``.  Its exact
infinite-time average therefore keeps one term per class of equal gaps,
for any spectrum.  When the spectrum satisfies the non-resonance condition
(NRC: non-degenerate eigenvalues with non-degenerate gaps) it reduces to a
formula in two Gram matrices built from the projected eigenprojectors.
Collinear algebra pairs additionally admit an upper bound whose saturation
is witnessed by the eigenstates being fully scrambled by both conditional
expectations.  Only the time grids build the real ``d^2 x d^2`` spectral
kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import OperatorAlgebra, _positive_int
from .errors import DomainError, ShapeError, UndefinedMetricError, ValidationError
from .gaac import upper_bound
from .haar import haar_average_analytic
from .operator_space import (
    ASSERT_TOL,
    RandomSeed,
    as_operator,
    ginibre,
    group_by_gaps,
    hs_norm,
    is_finite_real,
    is_hermitian,
    matrix_from_json,
)

#: Relative tolerance for grouping eigenvalues and gaps.
RESONANCE_TOL = 1e-9
#: Relative gaps in (RESONANCE_TOL, NEAR_RESONANCE_TOL] trigger a warning,
#: since the infinite-time limit is discontinuous across a resonance.
NEAR_RESONANCE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    """Hermitian generator with its spectral data and resonance structure.

    ``resonance_classes`` partitions the flat eigenstate index pairs
    ``i*d + j`` by the gap ``E_i - E_j`` at the grouping tolerance, one index
    array per class in ascending order of the gap.  ``nrc`` is set when the
    spectrum is non-degenerate and every nonzero gap is alone in its class,
    so there are ``d^2 - d + 1`` classes.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    resonance_classes: tuple[np.ndarray, ...]
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


def analyze_hamiltonian(h) -> HamiltonianModel:
    """Eigendecompose a hermitian matrix and group its gaps into classes.

    Eigenvalues and the ``d^2`` gaps ``E_i - E_j`` are grouped at
    ``RESONANCE_TOL * (E_max - E_min)``.  Neighbouring gap classes closer
    than ``NEAR_RESONANCE_TOL`` of that range are reported with a warning,
    counting each ``(w, -w)`` pair once, because the infinite-time average is
    discontinuous there.
    """
    h = as_operator(h, "hamiltonian")
    if not is_hermitian(h):
        raise ValidationError("hamiltonian is not hermitian at tolerance")
    evals, evecs = np.linalg.eigh(h)
    d = h.shape[0]
    spread = float(evals[-1] - evals[0])
    thresh = RESONANCE_TOL * spread
    degenerate = len(group_by_gaps(evals, thresh)) < d

    gaps = np.subtract.outer(evals, evals).ravel()
    classes = tuple(group_by_gaps(gaps, thresh))

    if spread > 0:
        # classes come in ascending order and mirror under w -> -w; the top
        # member of the zero class is >= 0 even when that class is widened
        reps = gaps[[c[-1] for c in classes]]
        steps = np.diff(reps[reps >= 0]) / spread
        near = steps[(steps > RESONANCE_TOL) & (steps <= NEAR_RESONANCE_TOL)]
        if near.size:
            warnings.warn(
                f"{near.size} near-resonant gap(s) within "
                f"({RESONANCE_TOL:g}, {NEAR_RESONANCE_TOL:g}] "
                "of the spectral range; the infinite-time average is unstable there",
                stacklevel=2,
            )

    nrc = not degenerate and len(classes) == d * d - d + 1
    return HamiltonianModel(
        matrix=h,
        eigenvalues=evals,
        eigenvectors=evecs,
        resonance_classes=classes,
        nrc=nrc,
        degenerate=degenerate,
    )


def _basis_in_eigenframe(basis: np.ndarray, model: HamiltonianModel) -> np.ndarray:
    if basis.shape[-1] != model.matrix.shape[0]:
        raise ShapeError("hamiltonian and algebra dimensions do not match")
    v = model.eigenvectors
    return v.conj().T @ basis @ v


def r_matrices(alg: OperatorAlgebra, model: HamiltonianModel) -> RMatrices:
    """Gram matrices of the commutant-projected eigen-dyads and projectors.

    For degenerate spectra these depend on the eigenbasis chosen inside each
    degenerate subspace; the exact spectral route is authoritative there.
    """
    rotated = _basis_in_eigenframe(alg.basis_aprime, model)
    r0 = np.einsum("glk,glk->lk", rotated, rotated.conj()).real
    diags = np.diagonal(rotated, axis1=1, axis2=2)  # (dim A', d)
    r1 = np.einsum("gl,gk->lk", diags, diags.conj()).real
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


def _grid_values(
    alg: OperatorAlgebra, model: HamiltonianModel, horizon: float, points: int
) -> np.ndarray:
    """``G(U_t) = 1 - <phi_t, K phi_t>`` with ``(phi_t)_ij = exp(-i (E_i - E_j) t)``
    at ``t = j*horizon/points``, ``j = 1..points``, in chunks of about 2^20 phases.

    ``K = |M^dag M|^2 / dim A'`` (entrywise) is the real ``d^2 x d^2`` spectral
    kernel, with the rows of ``M`` the commutant basis in the energy
    eigenframe, flattened."""
    if horizon <= 0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    if points < 1:
        raise ValidationError(f"need at least one grid point, got {points}")
    m = _basis_in_eigenframe(alg.basis_aprime, model).reshape(alg.dim_aprime, -1)
    kernel = np.abs(m.conj().T @ m) ** 2 / alg.dim_aprime
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

    ``1 - sum_w ||M_w^dag M_w||_F^2 / dim A'``, where the columns of ``M_w``
    are the entries ``ij`` of the commutant basis, in the energy eigenframe,
    whose gap lies in the class ``w`` of ``model.resonance_classes``.  Whole
    classes make the result independent of the eigenbasis inside degenerate
    eigenspaces.  ``O(dim A' d^2)`` memory; a class of ``n`` members costs
    ``O(dim A' n min(n, dim A'))`` time, so an NRC spectrum costs
    ``O(dim A' d^2)``.  No ``d^2 x d^2`` array is formed.
    """
    m = _basis_in_eigenframe(alg.basis_aprime, model).reshape(alg.dim_aprime, -1)
    classes = model.resonance_classes
    # a singleton class {ij} contributes (sum_g |M_g[ij]|^2)^2
    singles = [c[0] for c in classes if c.size == 1]
    total = float(np.sum(np.sum(np.abs(m[:, singles]) ** 2, axis=0) ** 2))
    for c in classes:
        if c.size > 1:
            sub = m[:, c]
            gram = sub @ sub.conj().T if c.size > sub.shape[0] else sub.conj().T @ sub
            total += float(np.sum(np.abs(gram) ** 2))
    return 1.0 - total / alg.dim_aprime


def evolution(model: HamiltonianModel, t: float) -> np.ndarray:
    """Unitary ``exp(-i H t)`` from the spectral data."""
    v = model.eigenvectors
    phases = np.exp(-1j * model.eigenvalues * t)
    return (v * phases) @ v.conj().T


def default_horizon(model: HamiltonianModel) -> float:
    """``200 / (smallest distinct eigenvalue gap)``, or 1 for flat spectra."""
    evals = model.eigenvalues
    spread = float(evals[-1] - evals[0])
    if spread == 0:
        return 1.0
    groups = group_by_gaps(evals, RESONANCE_TOL * spread)
    reps = np.sort([evals[g[0]] for g in groups])
    if reps.size < 2:
        return 1.0
    return 200.0 / float(np.min(np.diff(reps)))


def grid_time_average(
    alg: OperatorAlgebra, model: HamiltonianModel, horizon: float, points: int
) -> float:
    """Sampled time average of the anti-correlator at ``t = j*horizon/points``.

    A quadrature that converges to the exact infinite-time average as the
    horizon and point count grow; the ``j = 0`` endpoint is excluded since
    the anti-correlator vanishes there and would bias short averages.
    """
    return float(np.mean(_grid_values(alg, model, horizon, points)))


def nrc_upper_bound(alg: OperatorAlgebra) -> float:
    """Upper bound on the formula value for collinear pairs,
    ``1 - 1/dim A' - 1/dim A + 1/(d dim A')``."""
    if not alg.blocks.collinear:
        raise DomainError("the infinite-time bound is derived for collinear pairs only")
    return 1.0 - 1.0 / alg.dim_aprime - 1.0 / alg.dim_a + 1.0 / (alg.dim * alg.dim_aprime)


def scrambling_witness(alg: OperatorAlgebra, model: HamiltonianModel) -> float:
    """Largest distance of a projected eigenprojector from the maximally
    mixed state, over both sides; zero certifies saturation of the
    infinite-time bound.

    ``1/d`` lies in both A and A', so ``P(|l><l|) - 1/d`` has coefficients
    ``conj(<l|f_g|l> - Tr(f_g)/d)`` on an orthonormal basis ``{f_g}``.  Taking
    the difference entrywise, not as ``r1[l, l] - 1/d``, keeps the result at
    rounding level when the bound is saturated.
    """
    worst = 0.0
    for basis in (alg.basis_aprime, alg.basis_a):
        diags = np.diagonal(_basis_in_eigenframe(basis, model), axis1=1, axis2=2)
        traces = np.trace(basis, axis1=1, axis2=2)[:, None] / alg.dim
        worst = max(worst, float(np.max(np.linalg.norm(diags - traces, axis=0))))
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
    groups = group_by_gaps(evals, RESONANCE_TOL * spread)
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
    mean = time_average_exact(alg, model)
    span = horizon if horizon is not None else default_horizon(model)
    values = _grid_values(alg, model, span, points)
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


def hamiltonian_from_json(obj) -> HamiltonianModel:
    """Parse a Hamiltonian spec: a full hermitian matrix, an
    eigenvalue/eigenvector pair, or the ensemble shorthand
    ``{"gue": d, "seed": s}``."""
    if not isinstance(obj, dict):
        raise ShapeError("hamiltonian spec must be a JSON object")
    if "gue" in obj:
        d = _positive_int(obj["gue"], "gue")
        if "seed" not in obj:
            raise ShapeError("ensemble shorthand requires a 'seed'")
        return analyze_hamiltonian(gue_hamiltonian(d, RandomSeed(obj["seed"])))
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
        return analyze_hamiltonian(h)
    return analyze_hamiltonian(matrix_from_json(obj))
