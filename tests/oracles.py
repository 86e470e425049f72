"""Reference routes for the production formulas in ``gaac`` and ``dynamics``.

Each oracle computes its quantity the long way, through a d^2 x d^2
superoperator or a per-time-point loop, independently of the overlap-matrix
residual and the spectral kernel it checks.
"""

from __future__ import annotations

import numpy as np

from scramble import (
    channel_matrix,
    evolution,
    gaac,
    omega_operators,
    superprojector_matrix,
    vec,
)


def omega_time_average(alg, model) -> float:
    """Exact infinite-time average from the doubled-space carrier: rotate
    ``Omega`` into the doubled eigenbasis and sum its squared entries inside
    each resonance class."""
    d = alg.dim
    w = np.kron(model.eigenvectors, model.eigenvectors)
    rotated = w.conj().T @ omega_operators(alg).omega @ w
    total = 0.0
    for cls in model.resonance_classes:
        idx = np.array([k * d + h for k, h in cls])
        total += float(np.sum(np.abs(rotated[np.ix_(idx, idx)]) ** 2))
    return 1.0 - total / alg.dim_aprime


def superprojector_residual(alg, u) -> float:
    """``|| P U_sup P - T ||_HS`` from the commutant superprojector ``P``."""
    d = alg.dim
    proj = superprojector_matrix(alg.basis_aprime, cap=d)
    ident = vec(np.eye(d, dtype=complex))
    depolarize = np.outer(ident, ident.conj()) / d
    return float(np.linalg.norm(proj @ channel_matrix(u) @ proj - depolarize))


def evolution_values(alg, model, horizon: float, points: int) -> np.ndarray:
    """``G(U_t)`` at ``t = j*horizon/points``, one ``evolution()`` per time."""
    times = horizon * np.arange(1, points + 1) / points
    return np.array([gaac(alg, evolution(model, t)).value for t in times])
