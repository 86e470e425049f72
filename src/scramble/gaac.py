"""Geometric algebra anti-correlator (GAAC) of unitary channels.

For an algebra with commutant basis ``{f_g}`` and a unitary ``U``, the
anti-correlator is

    G = 1 - (1 / dim A') * sum_{g,h} |<f_g, U f_h U^dag>|^2,

the normalized anti-overlap between the commutant's superprojector and its
unitarily evolved image.  ``G`` vanishes exactly when the channel leaves
both the algebra and its commutant invariant, and is bounded by
``min(1 - 1/dim A, 1 - 1/dim A')``.

The production route works in the algebra's block frame ``V`` (see
``OperatorAlgebra.block_frame``), where ``V^dag A V = ⊕_J 1_{n_J} (x) M_{d_J}``.
With ``W = V^dag U V`` and ``R_JK`` its ``(n_J d_J, n_K d_K)`` block realigned
to an ``(n_J n_K, d_J d_K)`` matrix,

    G = 1 - (1 / dim A') * sum_{J,K} ||R_JK R_JK^dag||_F^2 / (d_J d_K),

the paper's unification of the averaged bipartite OTOC and operator
entanglement: with one block it is the operator-entanglement formula.  The
same Gram matrices give the saturation residual.  Closed forms cover five
named physical situations (bipartite averaged OTOC, coherence generating
power, symmetric-operator and swap-group algebras, and the Loschmidt echo).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import OperatorAlgebra
from .errors import ShapeError, ValidationError
from .operator_space import (
    as_operator,
    hs_inner,
    is_unitary,
    permute_factors,
    positive_int,
    swap_operator,
)

CLOSED_FORM_CASES = ("bipartite_otoc", "cgp", "symmetric", "z2", "loschmidt")


@dataclass(frozen=True)
class GaacReport:
    """Anti-correlator value with its bound, saturation diagnostic and provenance.

    ``saturation_residual`` is the Hilbert-Schmidt distance of the
    commutant-compressed channel from full depolarization (see
    ``saturation_residual``), whose vanishing certifies bound saturation when
    ``dim A' <= dim A`` (and, by collinearity, with the roles swapped).
    """

    value: float
    route: str  # always "realignment", the one production route
    upper_bound: float
    saturation_residual: float


@dataclass(frozen=True)
class ClosedFormCase:
    """Named closed-form situation with its case-specific parameters."""

    case: str
    params: dict = field(default_factory=dict)

    @classmethod
    def bipartite_otoc(cls, dim_a: int, dim_b: int) -> "ClosedFormCase":
        da, db = positive_int(dim_a, "dim_a"), positive_int(dim_b, "dim_b")
        return cls("bipartite_otoc", {"dim_a": da, "dim_b": db})

    @classmethod
    def cgp(cls, dim: int) -> "ClosedFormCase":
        return cls("cgp", {"dim": positive_int(dim, "dim")})

    @classmethod
    def symmetric(cls, local_dim: int) -> "ClosedFormCase":
        return cls("symmetric", {"local_dim": positive_int(local_dim, "local_dim")})

    @classmethod
    def z2(cls, local_dim: int) -> "ClosedFormCase":
        return cls("z2", {"local_dim": positive_int(local_dim, "local_dim")})

    @classmethod
    def loschmidt(cls, state) -> "ClosedFormCase":
        psi = np.asarray(state, dtype=complex).reshape(-1)
        return cls("loschmidt", {"state": psi})


def _validate_unitary(u, d: int | None = None) -> np.ndarray:
    u = as_operator(u, "unitary")
    if d is not None and u.shape[0] != d:
        raise ShapeError(f"unitary dimension {u.shape[0]} does not match algebra dimension {d}")
    if not is_unitary(u):
        raise ValidationError("matrix is not unitary at tolerance")
    return u


def _realigned_sums(alg: OperatorAlgebra, u: np.ndarray, residual: bool):
    """``sum_JK ||R_JK R_JK^dag||_F^2 / (d_J d_K)`` and, when ``residual`` is
    set, the squared saturation residual, for ``u`` of shape ``(..., d, d)``.

    Blocks of one shape are stacked, so each pair of runs costs one batched
    realignment and one batched Gram product.  Each Gram is formed on its
    smaller side.  The overlap block of ``(J, K)`` is a reshuffle of
    ``R R^dag / sqrt(d_J d_K)`` and the depolarizer's block is ``c 1`` with
    ``c = sqrt(d_J d_K) / d``, so the residual adds ``||R R^dag - (d_J d_K / d) 1||^2
    / (d_J d_K)`` per block pair; on the ``d`` side ``R^dag R`` has the same
    nonzero spectrum, and the identity's ``n_J n_K - d_J d_K`` extra
    dimensions add ``c^2`` each.
    """
    frame = alg.block_frame
    v = frame.unitary
    w = v.conj().T @ u @ v
    lead = w.shape[:-2]
    axes = (*range(len(lead)), *(len(lead) + i for i in (0, 3, 1, 4, 2, 5)))
    total = np.zeros(lead)
    res_sq = np.zeros(lead)
    for r0, rm, rn, rd in frame.runs:
        for s0, sm, sn, sd in frame.runs:
            block = w[..., r0 : r0 + rm * rn * rd, s0 : s0 + sm * sn * sd]
            nn, dd = rn * sn, rd * sd
            r = block.reshape(*lead, rm, rn, rd, sm, sn, sd).transpose(axes)
            r = r.reshape(*lead, rm, sm, nn, dd)
            rh = r.conj().swapaxes(-1, -2)
            gram = r @ rh if nn <= dd else rh @ r
            total += np.sum(np.abs(gram) ** 2, axis=(-4, -3, -2, -1)) / dd
            if residual:
                diag = np.arange(gram.shape[-1])
                gram[..., diag, diag] -= dd / alg.dim
                res_sq += np.sum(np.abs(gram) ** 2, axis=(-4, -3, -2, -1)) / dd
                if nn > dd:
                    res_sq += rm * sm * (nn - dd) * dd / alg.dim**2
    return total, res_sq


def upper_bound(alg: OperatorAlgebra) -> float:
    """``min(1 - 1/dim A, 1 - 1/dim A')``."""
    return min(1.0 - 1.0 / alg.dim_a, 1.0 - 1.0 / alg.dim_aprime)


def saturation_residual(alg: OperatorAlgebra, u) -> float:
    """Distance of the commutant-compressed channel from full depolarization.

    Returns ``|| P U_sup P - T ||_HS`` where ``P`` projects onto the
    commutant and ``T`` sends every operator to ``Tr(X) 1/d``; zero
    certifies saturation of the upper bound when ``dim A' <= dim A``.
    Computed from the realigned Gram matrices in the block frame, without a
    superoperator or a dimension cap.  Its square equals ``dim A' (1 - G) - 1``,
    but the root of that difference is only good to about ``sqrt(dim A' eps)``,
    so the Gram matrices are compared with the depolarizer explicitly.
    """
    u = _validate_unitary(u, alg.dim)
    _, res_sq = _realigned_sums(alg, u, residual=True)
    return float(np.sqrt(res_sq))


def gaac(alg: OperatorAlgebra, u) -> GaacReport:
    """Anti-correlator of the channel ``X -> U X U^dag`` by realignment in the
    block frame, with the saturation residual read off the same Gram matrices."""
    u = _validate_unitary(u, alg.dim)
    total, res_sq = _realigned_sums(alg, u, residual=True)
    return GaacReport(
        value=1.0 - float(total) / alg.dim_aprime,
        route="realignment",
        upper_bound=upper_bound(alg),
        saturation_residual=float(np.sqrt(res_sq)),
    )


def bipartite_swap(dim_a: int, dim_b: int) -> np.ndarray:
    """Swap of the two A factors inside ``(H_A (x) H_B)^(x2)``."""
    da, db = int(dim_a), int(dim_b)
    base = np.kron(swap_operator(da), np.eye(db * db))
    # factor order of `base` is (A1, A2, B1, B2); interleave back to (A1, B1, A2, B2)
    return permute_factors(base, [da, da, db, db], [0, 2, 1, 3])


def closed_form(case: ClosedFormCase, u) -> float:
    """Evaluate the closed formula for one of the five named situations."""
    u = as_operator(u, "unitary")
    kind = case.case
    if kind == "bipartite_otoc":
        da, db = int(case.params["dim_a"]), int(case.params["dim_b"])
        d = da * db
        if u.shape[0] != d:
            raise ShapeError(f"unitary dimension {u.shape[0]} != {da}x{db}")
        s_aa = bipartite_swap(da, db)
        doubled = np.kron(u, u)
        return 1.0 - hs_inner(s_aa, doubled @ s_aa @ doubled.conj().T).real / d**2
    if kind == "cgp":
        d = int(case.params["dim"])
        if u.shape[0] != d:
            raise ShapeError(f"unitary dimension {u.shape[0]} != {d}")
        return 1.0 - float(np.sum(np.abs(u) ** 4)) / d
    if kind in ("symmetric", "z2"):
        local = int(case.params["local_dim"])
        if u.shape[0] != local * local:
            raise ShapeError(f"unitary dimension {u.shape[0]} != {local}^2")
        s = swap_operator(local)
        overlap = hs_inner(s, u @ s @ u.conj().T)
        if kind == "symmetric":
            return 0.5 * (1.0 - abs((1.0 - overlap) / (local**2 - 1)) ** 2)
        return 0.5 * (local**4 - abs(overlap) ** 2) / (local**2 * (local**2 + 1))
    if kind == "loschmidt":
        psi = np.asarray(case.params["state"], dtype=complex).reshape(-1)
        d = psi.size
        if u.shape[0] != d:
            raise ShapeError(f"unitary dimension {u.shape[0]} != state dimension {d}")
        echo_sq = abs(np.vdot(psi, u @ psi)) ** 2
        return 2.0 * (1.0 - echo_sq) * (d - 2.0 * (1.0 - echo_sq)) / ((d - 1) ** 2 + 1)
    raise ShapeError(f"unknown closed-form case {kind!r}")
