"""Geometric algebra anti-correlator (GAAC) of unitary channels.

For an algebra with commutant basis ``{f_g}`` and a unitary ``U``, the
anti-correlator is

    G = 1 - (1 / dim A') * sum_{g,h} |<f_g, U f_h U^dag>|^2,

the normalized anti-overlap between the commutant's superprojector and its
unitarily evolved image.  ``G`` vanishes exactly when the channel leaves
both the algebra and its commutant invariant, and is bounded by
``min(1 - 1/dim A, 1 - 1/dim A')``.

The two-point overlap matrix gives both the value and the saturation
residual.  Closed forms cover five named physical situations (bipartite
averaged OTOC, coherence generating power, symmetric-operator and
swap-group algebras, and the Loschmidt echo).
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
    route: str
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


def _overlaps(alg: OperatorAlgebra, u: np.ndarray) -> np.ndarray:
    """Overlap matrix ``O_gh = <f_g, U f_h U^dag> = <f_g U, U f_h>`` over the
    commutant basis, as one (k', d^2) by (d^2, k') product."""
    basis = alg.basis_aprime
    k, d, _ = basis.shape
    left = (basis.reshape(k * d, d) @ u).reshape(k, -1)
    return left.conj() @ (u @ basis).reshape(k, -1).T


def _two_point_value(overlaps: np.ndarray) -> float:
    return 1.0 - float(np.vdot(overlaps, overlaps).real) / overlaps.shape[0]


def _residual_from_overlaps(alg: OperatorAlgebra, overlaps: np.ndarray) -> float:
    # 1/sqrt(d) lies in A' and is fixed by Ad_U, so the depolarizer restricted
    # to A' is the rank-one a a^dag with a_g = <f_g, 1/sqrt(d)>
    a = np.trace(alg.basis_aprime, axis1=1, axis2=2).conj() / np.sqrt(alg.dim)
    return float(np.linalg.norm(overlaps - np.outer(a, a.conj())))


def upper_bound(alg: OperatorAlgebra) -> float:
    """``min(1 - 1/dim A, 1 - 1/dim A')``."""
    return min(1.0 - 1.0 / alg.dim_a, 1.0 - 1.0 / alg.dim_aprime)


def saturation_residual(alg: OperatorAlgebra, u) -> float:
    """Distance of the commutant-compressed channel from full depolarization.

    Returns ``|| P U_sup P - T ||_HS`` where ``P`` projects onto the
    commutant and ``T`` sends every operator to ``Tr(X) 1/d``; zero
    certifies saturation of the upper bound when ``dim A' <= dim A``.
    Computed in the commutant basis, without a superoperator or a dimension
    cap; its square equals ``dim A' (1 - G) - 1``.
    """
    u = _validate_unitary(u, alg.dim)
    return _residual_from_overlaps(alg, _overlaps(alg, u))


def gaac(alg: OperatorAlgebra, u) -> GaacReport:
    """Anti-correlator of the channel ``X -> U X U^dag`` via the two-point route,
    with the saturation residual read off the same overlap matrix."""
    u = _validate_unitary(u, alg.dim)
    overlaps = _overlaps(alg, u)
    return GaacReport(
        value=_two_point_value(overlaps),
        route="two_point",
        upper_bound=upper_bound(alg),
        saturation_residual=_residual_from_overlaps(alg, overlaps),
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
