"""Haar-typical values of the anti-correlator: analytic mean, Monte-Carlo
estimation and concentration scans."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import AlgebraDescriptor, OperatorAlgebra, build_algebra, omega_operators
from .errors import ResourceError, ValidationError
from .gaac import SUPERPROJECTOR_CAP, _overlaps, _two_point_value, upper_bound
from .operator_space import RandomSeed, haar_unitary, hs_inner, swap_operator


@dataclass(frozen=True)
class HaarSummary:
    """Analytic mean next to a seeded Monte-Carlo estimate."""

    analytic_mean: float
    mc_mean: float
    mc_std: float
    samples: int
    seed: RandomSeed


@dataclass(frozen=True)
class ScanRow:
    """One dimension of a concentration scan."""

    dim: int
    dim_aprime: int
    analytic: float
    mc_mean: float
    mc_std: float
    samples: int
    bound_gap: float


def haar_average_analytic(alg: OperatorAlgebra) -> float:
    """Mean anti-correlator over Haar-random unitaries,
    ``(d^2 - k')(k' - 1) / (k' (d^2 - 1))`` with ``k' = dim A'``."""
    d = alg.dim
    if d == 1:
        return 0.0
    k = alg.dim_aprime
    return (d * d - k) * (k - 1) / (k * (d * d - 1))


def haar_twirl_oracle(alg: OperatorAlgebra, cap: int = SUPERPROJECTOR_CAP) -> float:
    """Independent route to the Haar mean via the two-term twirl.

    Averaging the doubled channel projects onto the span of the identity and
    the swap with weights ``1/(d(d+-1))``; the mean anti-correlator follows
    from the overlaps of the doubled-space carrier with that span.
    """
    d = alg.dim
    if d == 1:
        return 0.0
    if d > cap:
        raise ResourceError(f"dimension {d} exceeds cap {cap} for the twirl oracle")
    omega = omega_operators(alg).omega
    t_id = float(np.trace(omega).real)
    t_swap = hs_inner(swap_operator(d), omega).real
    twirled = 0.5 * sum(
        abs(t_id + sign * t_swap) ** 2 / (d * (d + sign)) for sign in (+1, -1)
    )
    return 1.0 - twirled / alg.dim_aprime


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("SCRAMBLE_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def haar_average_mc(
    alg: OperatorAlgebra,
    n: int,
    seed: RandomSeed,
    workers: int | None = None,
) -> HaarSummary:
    """Sample mean and standard deviation of the anti-correlator over ``n``
    independent Haar unitaries.

    Sample ``i`` uses stream ``seed.stream + i``, so results are
    deterministic for a given seed and independent of the worker count.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")

    def one(i: int) -> float:
        u = haar_unitary(alg.dim, seed.child(i))
        return _two_point_value(_overlaps(alg, u))

    count = _worker_count(workers)
    if count > 1:
        with ThreadPoolExecutor(max_workers=count) as pool:
            values = np.fromiter(pool.map(one, range(n)), dtype=float, count=n)
    else:
        values = np.fromiter((one(i) for i in range(n)), dtype=float, count=n)
    return HaarSummary(
        analytic_mean=haar_average_analytic(alg),
        mc_mean=float(np.mean(values)),
        mc_std=float(np.std(values, ddof=1)),
        samples=n,
        seed=seed,
    )


def concentration_scan(
    descriptors: Iterable[AlgebraDescriptor] | Sequence[AlgebraDescriptor],
    n: int,
    seed: RandomSeed,
    workers: int | None = None,
) -> list[ScanRow]:
    """Monte-Carlo mean, spread and bound gap across a family of algebras.

    Streams are partitioned so each algebra consumes a disjoint block of
    ``n`` sample indices.
    """
    rows = []
    for index, desc in enumerate(descriptors):
        alg = build_algebra(desc)
        summary = haar_average_mc(alg, n, seed.child(index * n), workers=workers)
        rows.append(
            ScanRow(
                dim=alg.dim,
                dim_aprime=alg.dim_aprime,
                analytic=summary.analytic_mean,
                mc_mean=summary.mc_mean,
                mc_std=summary.mc_std,
                samples=n,
                bound_gap=upper_bound(alg) - summary.mc_mean,
            )
        )
    return rows
