"""Haar-typical values of the anti-correlator: analytic mean, Monte-Carlo
estimation and concentration scans."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import AlgebraDescriptor, OperatorAlgebra, build_algebra
from .errors import ValidationError
from .gaac import _realigned_sums, upper_bound
from .operator_space import CHUNK_ENTRIES, RandomSeed, haar_unitary


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


def _sample_values(alg: OperatorAlgebra, n: int, seed: RandomSeed) -> np.ndarray:
    """Anti-correlators of the ``n`` Haar unitaries ``haar_unitary(d, seed.child(i))``,
    in chunks of about ``CHUNK_ENTRIES`` entries of sampled unitaries, so a
    chunk of samples shares one batched realignment while memory stays
    bounded."""
    d = alg.dim
    chunk = max(1, CHUNK_ENTRIES // (d * d))
    totals = [
        _realigned_sums(
            alg,
            np.stack([haar_unitary(d, seed.child(i)) for i in range(lo, min(n, lo + chunk))]),
            residual=False,
        )[0]
        for lo in range(0, n, chunk)
    ]
    return 1.0 - np.concatenate(totals) / alg.dim_aprime


def haar_average_mc(alg: OperatorAlgebra, n: int, seed: RandomSeed) -> HaarSummary:
    """Sample mean and standard deviation of the anti-correlator over ``n``
    independent Haar unitaries.

    Sample ``i`` is ``haar_unitary(d, seed.child(i))``, so results are
    deterministic for a given seed.  Each sample costs one QR of a d x d
    Ginibre matrix, two d x d products into the block frame and the
    realigned Gram matrices of ``gaac``, batched over chunks of samples; no
    commutant basis is read.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")
    values = _sample_values(alg, n, seed)
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
) -> list[ScanRow]:
    """Monte-Carlo mean, spread and bound gap across a family of algebras.

    Streams are partitioned so each algebra consumes a disjoint block of
    ``n`` sample indices.
    """
    rows = []
    for index, desc in enumerate(descriptors):
        alg = build_algebra(desc)
        summary = haar_average_mc(alg, n, seed.child(index * n))
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
