"""Dense complex-matrix substrate shared by all higher modules.

Operators are plain complex ``numpy`` arrays of shape ``(d, d)``.  The
Hilbert-Schmidt scalar product ``<A, B> = Tr(A^dag B)`` makes the operator
space a d^2-dimensional Hilbert space.  Vectorization is column-stacking
(Fortran order) throughout, so ``vec(A X B) = kron(B.T, A) @ vec(X)``;
commutant solving depends on this convention.

Rank and subspace decisions use the relative singular-value threshold
``RANK_TOL``; end-to-end equality checks use the looser ``ASSERT_TOL``.
Inputs whose working set would exceed ``MEMORY_BUDGET`` bytes are refused
(``require_memory``) before anything of their size is allocated.
Random sampling draws Gaussian variates by Box-Muller from a seeded
counter-based (Philox) generator, so every ``(seed, stream)`` pair maps to
one reproducible draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ShapeError, ValidationError

#: Relative singular-value threshold for rank and subspace decisions.
RANK_TOL = 1e-10
#: Looser tolerance for end-to-end equality assertions.
ASSERT_TOL = 1e-8
#: Largest working set, in bytes, that one input may need (4 GiB).
MEMORY_BUDGET = 2**32
#: Complex entries per chunk of a batched or streamed computation (4 MB).
CHUNK_ENTRIES = 2**18


def require_memory(estimate: int, what: str) -> None:
    """Refuse, with ``ShapeError``, an input whose working set ``estimate``
    (bytes) exceeds ``MEMORY_BUDGET``; callers check before they allocate."""
    if estimate > MEMORY_BUDGET:
        raise ShapeError(
            f"{what} needs about {estimate:,} bytes, above the memory budget of "
            f"{MEMORY_BUDGET:,} bytes"
        )


def as_operator(x, name: str = "operator") -> np.ndarray:
    """Coerce ``x`` to a square complex matrix, raising ``ShapeError`` otherwise."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ShapeError(f"{name} must be a nonempty square matrix, got shape {arr.shape}")
    return arr


def is_hermitian(a, tol: float = ASSERT_TOL) -> bool:
    a = as_operator(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_unitary(a, tol: float = ASSERT_TOL) -> bool:
    a = as_operator(a)
    d = a.shape[0]
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(d))) <= tol)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt scalar product ``Tr(A^dag B)``."""
    a = as_operator(a, "A")
    b = as_operator(b, "B")
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a) -> float:
    a = as_operator(a)
    return float(np.sqrt(np.vdot(a, a).real))


def group_by_gaps(values: np.ndarray, thresh: float) -> list[np.ndarray]:
    """Indices of ``values`` in ascending order, split wherever two neighbours
    differ by more than ``thresh``.  Groups chain, so one group can span more
    than ``thresh``."""
    order = np.argsort(values)
    return np.split(order, np.flatnonzero(np.diff(values[order]) > thresh) + 1)


def _stack_vecs(mats: np.ndarray) -> np.ndarray:
    # rows = vec(mats[i]) in the column-stacking convention
    k, d, _ = mats.shape
    return mats.transpose(0, 2, 1).reshape(k, d * d)


def _unstack_vecs(flat: np.ndarray, d: int) -> np.ndarray:
    return flat.reshape(-1, d, d).transpose(0, 2, 1)


def _streamed_r(blocks: Iterable[np.ndarray], ncols: int) -> np.ndarray:
    """Triangular factor ``R`` of the row stack of ``blocks`` (each of shape
    ``(rows, ncols)``), folded in one block at a time.

    Sequential TSQR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput.
    34, 2012): ``R`` has the singular values and right singular vectors of
    the whole stack, but at most ``ncols`` rows, so only ``R`` and one block
    are ever held.  Callers size their blocks to about ``CHUNK_ENTRIES``.
    """
    r = np.zeros((0, ncols), dtype=complex)
    for block in blocks:
        r = np.linalg.qr(np.concatenate([r, block]), mode="r")
    return r


def _row_basis(rows: np.ndarray, d: int, tol: float) -> np.ndarray:
    """Orthonormal basis (shape ``(r, d, d)``) of the row space of column-stacked
    vectors, cut at ``tol * sigma_max``; a zero matrix gives an empty basis."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    smax = s[0] if s.size else 0.0
    r = int(np.count_nonzero(s > tol * smax)) if smax > 0 else 0
    return _unstack_vecs(vh[:r], d)


def orthonormalize(vectors, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (shape ``(r, d, d)``) of the span of the given matrices.

    Computed from a single singular-value decomposition of the stacked
    vectorized matrices, which is rank-revealing in one pass; ``r`` is the
    numerical rank at threshold ``tol * sigma_max``.  Empty input or a span
    of zero matrices yields an empty basis.
    """
    mats = [as_operator(m) for m in vectors]
    if not mats:
        return np.zeros((0, 0, 0), dtype=complex)
    d = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != d:
            raise ShapeError("all matrices must share one dimension")
    return _row_basis(_stack_vecs(np.stack(mats)), d, tol)


def nullspace(m, tol: float = RANK_TOL, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of ``{v : M v = 0}`` as columns of the returned array.

    Singular values at or below ``tol * sigma_max`` count as zero.  When the
    caller knows the natural scale of ``M`` (e.g. maps built from unit-norm
    operators), ``scale_floor`` guards the threshold against a matrix that is
    entirely rounding noise, for which the relative test would keep spurious
    directions.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    ncols = m.shape[1]
    if m.shape[0] == 0 or ncols == 0:
        return np.eye(ncols, dtype=complex)
    # the economy SVD already carries all ncols right singular vectors when
    # the matrix is tall; only a wide matrix needs the full factorization
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < ncols)
    smax = s[0] if s.size else 0.0
    thresh = tol * max(smax, scale_floor)
    null_rows = [i for i in range(ncols) if i >= s.size or s[i] <= thresh]
    return vh[null_rows].conj().T


@dataclass(frozen=True)
class RandomSeed:
    """Key for the counter-based generator; ``(seed, stream)`` pins one draw."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, np.integer))
                or not 0 <= value < 2**64
            ):
                raise ShapeError(f"{name} must be an integer in [0, 2**64), got {value!r}")

    def child(self, offset: int) -> "RandomSeed":
        return RandomSeed(self.seed, self.stream + offset)


def _generator(seed: RandomSeed) -> np.random.Generator:
    key = np.array([seed.seed, seed.stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_variates(n: int, seed: RandomSeed) -> np.ndarray:
    """``n`` standard normal variates via Box-Muller on Philox uniforms."""
    rng = _generator(seed)
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1], keeps the log finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:n]


def ginibre(d: int, seed: RandomSeed) -> np.ndarray:
    """Complex Ginibre matrix with standard-normal complex entries."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    z = gaussian_variates(2 * d * d, seed)
    return (z[: d * d] + 1j * z[d * d :]).reshape(d, d) / np.sqrt(2.0)


def haar_unitary(d: int, seed: RandomSeed) -> np.ndarray:
    """Haar-distributed ``d x d`` unitary.

    QR factorization of a complex Ginibre matrix, with the R diagonal
    rephased to unit modulus so the factorization is unique and the
    resulting distribution is exactly Haar.
    """
    g = ginibre(d, seed)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    mod = np.abs(diag)
    phases = np.where(mod > 0, diag / np.where(mod > 0, mod, 1.0), 1.0)
    return q * phases


def swap_operator(d: int) -> np.ndarray:
    """Swap ``S|i,j> = |j,i>`` on ``C^d (x) C^d``; hermitian, unitary, S^2 = 1."""
    if d < 1:
        raise ValidationError(f"local dimension must be >= 1, got {d}")
    return np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)


def is_finite_real(value) -> bool:
    """Whether a parsed JSON value is an int or float with a finite double value
    (``json`` accepts ``NaN`` and ``Infinity``)."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


def positive_int(value, key: str) -> int:
    """Integer parameter ``key`` as a Python ``int``; accepts integral floats
    and refuses a missing value (``None``), bools, strings, fractions and
    values below 1 with ``ShapeError``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float, np.integer))
        or value % 1 != 0  # also refuses NaN and infinities, and cannot overflow
        or value < 1
    ):
        raise ShapeError(f"'{key}' must be a positive integer, got {value!r}")
    return int(value)


def matrix_to_json(a) -> dict:
    """Matrix as ``{"dim": d, "entries": [[[re, im], ...], ...]}`` (row-major)."""
    a = as_operator(a)
    d = a.shape[0]
    entries = [[[float(a[i, j].real), float(a[i, j].imag)] for j in range(d)] for i in range(d)]
    return {"dim": d, "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix JSON format, rejecting non-square or ragged arrays."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ShapeError("matrix object must have 'dim' and 'entries'")
    d = positive_int(obj["dim"], "dim")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != d:
        raise ShapeError(f"'entries' must be a list of {d} rows")
    out = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != d:
            raise ShapeError(f"row {i} must be a list of {d} entries")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, (list, tuple))
                or len(cell) != 2
                or not all(is_finite_real(v) for v in cell)
            ):
                raise ShapeError(f"entry ({i},{j}) must be a [re, im] pair of finite numbers")
            out[i, j] = complex(cell[0], cell[1])
    return out
