"""Hermitian-closed unital operator algebras and their structure.

An algebra is represented by an orthonormal Hilbert-Schmidt basis of the
algebra itself, one of its commutant, the minimal central projections, and
the block structure: the Hilbert space splits into orthogonal blocks
``C^{n_J} (x) C^{d_J}`` (commutant factor first) on which the algebra acts
as ``1_{n_J} (x) L(C^{d_J})``.  Consequently ``d = sum n_J d_J``,
``dim A = sum d_J^2`` and ``dim A' = sum n_J^2``.

One route finds that structure: the block frame ``V`` with
``V^dag A V = ⊕_J 1_{n_J} (x) M_{d_J}`` is read off two random elements of
the algebra and certified against every basis element (``_block_frame``);
the central projections are ``V_J V_J^dag``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, groupby
from typing import Sequence

import numpy as np

from .errors import DecompositionError, ShapeError, ValidationError
from .operator_space import (
    ASSERT_TOL,
    CHUNK_ENTRIES,
    RANK_TOL,
    RandomSeed,
    as_operator,
    gaussian_variates,
    hs_norm,
    is_finite_real,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    orthonormalize,
    positive_int,
    require_memory,
    swap_operator,
    _row_basis,
    _stack_vecs,
    _streamed_r,
    _unstack_vecs,
)

#: Module seed of the random algebra elements that give the block frame;
#: fixed so decompositions are deterministic across runs.
_FRAME_SEED = RandomSeed(0x5EEDB10C, 2000)
_MAX_FRAME_ATTEMPTS = 4

ALGEBRA_KINDS = ("generators", "factor", "diagonal", "symmetric_swap", "group_z2", "loschmidt")


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Recipe for constructing a named or generator-defined algebra."""

    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def generators(cls, mats: Sequence) -> "AlgebraDescriptor":
        return cls("generators", {"generators": [np.asarray(m, dtype=complex) for m in mats]})

    @classmethod
    def factor(cls, dim_a: int, dim_b: int, side: str = "A") -> "AlgebraDescriptor":
        da, db = positive_int(dim_a, "dim_a"), positive_int(dim_b, "dim_b")
        return cls("factor", {"dim_a": da, "dim_b": db, "side": side})

    @classmethod
    def diagonal(cls, dim: int) -> "AlgebraDescriptor":
        return cls("diagonal", {"dim": positive_int(dim, "dim")})

    @classmethod
    def symmetric_swap(cls, local_dim: int) -> "AlgebraDescriptor":
        return cls("symmetric_swap", {"local_dim": positive_int(local_dim, "local_dim")})

    @classmethod
    def group_z2(cls, local_dim: int) -> "AlgebraDescriptor":
        return cls("group_z2", {"local_dim": positive_int(local_dim, "local_dim")})

    @classmethod
    def loschmidt(cls, state) -> "AlgebraDescriptor":
        psi = np.asarray(state, dtype=complex).reshape(-1)
        return cls("loschmidt", {"dim": psi.size, "state": psi})

    def to_json(self) -> dict:
        params = dict(self.params)
        if self.kind == "generators":
            params["generators"] = [matrix_to_json(g) for g in params["generators"]]
        elif self.kind == "loschmidt":
            psi = np.asarray(params["state"], dtype=complex).reshape(-1)
            params["state"] = [[float(c.real), float(c.imag)] for c in psi]
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj) -> "AlgebraDescriptor":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ShapeError("algebra descriptor must be an object with a 'kind'")
        kind = obj["kind"]
        if kind not in ALGEBRA_KINDS:
            raise ShapeError(f"unknown algebra kind {kind!r}")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ShapeError("descriptor 'params' must be an object")
        params = dict(params)
        if kind == "generators":
            gens = params.get("generators")
            if not isinstance(gens, list) or not gens:
                raise ShapeError("'generators' must be a nonempty list of matrices")
            params["generators"] = [matrix_from_json(g) for g in gens]
        elif kind == "loschmidt":
            state = params.get("state")
            if not isinstance(state, list) or not state:
                raise ShapeError("'state' must be a nonempty list of [re, im] pairs")
            if not all(
                isinstance(c, (list, tuple)) and len(c) == 2 and all(map(is_finite_real, c))
                for c in state
            ):
                raise ShapeError("'state' entries must be [re, im] pairs of finite numbers")
            psi = np.array([complex(c[0], c[1]) for c in state])
            params["state"] = psi
            params.setdefault("dim", psi.size)
        return cls(kind, params)


@dataclass(frozen=True)
class BlockStructure:
    """Multiset ``{(n_J, d_J)}`` of block dimensions with derived quantities.

    ``pairs`` is ordered by descending ``d_J``, then descending ``n_J``, then
    by the lowest eigenvalue, on the block, of the random hermitian element
    that gave the block frame, which makes reports stable across runs.
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return sum(n * dj for n, dj in self.pairs)

    @property
    def dim_a(self) -> int:
        return sum(dj * dj for _, dj in self.pairs)

    @property
    def dim_aprime(self) -> int:
        return sum(n * n for n, _ in self.pairs)

    @property
    def collinear(self) -> bool:
        ratios = {Fraction(dj, n) for n, dj in self.pairs}
        return len(ratios) == 1

    @property
    def lam(self) -> Fraction | None:
        """Ratio d_J / n_J, defined when the pair (A, A') is collinear."""
        ratios = {Fraction(dj, n) for n, dj in self.pairs}
        return next(iter(ratios)) if len(ratios) == 1 else None

    def fingerprint(self) -> str:
        text = f"{self.pairs!r}|{self.collinear}|{self.lam!r}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def swapped(self) -> "BlockStructure":
        pairs = sorted(((dj, n) for n, dj in self.pairs), key=lambda p: (-p[1], -p[0]))
        return BlockStructure(tuple(pairs))


@dataclass(frozen=True, eq=False)
class BlockFrame:
    """Unitary ``V`` with ``V^dag A V = ⊕_J 1_{n_J} (x) M_{d_J}``.

    The columns of block ``J`` are contiguous, in ``blocks.pairs`` order, and
    column ``a * d_J + i`` of a block carries commutant index ``a`` and algebra
    index ``i``.  ``runs`` lists the maximal runs of consecutive blocks of one
    shape as ``(first column, block count, n, d)``.
    """

    unitary: np.ndarray
    runs: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True, eq=False)
class OperatorAlgebra:
    """An algebra, its commutant, and the block decomposition they induce.

    ``basis_a`` and ``basis_aprime`` are orthonormal bases (arrays of shape
    ``(k, d, d)``); ``center_projections`` holds the minimal central
    projections, ordered like ``blocks.pairs``.  ``block_frame`` is set by
    ``build_algebra``, or derived from ``basis_a`` on first use.
    """

    dim: int
    basis_a: np.ndarray
    basis_aprime: np.ndarray
    center_projections: np.ndarray
    blocks: BlockStructure

    @property
    def dim_a(self) -> int:
        return self.basis_a.shape[0]

    @property
    def dim_aprime(self) -> int:
        return self.basis_aprime.shape[0]

    @functools.cached_property
    def block_frame(self) -> BlockFrame:
        """The frame ``V`` of ``basis_a`` (see ``BlockFrame``); refused when its
        block pattern is not ``blocks.pairs``."""
        blocks, frame = _block_frame(self.basis_a)
        if blocks.pairs != self.blocks.pairs:
            raise DecompositionError(
                f"the basis has the block pattern {blocks.pairs}, not {self.blocks.pairs}"
            )
        return frame


def algebra_closure(generators: Sequence, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the smallest unital *-closed algebra containing
    the generators.

    Seeds the span with the generators, their adjoints and the identity,
    then alternates pairwise products with re-orthonormalization until the
    rank is stationary; re-orthonormalizing every round prevents conditioning
    decay in long product chains.  A round folds the basis and its ``k^2``
    products, in chunks ``basis[s:s+step] x basis`` of about ``CHUNK_ENTRIES``
    entries, into a streamed R factor of at most ``d^2`` rows, and takes the
    new basis from one SVD of R with the ``tol * sigma_max`` cut of
    ``orthonormalize``: ``O(k^2 d^4)`` time and ``O(d^4)`` memory per round.
    """
    mats = [as_operator(g, "generator") for g in generators]
    if not mats:
        raise ShapeError("at least one generator is required")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != d:
            raise ShapeError("generators must share one dimension")
    seed = mats + [m.conj().T for m in mats] + [np.eye(d, dtype=complex)]
    basis = orthonormalize(seed, tol)
    while True:
        k = basis.shape[0]
        step = max(1, CHUNK_ENTRIES // (k * d * d))
        products = (
            _stack_vecs((basis[s : s + step, None] @ basis).reshape(-1, d, d))
            for s in range(0, k, step)
        )
        r = _streamed_r(chain([_stack_vecs(basis)], products), d * d)
        grown = _row_basis(r, d, tol)
        if grown.shape[0] == k:
            return grown
        basis = grown


def commutant(alg_basis, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of ``{X : [X, b] = 0 for every basis element b}``.

    The joint nullspace of the vectorized commutator maps ``X -> [X, b]``;
    in the column-stacking convention the map for ``b`` is
    ``kron(b.T, 1) - kron(1, b)``.  The ``k`` maps of ``d^2`` rows each are
    folded a few at a time (about ``CHUNK_ENTRIES`` entries per block) into a
    streamed ``(d^2, d^2)`` R factor, which has the singular values and right
    singular vectors of their ``(k d^2, d^2)`` stack; the stack is never
    formed.  ``O(k d^6)`` time and ``16 d^4`` bytes for R.
    """
    basis = np.asarray(alg_basis, dtype=complex)
    if basis.ndim != 3 or basis.shape[0] == 0:
        raise ShapeError("commutant needs a nonempty basis of square matrices")
    d = basis.shape[-1]
    eye = np.eye(d)
    step = max(1, CHUNK_ENTRIES // d**4)
    maps = (
        np.concatenate([np.kron(b.T, eye) - np.kron(eye, b) for b in basis[s : s + step]])
        for s in range(0, basis.shape[0], step)
    )
    # basis elements are unit norm, so the maps either vanish (everything
    # commutes) or have O(1) leading singular value; the floor keeps a
    # noise-level R from masquerading as a proper commutator map
    cols = nullspace(_streamed_r(maps, d * d), tol, scale_floor=1.0)
    return _unstack_vecs(cols.T, d)


def project_onto(basis, x) -> np.ndarray:
    """Orthogonal projection of ``x`` onto the span of an orthonormal basis."""
    basis = np.asarray(basis, dtype=complex)
    x = as_operator(x)
    if basis.ndim != 3 or basis.shape[-1] != x.shape[0]:
        raise ShapeError("basis and operator dimensions do not match")
    coeffs = np.einsum("kij,ij->k", basis.conj(), x)
    return np.einsum("k,kij->ij", coeffs, basis)


def _align_block(cols: np.ndarray, zb: np.ndarray, n: int, dj: int) -> np.ndarray | None:
    """One block's columns in ``C^n (x) C^dj`` order (column ``a * dj + i``:
    commutant index ``a``, algebra index ``i``), or ``None`` for a draw that is
    not generic enough.

    ``cols`` holds the block's ``dj`` levels ``E_i`` of ``y = 1 (x) Y``, ``n``
    eigenvectors each, so ``E_i = C^n (x) |i>`` up to a unitary ``X_i``; ``zb``
    is ``z`` in those columns.  ``E_1^dag z E_i = Z_1i X_1^dag X_i`` is a multiple
    of a unitary, and ``E_i (E_1^dag z E_i)^dag`` rotates ``E_i`` onto ``X_1``.
    """
    spaces = cols.reshape(-1, dj, n).transpose(1, 0, 2)  # E_i, shape (dj, d, n)
    links = zb.reshape(dj, n, dj, n)[0, :, 1:].transpose(1, 0, 2)  # E_1^dag z E_i, i >= 2
    scales = np.sqrt(np.einsum("iab,iab->i", links.conj(), links).real / n)
    if not np.all(scales > 1e-6 * np.linalg.norm(zb)):
        return None
    links /= scales[:, None, None]
    aligned = np.concatenate([spaces[:1], spaces[1:] @ links.conj().swapaxes(1, 2)])
    return aligned.transpose(1, 2, 0).reshape(-1, n * dj)


def _frame_residual(basis_a: np.ndarray, v: np.ndarray, pairs) -> float:
    """Largest distance of ``V^dag b V`` from ``⊕_J 1_{n_J} (x) M_J`` over the
    basis, ``M_J`` the mean of block ``J``'s diagonal sub-blocks; ``O(k d^3)``."""
    d = v.shape[0]
    step = max(1, CHUNK_ENTRIES // (d * d))
    worst = 0.0
    for s in range(0, basis_a.shape[0], step):
        w = v.conj().T @ basis_a[s : s + step] @ v
        offset = 0
        for n, dj in pairs:
            view = w[:, offset : offset + n * dj, offset : offset + n * dj]
            mean = np.einsum("kaiaj->kij", view.reshape(-1, n, dj, n, dj)) / n
            view -= np.einsum("ab,kij->kaibj", np.eye(n), mean).reshape(view.shape)
            offset += n * dj
        worst = max(worst, float(np.max(np.linalg.norm(w, axis=(1, 2)))))
    return worst


def _frame_from_draw(basis_a: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Block pattern and frame read off one hermitian ``y`` and one ``z`` of the
    algebra, or ``None`` when the draw does not certify."""
    d = y.shape[0]
    evals, evecs = np.linalg.eigh(y)
    # levels split at 1e-8 of the spread, floored at the RMS eigenvalue scale
    # so a flat spectrum (a trivial algebra) groups rounding noise as one level
    rms = float(np.linalg.norm(evals)) / np.sqrt(d)
    thresh = 1e-8 * max(float(evals[-1] - evals[0]), rms)
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(evals) > thresh) + 1, [d]])
    sizes = np.diff(bounds)
    coupled = evecs.conj().T @ z @ evecs
    # weight[p, q] = ||E_p^dag z E_q||_F^2; z couples only levels of one block
    weight = np.add.reduceat(np.abs(coupled) ** 2, bounds[:-1], axis=0)
    weight = np.add.reduceat(weight, bounds[:-1], axis=1)
    linked = weight + weight.T > (1e-6 * np.linalg.norm(z)) ** 2
    np.fill_diagonal(linked, True)
    for _ in range(sizes.size.bit_length()):  # until linked holds every chain
        linked = linked @ linked
    label = np.argmax(linked, axis=1)  # the lowest level of each level's block
    blocks = []
    for root in np.flatnonzero(label == np.arange(sizes.size)):
        members = np.flatnonzero(label == root)
        n, dj = int(sizes[root]), members.size
        if np.any(sizes[members] != n):
            return None
        cols = np.concatenate([np.arange(bounds[p], bounds[p + 1]) for p in members])
        rotated = _align_block(evecs[:, cols], coupled[np.ix_(cols, cols)], n, dj)
        if rotated is None:
            return None
        blocks.append(((n, dj), rotated))
    # stable, so blocks of one shape keep the order of their lowest level
    blocks.sort(key=lambda b: (-b[0][1], -b[0][0]))
    pairs = tuple(pair for pair, _ in blocks)
    v = np.concatenate([cols for _, cols in blocks], axis=1)
    unitary_err = np.max(np.abs(v.conj().T @ v - np.eye(d)))
    if unitary_err > ASSERT_TOL or _frame_residual(basis_a, v, pairs) > ASSERT_TOL:
        return None
    runs, start = [], 0
    for (n, dj), run in groupby(pairs):
        count = len(list(run))
        runs.append((start, count, n, dj))
        start += count * n * dj
    v.setflags(write=False)
    return BlockStructure(pairs), BlockFrame(unitary=v, runs=tuple(runs))


def _block_frame(basis_a) -> tuple[BlockStructure, BlockFrame]:
    """Block pattern of the algebra spanned by ``basis_a`` and its frame ``V``.

    After Murota, Kanno, Kojima & Kojima (Japan J. Indust. Appl. Math. 27,
    2010): the eigenvalue levels of a random hermitian ``y`` of the span,
    grouped at ``1e-8`` relative, are joined into blocks wherever a random
    ``z`` couples them (``E^dag z E`` in ``y``'s eigenbasis), and ``z``'s
    intertwiners align each block's levels.  The draw is certified when ``V``
    is unitary and every basis element is ``1_{n_J} (x) M`` on each block and
    zero off them, within ``ASSERT_TOL``; otherwise it is redrawn, up to
    ``_MAX_FRAME_ATTEMPTS`` draws.  ``O(k d^3)``.  The span then lies in
    ``⊕_J 1 (x) M_{d_J}``, and is all of it when ``sum d_J^2`` is its
    dimension, which the caller checks.
    """
    basis_a = np.asarray(basis_a, dtype=complex)
    if basis_a.shape[0] == 0:
        raise DecompositionError("empty algebra basis; the rank tolerance leaves no span")
    k = basis_a.shape[0]
    for attempt in range(_MAX_FRAME_ATTEMPTS):
        draw = gaussian_variates(4 * k, _FRAME_SEED.child(attempt))
        y = np.tensordot(draw[:k] + 1j * draw[k : 2 * k], basis_a, axes=1)
        z = np.tensordot(draw[2 * k : 3 * k] + 1j * draw[3 * k :], basis_a, axes=1)
        found = _frame_from_draw(basis_a, (y + y.conj().T) / 2.0, z)
        if found is not None:
            return found
    raise DecompositionError(
        f"no block frame certified in {_MAX_FRAME_ATTEMPTS} draws; the span is not "
        "closed under multiplication at tolerance"
    )


#: R-sized (16 d^4-byte) arrays at the peak of a build: the streamed R
#: factor, one block of commutator maps, their concatenation and the QR's
#: copies, then the SVD of R with its factors and work space.  The peak RSS
#: of ``diagonal(24)`` and ``diagonal(30)`` builds was 13.6 and 14.2 of them.
_BUILD_ARRAYS = 14


def _require_build_memory(d: int) -> None:
    require_memory(_BUILD_ARRAYS * 16 * d**4, f"an algebra of dimension {d}")


def _named_generator_basis(desc: AlgebraDescriptor, tol: float) -> np.ndarray:
    kind = desc.kind
    params = desc.params
    if kind == "generators":
        gens = params["generators"]
        if gens:
            _require_build_memory(as_operator(gens[0], "generator").shape[0])
        return algebra_closure(gens, tol)
    if kind == "factor":
        da = positive_int(params.get("dim_a"), "dim_a")
        db = positive_int(params.get("dim_b"), "dim_b")
        side = str(params.get("side", "A")).upper()
        if side not in ("A", "B"):
            raise ShapeError(f"side must be 'A' or 'B', got {side!r}")
        _require_build_memory(da * db)
        mats = []
        for i in range(da if side == "A" else db):
            for j in range(da if side == "A" else db):
                unit = np.zeros((da, da) if side == "A" else (db, db), dtype=complex)
                unit[i, j] = 1.0
                mats.append(
                    np.kron(unit, np.eye(db)) if side == "A" else np.kron(np.eye(da), unit)
                )
        return orthonormalize(mats, tol)
    if kind == "diagonal":
        d = positive_int(params.get("dim"), "dim")
        _require_build_memory(d)
        return orthonormalize([np.diag(np.eye(d)[i]).astype(complex) for i in range(d)], tol)
    if kind in ("symmetric_swap", "group_z2"):
        local = positive_int(params.get("local_dim"), "local_dim")
        _require_build_memory(local * local)
        s = swap_operator(local)
        span = orthonormalize([np.eye(local * local, dtype=complex), s], tol)
        return commutant(span, tol) if kind == "symmetric_swap" else span
    if kind == "loschmidt":
        psi = np.asarray(params["state"], dtype=complex).reshape(-1)
        if psi.size < 2:
            raise ValidationError("state must live in dimension >= 2")
        _require_build_memory(psi.size)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > ASSERT_TOL:
            raise ValidationError(f"state must be normalized, got norm {norm}")
        proj = np.outer(psi, psi.conj())
        return orthonormalize([np.eye(psi.size, dtype=complex), proj], tol)
    raise ShapeError(f"unknown algebra kind {kind!r}")


def build_algebra(desc: AlgebraDescriptor, tol: float = RANK_TOL) -> OperatorAlgebra:
    """Construct an algebra, its commutant and block structure from a descriptor.

    Generator descriptors go through full span closure; named kinds assemble
    their spanning sets analytically and skip the closure iteration.  The
    block frame is drawn from the span (``_block_frame``), the commutant is
    computed numerically, and ``sum d_J^2 = dim A``, ``sum n_J^2 = dim A'``
    and the structural invariants are verified before returning.  ``tol`` is the
    relative rank threshold and must lie in (0, 1).  A dimension whose build
    would need more than ``MEMORY_BUDGET`` bytes (about ``224 d^4``) is
    refused with ``ShapeError`` before anything of that size is allocated.
    """
    if not 0.0 < tol < 1.0:
        raise ShapeError(f"rank tolerance must be a finite number in (0, 1), got {tol!r}")
    basis_a = _named_generator_basis(desc, tol)
    basis_ap = commutant(basis_a, tol)
    blocks, frame = _block_frame(basis_a)
    if basis_ap.shape[0] == 0:
        raise DecompositionError("empty commutant basis; the rank tolerance leaves no span")
    if blocks.dim_a != basis_a.shape[0] or blocks.dim_aprime != basis_ap.shape[0]:
        raise DecompositionError(
            f"the block pattern {blocks.pairs} needs dim A = {blocks.dim_a} and "
            f"dim A' = {blocks.dim_aprime}, but the spans have {basis_a.shape[0]} and "
            f"{basis_ap.shape[0]} elements; the span is not closed under multiplication "
            "at tolerance"
        )
    v = frame.unitary
    starts = np.cumsum([0] + [n * dj for n, dj in blocks.pairs])
    alg = OperatorAlgebra(
        dim=basis_a.shape[-1],
        basis_a=basis_a,
        basis_aprime=basis_ap,
        center_projections=np.stack(
            [v[:, a:b] @ v[:, a:b].conj().T for a, b in zip(starts[:-1], starts[1:])]
        ),
        blocks=blocks,
    )
    alg.__dict__["block_frame"] = frame  # seeds the cached property
    for arr in (alg.basis_a, alg.basis_aprime, alg.center_projections):
        arr.setflags(write=False)
    residuals = verification_residuals(alg)
    worst = max(residuals.values())
    if worst > ASSERT_TOL:
        raise DecompositionError(f"algebra verification failed: {residuals}")
    return alg


def commutant_algebra(alg: OperatorAlgebra) -> OperatorAlgebra:
    """The same structure viewed from the commutant's side."""
    pairs = alg.blocks.pairs
    # the stable sort of ``BlockStructure.swapped``, so the projections stay
    # ordered like the swapped pairs
    order = sorted(range(len(pairs)), key=lambda j: (-pairs[j][0], -pairs[j][1]))
    return OperatorAlgebra(
        dim=alg.dim,
        basis_a=alg.basis_aprime,
        basis_aprime=alg.basis_a,
        center_projections=alg.center_projections[order],
        blocks=alg.blocks.swapped(),
    )


def verification_residuals(alg: OperatorAlgebra) -> dict[str, float]:
    """Numerical residuals of the defining invariants; all should sit at
    rounding level for a correctly built algebra."""
    d = alg.dim
    eye_unit = np.eye(d, dtype=complex) / np.sqrt(d)
    res = {
        "identity_in_a": hs_norm(eye_unit - project_onto(alg.basis_a, eye_unit)),
        "identity_in_aprime": hs_norm(eye_unit - project_onto(alg.basis_aprime, eye_unit)),
    }
    worst = 0.0
    for a in alg.basis_a:
        diff = a @ alg.basis_aprime - alg.basis_aprime @ a
        norms = np.sqrt(np.einsum("kij,kij->k", diff.conj(), diff).real)
        if norms.size:
            worst = max(worst, float(norms.max()))
    res["cross_commutation"] = worst
    total = alg.center_projections.sum(axis=0)
    res["projections_sum"] = float(np.max(np.abs(total - np.eye(d))))
    ortho = 0.0
    for i, p in enumerate(alg.center_projections):
        for j, q in enumerate(alg.center_projections):
            prod = p @ q
            expected = p if i == j else 0.0
            ortho = max(ortho, float(np.max(np.abs(prod - expected))))
    res["projections_orthogonality"] = ortho
    return res
