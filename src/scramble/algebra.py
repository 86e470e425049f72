"""Hermitian-closed unital operator algebras and their structure.

An algebra is represented by an orthonormal Hilbert-Schmidt basis of the
algebra itself, one of its commutant, the minimal central projections, and
the block structure: the Hilbert space splits into orthogonal blocks
``C^{n_J} (x) C^{d_J}`` (commutant factor first) on which the algebra acts
as ``1_{n_J} (x) L(C^{d_J})``.  Consequently ``d = sum n_J d_J``,
``dim A = sum d_J^2`` and ``dim A' = sum n_J^2``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    ClosureError,
    DecompositionError,
    DegeneracyError,
    ResourceError,
    ShapeError,
    ValidationError,
)
from .operator_space import (
    ASSERT_TOL,
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
    swap_operator,
    vec,
)

#: Default cap on the Hilbert-space dimension for d^2 x d^2 superoperator matrices.
SUPERPROJECTOR_CAP = 16

#: Module seed for center-witness sampling; fixed so decompositions are
#: deterministic across runs.
_WITNESS_SEED = RandomSeed(0x5EEDB10C, 0)

_MAX_WITNESS_ATTEMPTS = 8
_INTEGER_GUARD = 1e-6

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
        da, db = _positive_int(dim_a, "dim_a"), _positive_int(dim_b, "dim_b")
        return cls("factor", {"dim_a": da, "dim_b": db, "side": side})

    @classmethod
    def diagonal(cls, dim: int) -> "AlgebraDescriptor":
        return cls("diagonal", {"dim": _positive_int(dim, "dim")})

    @classmethod
    def symmetric_swap(cls, local_dim: int) -> "AlgebraDescriptor":
        return cls("symmetric_swap", {"local_dim": _positive_int(local_dim, "local_dim")})

    @classmethod
    def group_z2(cls, local_dim: int) -> "AlgebraDescriptor":
        return cls("group_z2", {"local_dim": _positive_int(local_dim, "local_dim")})

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
    ascending trace of the central witness used during decomposition, which
    makes reports stable across runs.
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
class OperatorAlgebra:
    """An algebra, its commutant, and the block decomposition they induce.

    ``basis_a`` and ``basis_aprime`` are orthonormal bases (arrays of shape
    ``(k, d, d)``); ``center_projections`` holds the minimal central
    projections, ordered like ``blocks.pairs``.
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

    def fingerprint(self) -> str:
        return self.blocks.fingerprint()


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


def algebra_closure(generators: Sequence, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the smallest unital *-closed algebra containing
    the generators.

    Seeds the span with the generators, their adjoints and the identity,
    then alternates pairwise products with re-orthonormalization until the
    rank is stationary.  Re-orthonormalizing every round prevents
    conditioning decay in long product chains.
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
        products = np.einsum("aij,bjk->abik", basis, basis).reshape(-1, d, d)
        grown = orthonormalize(np.concatenate([basis, products]), tol)
        if grown.shape[0] > d * d:
            raise ClosureError(
                f"closure rank {grown.shape[0]} exceeds operator-space dimension {d * d}"
            )
        if grown.shape[0] == basis.shape[0]:
            return grown
        basis = grown


def commutant(alg_basis, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of ``{X : [X, b] = 0 for every basis element b}``.

    Stacks the vectorized commutator maps ``X -> [X, b]`` and takes the joint
    nullspace; in the column-stacking convention the map for ``b`` is
    ``kron(b.T, 1) - kron(1, b)``.
    """
    basis = np.asarray(alg_basis, dtype=complex)
    if basis.ndim != 3 or basis.shape[0] == 0:
        raise ShapeError("commutant needs a nonempty basis of square matrices")
    d = basis.shape[-1]
    eye = np.eye(d)
    stacked = np.concatenate(
        [np.kron(b.T, eye) - np.kron(eye, b) for b in basis], axis=0
    )
    # basis elements are unit norm, so the stack either vanishes (everything
    # commutes) or has O(1) leading singular value; the floor keeps a
    # noise-level stack from masquerading as a proper commutator map
    cols = nullspace(stacked, tol, scale_floor=1.0)
    mats = np.stack([cols[:, j].reshape(d, d, order="F") for j in range(cols.shape[1])]) \
        if cols.shape[1] else np.zeros((0, d, d), dtype=complex)
    return mats


def project_onto(basis, x) -> np.ndarray:
    """Orthogonal projection of ``x`` onto the span of an orthonormal basis."""
    basis = np.asarray(basis, dtype=complex)
    x = as_operator(x)
    if basis.ndim != 3 or basis.shape[-1] != x.shape[0]:
        raise ShapeError("basis and operator dimensions do not match")
    coeffs = np.einsum("kij,ij->k", basis.conj(), x)
    return np.einsum("k,kij->ij", coeffs, basis)


def superprojector_matrix(basis, cap: int = SUPERPROJECTOR_CAP) -> np.ndarray:
    """Matrix of ``X -> project_onto(basis, X)`` on the vectorized operator space.

    A hermitian idempotent of side ``d^2`` whose trace equals the basis
    cardinality; refuses dimensions above ``cap``.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 3:
        raise ShapeError("expected a basis array of shape (k, d, d)")
    d = basis.shape[-1]
    if d > cap:
        raise ResourceError(f"dimension {d} exceeds superprojector cap {cap}")
    cols = np.stack([vec(b) for b in basis], axis=1) if basis.shape[0] else \
        np.zeros((d * d, 0), dtype=complex)
    return cols @ cols.conj().T


def _center_basis(basis_a: np.ndarray, basis_ap: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the center ``Z = A ∩ A'``, built from the smaller span.

    With ``S`` the smaller of the two bases (``m`` elements), the center is
    ``coeffs.T · S`` for the nullspace ``coeffs`` of the ``(d^2, m)`` map whose
    column ``a`` is ``s_a`` minus its projection onto the larger span.  The
    singular values of that map are the sines of the principal angles between
    the spans: 0 on ``Z`` and 1 elsewhere for an algebra pair, because
    ``A ⊖ Z`` is orthogonal to ``A'``.  The result is orthonormal because
    ``S`` and the coefficient columns are.
    """
    small, large = (basis_a, basis_ap) if len(basis_a) <= len(basis_ap) else (basis_ap, basis_a)
    flat = small.reshape(len(small), -1)
    other = large.reshape(len(large), -1)
    outside = flat - (flat @ other.conj().T) @ other
    # when S lies inside the larger span (an abelian A) the map is pure
    # rounding, and the floor keeps that noise from passing as non-central
    coeffs = nullspace(outside.T, tol, scale_floor=1.0)
    return np.tensordot(coeffs.T, small, axes=1)


def _group_eigenvalues(evals: np.ndarray, thresh: float) -> list[np.ndarray]:
    """Indices of eigenvalues grouped by gaps larger than ``thresh``."""
    order = np.argsort(evals)
    groups = [[order[0]]]
    for idx in order[1:]:
        if evals[idx] - evals[groups[-1][-1]] > thresh:
            groups.append([idx])
        else:
            groups[-1].append(idx)
    return [np.array(g) for g in groups]


def block_decomposition(
    basis_a,
    basis_aprime,
    tol: float = RANK_TOL,
    seed: RandomSeed | None = None,
) -> tuple[BlockStructure, np.ndarray]:
    """Minimal central projections and block dimensions of an algebra pair.

    The center is the intersection of the two spans.  A random hermitian
    center element (the witness) is eigendecomposed and its eigenvalues
    grouped; minimality is verified by requiring as many blocks as the
    center dimension, with bounded resampling on collisions.  Per block,
    ``d_J`` is recovered from the rank of the compressed algebra and
    ``n_J`` from the block size, with integer-consistency guards that
    reject inputs which are not *-algebras at the working tolerance.
    """
    basis_a = np.asarray(basis_a, dtype=complex)
    basis_ap = np.asarray(basis_aprime, dtype=complex)
    if basis_a.ndim != 3 or basis_ap.ndim != 3 or basis_a.shape[-1] != basis_ap.shape[-1]:
        raise ShapeError("algebra and commutant bases must share one dimension")
    d = basis_a.shape[-1]
    base = seed if seed is not None else _WITNESS_SEED

    center = _center_basis(basis_a, basis_ap, tol)
    z = center.shape[0]
    if z == 0:
        raise DecompositionError("empty center; the input spans are not a unital algebra pair")

    witness = None
    groups = None
    for attempt in range(_MAX_WITNESS_ATTEMPTS):
        draw = gaussian_variates(2 * z, base.child(attempt))
        coeffs = draw[:z] + 1j * draw[z:]
        sample = np.einsum("k,kij->ij", coeffs, center)
        sample = (sample + sample.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(sample)
        spread = float(evals[-1] - evals[0])
        # floor at the RMS eigenvalue scale so a flat spectrum (trivial
        # center) groups rounding noise into a single block
        rms = float(np.linalg.norm(evals)) / np.sqrt(len(evals))
        candidate = _group_eigenvalues(evals, 1e-8 * max(spread, rms))
        if len(candidate) == z:
            witness = sample
            groups = [(evecs[:, g]) for g in candidate]
            break
    if witness is None:
        raise DegeneracyError(
            f"center witness failed to separate {z} blocks in {_MAX_WITNESS_ATTEMPTS} draws"
        )

    raw = []
    for cols in groups:
        proj = cols @ cols.conj().T
        size = cols.shape[1]
        compressed = proj @ basis_a @ proj
        rank = orthonormalize(compressed, tol).shape[0]
        dj = np.sqrt(rank)
        if abs(dj - round(dj)) > _INTEGER_GUARD:
            raise DecompositionError(
                f"compressed block rank {rank} is not a perfect square; "
                "input is not a *-algebra at tolerance"
            )
        dj = int(round(dj))
        if size % dj != 0:
            raise DecompositionError(
                f"block size {size} not divisible by inner dimension {dj}"
            )
        n = size // dj
        raw.append(((n, dj), float(np.trace(proj @ witness).real), proj))

    raw.sort(key=lambda item: (-item[0][1], -item[0][0], item[1]))
    pairs = tuple(item[0] for item in raw)
    projections = np.stack([item[2] for item in raw])
    blocks = BlockStructure(pairs)

    if blocks.dim != d:
        raise DecompositionError(f"block dimensions {pairs} do not add up to {d}")
    if blocks.dim_a != basis_a.shape[0] or blocks.dim_aprime != basis_ap.shape[0]:
        raise DecompositionError(
            "block dimension accounting disagrees with the basis cardinalities"
        )
    return blocks, projections


def _positive_int(value, key: str) -> int:
    """Integer parameter ``key`` of a named kind; refuses a missing value
    (``None``), bools, strings, fractions and values below 1."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float, np.integer))
        or not float(value).is_integer()
        or value < 1
    ):
        raise ShapeError(f"'{key}' must be a positive integer, got {value!r}")
    return int(value)


def _named_generator_basis(desc: AlgebraDescriptor, tol: float) -> np.ndarray:
    kind = desc.kind
    params = desc.params
    if kind == "generators":
        return algebra_closure(params["generators"], tol)
    if kind == "factor":
        da = _positive_int(params.get("dim_a"), "dim_a")
        db = _positive_int(params.get("dim_b"), "dim_b")
        side = str(params.get("side", "A")).upper()
        if side not in ("A", "B"):
            raise ShapeError(f"side must be 'A' or 'B', got {side!r}")
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
        d = _positive_int(params.get("dim"), "dim")
        return orthonormalize([np.diag(np.eye(d)[i]).astype(complex) for i in range(d)], tol)
    if kind in ("symmetric_swap", "group_z2"):
        local = _positive_int(params.get("local_dim"), "local_dim")
        s = swap_operator(local)
        span = orthonormalize([np.eye(local * local, dtype=complex), s], tol)
        return commutant(span, tol) if kind == "symmetric_swap" else span
    if kind == "loschmidt":
        psi = np.asarray(params["state"], dtype=complex).reshape(-1)
        if psi.size < 2:
            raise ValidationError("state must live in dimension >= 2")
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > ASSERT_TOL:
            raise ValidationError(f"state must be normalized, got norm {norm}")
        proj = np.outer(psi, psi.conj())
        return orthonormalize([np.eye(psi.size, dtype=complex), proj], tol)
    raise ShapeError(f"unknown algebra kind {kind!r}")


def build_algebra(
    desc: AlgebraDescriptor,
    tol: float = RANK_TOL,
    seed: RandomSeed | None = None,
) -> OperatorAlgebra:
    """Construct an algebra, its commutant and block structure from a descriptor.

    Generator descriptors go through full span closure; named kinds assemble
    their spanning sets analytically and skip the closure iteration.  The
    commutant and the block decomposition are always computed numerically and
    the structural invariants are verified before returning.
    """
    basis_a = _named_generator_basis(desc, tol)
    basis_ap = commutant(basis_a, tol)
    blocks, projections = block_decomposition(basis_a, basis_ap, tol=tol, seed=seed)
    alg = OperatorAlgebra(
        dim=basis_a.shape[-1],
        basis_a=basis_a,
        basis_aprime=basis_ap,
        center_projections=projections,
        blocks=blocks,
    )
    for arr in (alg.basis_a, alg.basis_aprime, alg.center_projections):
        arr.setflags(write=False)
    residuals = verification_residuals(alg)
    worst = max(residuals.values())
    if worst > ASSERT_TOL:
        raise DecompositionError(f"algebra verification failed: {residuals}")
    return alg


def commutant_algebra(alg: OperatorAlgebra) -> OperatorAlgebra:
    """The same structure viewed from the commutant's side."""
    return OperatorAlgebra(
        dim=alg.dim,
        basis_a=alg.basis_aprime,
        basis_aprime=alg.basis_a,
        center_projections=alg.center_projections,
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


def omega_operators(alg: OperatorAlgebra) -> OmegaPair:
    """Doubled-space operators carrying the anti-correlator (see ``OmegaPair``)."""
    d = alg.dim
    omega_tilde = np.zeros((d * d, d * d), dtype=complex)
    for f in alg.basis_aprime:
        omega_tilde += np.kron(f, f.conj().T)
    omega = swap_operator(d) @ omega_tilde
    return OmegaPair(omega=omega, omega_tilde=omega_tilde)


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
        xgroups = _group_eigenvalues(xe, 1e-8 * max(float(xe[-1] - xe[0]), 1e-3))
        zgroups = _group_eigenvalues(ze, 1e-8 * max(float(ze[-1] - ze[0]), 1e-3))
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
    raise DegeneracyError(f"failed to factorize a block of shape ({n}, {dj})")


def block_basis_rotation(
    alg: OperatorAlgebra, seed: RandomSeed | None = None
) -> tuple[np.ndarray, list[slice]]:
    """Unitary ``W`` mapping the Hilbert space onto the stacked blocks.

    In the rotated frame each block occupies a contiguous slice and carries
    the product structure ``C^{n_J} (x) C^{d_J}`` (commutant factor first),
    so algebra elements become ``1 (x) Y`` and commutant elements ``Z (x) 1``
    blockwise.  Only needed for cross-checks; the anti-correlator itself
    never requires it.
    """
    base = seed if seed is not None else _WITNESS_SEED.child(1000)
    key = np.array([np.uint64(base.seed), np.uint64(base.stream)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
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


def structure_basis(alg: OperatorAlgebra, seed: RandomSeed | None = None) -> np.ndarray:
    """Orthogonal (not orthonormal) algebra basis ``(1/sqrt d_J) 1_n (x) |l><m|``
    expressed in the original frame via the block rotation."""
    w, slices = block_basis_rotation(alg, seed)
    d = alg.dim
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
