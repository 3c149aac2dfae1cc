"""Finite-dimensional operator algebras: commutants, centers, irreducible blocks.

A unital *-closed product-closed operator space acting on C^d is
unitarily equivalent to a direct sum of factors, each acting as
(full matrix algebra on C^n) tensor (identity on C^k). This module
computes that structure numerically from a generating set alone: the
span of the identity, the generators and their adjoints, its commutant
(equal to the commutant of the generated algebra), the center (solved
inside the commutant), and the block isometries exhibiting the (n, k)
factorization. The closure `generate_algebra`, which builds the whole
algebra basis, is kept as a reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, DimensionOverflow
from .linalg import DEFAULT_TOL, as_complex_matrix, eigh, hermitize, nullspace, orthonormalize_hs, pivot_phase, polar_unitary

PROBE_RETRIES = 8


@dataclass(frozen=True)
class OperatorBasis:
    """HS-orthonormal basis of an operator space, with a generating set.

    `generators` spans a set whose commutant equals the commutant of the
    space: `generate_algebra` stores the `generator_span` of its
    generators; any other basis uses its own elements.
    """

    dim: int
    mats: np.ndarray  # (size, dim, dim)
    generators: np.ndarray | None = None  # (count, dim, dim)

    def __post_init__(self):
        if self.generators is None:
            object.__setattr__(self, "generators", self.mats)

    @property
    def size(self) -> int:
        return len(self.mats)

    def vecs(self) -> np.ndarray:
        return self.mats.reshape(self.size, -1)

    def contains(self, m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Membership of `m` in the span, relative to its norm."""
        w = m.reshape(-1)
        v = self.vecs()
        resid = w - (v.conj() @ w) @ v
        return float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(w)))

    def verify_flags(self, tol: float = 1e-8) -> dict[str, bool]:
        """Check numerically that the span is an orthonormal unital *-algebra (test hook)."""
        gram_ok = np.allclose(self.vecs().conj() @ self.vecs().T, np.eye(self.size), atol=tol)
        ident = self.contains(np.eye(self.dim, dtype=complex), tol)
        adj = all(self.contains(m.conj().T, tol) for m in self.mats)
        prod = all(
            self.contains(a @ b, tol) for a in self.mats for b in self.mats
        )
        return {
            "orthonormal": gram_ok,
            "contains_identity": ident,
            "closed_under_adjoint": adj,
            "closed_under_product": prod,
        }


def generator_span(generators, dim: int, tol: float = DEFAULT_TOL) -> OperatorBasis:
    """HS-orthonormal basis of span{I, g_i, g_i^dagger}.

    The span is closed under adjoint and contains the identity, so its
    commutant, its intertwiners between irreducible blocks and its
    block-form residuals are those of the algebra the generators
    generate; `irrep_decompose` factors that algebra from this span
    without building the algebra's own basis.
    """
    gens = [as_complex_matrix(g) for g in generators]
    if any(g.shape[0] != dim for g in gens):
        raise ValueError("generators must be square with the stated dim")
    seed = [np.eye(dim, dtype=complex)]
    for g in gens:
        seed.append(g)
        seed.append(g.conj().T)
    return OperatorBasis(dim=dim, mats=np.stack(orthonormalize_hs(seed, tol)))


def generate_algebra(generators, dim: int, tol: float = DEFAULT_TOL) -> OperatorBasis:
    """Smallest unital *-closed algebra containing the generators.

    Breadth-first closure: each round multiplies all current basis pairs
    and re-orthonormalizes; the loop ends when a round adds no new
    direction, which is exactly the product-closure condition at the
    rank threshold. Bounded by dim^2 basis elements. The `generator_span`
    it starts from is kept as the result's `generators`. Nothing in the
    package calls it; it is the reference that tests compare the
    generator-only pipeline against.
    """
    gen_span = generator_span(generators, dim, tol).mats
    basis = list(gen_span)
    while True:
        cur = np.stack(basis)
        prods = np.einsum("aij,bjk->abik", cur, cur).reshape(-1, dim, dim)
        grown = orthonormalize_hs(list(cur) + list(prods), tol)
        if len(grown) > dim * dim:
            raise DimensionOverflow(
                f"closure produced {len(grown)} > dim^2 = {dim * dim} elements; tolerance too loose"
            )
        if len(grown) == len(basis):
            return OperatorBasis(dim=dim, mats=np.stack(grown), generators=gen_span)
        basis = grown


def commutant(a: OperatorBasis, tol: float = DEFAULT_TOL) -> OperatorBasis:
    """Basis of all X with X B = B X for every B in the algebra.

    Solved from `a.generators`, not the full basis: X commutes with an
    algebra iff it commutes with a generating set closed under adjoint,
    so the stacked maps X -> X G_j - G_j X over the vectorized matrix
    space have the same joint nullspace with far fewer rows.
    """
    d = a.dim
    eye = np.eye(d, dtype=complex)
    rows = [np.kron(eye, g.T) - np.kron(g, eye) for g in a.generators]
    stack = np.concatenate(rows, axis=0)
    null = nullspace(stack, tol, floor=1.0)
    mats = [null[:, i].reshape(d, d) for i in range(null.shape[1])]
    return OperatorBasis(dim=d, mats=np.stack(orthonormalize_hs(mats, tol)))


def center_basis(comm: OperatorBasis, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of the center of an algebra A, solved from its commutant.

    A'' = A for a unital *-algebra, so Z(A) = A ∩ A' = Z(A'): the center
    is the set of commutant elements commuting with the whole commutant.
    Solving in coefficient space over `comm`'s basis makes the stack
    (c * dim^2) x c with c = dim A', usually far smaller than dim A.
    """
    c = comm.size
    bracket = np.einsum("aij,cjk->caik", comm.mats, comm.mats) - np.einsum(
        "cij,ajk->caik", comm.mats, comm.mats
    )  # bracket[c, a] = [C_a, C_c]
    stack = bracket.reshape(c, c, -1).transpose(0, 2, 1).reshape(-1, c)
    coeffs = nullspace(stack, tol, floor=1.0)
    elems = [np.einsum("i,ijk->jk", coeffs[:, z], comm.mats) for z in range(coeffs.shape[1])]
    return orthonormalize_hs(elems, tol)


@dataclass(frozen=True)
class IrrepBlock:
    """One block of the factorization: C^n (irreducible) tensor C^k (multiplicity).

    `isometry` maps C^n tensor C^k into C^dim with orthonormal columns
    ordered (a, j) -> a*k + j. Conjugating any algebra element by it
    gives (n x n matrix) tensor identity(k).
    """

    n: int
    k: int
    isometry: np.ndarray  # (dim, n*k)


class _ProbeRetry(Exception):
    """Internal: the random probe failed to separate spectra cleanly."""


def _random_hermitian_from(mats: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    coeff = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    s = sum(c * m for c, m in zip(coeff, mats))
    return hermitize(s)


def _cluster_ascending(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Index groups of an ascending eigenvalue array, split at relative gaps > sqrt(tol)."""
    gap = np.sqrt(tol) * max(float(values[-1] - values[0]), 1.0)
    groups, start = [], 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap:
            groups.append(np.arange(start, i))
            start = i
    groups.append(np.arange(start, len(values)))
    return groups


def intertwiner_space(a_mats, b_mats, tol: float, floor: float) -> np.ndarray:
    """Basis (m, n, n) of the matrices T with T a_c = b_c T for every pair (a_c, b_c).

    The stacked maps T -> T a_c - b_c T are cut at sqrt(tol) relative to
    max(top singular value, floor), as in `nullspace`. By Schur's lemma
    two irreducible sets give one direction when they are unitarily
    equivalent and none otherwise. For n = 1 the identity is returned
    unchecked; callers test the result against their own residuals.
    """
    n = a_mats[0].shape[0]
    if n == 1:
        return np.ones((1, 1, 1), dtype=complex)
    eye = np.eye(n, dtype=complex)
    rows = [np.kron(eye, a.T) - np.kron(b, eye) for a, b in zip(a_mats, b_mats)]
    null = nullspace(np.concatenate(rows, axis=0), np.sqrt(tol), floor)
    return null.T.reshape(-1, n, n)


def compress_to_block(block: IrrepBlock, m: np.ndarray) -> np.ndarray:
    return block.isometry.conj().T @ m @ block.isometry


def block_form_split(compressed: np.ndarray, n: int, k: int) -> tuple[np.ndarray, float]:
    """Split a block compression as (n x n factor) tensor identity(k).

    Returns the factor and the Frobenius residual of the form test.
    """
    four = compressed.reshape(n, k, n, k)
    factor = np.einsum("ajbj->ab", four) / k
    resid = float(np.linalg.norm(compressed - np.kron(factor, np.eye(k))))
    return factor, resid


def _attempt_blocks(
    a: OperatorBasis, comm: OperatorBasis, centers: list[np.ndarray], rng: np.random.Generator, tol: float
) -> list[IrrepBlock]:
    d = a.dim
    c_probe = _random_hermitian_from(centers, rng)
    lam, vec = eigh(c_probe)
    blocks: list[IrrepBlock] = []
    for idx in _cluster_ascending(lam, tol):
        frame = vec[:, idx]  # (d, d_l)
        d_l = frame.shape[1]
        comm_r = orthonormalize_hs(
            [frame.conj().T @ x @ frame for x in comm.mats], tol
        )
        k = int(round(np.sqrt(len(comm_r))))
        if k * k != len(comm_r) or d_l % k != 0:
            raise _ProbeRetry("restricted commutant dimension is not a square")
        n = d_l // k
        r_probe = _random_hermitian_from(comm_r, rng)
        mu, w = eigh(r_probe)
        clusters = _cluster_ascending(mu, tol)
        if len(clusters) != k or any(len(c) != n for c in clusters):
            raise _ProbeRetry("multiplicity probe spectrum did not split k x n")
        s_frames = [w[:, c] for c in clusters]  # each (d_l, n)
        alg_r = np.einsum("pi,cpq,qj->cij", frame.conj(), a.mats, frame)
        b_first = np.einsum("pi,cpq,qj->cij", s_frames[0].conj(), alg_r, s_frames[0])
        cols = np.empty((d, n * k), dtype=complex)
        for j, s_j in enumerate(s_frames):
            if j == 0:
                t_j = np.eye(n, dtype=complex)
            else:
                b_j = np.einsum("pi,cpq,qj->cij", s_j.conj(), alg_r, s_j)
                ts = intertwiner_space(b_first, b_j, tol, floor=0.0)
                if len(ts) == 0:
                    raise _ProbeRetry("no intertwiner direction found")
                if len(ts) > 1:
                    raise _ProbeRetry("intertwiner space not one-dimensional")
                t_j = polar_unitary(ts[0])
                t_j = t_j * pivot_phase(t_j[:, 0])
            carried = frame @ (s_j @ t_j)  # (d, n)
            for a_idx in range(n):
                cols[:, a_idx * k + j] = carried[:, a_idx]
        block = IrrepBlock(n=n, k=k, isometry=cols)
        gram_resid = float(np.linalg.norm(cols.conj().T @ cols - np.eye(n * k)))
        if gram_resid > np.sqrt(tol):
            raise _ProbeRetry("block isometry not orthonormal")
        for c in range(a.size):
            _, resid = block_form_split(compress_to_block(block, a.mats[c]), n, k)
            if resid > np.sqrt(tol) * max(1.0, float(np.linalg.norm(a.mats[c]))):
                raise _ProbeRetry("transport residual too large")
        blocks.append(block)
    if sum(b.n * b.k for b in blocks) != d:
        raise _ProbeRetry("block dimensions do not add up to dim")
    if sum(b.k * b.k for b in blocks) != comm.size:
        raise _ProbeRetry("multiplicity squares do not add up to the commutant dimension")
    return blocks


def canonical_block_order(blocks: list[IrrepBlock], first_generator: np.ndarray) -> list[IrrepBlock]:
    """Descending n, then descending k, then ascending compressed trace of the first generator."""
    def key(b: IrrepBlock):
        tr = np.trace(compress_to_block(b, first_generator))
        return (-b.n, -b.k, float(tr.real))

    return sorted(blocks, key=key)


def irrep_decompose(a: OperatorBasis, seed: int, tol: float = DEFAULT_TOL) -> list[IrrepBlock]:
    """Factor the algebra generated by `a` into irreducible blocks with multiplicity.

    `a` is a `generator_span` (or any adjoint-closed span containing the
    identity, the whole algebra included); no closure is built. Random
    self-adjoint probes from the center split C^dim into the central
    blocks; probes from the commutant split each block into k equivalent
    copies of the n-dimensional irreducible subspace, glued by Schur
    intertwiners solved from the elements of `a`, which intertwine the
    generated algebra exactly when they intertwine `a`. A split is
    accepted when every element of `a` takes the block form and the
    squares of the multiplicities add up to the commutant dimension.
    Probes are drawn from the passed seed only; after PROBE_RETRIES
    failed draws the input tolerance is presumed misconfigured and
    DegenerateSample is raised.
    """
    comm = commutant(a, tol)
    centers = center_basis(comm, tol)
    if not centers:
        raise DegenerateSample("algebra has an empty center; input basis is inconsistent")
    rng = np.random.default_rng(seed)
    last = "no attempt"
    for _ in range(PROBE_RETRIES):
        try:
            blocks = _attempt_blocks(a, comm, centers, rng, tol)
        except _ProbeRetry as exc:
            last = str(exc)
            continue
        return canonical_block_order(blocks, a.generators[0])
    raise DegenerateSample(f"probes failed {PROBE_RETRIES} times; last failure: {last}")
