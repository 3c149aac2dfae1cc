"""Finite-dimensional operator algebras: commutants and irreducible blocks.

A unital *-closed product-closed operator space acting on C^d is
unitarily equivalent to a direct sum of factors, each acting as
(full matrix algebra on C^n) tensor (identity on C^k). This module
computes that structure numerically from a generating set alone: the
span of the identity, the generators and their adjoints, its commutant
(equal to the commutant of the generated algebra, solved inside the
eigenspaces of one generic element of the span), and the block
isometries exhibiting the (n, k) factorization, split off from the
eigenspaces of one random Hermitian element of the commutant. The
closure `generate_algebra` and the center `center_basis` are kept as
references for tests; the main path calls neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigTooLarge, DegenerateSample
from .linalg import DEFAULT_TOL, eigh, hermitize, kron, nullspace, orthonormalize_hs, pivot_phase, polar_unitary

PROBE_RETRIES = 8
MAX_STACK_BYTES = 1 << 30  # largest complex128 commutant stack built before ConfigTooLarge


@dataclass(frozen=True)
class OperatorBasis:
    """HS-orthonormal basis of an operator space."""

    dim: int
    mats: np.ndarray  # (size, dim, dim)

    @property
    def size(self) -> int:
        return len(self.mats)


def generator_span(generators, dim: int, tol: float = DEFAULT_TOL) -> OperatorBasis:
    """HS-orthonormal basis of span{I, g_i, g_i^dagger}.

    The span is closed under adjoint and contains the identity, so its
    commutant, its intertwiners between irreducible blocks and its
    block-form residuals are those of the algebra the generators
    generate; `irrep_decompose` factors that algebra from this span
    without building the algebra's own basis. `generators` is a
    (count, dim, dim) stack or a sequence of dim x dim matrices; the seed
    stack is checked once, by `orthonormalize_hs`.
    """
    gens = np.asarray(generators, dtype=complex)
    if gens.ndim != 3 or gens.shape[1:] != (dim, dim):
        raise ValueError("generators must be square with the stated dim")
    seed = np.empty((2 * len(gens) + 1, dim, dim), dtype=complex)  # I, g_1, g_1^dagger, g_2, ...
    seed[0] = np.eye(dim)
    seed[1::2] = gens
    seed[2::2] = gens.conj().swapaxes(1, 2)
    return OperatorBasis(dim=dim, mats=np.stack(orthonormalize_hs(seed, tol)))


def generate_algebra(generators, dim: int, tol: float = DEFAULT_TOL) -> OperatorBasis:
    """Smallest unital *-closed algebra containing the generators.

    Breadth-first closure: each round multiplies all current basis pairs
    and re-orthonormalizes; the loop ends when a round adds no new
    direction, which is exactly the product-closure condition at the
    rank threshold. Bounded by dim^2 basis elements. Nothing in the
    package calls it; it is the reference that tests compare the
    generator-only pipeline against.
    """
    cur = generator_span(generators, dim, tol).mats
    while True:
        prods = np.einsum("aij,bjk->abik", cur, cur).reshape(-1, dim, dim)
        grown = np.stack(orthonormalize_hs(np.concatenate([cur, prods]), tol))
        if len(grown) == len(cur):
            return OperatorBasis(dim=dim, mats=grown)
        cur = grown


def commutant(a: OperatorBasis, tol: float = DEFAULT_TOL) -> OperatorBasis:
    """Basis of all X with X B = B X for every B in the algebra.

    Solved inside the eigenspaces of one generic element of the span: such
    X commute with every element of `a.mats` (closed under adjoint), hence with
    H = hermitize(sum_g c_g G_g) = V diag(lam) V^dagger for fixed c, so
    X = V Y V^dagger with Y block-diagonal over the eigenvalue clusters of
    H (merged clusters only enlarge the search). The maps Y -> G~Y - YG~
    (G~ = V^dagger G V) are stacked over those sum_g dim_g^2 unknowns, not
    dim^2; a stack above MAX_STACK_BYTES raises ConfigTooLarge unbuilt.
    """
    d, gens = a.dim, a.mats
    coeff = np.random.default_rng(0).standard_normal((2, len(gens)))
    lam, vec = eigh(hermitize(np.tensordot(coeff[0] + 1j * coeff[1], gens, axes=1)))
    label = np.concatenate([np.full(len(idx), c) for c, idx in enumerate(_cluster_ascending(lam, tol))])
    rows, cols = np.nonzero(label[:, None] == label)  # unknown u is entry (rows[u], cols[u]) of Y
    u = np.arange(len(rows))
    if 16 * len(gens) * d * d * len(u) > MAX_STACK_BYTES:
        raise ConfigTooLarge(f"commutant stack of {len(gens) * d * d} x {len(u)} exceeds {MAX_STACK_BYTES} bytes")
    gt = vec.conj().T @ gens @ vec
    # column u is G~ E_ab - E_ab G~ for E_ab = e_a e_b^T, (a, b) = (rows[u], cols[u])
    stack = np.zeros((len(gens), d, d, len(u)), dtype=complex)
    stack[:, :, cols, u] = gt[:, :, rows]
    stack[:, rows, :, u] -= gt[:, cols, :].transpose(1, 0, 2)
    null = nullspace(stack.reshape(-1, len(u)), tol, floor=1.0)
    y = np.zeros((null.shape[1], d, d), dtype=complex)
    y[:, rows, cols] = null.T
    return OperatorBasis(dim=d, mats=vec @ y @ vec.conj().T)


def center_basis(comm: OperatorBasis, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of the center of an algebra A, solved from its commutant (test reference).

    A'' = A for a unital *-algebra, so Z(A) = A ∩ A' = Z(A'): the center
    is the set of commutant elements commuting with the whole commutant.
    Solving in coefficient space over `comm`'s basis makes the stack
    (c * dim^2) x c with c = dim A'. Its dimension is the number of
    blocks `irrep_decompose` returns, which never solves it.
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


def _random_hermitian_from(mats: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    coeff = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    return hermitize(np.tensordot(coeff, mats, axes=1))


def _cluster_ascending(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Index groups of an ascending eigenvalue array, split at relative gaps > sqrt(tol)."""
    gap = np.sqrt(tol) * max(float(values[-1] - values[0]), 1.0)
    return np.split(np.arange(len(values)), np.flatnonzero(np.diff(values) > gap) + 1)


def intertwiner(ties: np.ndarray) -> np.ndarray:
    """Unitary intertwiner from a stack (c, n, n) of commutant blocks between two irreducible copies.

    By Schur's lemma each block is a multiple of the intertwiner (zero
    for inequivalent copies, which the caller's residual test rejects).
    Returns the polar factor of the largest block, phased so the largest
    entry of its first column is real positive.
    """
    t = polar_unitary(ties[np.argmax(np.linalg.norm(ties, axis=(1, 2)))])
    return t * pivot_phase(t[:, 0])


def compress_to_block(block: IrrepBlock, m: np.ndarray) -> np.ndarray:
    return block.isometry.conj().T @ m @ block.isometry


def block_form_split(compressed: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a block compression, or each of a (..., nk, nk) stack, as (n x n factor) tensor identity(k).

    Returns the factors and the Frobenius residuals of the form test
    (a scalar residual for one matrix, one per matrix for a stack).
    """
    four = compressed.reshape(*compressed.shape[:-2], n, k, n, k)
    factor = np.einsum("...ajbj->...ab", four) / k
    resid = np.linalg.norm(compressed - kron(factor, np.eye(k)), axis=(-2, -1))
    return factor, resid


def _attempt_blocks(a: OperatorBasis, comm: OperatorBasis, rng: np.random.Generator, tol: float) -> list[IrrepBlock]:
    d = a.dim
    lam, vec = eigh(_random_hermitian_from(comm.mats, rng))
    copies = _cluster_ascending(lam, tol)
    # z[c] is commutant element c in the probe's eigenbasis; its (i, j)
    # block is a scalar times the unitary intertwiner from copy j to copy i
    z = vec.conj().T @ comm.mats @ vec
    member = np.zeros((len(copies), d))
    for i, idx in enumerate(copies):
        member[i, idx] = 1.0
    link = member @ np.sum(np.abs(z) ** 2, axis=0) @ member.T
    links = np.rint(link)
    if np.max(np.abs(link - links)) > np.sqrt(tol) or links.max() > 1:
        raise _ProbeRetry("copy links are not 0 or 1")
    label = np.argmax(links, axis=0)  # first copy linked to each copy
    blocks: list[IrrepBlock] = []
    for first in sorted(set(label)):
        group = [copies[i] for i in np.flatnonzero(label == first)]
        n, k = len(group[0]), len(group)
        if any(len(idx) != n for idx in group):
            raise _ProbeRetry("linked copies differ in dimension")
        cols = [vec[:, group[0]]]
        for idx in group[1:]:
            cols.append(vec[:, idx] @ intertwiner(z[:, idx[:, None], group[0]]))
        block = IrrepBlock(n=n, k=k, isometry=np.stack(cols, axis=2).reshape(d, n * k))
        _, resid = block_form_split(compress_to_block(block, a.mats), n, k)
        if np.any(resid > np.sqrt(tol) * np.maximum(1.0, np.linalg.norm(a.mats, axis=(1, 2)))):
            raise _ProbeRetry("transport residual too large")
        blocks.append(block)
    if sum(b.k * b.k for b in blocks) != comm.size:
        raise _ProbeRetry("multiplicity squares do not add up to the commutant dimension")
    return blocks


def irrep_decompose(a: OperatorBasis, seed: int, tol: float = DEFAULT_TOL) -> list[IrrepBlock]:
    """Factor the algebra generated by `a` into irreducible blocks with multiplicity.

    `a` is a `generator_span` (or any adjoint-closed span containing the
    identity, the whole algebra included); no closure is built. One
    random Hermitian element Y of the commutant A' = 1_n (x) M_k per
    block has generic eigenvalues, so each eigenspace of Y is one
    irreducible copy. Over an HS-orthonormal basis C_c of A', the link
    L_ij = sum_c |F_i^dagger C_c F_j|^2 of copies F_i, F_j is the
    dimension of the intertwiners between them: 1 for equivalent copies,
    0 otherwise. The linked copies form one block with k = their number;
    each is glued to the first by the unitary polar factor of its
    largest commutant block F_j^dagger C_c F_0. A split is accepted when
    every element of `a` takes the block form and the squares of the
    multiplicities add up to dim A'. Blocks come in ascending order of
    their first copy's eigenvalue. Probes are drawn from the passed seed
    only; after PROBE_RETRIES failed draws the input tolerance is
    presumed misconfigured and DegenerateSample is raised.
    """
    comm = commutant(a, tol)
    rng = np.random.default_rng(seed)
    last = "no attempt"
    for _ in range(PROBE_RETRIES):
        try:
            return _attempt_blocks(a, comm, rng, tol)
        except _ProbeRetry as exc:
            last = str(exc)
    raise DegenerateSample(f"probes failed {PROBE_RETRIES} times; last failure: {last}")
