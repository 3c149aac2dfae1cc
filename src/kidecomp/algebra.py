"""Finite-dimensional operator algebras: intertwiners, commutants and irreducible copies.

A unital *-closed product-closed operator space acting on C^d is
unitarily equivalent to a direct sum of factors, each acting as
(full matrix algebra on C^n) tensor (identity on C^k). This module
computes that structure numerically from a generating stack alone: the
intertwiners between two paired tuples (`intertwiner_basis`), of which
the commutant of a stack (`commutant`) is the case of the stack with
itself; and the split of C^d into irreducible copies, the eigenspaces of
one random Hermitian element of the commutant. `ki_decompose`'s merge
glues the k equivalent copies of a factor with the same intertwiner
solve, and `verify`'s irreducibility check is `commutant`. The
closure `generate_algebra` and the center `center_basis` are kept as
references for tests; the main path calls neither.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigTooLarge, DegenerateSample
from .linalg import DEFAULT_TOL, eigh, hermitize, nullspace, orthonormalize_hs, pivot_phase, polar_unitary

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


def generate_algebra(generators, dim: int, tol: float = DEFAULT_TOL) -> OperatorBasis:
    """Smallest unital *-closed algebra containing the generators.

    Breadth-first closure from span{I, g_i, g_i^dagger}: each round
    multiplies all current basis pairs and re-orthonormalizes; the loop
    ends when a round adds no new direction, which is exactly the
    product-closure condition at the rank threshold. Bounded by dim^2
    basis elements. Nothing in the package calls it; it is the reference
    that tests compare the generator-only pipeline against.
    """
    gens = np.asarray(generators, dtype=complex)
    if gens.ndim != 3 or gens.shape[1:] != (dim, dim):
        raise ValueError("generators must be square with the stated dim")
    seed = np.empty((2 * len(gens) + 1, dim, dim), dtype=complex)  # I, g_1, g_1^dagger, g_2, ...
    seed[0] = np.eye(dim)
    seed[1::2] = gens
    seed[2::2] = gens.conj().swapaxes(1, 2)
    cur = np.stack(orthonormalize_hs(seed, tol))
    while True:
        prods = np.einsum("aij,bjk->abik", cur, cur).reshape(-1, dim, dim)
        grown = np.stack(orthonormalize_hs(np.concatenate([cur, prods]), tol))
        if len(grown) == len(cur):
            return OperatorBasis(dim=dim, mats=grown)
        cur = grown


@functools.lru_cache(maxsize=64)
def _coefficients(g: int) -> np.ndarray:
    """The fixed complex coefficients c_g of `intertwiner_basis`: one `default_rng(0)` draw of
    2 x g normals, re then im. Shared and read-only."""
    draw = np.random.default_rng(0).standard_normal((2, g))
    coeff = draw[0] + 1j * draw[1]
    coeff.flags.writeable = False
    return coeff


def intertwiner_basis(a_mats, b_mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Basis (count, d_b, d_a) of all X with B_g X = X A_g for every pair (A_g, B_g).

    The pairs must be closed under adjoint as pairs (Hermitian matrices on
    both sides, or one adjoint-closed span taken twice); then every such X
    also intertwines H_a = hermitize(sum_g c_g A_g) with H_b, built from
    one coefficient draw c, so X = V_b Y V_a^dagger with Y nonzero only at
    the entries (i, j) where eigenvalue i of H_b and eigenvalue j of H_a
    share a cluster of the joint spectrum (merged clusters only enlarge the
    search). The maps Y -> B~Y - YA~ (B~ = V_b^dagger B V_b, A~ likewise)
    are stacked over those unknowns only; when no entry qualifies the basis
    is empty. A stack above MAX_STACK_BYTES raises ConfigTooLarge unbuilt.
    """
    a_mats, b_mats = np.asarray(a_mats, dtype=complex), np.asarray(b_mats, dtype=complex)
    g, da, db = len(a_mats), a_mats.shape[-1], b_mats.shape[-1]
    coeff = _coefficients(g)
    lam_a, vec_a = eigh(hermitize(np.tensordot(coeff, a_mats, axes=1)))
    lam_b, vec_b = eigh(hermitize(np.tensordot(coeff, b_mats, axes=1)))
    joint = np.sort(np.concatenate([lam_b, lam_a]))
    tops = [joint[idx[-1]] for idx in _cluster_ascending(joint, tol)]  # each cluster's largest eigenvalue
    # unknown u is entry (rows[u], cols[u]) of Y: eigenvalues in one cluster, found by its top
    rows, cols = np.nonzero(np.searchsorted(tops, lam_b)[:, None] == np.searchsorted(tops, lam_a))
    u = np.arange(len(rows))
    if 16 * g * db * da * len(u) > MAX_STACK_BYTES:
        raise ConfigTooLarge(f"commutant stack of {g * db * da} x {len(u)} exceeds {MAX_STACK_BYTES} bytes")
    at = vec_a.conj().T @ a_mats @ vec_a
    bt = vec_b.conj().T @ b_mats @ vec_b
    # column u is B~ E_rc - E_rc A~ for E_rc = e_r e_c^T, (r, c) = (rows[u], cols[u])
    stack = np.zeros((g, db, da, len(u)), dtype=complex)
    stack[:, :, cols, u] = bt[:, :, rows]
    stack[:, rows, :, u] -= at[:, cols, :].transpose(1, 0, 2)
    null = nullspace(stack.reshape(g * db * da, len(u)), tol, floor=1.0)
    y = np.zeros((null.shape[1], db, da), dtype=complex)
    y[:, rows, cols] = null.T
    return vec_b @ y @ vec_a.conj().T


def commutant(stack, tol: float = DEFAULT_TOL) -> OperatorBasis:
    """Basis of all X with X G = G X for every G of a (count, n, n) stack and its adjoint.

    That is the commutant of the algebra the stack generates: the scalars
    exactly when it is the full n x n matrix algebra (double commutant
    theorem). n = 1 needs no solve; otherwise it is `intertwiner_basis` of
    the stack with itself, since the identity adds no constraint and a
    Hermitian stack is its own adjoint (one that is not exactly Hermitian
    is solved with its adjoints appended).
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.shape[-1] == 1:
        return OperatorBasis(dim=1, mats=np.ones((1, 1, 1), dtype=complex))
    adjoints = stack.conj().swapaxes(-1, -2)
    if not np.array_equal(stack, adjoints):
        stack = np.concatenate([stack, adjoints])
    return OperatorBasis(dim=stack.shape[-1], mats=intertwiner_basis(stack, stack, tol))


def center_basis(comm: OperatorBasis, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of the center of an algebra A, solved from its commutant (test reference).

    A'' = A for a unital *-algebra, so Z(A) = A ∩ A' = Z(A'): the center
    is the set of commutant elements commuting with the whole commutant.
    Solving in coefficient space over `comm`'s basis makes the stack
    (c * dim^2) x c with c = dim A'. Its dimension is the number of
    classes of equivalent copies among those `irrep_decompose` returns
    (the blocks after `ki_decompose`'s merge), which never solves it.
    """
    c = comm.size
    bracket = np.einsum("aij,cjk->caik", comm.mats, comm.mats) - np.einsum(
        "cij,ajk->caik", comm.mats, comm.mats
    )  # bracket[c, a] = [C_a, C_c]
    stack = bracket.reshape(c, c, -1).transpose(0, 2, 1).reshape(-1, c)
    coeffs = nullspace(stack, tol, floor=1.0)
    elems = [np.einsum("i,ijk->jk", coeffs[:, z], comm.mats) for z in range(coeffs.shape[1])]
    return orthonormalize_hs(elems, tol)


def _random_hermitian_from(mats: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    coeff = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    return hermitize(np.tensordot(coeff, mats, axes=1))


def _cluster_ascending(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Index groups of an ascending eigenvalue array, split at relative gaps > sqrt(tol)."""
    gap = np.sqrt(tol) * max(float(values[-1] - values[0]), 1.0)
    return np.split(np.arange(len(values)), np.flatnonzero(np.diff(values) > gap) + 1)


def intertwiner(ties: np.ndarray) -> np.ndarray:
    """Unitary intertwiner from a nonempty stack (c, n, n) of intertwiners between two irreducible sets.

    By Schur's lemma each element is a multiple of the unitary intertwiner
    (a set and an inequivalent one have none, which `intertwiner_basis`
    reports as an empty stack). Returns the polar factor of the largest
    element, phased so the largest entry of its first column is real positive.
    """
    t = polar_unitary(ties[np.argmax(np.linalg.norm(ties, axis=(1, 2)))])
    return t * pivot_phase(t[:, 0])


def _attempt_copies(comm: OperatorBasis, rng: np.random.Generator, tol: float) -> list[np.ndarray] | None:
    """The copies one probe draw splits off, or None when a copy link is not 0 or 1."""
    d = comm.dim
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
        return None
    return [vec[:, idx] for idx in copies]


def irrep_decompose(states, seed: int, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Split C^dim into irreducible copies of the algebra a (count, dim, dim) stack generates: (dim, n) isometries.

    The stack is solved by `commutant` directly; no closure and no span
    is built. One random Hermitian element Y of the commutant
    A' = 1_n (x) M_k per block has generic eigenvalues, so each
    eigenspace of Y is one irreducible copy, and the copies' projectors
    sum to the identity. Over an HS-orthonormal basis C_c of A', the link
    L_ij = sum_c |F_i^dagger C_c F_j|^2 of copies F_i, F_j is the
    dimension of the intertwiners between them: 1 for equivalent copies,
    0 otherwise, and above 1 for an eigenspace that holds more than one
    copy; a probe is accepted when every link is 0 or 1. Equivalent
    copies come out separately: `ki_decompose`'s merge glues them. Copies
    come in ascending order of the probe's eigenvalue. Probes are drawn
    from the passed seed only; after PROBE_RETRIES failed draws the input
    tolerance is presumed misconfigured and DegenerateSample is raised.
    """
    comm = commutant(states, tol)
    rng = np.random.default_rng(seed)
    for _ in range(PROBE_RETRIES):
        if (copies := _attempt_copies(comm, rng, tol)) is not None:
            return copies
    raise DegenerateSample(f"probes failed {PROBE_RETRIES} times; last failure: copy links are not 0 or 1")
