"""Ground-truth generators: planted decompositions, Haar unitaries, and
channels of the structure-respecting shape.

A planted ensemble is built directly in block form with known weights,
block states and shared redundant states, then hidden behind one global
Haar rotation. Recovering the plant is the independent oracle for the
decomposition pipeline and for every scalar derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import commutant, generator_span
from .decompose import KIBlock, KIDecomposition
from .ensemble import Ensemble, SupportFrame
from .errors import RejectionExhausted
from .linalg import DEFAULT_TOL, direct_sum, eigh, hermitize, kron, qr

MAX_RESAMPLES = 64
Q_RATIO_SPREAD = 1e-3


def haar_unitary(dim: int, seed=0) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    `seed` may be an int or an existing numpy Generator. The diagonal of
    R is phase-normalized so the distribution is exactly Haar.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Ginibre construction)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T + 1e-6 * np.eye(dim)
    return hermitize(m / np.trace(m).real)


def random_simplex(size: int, rng: np.random.Generator, floor: float = 0.05) -> np.ndarray:
    w = floor + rng.random(size)
    return w / w.sum()


@dataclass(frozen=True)
class PlantSpec:
    """Recipe for a planted decomposition: block shapes, state count, seed."""

    blocks: tuple[tuple[int, int], ...]
    num_states: int
    seed: int = 0

    def __post_init__(self):
        if self.num_states < 1:
            raise ValueError("num_states must be at least 1")
        for n, k in self.blocks:
            if n < 1 or k < 1:
                raise ValueError("block dimensions must be at least 1")
        if not self.blocks:
            raise ValueError("at least one block is required")


def _draw_weights(spec: PlantSpec, rng: np.random.Generator) -> np.ndarray:
    """State-by-block weight matrix, rejected until no two columns are proportional."""
    m, nblocks = spec.num_states, len(spec.blocks)
    for _ in range(MAX_RESAMPLES):
        q = np.stack([random_simplex(nblocks, rng) for _ in range(m)])
        if nblocks == 1:
            return q
        ok = True
        for a in range(nblocks):
            for b in range(a + 1, nblocks):
                ratios = q[:, b] / q[:, a]
                if ratios.max() / ratios.min() - 1.0 <= Q_RATIO_SPREAD:
                    ok = False
        if ok:
            return q
    raise RejectionExhausted(
        "could not draw non-proportional weight columns; "
        "the plant is likely infeasible (too few states for these blocks)"
    )


def _draw_block_states(n: int, num_states: int, rng: np.random.Generator, tol: float) -> list[np.ndarray]:
    """J states whose generated algebra is the full n x n matrix algebra.

    Accepted when the commutant of their span is the scalars: by the
    double commutant theorem that is the full matrix algebra.
    """
    if n == 1:
        return [np.ones((1, 1), dtype=complex) for _ in range(num_states)]
    for _ in range(MAX_RESAMPLES):
        sigmas = [random_density(n, rng) for _ in range(num_states)]
        if commutant(generator_span(sigmas, n, tol), tol).size == 1:
            return sigmas
    raise RejectionExhausted(
        f"could not realize an irreducible {n}-dimensional block with "
        f"{num_states} state(s); a single state cannot span n > 1"
    )


def _draw_redundant_state(k: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal descending spectrum, full rank, all gaps bounded away from zero."""
    if k == 1:
        return np.ones((1, 1), dtype=complex)
    for _ in range(MAX_RESAMPLES):
        lam = np.sort(random_simplex(k, rng, floor=0.15))[::-1]
        if np.min(-np.diff(lam)) >= 0.02:
            return np.diag(lam).astype(complex)
    raise RejectionExhausted(f"could not draw {k} well separated redundant eigenvalues")


def planted_ensemble(spec: PlantSpec, tol: float = DEFAULT_TOL) -> tuple[Ensemble, KIDecomposition]:
    """Random ensemble with a known decomposition, plus that ground truth.

    The states are assembled block by block, conjugated by one Haar
    unitary on the full space, and returned together with the exact
    block data expressed in the rotated frame. Weight columns are
    rejection-sampled away from proportionality and the block states
    away from reducibility, so the plant is its own canonical
    decomposition.
    """
    rng = np.random.default_rng(spec.seed)
    q = _draw_weights(spec, rng)
    sigmas = [_draw_block_states(n, spec.num_states, rng, tol) for n, _ in spec.blocks]
    rho_ks = [_draw_redundant_state(k, rng) for _, k in spec.blocks]
    probs = random_simplex(spec.num_states, rng, floor=0.2)

    dims = [n * k for n, k in spec.blocks]
    total = int(sum(dims))
    u = haar_unitary(total, rng)

    states = []
    for i in range(spec.num_states):
        acc = direct_sum([q[i, l] * kron(sigmas[l][i], rho_ks[l]) for l in range(len(spec.blocks))])
        states.append(hermitize(u @ acc @ u.conj().T))
    e = Ensemble(probs=probs, states=np.stack(states))

    isometries = np.split(u, np.cumsum(dims)[:-1], axis=1)
    blocks = [
        KIBlock(n=n, k=k, isometry=iso, rho_K=rho_k, q=q[:, l].copy(), rho_J=sigmas[l])
        for l, ((n, k), iso, rho_k) in enumerate(zip(spec.blocks, isometries, rho_ks))
    ]
    frame = SupportFrame(ambient_dim=total, rank=total, isometry=np.eye(total, dtype=complex))
    return e, KIDecomposition.from_blocks(frame, blocks, probs)


# ---------------------------------------------------------------------------
# structure-respecting channels


@dataclass(frozen=True)
class Channel:
    """CPTP map given by Kraus operators on the ambient space."""

    kraus: list[np.ndarray]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out


def form2_channel(d: KIDecomposition, block_kraus: list[np.ndarray]) -> Channel:
    """Assemble the channel acting as identity on every J factor.

    block_kraus[l] has shape (env, k_l, k_l): the Kraus operators of the
    map applied to block l's redundant factor. The ambient Kraus
    operators are direct sums of 1_J tensor B_e over the blocks, padded
    with the identity on the complement of the support.
    """
    env = len(block_kraus[0])
    if any(len(bk) != env for bk in block_kraus):
        raise ValueError("all blocks need the same number of Kraus terms")
    frame = d.frame
    ambient = frame.ambient_dim
    kraus = []
    for e_idx in range(env):
        acc = np.zeros((frame.rank, frame.rank), dtype=complex)
        for b, bk in zip(d.blocks, block_kraus):
            acc += b.embed(kron(np.eye(b.n, dtype=complex), bk[e_idx]))
        kraus.append(frame.isometry @ acc @ frame.isometry.conj().T)
    if frame.rank < ambient:
        kraus[0] = kraus[0] + (
            np.eye(ambient, dtype=complex) - frame.isometry @ frame.isometry.conj().T
        )
    return Channel(kraus=kraus)


def random_form2_channel(d: KIDecomposition, env_dim: int = 2, seed: int = 0) -> Channel:
    """Random channel of the structure-respecting shape.

    Per block, the unitary on the redundant factor plus environment is
    drawn inside the class that holds the block's redundant state fixed:
    an environment rotation controlled on the eigenbasis of rho_K,
    composed with commuting phases. Tracing out the environment then
    preserves every state of the source ensemble by construction.
    """
    if env_dim < 1:
        raise ValueError("env_dim must be at least 1")
    rng = np.random.default_rng(seed)
    block_kraus = []
    for b in d.blocks:
        _, vec = eigh(hermitize(b.rho_K))
        phases = np.exp(2j * np.pi * rng.random(b.k))
        commuting = vec @ (phases[:, None] * vec.conj().T)
        g = rng.standard_normal((b.k, env_dim)) + 1j * rng.standard_normal((b.k, env_dim))
        env_states = g / np.linalg.norm(g, axis=1, keepdims=True)  # row kappa: |v_kappa>
        ops = np.empty((env_dim, b.k, b.k), dtype=complex)
        for e_idx in range(env_dim):
            ops[e_idx] = commuting @ vec @ np.diag(env_states[:, e_idx]) @ vec.conj().T
        block_kraus.append(ops)
    return form2_channel(d, block_kraus)
