"""Ground-truth generators: planted decompositions, Haar unitaries, and
channels of the structure-respecting shape.

A planted ensemble is built directly in block form with known weights,
block states and shared redundant states, then hidden behind one global
Haar rotation. Recovering the plant is the independent oracle for the
decomposition pipeline and for every scalar derived from it.

A random structure-respecting channel is drawn from its own seed and
given as a stack of Kraus operators on the ambient space.
`random_form2_kraus` is the one builder: it forms the channels of many
seeds a chunk at a time, bit for bit the same as one at a time, and
`random_form2_channel` is its chunk of one. `apply_kraus` applies one
channel or a chunk to one state or a stack of states.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import algebra
from .decompose import KIBlock, KIDecomposition, _block_key
from .ensemble import Ensemble
from .errors import ConfigTooLarge, RejectionExhausted
from .linalg import DEFAULT_TOL, direct_sum, eigh, hermitize, kron, qr, row_blocks

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
        ratios = q[:, None, :] / q[:, :, None]  # [i, a, b] = q[i, b] / q[i, a]
        spread = ratios.max(0) / ratios.min(0) - 1.0
        if (spread[np.triu_indices(nblocks, 1)] > Q_RATIO_SPREAD).all():
            return q
    raise RejectionExhausted(
        "could not draw non-proportional weight columns; "
        "the plant is likely infeasible (too few states for these blocks)"
    )


def _draw_block_states(n: int, num_states: int, rng: np.random.Generator, tol: float) -> np.ndarray:
    """A (num_states, n, n) stack of J states whose generated algebra is the full n x n matrix algebra.

    Accepted when their commutant is the scalars (`commutant`): by the
    double commutant theorem that is the full matrix algebra.
    """
    if n == 1:
        return np.ones((num_states, 1, 1), dtype=complex)
    for _ in range(MAX_RESAMPLES):
        sigmas = np.stack([random_density(n, rng) for _ in range(num_states)])
        if algebra.commutant(sigmas, tol).size == 1:
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
    decomposition. A (num_states, D, D) complex state stack above
    `algebra.MAX_STACK_BYTES` raises ConfigTooLarge before any draw.
    """
    total = sum(int(n) * int(k) for n, k in spec.blocks)  # Python ints: the product below cannot wrap
    if 16 * int(spec.num_states) * total**2 > algebra.MAX_STACK_BYTES:
        size = f"{spec.num_states} x {total} x {total}"
        raise ConfigTooLarge(f"planted state stack of {size} exceeds {algebra.MAX_STACK_BYTES} bytes")
    rng = np.random.default_rng(spec.seed)
    q = _draw_weights(spec, rng)
    sigmas = [_draw_block_states(n, spec.num_states, rng, tol) for n, _ in spec.blocks]
    rho_ks = [_draw_redundant_state(k, rng) for _, k in spec.blocks]
    probs = random_simplex(spec.num_states, rng, floor=0.2)

    dims = [n * k for n, k in spec.blocks]
    u = haar_unitary(total, rng)

    acc = direct_sum([q[:, l, None, None] * kron(sigmas[l], rho_ks[l]) for l in range(len(spec.blocks))])
    e = Ensemble(probs=probs, states=hermitize(u @ acc @ u.conj().T))

    isometries = np.split(u, np.cumsum(dims)[:-1], axis=1)
    blocks = [
        KIBlock(n=n, k=k, isometry=iso, rho_K=rho_k, q=q[:, l].copy(), rho_J=sigmas[l])
        for l, ((n, k), iso, rho_k) in enumerate(zip(spec.blocks, isometries, rho_ks))
    ]
    return e, KIDecomposition(frame=np.eye(total, dtype=complex), blocks=sorted(blocks, key=_block_key))


# ---------------------------------------------------------------------------
# structure-respecting channels


def apply_kraus(kraus: np.ndarray, rho) -> np.ndarray:
    """Sum of K_e rho K_e^dagger over the Kraus terms e.

    `kraus` is one channel's (env, D, D) stack or a (c, env, D, D) stack of
    c channels; `rho` is one (D, D) state or an (m, D, D) stack, and the
    result is rho's shape, with a leading channel axis for a channel stack.
    The loop runs over the Kraus terms only: each term is one stacked
    product over all channels and states, so the working memory is a few
    output-sized arrays however many Kraus terms there are.
    """
    rho = np.asarray(rho, dtype=complex)
    lead = kraus.shape[:-3]
    out = np.zeros(lead + rho.shape, dtype=complex)
    for e in range(kraus.shape[-3]):
        k = kraus[..., e, :, :].reshape(lead + (1,) * (rho.ndim - 2) + kraus.shape[-2:])
        out += k @ rho @ k.conj().swapaxes(-1, -2)
    return out


def random_form2_kraus(
    d: KIDecomposition, env_dim: int, seeds: Iterable[int], states: int = 1
) -> Iterator[np.ndarray]:
    """Kraus stacks of `random_form2_channel(d, env_dim, seed)` for the seeds, a chunk at a time.

    Each item is a (c, env_dim, D, D) array of c channels in seed order.
    C = F [V_1 ... V_L] (frame times block isometries), the projector onto
    the complement of the support and each rho_K eigenbasis are computed
    once. Only the draws run seed by seed: default_rng(seed) draws, block
    by block, k phases and then 2 k env_dim normals, as for one channel.
    Each block's operators B_le are formed for the whole chunk, and
    1_n tensor B_le times the block's rows of C^dagger is written straight
    into one X_e C^dagger array; K_e = C X_e C^dagger, plus the complement
    projector on K_0. Each channel's products are one channel's, so a
    chunk's stacks are bit for bit the single channels'. The chunks are
    `linalg.row_blocks` slices of the seeds: a channel's row is its
    Kraus stack, its X C^dagger factor and the three (states, D, D)
    arrays that applying it to `states` states and taking the residual
    need, so a large D * states falls back to one channel at a time.
    """
    if env_dim < 1:
        raise ValueError("env_dim must be at least 1")
    f = d.frame
    cols = d.ambient_isometries()
    rows = [col.conj().T.reshape(b.n, b.k, -1) for col, b in zip(cols, d.blocks)]  # (n, k, D) per block
    complement = np.eye(len(f), dtype=complex) - f @ f.conj().T if f.shape[1] < f.shape[0] else None
    c = np.concatenate(cols, axis=1)
    bases = [eigh(hermitize(b.rho_K))[1] for b in d.blocks]
    dim, support = c.shape
    seeds = list(seeds)
    for chunk in row_blocks(len(seeds), 16 * dim * (env_dim * (support + dim) + 3 * states * dim)):
        rngs = [np.random.default_rng(seed) for seed in seeds[chunk]]
        xc = np.empty((len(rngs), env_dim, support, dim), dtype=complex)
        at = 0
        for vec, r in zip(bases, rows):
            n, k = r.shape[:2]
            phases = np.exp(2j * np.pi * np.array([rng.random(k) for rng in rngs]))  # (c, k)
            z = np.array([rng.standard_normal(2 * k * env_dim) for rng in rngs]).reshape(-1, 2, k, env_dim)
            g = z[:, 0] + 1j * z[:, 1]
            env_states = g / np.linalg.norm(g, axis=-1, keepdims=True)  # row kappa: |v_kappa>
            # B_e = U diag(phases * <e|v_kappa>) U^dagger, U the eigenbasis of rho_K
            diag = phases[:, None, :] * env_states.swapaxes(1, 2)  # (c, env, k)
            bk = (vec * diag[:, :, None, :]) @ vec.conj().T
            np.matmul(bk[:, :, None], r, out=xc[:, :, at : at + n * k].reshape(len(rngs), env_dim, n, k, dim))
            at += n * k
        kraus = c @ xc
        if complement is not None:
            kraus[:, 0] += complement
        yield kraus


def random_form2_channel(d: KIDecomposition, env_dim: int = 2, seed: int = 0) -> np.ndarray:
    """(env_dim, D, D) Kraus stack of a random channel of the structure-respecting shape.

    Per block, the unitary on the redundant factor plus environment is
    drawn inside the class that holds the block's redundant state fixed:
    an environment rotation controlled on the eigenbasis of rho_K,
    composed with commuting phases. Tracing out the environment then
    preserves every state of the source ensemble by construction.
    `apply_kraus` applies the stack.
    """
    return next(random_form2_kraus(d, env_dim, (seed,)))[0]
