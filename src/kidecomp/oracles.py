"""Ground-truth generators: planted decompositions, Haar unitaries, and
channels of the structure-respecting shape.

A planted ensemble is built directly in block form with known weights,
block states and shared redundant states, then hidden behind one global
Haar rotation. Recovering the plant is the independent oracle for the
decomposition pipeline and for every scalar derived from it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
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
    """CPTP map given by an (env, D, D) stack of Kraus operators on the ambient space."""

    kraus: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Sum of K rho K^dagger over the Kraus terms, for one (D, D) state or an (m, D, D) stack.

        The loop runs over the Kraus terms only; each term is one stacked
        product over all states, so the working memory is a few (m, D, D)
        arrays however many Kraus terms the channel has.
        """
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out


def _ambient_frame(d: KIDecomposition) -> tuple[np.ndarray, list[np.ndarray], np.ndarray | None]:
    """C = F [V_1 ... V_L], the frame times the block isometries; block l's rows of
    C^dagger as an (n, k, D) array, one k x D slab per J index; and the
    projector 1 - F F^dagger onto the complement of the support (None at full rank)."""
    f = d.frame.isometry
    cols = [f @ b.isometry for b in d.blocks]
    rows = [col.conj().T.reshape(b.n, b.k, -1) for col, b in zip(cols, d.blocks)]
    complement = None
    if d.frame.rank < d.frame.ambient_dim:
        complement = np.eye(d.frame.ambient_dim, dtype=complex) - f @ f.conj().T
    return np.concatenate(cols, axis=1), rows, complement


def _assemble(c: np.ndarray, rows: list[np.ndarray], complement: np.ndarray | None, block_kraus) -> Channel:
    """K_e = C X_e C^dagger for every e as one (env, D, D) stack, plus the complement projector on e = 0."""
    env = len(block_kraus[0])
    if any(len(bk) != env for bk in block_kraus):
        raise ValueError("all blocks need the same number of Kraus terms")
    # X_e C^dagger: 1_n tensor B_le acts on each of block l's n slabs of k rows
    xc = np.concatenate([(bk[:, None] @ r).reshape(env, -1, len(c)) for r, bk in zip(rows, block_kraus)], axis=1)
    kraus = c @ xc
    if complement is not None:
        kraus[0] += complement
    return Channel(kraus=kraus)


def form2_channel(d: KIDecomposition, block_kraus: list[np.ndarray]) -> Channel:
    """Assemble the channel acting as identity on every J factor.

    block_kraus[l] has shape (env, k_l, k_l): the Kraus operators B_le of
    the map applied to block l's redundant factor. All env ambient Kraus
    operators come out as one (env, D, D) stack K_e = C X_e C^dagger,
    where C = F [V_1 ... V_L] is the support frame times the block
    isometries and X_e is the direct sum of 1_n tensor B_le; the identity
    on the complement of the support is added to K_0. That is one stacked
    product per block for X_e C^dagger and one for C times it; the stack
    takes env * D^2 entries.
    """
    return _assemble(*_ambient_frame(d), block_kraus)


def random_form2_channels(d: KIDecomposition, env_dim: int, seeds: Iterable[int]) -> Iterator[Channel]:
    """`random_form2_channel(d, env_dim, seed)` for each seed in turn.

    C, the complement projector and the eigenbasis of each rho_K are
    computed once for all the seeds; each channel then costs its draws
    and the assembly `form2_channel` uses.
    """
    if env_dim < 1:
        raise ValueError("env_dim must be at least 1")
    frame = _ambient_frame(d)
    bases = [eigh(hermitize(b.rho_K))[1] for b in d.blocks]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        block_kraus = []
        for vec in bases:
            k = len(vec)
            phases = np.exp(2j * np.pi * rng.random(k))
            g = rng.standard_normal((k, env_dim)) + 1j * rng.standard_normal((k, env_dim))
            env_states = g / np.linalg.norm(g, axis=1, keepdims=True)  # row kappa: |v_kappa>
            # B_e = U diag(phases * <e|v_kappa>) U^dagger, U the eigenbasis of rho_K
            block_kraus.append((vec * (phases * env_states.T)[:, None, :]) @ vec.conj().T)
        yield _assemble(*frame, block_kraus)


def random_form2_channel(d: KIDecomposition, env_dim: int = 2, seed: int = 0) -> Channel:
    """Random channel of the structure-respecting shape.

    Per block, the unitary on the redundant factor plus environment is
    drawn inside the class that holds the block's redundant state fixed:
    an environment rotation controlled on the eigenbasis of rho_K,
    composed with commuting phases. Tracing out the environment then
    preserves every state of the source ensemble by construction.
    """
    return next(random_form2_channels(d, env_dim, (seed,)))
