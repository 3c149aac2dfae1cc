"""Monte Carlo simulation of the two transmission protocols.

Per-message protocol: measure the block label, teleport the J factor,
reattach the shared K state locally. Exactly faithful; the simulation
tracks the entanglement ledger (log2 of the J dimension per trial).

Block protocol: draw N messages, measure the label per message, group by
label, compress each group's joint J state into a fixed-rate subspace,
and reattach K factors. The compression subspace for a group of size
N_l at slack delta is spanned by the 2^floor(N_l*(S_l + delta))
most probable eigenvalue sequences of the block's average J state,
S_l its entropy as `info_measures` sums it (the whole space when the
budget covers it). Projection success is
sampled; the failure branch delivers the maximally mixed state on the
compression subspace. Fidelities of N-message sequences are computed
exactly on the occupied group spaces, never materializing dim^N
operators outside the chosen subspace.

Randomness contract: one master seed; trial t draws from
numpy.random.default_rng([seed, t]). A per-message trial draws
random(2): the state, then its block label. A block trial draws
random(2N): the N messages, then one label per message; then random(g):
one uniform per occupied group in ascending label order. Each pick is
searchsorted(cdf, u, side="right") on the CDF that Generator.choice(p=...)
builds, so it equals choice's draw. The stream does not depend on delta:
rate_sweep draws each trial once and scores every delta on it, so runs
at different rates with one seed are paired.

The streams are drawn in bulk, a block of trials at a time, by
`streams._trial_uniforms`: a bit-exact numpy port of SeedSequence, PCG64
and Generator.random(), vectorised over t. The tests check it against
default_rng([seed, t]) itself. Both simulators pick every state and
label of a whole stream block at once with `_pick`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .decompose import KIDecomposition
from .ensemble import Ensemble
from .errors import ConfigTooLarge, ValidationError
from .linalg import DEFAULT_TOL, eigh, eigvalsh, hermitize, kron, rank_cut
from .measures import fidelity, shannon_entropy, von_neumann_entropy
from .streams import _trial_stream

DESK_SCALE_QUBITS = 20
MIXED_SUBSPACE_CAP = 4096
_BOUNDARY_GUARD = 1e-12


# ---------------------------------------------------------------------------
# per-message protocol


@dataclass(frozen=True)
class Trials:
    """Per-trial outcomes of `simulate_individual`, entry t for trial t."""

    state: np.ndarray
    block: np.ndarray
    ebits: np.ndarray
    conditional_fidelity: np.ndarray


@dataclass(frozen=True)
class IndividualSummary:
    trials: int
    seed: int
    mean_ebits: float
    stderr_ebits: float
    max_ebits: float
    ebits_consumed_expected: float
    ebits_prepared_bound: float
    min_conditional_fidelity: float
    mixture_residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """Row-wise CDF of `p` as `Generator.choice(p=...)` builds it, so that
    `searchsorted(cdf, u, side="right")` picks what `choice` picks from u."""
    c = np.cumsum(p, axis=-1)
    c /= c[..., -1:]
    return c


def _pick_cdfs(e: Ensemble, d: KIDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """CDF of the state pick, and one row per state of its block-label pick.

    Raises ValidationError for a state with no positive block weight: its
    label pick has no distribution to draw from.
    """
    qmat = np.clip(np.stack([b.q for b in d.blocks], axis=1), 0.0, None)
    total = qmat.sum(axis=1, keepdims=True)
    if (empty := np.flatnonzero(~(total[:, 0] > 0))).size:
        raise ValidationError(f"state {empty[0]} has no positive weight on any block")
    return _choice_cdf(e.probs / e.probs.sum()), _choice_cdf(qmat / total)


def _pick(u: np.ndarray, n: int, cdf_p: np.ndarray, cdf_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n states of each stream row, from its first n uniforms, and one
    block label per state, from the next n: two (rows, n) arrays."""
    states = np.searchsorted(cdf_p, u[:, :n], side="right")
    return states, (cdf_q[states] <= u[:, n : 2 * n, None]).sum(axis=-1)


def simulate_individual(
    e: Ensemble,
    d: KIDecomposition,
    trials: int = 10_000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> tuple[Trials, IndividualSummary]:
    """Run the exactly-faithful per-message protocol with an entanglement ledger.

    Each trial draws a state index from the source probabilities and a
    block label from that state's weights, charges log2(n_block) ebits,
    and scores the delivered block state against the normalized block
    compression of the drawn state (equal to 1 up to round-off). Both
    live in the block's own n*k-dimensional space: the compression of
    rho_i onto block l is C_l^dagger rho_i C_l, with C_l from
    `d.ambient_isometries()`, and the delivered state is
    rho_J[i] tensor rho_K. The
    summary also reports the mixture check: recombining the delivered
    block states with their weights returns each source state, which is
    `d.reconstruction_residual(e)`.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cond_fid = np.full((len(e), len(d.blocks)), np.nan)  # NaN: the state misses the block
    for l, (b, c) in enumerate(zip(d.blocks, d.ambient_isometries())):
        hits = np.flatnonzero(b.q > 0)
        comp = c.conj().T @ e.states[hits] @ c
        comp = hermitize(comp / np.trace(comp, axis1=1, axis2=2).real[:, None, None])
        for i, sigma in zip(hits, comp):
            cond_fid[i, l] = fidelity(kron(b.rho_J[i], b.rho_K), sigma, tol)

    log_n = np.array([math.log2(b.n) for b in d.blocks])
    u = np.concatenate(list(_trial_stream(seed, trials, 2)))
    states, blocks = (a[:, 0] for a in _pick(u, 1, *_pick_cdfs(e, d)))
    fid = cond_fid[states, blocks]
    if np.isnan(fid).any():
        raise KeyError("a trial picked a state and block with no delivered state")
    ebits = log_n[blocks]
    summary = IndividualSummary(
        trials=trials,
        seed=seed,
        mean_ebits=float(ebits.mean()),
        stderr_ebits=float(ebits.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        max_ebits=float(ebits.max()),
        ebits_consumed_expected=float(np.dot(d.block_averages(e.probs)[0], log_n)),
        ebits_prepared_bound=float(np.max(log_n)),
        min_conditional_fidelity=float(fid.min()),
        mixture_residual=d.reconstruction_residual(e),
    )
    return Trials(state=states, block=blocks, ebits=ebits, conditional_fidelity=fid), summary


# ---------------------------------------------------------------------------
# type-class bookkeeping


def _multinomial(counts: tuple[int, ...]) -> int:
    total = sum(counts)
    out = 1
    for c in counts:
        out *= math.comb(total, c)
        total -= c
    return out


def _type_classes(log2lam: np.ndarray, length: int):
    """Every type class of length-`length` sequences over len(log2lam) letters.

    Drawn as stars and bars, which lists the count vectors in ascending
    lexicographic order. Returns the counts (one row per class), the
    class sizes and the log2 probability of one member sequence. Each
    log2 probability is its own `np.dot`: a matrix-vector product may
    differ in the last bit and reorder ties.
    """
    r = len(log2lam)
    bars = np.array(list(itertools.combinations(range(length + r - 1), r - 1)), dtype=np.int64)
    counts = np.diff(bars, axis=1, prepend=-1, append=length + r - 1) - 1
    sizes = [_multinomial(c) for c in counts.tolist()]
    log2p = [float(np.dot(c, log2lam)) for c in counts]
    return counts, sizes, log2p


# ---------------------------------------------------------------------------
# block protocol


def _lex_sequences(counts: tuple[int, ...], limit: int) -> np.ndarray:
    """First `limit` sequences of a type class in lexicographic order, for 1 <= limit <= class size:
    the sorted sequence, then `limit - 1` of Narayana's next-permutation steps."""
    seq = [a for a, c in enumerate(counts) for _ in range(c)]
    out = [seq.copy()]
    for _ in range(limit - 1):
        i = len(seq) - 2  # the last ascent
        while seq[i] >= seq[i + 1]:
            i -= 1
        j = len(seq) - 1  # the last entry above it
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = seq[:i:-1]
        out.append(seq.copy())
    return np.array(out, dtype=np.int64)


@dataclass
class _CompressionPlan:
    """Receiver-side plan for one (block, group size, rate slack)."""

    alphabet: int
    length: int
    dim: int
    qubits: int
    full: bool
    full_classes: list[tuple[int, ...]] = field(default_factory=list)
    partial: tuple[tuple[int, ...], np.ndarray] | None = None

    def all_sequences(self) -> np.ndarray:
        """The subspace's sequences, rebuilt on each call rather than cached:
        a sweep keeps the plans of all its deltas alive at once, so cached
        sequences would add to its peak memory, while a rebuild costs
        little next to the eigvalsh that follows it."""
        parts = [_lex_sequences(c, _multinomial(c)) for c in self.full_classes]
        if self.partial is not None:
            parts.append(self.partial[1])
        if not parts:
            return np.empty((0, self.length), dtype=np.int64)
        return np.concatenate(parts, axis=0)


def _compression_plan(spectrum: np.ndarray, entropy: float, length: int, delta: float) -> _CompressionPlan:
    """Most-probable-sequences subspace at rate (entropy + delta) qubits/message."""
    r = len(spectrum)
    full_qubits = math.ceil(length * math.log2(r)) if r > 1 else 0
    full_dim = r**length
    log2lam = np.log2(np.clip(spectrum, 1e-300, None))
    # clamped as a float: a huge slack would overflow floor() or build a huge 2**budget,
    # and every budget from full_dim.bit_length() on keeps the whole space
    budget = math.floor(min(max(length * (entropy + delta) + _BOUNDARY_GUARD, 0.0), full_dim.bit_length()))
    if 2**budget >= full_dim:
        return _CompressionPlan(
            alphabet=r, length=length, dim=full_dim, qubits=full_qubits, full=True
        )
    dim = 2**budget
    counts, sizes, log2p = _type_classes(log2lam, length)
    # most probable class first; the classes come in lexicographic order
    # of their counts, so the stable sort breaks ties in that order
    order = np.argsort(-np.array(log2p), kind="stable")
    ranked = counts[order].tolist()
    filled = np.cumsum(np.array(sizes, dtype=object)[order])  # Python ints: sizes may pass 2**63
    n_full = int(np.searchsorted(filled, dim, side="right"))
    room = dim - (filled[n_full - 1] if n_full else 0)
    partial = tuple(ranked[n_full])
    return _CompressionPlan(
        alphabet=r, length=length, dim=dim, qubits=budget, full=False,
        full_classes=[tuple(c) for c in ranked[:n_full]],
        partial=(partial, _lex_sequences(partial, room)) if room > 0 else None,
    )


def _class_sums(diag_rows: np.ndarray) -> dict[tuple[int, ...], float]:
    """Sum over all sequences of prod_j diag_rows[j, s_j], keyed by type class."""
    r = diag_rows.shape[1]
    acc: dict[tuple[int, ...], float] = {tuple([0] * r): 1.0}
    for row in diag_rows:
        nxt: dict[tuple[int, ...], float] = {}
        for counts, val in acc.items():
            for a in range(r):
                c2 = counts[:a] + (counts[a] + 1,) + counts[a + 1 :]
                nxt[c2] = nxt.get(c2, 0.0) + val * float(row[a])
        acc = nxt
    return acc


def _overlap_weight(
    plan: _CompressionPlan, diag_rows: np.ndarray, sums: dict[tuple[int, ...], float]
) -> float:
    """Probability weight of the group state inside the compression subspace.

    `sums` is `_class_sums(diag_rows)`, which does not depend on the plan.
    """
    w = sum(sums.get(c, 0.0) for c in plan.full_classes)
    if plan.partial is not None:
        _, seqs = plan.partial
        cols = np.arange(plan.length)
        w += float(np.sum(np.prod(diag_rows[cols[None, :], seqs], axis=1)))
    return min(max(w, 0.0), 1.0)


@dataclass
class _BlockData:
    spectrum: np.ndarray  # eigenvalues of the average J state, descending
    entropy: float  # its von Neumann entropy, as `info_measures` sums it
    rotated: np.ndarray  # (m, n, n): each J state in that eigenbasis, exactly Hermitian
    all_pure: bool  # over the states that reach the block, purity within tol of 1


def _block_data(d: KIDecomposition, rho_j_avg: list[np.ndarray], tol: float) -> list[_BlockData]:
    """Each block's data from its averaged J state, as `block_averages` gives it."""
    out = []
    for b, avg in zip(d.blocks, rho_j_avg):
        lam, vec = eigh(hermitize(avg))
        order = np.argsort(lam)[::-1]
        lam, vec = np.clip(lam[order], 1e-300, None), vec[:, order]
        rotated = hermitize(vec.conj().T @ b.rho_J @ vec)
        purity = np.trace(rotated @ rotated, axis1=1, axis2=2).real[b.q > 0]
        pure = bool(np.all(purity >= 1.0 - tol))
        out.append(_BlockData(spectrum=lam, entropy=von_neumann_entropy(avg, tol), rotated=rotated, all_pure=pure))
    return out


def _failure_fidelity(plan: _CompressionPlan, data: _BlockData, members: list[int], w: float) -> float:
    """Fidelity of the group state against the maximally mixed junk state.

    The group state on the compression subspace has the entries
    prod_j rho_j[s_j, s'_j] over pairs of the subspace's sequences s, s'.
    It is built per half of the sequence positions: each half-sequence
    is coded as one integer, the half's product is taken over its
    distinct codes only, and one gather per half spreads it over the
    subspace. Every factor is exactly Hermitian (see `_block_data`), so
    the product is too. Its eigenvalues at round-off level (dim * eps *
    largest, the cut of `measures.fidelity`) are dropped before the
    square roots. `rate_sweep` refuses a mixed block's plan above
    MIXED_SUBSPACE_CAP before it evaluates any failure branch.
    """
    if data.all_pure:
        return w / plan.dim
    seqs = plan.all_sequences()

    def half_state(cols: range) -> np.ndarray:
        codes = seqs[:, cols] @ plan.alphabet ** np.arange(len(cols))
        _, first, inv = np.unique(codes, return_index=True, return_inverse=True)
        heads = seqs[first]
        part = np.ones((len(first), len(first)), dtype=complex)
        for j in cols:
            s = heads[:, j]
            part *= data.rotated[members[j]][s[:, None], s[None, :]]
        return part[inv[:, None], inv[None, :]]

    half = len(members) // 2
    compressed = half_state(range(half))
    compressed *= half_state(range(half, len(members)))
    lam = eigvalsh(compressed)
    lam = lam[rank_cut(lam, len(lam) * np.finfo(float).eps)]
    return float(np.sum(np.sqrt(lam)) ** 2) / plan.dim


@dataclass(frozen=True)
class AsymptoticRun:
    """Outcome of one block-protocol run at a fixed rate slack."""

    n_messages: int
    delta: float
    trials: int
    seed: int
    qubit_rate_used: float
    bit_rate_used: float
    f_bar: float
    f_stderr: float
    fidelities: np.ndarray

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["fidelities"]
        return out


def simulate_asymptotic(
    e: Ensemble,
    d: KIDecomposition,
    n_messages: int = 8,
    delta: float = 0.25,
    trials: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> AsymptoticRun:
    """Monte Carlo run of the block compression-and-teleport protocol.

    Per trial: draw the message sequence and the per-message labels,
    group by label, and score each group through its fixed-rate
    compression subspace (success keeps the projected state, failure
    substitutes junk). The trial fidelity is the product of group
    fidelities; the K factors and the label-conditioned embedding are
    exact on both sides and drop out. Reported rates: mean qubits per
    message actually charged, and the Shannon bound on the label
    sequence (no entropy coder is run). This is `rate_sweep` at the
    one slack `delta`.
    """
    (run,) = rate_sweep(e, d, n_messages, [delta], trials, seed, tol)
    return run


def rate_sweep(
    e: Ensemble,
    d: KIDecomposition,
    n_messages: int,
    deltas,
    trials: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> list[AsymptoticRun]:
    """One block-protocol run per slack value, sharing the master seed.

    Each trial is drawn once and scored at every delta, so all runs see
    the same messages, labels and branch uniforms, and rate comparisons
    are low-variance. A first pass decides every group's branch, so a
    failure branch over MIXED_SUBSPACE_CAP raises ConfigTooLarge before
    any is evaluated; a second pass evaluates the failure branches and
    multiplies the group fidelities in trial order. Results come back
    sorted by delta.
    """
    deltas = sorted(float(dv) for dv in deltas)
    if not all(math.isfinite(dv) for dv in deltas):
        raise ValueError(f"deltas must be finite, got {deltas}")
    if trials < 1 or n_messages < 1:
        raise ValueError("trials and n_messages must be at least 1")
    n, max_n = n_messages, max(b.n for b in d.blocks)
    if n * math.log2(max_n) > DESK_SCALE_QUBITS:
        raise ConfigTooLarge(
            f"n_messages * log2(max block dim) = "
            f"{n * math.log2(max_n):.1f} exceeds {DESK_SCALE_QUBITS}"
        )
    if not deltas:
        return []
    cdf_p, cdf_q = _pick_cdfs(e, d)
    p_block, rho_j_avg = d.block_averages(e.probs)
    data = _block_data(d, rho_j_avg, tol)
    plans: dict[tuple[int, int, float], _CompressionPlan] = {}
    fidelities = np.ones((len(deltas), trials))
    qubits = np.zeros((len(deltas), trials), dtype=np.int64)
    # a row holds 2n + (number of blocks) uniforms: the picks, then one branch
    # uniform per occupied label, of which a trial reads as many as it occupies
    rows = itertools.chain.from_iterable(
        zip(u[:, 2 * n :], *_pick(u, n, cdf_p, cdf_q))
        for u in _trial_stream(seed, trials, 2 * n + len(d.blocks))
    )
    # pass A decides every branch; a failure branch is a job (plan, block data, members)
    # and is refused over the cap before any eigvalsh runs
    factors: list[tuple[int, int, float, tuple | None]] = []  # (delta index, trial, w, job)
    for t, (branch, drawn, labels) in enumerate(rows):
        occupied = np.flatnonzero(np.bincount(labels))
        for l, u_group in zip(occupied.tolist(), branch):
            members = drawn[labels == l].tolist()
            diag_rows = sums = None
            for k, delta in enumerate(deltas):
                key = (l, len(members), delta)
                if key not in plans:
                    plans[key] = _compression_plan(data[l].spectrum, data[l].entropy, len(members), delta)
                plan = plans[key]
                qubits[k, t] += plan.qubits
                if plan.full:
                    continue  # group fidelity 1
                if sums is None:
                    diag_rows = data[l].rotated[members].diagonal(axis1=1, axis2=2).real.clip(0.0)
                    sums = _class_sums(diag_rows)
                w = _overlap_weight(plan, diag_rows, sums)
                if u_group <= w:
                    factors.append((k, t, w, None))
                    continue
                if not data[l].all_pure and plan.dim > MIXED_SUBSPACE_CAP:
                    raise ConfigTooLarge(
                        f"exact mixed-state fidelity needs subspace dimension <= {MIXED_SUBSPACE_CAP}"
                    )
                factors.append((k, t, w, (plan, data[l], members)))
    # pass B evaluates the jobs and multiplies every factor in the order pass A met it
    for k, t, w, job in factors:
        fidelities[k, t] *= w if job is None else _failure_fidelity(*job, w)

    bit_rate = shannon_entropy(p_block, tol)
    return [
        AsymptoticRun(
            n_messages=n,
            delta=delta,
            trials=trials,
            seed=seed,
            qubit_rate_used=float((q / n).mean()),
            bit_rate_used=bit_rate,
            f_bar=float(f.mean()),
            f_stderr=float(f.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
            fidelities=f,
        )
        for delta, f, q in zip(deltas, fidelities, qubits)
    ]
