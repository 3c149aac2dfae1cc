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

`rate_sweep` works an array at a time. Its first pass takes the trials
of a stream block by (label, group length), one `linalg.row_blocks`
slice of DP temporaries at a time: the type-class sums of the slice
come from one DP over count vectors (`_class_sums`), and the overlap
weights, the branch decisions and the qubit charges are array
operations. The one Python step per trial is a 1-D `np.sum` per group
over the partial type class, where a plan has one. Its second pass
scores the failure branches plan by plan.

A failure branch scores (Tr sqrt(P sigma P))^2 / D from the spectrum of
the D-dim group state. Below SECTOR_SPLIT_MIN dimensions a plan's
branches are built as stacks of group states and solved by one batched
`eigvalsh` per slice. From that size on, swapping two positions that
carry the same J state commutes with sigma, and with P when the swap
maps the subspace's sequences onto themselves, which only the partial
type class can prevent. Such a swap splits the group state exactly into
its +1 and -1 sectors, so `_failure_fidelities` solves the sectors of
the disjoint valid swaps instead of the whole state, and applies the
round-off cut of the full D to the joined spectrum. The first swap's
sectors are gathered straight from the group's two half states, so a
branch that splits never forms its D x D group state.

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

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .decompose import KIDecomposition
from .ensemble import Ensemble
from .errors import ConfigTooLarge, ValidationError
from .linalg import DEFAULT_TOL, eigh, eigvalsh, hermitize, kron, rank_cut, row_blocks
from .measures import fidelity, shannon_entropy, von_neumann_entropy
from .streams import _trial_stream

DESK_SCALE_QUBITS = 20
MIXED_SUBSPACE_CAP = 4096
# A failure-branch matrix of at least this many dimensions is split by a swap
# (`_failure_fidelities`). One split against one dense solve, one BLAS thread,
# bench 3x1,2x2 plant, sectors gathered from the half states: the real solver
# (2-dim blocks) 1.55x at 64, 1.10x at 128, 0.84x at 256, 0.65x at 512; the
# complex one 1.16x at 64, 0.65x at 128, 0.59x at 256. Both use 256: at 128 a
# complex split moves the last bits of answers that a dense solve gives today,
# for 3% on the bench sweep.
SECTOR_SPLIT_MIN = 256
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


@functools.lru_cache(maxsize=256)
def _compositions(r: int, length: int) -> np.ndarray:
    """Every count vector of `length` over r letters, one row each, in ascending
    lexicographic order (drawn as stars and bars). Shared and read-only."""
    bars = np.empty((math.comb(length + r - 1, r - 1), r + 1), dtype=np.int64)
    bars[:, 0], bars[:, -1] = -1, length + r - 1
    bars[:, 1:-1] = list(itertools.combinations(range(length + r - 1), r - 1))
    counts = np.diff(bars, axis=1) - 1
    counts.flags.writeable = False
    return counts


def _type_classes(log2lam: np.ndarray, length: int):
    """Every type class of length-`length` sequences over len(log2lam) letters.

    Returns the counts (one row per class, as `_compositions` lists them),
    the class sizes and the log2 probability of one member sequence. Each
    log2 probability is its own `np.dot`: a matrix-vector product may
    differ in the last bit and reorder ties.
    """
    counts = _compositions(len(log2lam), length)
    sizes = [_multinomial(c) for c in counts.tolist()]
    log2p = [float(np.dot(c, log2lam)) for c in counts]
    return counts, sizes, log2p


@functools.lru_cache(maxsize=256)
def _class_step(r: int, length: int) -> np.ndarray:
    """How the type classes of `length` grow from those of `length - 1`: per class c
    of `length` (a row, as `_compositions` lists them) and letter a (a column), the
    row of c - e_a among the classes of `length - 1`, or their count, one past the
    last row, where c[a] = 0. Shared and read-only.

    A class of `length - 1` is the (r - 1)-subset of bar positions in
    range(n), n = length + r - 2, that draws it; its row is the subset's
    lexicographic rank, C(n, r - 1) - 1 - sum_j C(n - 1 - b_j, r - 1 - j)
    over its bars b_0 < ... < b_{r-2}. Taking a star from letter a moves
    bars a to r - 2 of c one place left, so each rank is a prefix sum of
    the terms of c's bars that stay plus a suffix sum of those that move,
    for all classes and letters in a few array operations.
    """
    cur = _compositions(r, length)
    n, k = length + r - 2, r - 1
    top = math.comb(n, k)  # no term a rank reads exceeds it: capped there, the table stays exact in int64
    binom = np.array([[min(math.comb(x, y), top) for y in range(k + 1)] for x in range(n + 1)], dtype=np.int64)
    bars = np.cumsum(cur[:, :-1], axis=1) + np.arange(k)  # c's bars, (classes, r - 1)
    column = k - np.arange(k)
    src = np.zeros(cur.shape, dtype=np.int64)  # the terms of bars j < a, then of bars j >= a
    # a bar that would stay at position n only occurs where c[a] = 0: clipped to a zero term
    src[:, 1:] = np.cumsum(binom[(n - 1 - bars).clip(0), column], axis=1)
    src[:, :-1] += np.cumsum(binom[n - bars, column][:, ::-1], axis=1)[:, ::-1]
    np.subtract(top - 1, src, out=src)
    src[cur == 0] = top
    src.flags.writeable = False
    return src


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
    full_index: np.ndarray | None = None  # the full classes' rows of `_type_classes`, most probable first
    partial: np.ndarray | None = None  # the partial class's first sequences in lexicographic order


def _compression_plan(
    spectrum: np.ndarray, entropy: float, length: int, delta: float, classes: dict
) -> _CompressionPlan:
    """Most-probable-sequences subspace at rate (entropy + delta) qubits/message.

    `classes` holds `_type_classes` of this spectrum by length; a caller that
    passes one dict for several deltas builds each length's classes once.
    """
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
    if length not in classes:
        classes[length] = _type_classes(log2lam, length)
    counts, sizes, log2p = classes[length]
    # most probable class first; the classes come in lexicographic order
    # of their counts, so the stable sort breaks ties in that order
    order = np.argsort(-np.array(log2p), kind="stable")
    filled = np.cumsum(np.array(sizes, dtype=object)[order])  # Python ints: sizes may pass 2**63
    n_full = int(np.searchsorted(filled, dim, side="right"))
    room = dim - (filled[n_full - 1] if n_full else 0)
    return _CompressionPlan(
        alphabet=r, length=length, dim=dim, qubits=budget, full=False,
        full_index=order[:n_full],
        partial=_lex_sequences(tuple(counts[order[n_full]].tolist()), room) if room > 0 else None,
    )


def _class_sums(diag: np.ndarray) -> np.ndarray:
    """Per group g, the sum over every sequence s of each type class of
    prod_j diag[g, j, s_j]: a (groups, classes) array, classes as
    `_type_classes` lists them.

    `diag` is (groups, length, r): per group, one row per member. A DP over
    the members, in position order, keeps one sum per type class of the
    prefix, plus a zero column that stands for a class with a negative
    count. A class adds the terms of its letters one at a time, in
    descending letter order, onto 0: the order of the per-group dict DP
    that the tests keep as the reference, so the sums match it bit for bit.
    """
    groups, length, r = diag.shape
    acc = np.zeros((groups, 2))
    acc[:, 0] = 1.0
    for j in range(length):
        src = _class_step(r, j + 1)
        terms = acc[:, src] * diag[:, j, None, :]
        acc = np.zeros((groups, len(src) + 1))
        sums = acc[:, :-1]
        for a in reversed(range(r)):
            sums += terms[:, :, a]
    return acc[:, :-1]


def _overlap_weights(plan: _CompressionPlan, diag: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Per group, the probability weight of its group state inside the compression subspace.

    `sums` is `_class_sums(diag)`, which does not depend on the plan. The
    full classes' sums are added one at a time in the plan's order (a
    cumulative sum), and the partial class's sequences by one 1-D `np.sum`
    per group, a block of groups gathered at a time: a 2-D `np.sum` along
    the rows adds in another order and can move the last bit.
    """
    w = np.zeros(len(diag))
    if len(plan.full_index):
        w += np.cumsum(sums[:, plan.full_index], axis=1)[:, -1]
    if plan.partial is not None:
        cols = np.arange(plan.length)
        for rows in row_blocks(len(diag), plan.partial.nbytes):
            prods = np.prod(diag[rows][:, cols[None, :], plan.partial], axis=2)
            w[rows] += [float(np.sum(p)) for p in prods]
    return np.minimum(np.maximum(w, 0.0), 1.0)


@dataclass
class _BlockData:
    spectrum: np.ndarray  # eigenvalues of the average J state, descending
    entropy: float  # its von Neumann entropy, as `info_measures` sums it
    # (m, n, n): each J state in that eigenbasis, exactly Hermitian. For n = 2 it is
    # real: state i is conjugated by diag(1, e^{i arg r01}), its off-diagonal r01
    # replaced by |r01|. A phase per basis vector commutes with every compression
    # projector, which is spanned by sequences of basis vectors, so the failure
    # spectra do not move; for n >= 3 the cycle phase arg(r01 r12 r20) is invariant.
    rotated: np.ndarray
    all_pure: bool  # over the states that reach the block, purity within tol of 1


def _block_data(d: KIDecomposition, rho_j_avg: list[np.ndarray], tol: float) -> list[_BlockData]:
    """Each block's data from its averaged J state, as `block_averages` gives it.

    Purity is read before the real gauge of a 2-dim block, so `all_pure` does
    not depend on it.
    """
    out = []
    for b, avg in zip(d.blocks, rho_j_avg):
        lam, vec = eigh(hermitize(avg))
        order = np.argsort(lam)[::-1]
        lam, vec = np.clip(lam[order], 1e-300, None), vec[:, order]
        rotated = hermitize(vec.conj().T @ b.rho_J @ vec)
        purity = np.trace(rotated @ rotated, axis1=1, axis2=2).real[b.q > 0]
        pure = bool(np.all(purity >= 1.0 - tol))
        if b.n == 2:  # the diagonal of a hermitized matrix is exactly real
            off = np.abs(rotated[:, 0, 1])
            rotated = np.stack([rotated[:, 0, 0].real, off, off, rotated[:, 1, 1].real], axis=1).reshape(-1, 2, 2)
        out.append(_BlockData(spectrum=lam, entropy=von_neumann_entropy(avg, tol), rotated=rotated, all_pure=pure))
    return out


def _swapped_codes(codes: np.ndarray, alphabet: int, a, b) -> np.ndarray:
    """The codes sum_j s_j alphabet^j of the sequences of `codes` with positions a and b
    swapped; a and b may be arrays of positions that broadcast against `codes`."""
    wa, wb = alphabet**a, alphabet**b
    return codes + (codes // wb % alphabet - codes // wa % alphabet) * (wa - wb)


def _subspace(plan: _CompressionPlan) -> tuple[np.ndarray, tuple]:
    """The subspace's sequences, one row each and the partial class's last, and
    their `halves`, which the plan's failure branches share.

    `halves` holds, for the first and for the second half of the sequence
    positions, the distinct half-sequences (one row each, in the order of
    their integer codes) and per subspace sequence the row of its
    half-sequence. The sequences are built here, not kept on the plan: a
    sweep holds the plans of all its deltas at once, so sequences kept
    there would add to its peak memory.
    """
    full_classes = _compositions(plan.alphabet, plan.length)[plan.full_index].tolist()
    parts = [_lex_sequences(c, _multinomial(c)) for c in full_classes]
    seqs = np.concatenate(parts if plan.partial is None else [*parts, plan.partial], axis=0)
    half = plan.length // 2
    halves = []
    for part in (seqs[:, :half], seqs[:, half:]):
        codes = part @ plan.alphabet ** np.arange(part.shape[1])
        _, first, inv = np.unique(codes, return_index=True, return_inverse=True)
        halves.append((part[first], inv))
    return seqs, tuple(halves)


def _swaps(seqs: np.ndarray, alphabet: int, partial_rows: int, members: list[int]) -> list[np.ndarray]:
    """The disjoint position pairs that carry the same J state and keep the subspace,
    taken greedily in position order: per pair, its permutation of the sequences
    `seqs` (the index of each one's image with the pair's positions swapped).

    A full type class always maps onto itself, so a pair keeps the subspace
    when it maps the last `partial_rows` sequences, the partial class's, onto
    themselves. That is decided for every equal-state pair of the group at
    once, by one `np.isin` over their swapped partial-class codes.
    """
    pairs = [(a, b) for a, b in itertools.combinations(range(len(members)), 2) if members[a] == members[b]]
    if not pairs:
        return []
    codes = seqs @ alphabet ** np.arange(seqs.shape[1])  # sum_j s_j alphabet^j
    partial = codes[len(codes) - partial_rows :]
    firsts, seconds = np.array(pairs).T[:, :, None]
    closed = np.isin(_swapped_codes(partial, alphabet, firsts, seconds), partial).all(axis=1)
    rank, out, taken = np.argsort(codes), [], set()
    for (a, b), ok in zip(pairs, closed.tolist()):
        if ok and not taken & {a, b}:
            out.append(rank[np.searchsorted(codes[rank], _swapped_codes(codes, alphabet, a, b))])
            taken |= {a, b}
    return out


def _half_states(rotated: np.ndarray, heads: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per group (a row of `members`, the J states of one half's positions), the
    products prod_j rho_j[s_j, s'_j] over every pair of the half's distinct
    half-sequences `heads`: (groups, len(heads), len(heads))."""
    part = np.ones((len(members), len(heads), len(heads)), dtype=rotated.dtype)
    for s, states in zip(heads.T, members.T):
        part *= rotated[states][:, s][:, :, s]
    return part


def _half_entries(data: _BlockData, members: np.ndarray, halves):
    """`entries(rows, cols)` of the states of a stack of groups (rows of `members`):
    (groups, len(rows), len(cols)), gathered from each group's two half states
    (`_half_states`), so that no D x D array is formed."""
    (heads_a, inv_a), (heads_b, inv_b) = halves
    half = members.shape[1] // 2
    part_a = _half_states(data.rotated, heads_a, members[:, :half])
    part_b = _half_states(data.rotated, heads_b, members[:, half:])

    def entries(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # not in place: numpy multiplies a one-element complex array in place by
        # another kernel, whose last bit can differ from the stacked product's
        return part_a[:, inv_a[rows]][:, :, inv_a[cols]] * part_b[:, inv_b[rows]][:, :, inv_b[cols]]

    return entries


def _group_states(data: _BlockData, members: np.ndarray, halves) -> np.ndarray:
    """The group states of a stack of groups (rows of `members`) on the compression
    subspace, entries prod_j rho_j[s_j, s'_j]: (groups, D, D), gathered by
    `_half_entries` one `row_blocks` slice of rows at a time."""
    entries = _half_entries(data, members, halves)
    idx = np.arange(len(halves[0][1]))
    states = np.empty((len(members), len(idx), len(idx)), dtype=data.rotated.dtype)
    for rows in row_blocks(len(idx), states[:, 0].nbytes):
        states[:, rows] = entries(idx[rows], idx)
    return states


def _sector_split(entries, pi: np.ndarray, sign: np.ndarray, dtype) -> list[tuple[np.ndarray, np.ndarray]]:
    """The +1 and the -1 sector of a Hermitian m that commutes with a signed permutation.

    m is read through `entries(rows, cols)`, which returns m[rows[:, None], cols]
    (from m itself, or by `_half_entries` for a group state never formed
    whole). The permutation is an involution that sends basis vector b_i to
    sign[i] b_pi[i]. Sector e is spanned by each fixed b_i with sign[i] = e
    and by (b_i + e sign[i] b_pi[i]) / sqrt(2) for each pair i < pi[i].
    Since m commutes with it, m[pi[i], pi[k]] sign[i] sign[k] = m[i, k],
    so the sector's entry for representatives i, k is
    c_i c_k (m[i, k] + e sign[k] m[i, pi[k]]), with c = 1/sqrt(2) on a
    fixed vector and 1 on a pair: two gathers, made a block of rows at a
    time. Returns per sector the positions of its representatives,
    ascending, and its matrix.
    """
    idx = np.arange(len(pi))
    fixed = pi == idx
    out = []
    for e in (1, -1):
        reps = np.flatnonzero((idx < pi) | (fixed & (sign == e)))
        partners, coef = pi[reps], e * sign[reps]
        scale = np.where(fixed[reps], math.sqrt(0.5), 1.0)
        sector = np.empty((len(reps), len(reps)), dtype=dtype)
        for rows in row_blocks(len(reps), sector[:1].nbytes):
            block = sector[rows]
            block[...] = entries(reps[rows], partners)
            block *= coef
            block += entries(reps[rows], reps)
            block *= scale[rows, None] * scale
        out.append((reps, sector))
    return out


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry of a non-negative integer array."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


def _sector_spectra(data: _BlockData, members: np.ndarray, halves, swaps: list[np.ndarray]) -> np.ndarray:
    """The eigenvalues of one group's state, joined over the sectors of its swaps
    (the permutations of `_swaps`).

    The swaps act on disjoint positions, so they commute and generate a
    group H of 2^k elements. After the first j of them, a sector is one
    sign per swap (the bits of `minus`), and its basis holds one vector
    per orbit of H on the sequences that the signs allow, labelled by the
    orbit's first sequence: its coefficient on sequence x is the sign of
    the element g of H with x = g(label). Swap j then sends the vector of
    label r to the vector of the label of swap_j(r) times that sign, a
    signed permutation, so `_sector_split` splits the sector by it. The
    first swap's two sectors are gathered straight from the group's two
    half states (`_half_entries`), so the D x D group state is never
    formed; with no swap it is built whole for one `eigvalsh`. A sector
    below SECTOR_SPLIT_MIN, or with no swap left, goes to
    `eigvalsh`; a matrix is dropped as soon as its two sectors are built.
    """
    if not swaps:
        return eigvalsh(_group_states(data, members[None], halves)[0])
    # per swap j: its permutation of the sequences, and after swaps 0..j-1 each
    # sequence's orbit label and one element (a bit per swap) that reaches it from there
    levels = []
    label, elt = np.arange(len(swaps[0])), np.zeros(len(swaps[0]), dtype=np.int64)
    for j, t in enumerate(swaps):
        levels.append((t, label, elt))
        elt = np.where(label[t] < label, elt[t] ^ (1 << j), elt)
        label = np.minimum(label, label[t])
    group = _half_entries(data, members[None], halves)
    # matrix (None: the group state, read from its half states), its labels, minus, next swap
    pending = [(None, np.arange(len(label)), 0, 0)]
    lam = []
    while pending:
        m, labels, minus, j = pending.pop()
        if m is not None and (j == len(levels) or len(m) < SECTOR_SPLIT_MIN):
            lam.append(eigvalsh(m))
            continue
        t, label, elt = levels[j]
        image = t[labels]
        sign = 1 - 2 * _parity(elt[image] & minus)
        entries = (lambda rows, cols: group(rows, cols)[0]) if m is None else (lambda rows, cols: m[rows][:, cols])
        split = _sector_split(entries, np.searchsorted(labels, label[image]), sign, data.rotated.dtype)
        del m, entries
        for bit, (reps, sector) in zip((0, 1 << j), split):
            if len(reps):
                pending.append((sector, labels[reps], minus | bit, j + 1))
        del split, sector
    return np.concatenate(lam)


def _failure_fidelities(plan: _CompressionPlan, data: _BlockData, members: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per group, fidelity (Tr sqrt(P sigma P))^2 / D of its state against the maximally mixed junk state.

    `members` holds one group per row (its J states in position order) and
    `w` their overlap weights, which give the answer for an all-pure block.
    The group state P sigma P on the compression subspace has the entries
    prod_j rho_j[s_j, s'_j] over pairs of the subspace's sequences s, s'.
    The plan's sequences and `halves` (`_subspace`) are built once per call,
    for a mixed block.
    Every factor is exactly Hermitian, and real for a 2-dim block (see
    `_BlockData.rotated`), so the product is too and a 2-dim block's goes
    to the real symmetric solver.

    Below SECTOR_SPLIT_MIN dimensions the groups' states are built as one
    stack (`_group_states`) and solved by one batched `eigvalsh` per
    `row_blocks` slice of groups; a stacked solve gives each matrix the
    eigenvalues of its own call. From that size on, each group is solved on
    its own, split by symmetry:

    If positions a and b carry the same J state
    (members[a] == members[b]), swapping them commutes with
    sigma = tensor_j rho_j, and with P when the swap maps the subspace's
    sequences onto themselves (`_swaps`). Then
    P sigma P is block diagonal in the swap's +1 and -1 sectors, exactly,
    and its spectrum is the union of theirs. The valid pairs are taken
    greedily in position order, disjoint, and the state is split by one
    swap at a time (`_sector_spectra`) while a matrix has at least
    SECTOR_SPLIT_MIN dimensions; below that size the split's overhead
    costs more than it saves on the solve. The joined spectrum's
    eigenvalues at round-off level (D * eps * largest, the cut of
    `measures.fidelity`, with D the full subspace dimension) are dropped
    before the square roots.
    `rate_sweep` refuses a mixed block's plan above MIXED_SUBSPACE_CAP
    before it evaluates any failure branch.
    """
    if data.all_pure:
        return w / plan.dim
    seqs, halves = _subspace(plan)
    if plan.dim >= SECTOR_SPLIT_MIN:
        partial_rows = 0 if plan.partial is None else len(plan.partial)
        spectra = (
            _sector_spectra(data, row, halves, _swaps(seqs, plan.alphabet, partial_rows, row.tolist()))
            for row in members
        )
    else:
        matrix_bytes = plan.dim**2 * data.rotated.itemsize
        spectra = itertools.chain.from_iterable(
            eigvalsh(_group_states(data, members[rows], halves))
            for rows in row_blocks(len(members), matrix_bytes)
        )
    out = np.empty(len(members))
    for i, lam in enumerate(spectra):
        lam = lam[rank_cut(lam, plan.dim * np.finfo(float).eps)]
        out[i] = float(np.sum(np.sqrt(lam)) ** 2) / plan.dim
    return out


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
    are low-variance. Results come back sorted by delta.

    Pass A runs once per stream block of trials. It takes the block's
    groups by label, in ascending order, and by group length, in slices
    whose `_class_sums` temporaries (groups x classes x letters floats)
    stay within `linalg.WORK_BYTES`, gathers each slice's members in
    position order and computes the slice's type-class sums once, for
    every delta. Each (block, length) pair's type classes are built once
    and shared by the deltas' plans. The overlap weights, the branch
    decisions and the qubit charges are array operations over the slice;
    a partial type class adds one 1-D `np.sum` per group. A failure branch
    over MIXED_SUBSPACE_CAP raises ConfigTooLarge before any is
    evaluated. Pass B evaluates the failure branches plan by plan, one
    `_failure_fidelities` call each, so that a plan's sequences and
    half-sequence codes (`_subspace`) are built once, and its
    branches below the split floor go to one stacked `eigvalsh` per
    slice. Each trial's fidelity is then the product of its groups'
    fidelities in ascending label order.
    On Python 3.11 and earlier every answer is bit-identical to the
    per-trial loop this replaced. That loop added the full classes' sums
    with the builtin `sum`, which Python 3.12 compensates, so there the
    loop's answers differ from these by round-off.
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
    diags = [b.rotated.diagonal(axis1=1, axis2=2).real.clip(0.0) for b in data]  # per J state, (r,)
    classes: list[dict] = [{} for _ in data]  # per block, its type classes by group length
    plans: dict[tuple[int, int, float], _CompressionPlan] = {}
    # values[l, k, t]: the fidelity of trial t's group of label l at deltas[k], 1 where
    # the plan keeps the whole space or the label is unoccupied
    values = np.ones((len(data), len(deltas), trials))
    qubits = np.zeros((len(deltas), trials), dtype=np.int64)
    # pass A decides every branch and lists each plan's failure branches, which are
    # refused over the cap before any eigvalsh runs
    failures: dict[tuple[int, int, float], list] = {}  # plan key -> [(delta index, trials, members, w)]
    start = 0
    # a row holds 2n + (number of blocks) uniforms: the picks, then one branch
    # uniform per occupied label, of which a trial reads as many as it occupies
    for u in _trial_stream(seed, trials, 2 * n + len(data)):
        drawn, labels = _pick(u, n, cdf_p, cdf_q)
        next_u = np.full(len(u), 2 * n)  # the column of each trial's next branch uniform
        for l in range(len(data)):
            in_l = labels == l
            sizes = in_l.sum(axis=1)
            by_size = np.argsort(sizes, kind="stable")
            ends = np.cumsum(np.bincount(sizes)).tolist()  # by_size[ends[L - 1]:ends[L]] have L members
            r = len(data[l].spectrum)
            for length in range(1, len(ends)):
                batch = by_size[ends[length - 1] : ends[length]]
                # a slice at a time bounds `_class_sums`' (groups, classes, r) temporaries
                class_bytes = math.comb(length + r - 1, r - 1) * r * diags[l].itemsize
                for rows in (batch[s] for s in row_blocks(len(batch), class_bytes)):
                    members = drawn[rows][in_l[rows]].reshape(len(rows), length)  # in position order
                    branch_u = u[rows, next_u[rows]]
                    ts = start + rows
                    diag = sums = None
                    for k, delta in enumerate(deltas):
                        key = (l, length, delta)
                        if key not in plans:
                            plans[key] = _compression_plan(
                                data[l].spectrum, data[l].entropy, length, delta, classes[l]
                            )
                        plan = plans[key]
                        qubits[k, ts] += plan.qubits
                        if plan.full:
                            continue  # group fidelity 1
                        if sums is None:
                            diag = diags[l][members]
                            sums = _class_sums(diag)
                        w = _overlap_weights(plan, diag, sums)
                        values[l, k, ts] = w
                        fail = branch_u > w
                        if fail.any():
                            if not data[l].all_pure and plan.dim > MIXED_SUBSPACE_CAP:
                                raise ConfigTooLarge(
                                    f"exact mixed-state fidelity needs subspace dimension <= {MIXED_SUBSPACE_CAP}"
                                )
                            failures.setdefault(key, []).append((k, ts[fail], members[fail], w[fail]))
            next_u += sizes > 0
        start += len(u)
    # pass B evaluates the failure branches plan by plan, then multiplies the group
    # fidelities in label order
    for key, parts in failures.items():
        ks = np.concatenate([np.full(len(t), k) for k, t, _, _ in parts])
        ts, members, w = (np.concatenate(a) for a in list(zip(*parts))[1:])
        values[key[0], ks, ts] = _failure_fidelities(plans[key], data[key[0]], members, w)
    fidelities = np.prod(values, axis=0)

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
