"""Monte Carlo simulation of the two transmission protocols.

Per-message protocol: measure the block label, teleport the J factor,
reattach the shared K state locally. Exactly faithful; the simulation
tracks the entanglement ledger (log2 of the J dimension per trial).

Block protocol: draw N messages, measure the label per message, group by
label, compress each group's joint J state into a fixed-rate subspace,
and reattach K factors. The compression subspace for a group of size
N_l at slack delta is spanned by the 2^floor(N_l*(S_l + delta))
most probable eigenvalue sequences of the block's average J state
(the whole space when the budget covers it). Projection success is
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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .decompose import KIDecomposition
from .ensemble import Ensemble
from .errors import ConfigTooLarge, EmptyTypicalSet
from .linalg import DEFAULT_TOL, eigh, eigvalsh, hermitize, kron
from .measures import fidelity, shannon_entropy, von_neumann_entropy

DESK_SCALE_QUBITS = 20
MIXED_SUBSPACE_CAP = 4096
_BOUNDARY_GUARD = 1e-12


# ---------------------------------------------------------------------------
# per-message protocol


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    state: int
    block: int
    ebits: float
    conditional_fidelity: float


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
    """CDF of the state pick, and one row per state of its block-label pick."""
    qmat = np.clip(np.stack([b.q for b in d.blocks], axis=1), 0.0, None)
    return _choice_cdf(e.probs / e.probs.sum()), _choice_cdf(qmat / qmat.sum(axis=1, keepdims=True))


def simulate_individual(
    e: Ensemble,
    d: KIDecomposition,
    trials: int = 10_000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> tuple[list[TrialRecord], IndividualSummary]:
    """Run the exactly-faithful per-message protocol with an entanglement ledger.

    Each trial draws a state index from the source probabilities and a
    block label from that state's weights, charges log2(n_block) ebits,
    and scores the delivered block state against the normalized block
    compression of the drawn state (equal to 1 up to round-off). The
    summary also reports the mixture check: recombining the delivered
    block states with their weights returns each source state.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    num_states = len(e)
    embedded: dict[tuple[int, int], np.ndarray] = {}
    cond_fid: dict[tuple[int, int], float] = {}
    for l, b in enumerate(d.blocks):
        proj = d.frame.embed(b.embed(np.eye(b.n * b.k, dtype=complex)))
        for i in range(num_states):
            if b.q[i] <= 0 or b.rho_J[i] is None:
                continue
            delivered = d.frame.embed(b.embed(kron(b.rho_J[i], b.rho_K)))
            embedded[(i, l)] = delivered
            comp = proj @ e.states[i] @ proj
            comp = hermitize(comp / np.trace(comp).real)
            cond_fid[(i, l)] = fidelity(delivered, comp, tol)

    mixture = 0.0
    for i in range(num_states):
        acc = np.zeros((e.dim, e.dim), dtype=complex)
        for l, b in enumerate(d.blocks):
            if (i, l) in embedded:
                acc += b.q[i] * embedded[(i, l)]
        mixture = max(mixture, float(np.linalg.norm(acc - e.states[i])))

    log_n = np.array([math.log2(b.n) for b in d.blocks])
    cdf_p, cdf_q = _pick_cdfs(e, d)
    u = np.empty((trials, 2))
    for t in range(trials):
        np.random.default_rng([seed, t]).random(out=u[t])
    states = np.searchsorted(cdf_p, u[:, 0], side="right")
    blocks = (cdf_q[states] <= u[:, 1:]).sum(axis=1)
    records = [
        TrialRecord(
            trial=t,
            state=i,
            block=l,
            ebits=float(log_n[l]),
            conditional_fidelity=cond_fid[(i, l)],
        )
        for t, (i, l) in enumerate(zip(states.tolist(), blocks.tolist()))
    ]

    ebits = log_n[blocks]
    expected = float(np.dot(d.p_block, log_n))
    summary = IndividualSummary(
        trials=trials,
        seed=seed,
        mean_ebits=float(ebits.mean()),
        stderr_ebits=float(ebits.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        max_ebits=float(ebits.max()),
        ebits_consumed_expected=expected,
        ebits_prepared_bound=float(np.max(log_n)),
        min_conditional_fidelity=float(min(r.conditional_fidelity for r in records)),
        mixture_residual=mixture,
    )
    return records, summary


# ---------------------------------------------------------------------------
# typicality bookkeeping


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(counts: tuple[int, ...]) -> int:
    total = sum(counts)
    out = 1
    for c in counts:
        out *= math.comb(total, c)
        total -= c
    return out


@dataclass(frozen=True)
class TypeClass:
    counts: tuple[int, ...]
    sequences: int
    log2_prob: float  # per member sequence


@dataclass(frozen=True)
class TypicalSet:
    """Eigenvalue-index sequences within delta of the entropy rate.

    Stored by type class over the product eigenbasis; the underlying
    dim^N projector is never materialized.
    """

    spectrum: np.ndarray
    length: int
    delta: float
    entropy_rate: float
    classes: tuple[TypeClass, ...]

    @property
    def size(self) -> int:
        return sum(c.sequences for c in self.classes)

    @property
    def log2_size(self) -> float:
        return math.log2(self.size)

    @property
    def weight(self) -> float:
        return float(sum(c.sequences * 2.0 ** c.log2_prob for c in self.classes))

    def contains(self, seq) -> bool:
        counts = [0] * len(self.spectrum)
        for s in seq:
            counts[int(s)] += 1
        counts = tuple(counts)
        return any(c.counts == counts for c in self.classes)


def typical_projector(
    spectrum, length: int, delta: float, tol: float = DEFAULT_TOL
) -> TypicalSet:
    """Typicality window over length-`length` eigenvalue sequences.

    A sequence s is typical when |-(1/N) sum log2 lam_{s_j} - S| <= delta
    (plus a 1e-12 float boundary guard). Enumerated by type class, so
    the cost is polynomial in `length`. Raises EmptyTypicalSet when no
    sequence qualifies, which is legal for small lengths.
    """
    lam = np.asarray(spectrum, dtype=float)
    if length < 1:
        raise ValueError("length must be at least 1")
    if abs(float(lam.sum()) - 1.0) > 1e-6:
        raise ValueError("spectrum must sum to 1")
    lam = lam[lam > tol * max(float(lam.max()), 0.0)]
    lam = np.sort(lam)[::-1]
    s_rate = float(-np.sum(lam * np.log2(lam)))
    log2lam = np.log2(lam)
    classes = []
    for counts in _compositions(length, len(lam)):
        log2p = float(np.dot(counts, log2lam))
        if abs(-log2p / length - s_rate) <= delta + _BOUNDARY_GUARD:
            classes.append(
                TypeClass(counts=counts, sequences=_multinomial(counts), log2_prob=log2p)
            )
    if not classes:
        raise EmptyTypicalSet(
            f"no length-{length} sequence is within {delta} of rate {s_rate:.6f}"
        )
    return TypicalSet(
        spectrum=lam, length=length, delta=delta, entropy_rate=s_rate, classes=tuple(classes)
    )


# ---------------------------------------------------------------------------
# block protocol


def _lex_sequences(counts: tuple[int, ...], limit: int) -> np.ndarray:
    """First `limit` sequences of a type class in lexicographic order."""
    length = sum(counts)
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    remaining = list(counts)

    def rec():
        if len(out) >= limit:
            return
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for a in range(len(remaining)):
            if remaining[a] > 0:
                remaining[a] -= 1
                prefix.append(a)
                rec()
                prefix.pop()
                remaining[a] += 1
                if len(out) >= limit:
                    return

    rec()
    return np.array(out, dtype=np.int64).reshape(len(out), length)


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


def _compression_plan(spectrum: np.ndarray, length: int, delta: float) -> _CompressionPlan:
    """Most-probable-sequences subspace at rate (entropy + delta) qubits/message."""
    r = len(spectrum)
    full_qubits = math.ceil(length * math.log2(r)) if r > 1 else 0
    full_dim = r**length
    s_rate = float(-np.sum(spectrum * np.log2(np.clip(spectrum, 1e-300, None))))
    budget = max(math.floor(length * (s_rate + delta) + _BOUNDARY_GUARD), 0)
    if 2**budget >= full_dim:
        return _CompressionPlan(
            alphabet=r, length=length, dim=full_dim, qubits=full_qubits, full=True
        )
    dim = 2**budget
    log2lam = np.log2(np.clip(spectrum, 1e-300, None))
    ranked = sorted(
        _compositions(length, r),
        key=lambda c: (-float(np.dot(c, log2lam)), c),
    )
    plan = _CompressionPlan(
        alphabet=r, length=length, dim=dim, qubits=budget, full=False
    )
    room = dim
    for counts in ranked:
        size = _multinomial(counts)
        if size <= room:
            plan.full_classes.append(counts)
            room -= size
        else:
            if room > 0:
                plan.partial = (counts, _lex_sequences(counts, room))
            room = 0
        if room == 0:
            break
    return plan


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
    basis: np.ndarray  # matching eigenvectors
    entropy_rate: float
    diag: dict[int, np.ndarray]  # state index -> diag of rotated J state
    rotated: dict[int, np.ndarray]  # state index -> full rotated J state
    all_pure: bool


def _block_data(d: KIDecomposition, tol: float) -> list[_BlockData]:
    out = []
    for b, avg in zip(d.blocks, d.rho_J_avg):
        lam, vec = eigh(hermitize(avg))
        order = np.argsort(lam)[::-1]
        lam, vec = np.clip(lam[order], 1e-300, None), vec[:, order]
        diag, rotated, pure = {}, {}, True
        for i in range(len(b.q)):
            if b.q[i] <= 0 or b.rho_J[i] is None:
                continue
            st = vec.conj().T @ b.rho_J[i] @ vec
            rotated[i] = st
            diag[i] = np.clip(np.real(np.diag(st)), 0.0, None)
            pure = pure and float(np.trace(st @ st).real) >= 1.0 - 1e-9
        out.append(
            _BlockData(
                spectrum=lam,
                basis=vec,
                entropy_rate=von_neumann_entropy(avg, tol),
                diag=diag,
                rotated=rotated,
                all_pure=pure,
            )
        )
    return out


def _failure_fidelity(plan: _CompressionPlan, data: _BlockData, members: list[int], w: float) -> float:
    """Fidelity of the group state against the maximally mixed junk state."""
    if data.all_pure:
        return w / plan.dim
    if plan.dim > MIXED_SUBSPACE_CAP:
        raise ConfigTooLarge(
            f"exact mixed-state fidelity needs subspace dimension <= {MIXED_SUBSPACE_CAP}"
        )
    seqs = plan.all_sequences()
    compressed = np.ones((len(seqs), len(seqs)), dtype=complex)
    for j, i in enumerate(members):
        s = seqs[:, j]
        compressed *= data.rotated[i][s[:, None], s[None, :]]
    lam = np.clip(eigvalsh(hermitize(compressed)), 0.0, None)
    return float(np.sum(np.sqrt(lam)) ** 2) / plan.dim


@dataclass(frozen=True)
class AsymptoticConfig:
    n_messages: int = 8
    delta: float = 0.25
    trials: int = 200
    seed: int = 0


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


def _draw_block_trial(rng: np.random.Generator, n: int, cdf_p: np.ndarray, cdf_q: np.ndarray):
    """One block-protocol trial's stream: n messages, their labels, the
    occupied labels ascending, and one branch uniform per occupied label."""
    u = rng.random(2 * n)
    drawn = np.searchsorted(cdf_p, u[:n], side="right")
    labels = (cdf_q[drawn] <= u[n:, None]).sum(axis=1)
    occupied = np.flatnonzero(np.bincount(labels))
    return drawn, labels, occupied, rng.random(len(occupied))


def simulate_asymptotic(
    e: Ensemble, d: KIDecomposition, cfg: AsymptoticConfig, tol: float = DEFAULT_TOL
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
    one delta `cfg.delta`.
    """
    (run,) = rate_sweep(e, d, cfg.n_messages, [cfg.delta], cfg.trials, cfg.seed, tol)
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
    """
    deltas = sorted(float(dv) for dv in deltas)
    if not deltas:
        return []
    if trials < 1 or n_messages < 1:
        raise ValueError("trials and n_messages must be at least 1")
    n, max_n = n_messages, max(b.n for b in d.blocks)
    if n * math.log2(max_n) > DESK_SCALE_QUBITS:
        raise ConfigTooLarge(
            f"n_messages * log2(max block dim) = "
            f"{n * math.log2(max_n):.1f} exceeds {DESK_SCALE_QUBITS}"
        )
    cdf_p, cdf_q = _pick_cdfs(e, d)
    data = _block_data(d, tol)
    plans: dict[tuple[int, int, float], _CompressionPlan] = {}
    fidelities = np.ones((len(deltas), trials))
    qubits = np.zeros((len(deltas), trials), dtype=np.int64)
    for t in range(trials):
        drawn, labels, occupied, branch = _draw_block_trial(
            np.random.default_rng([seed, t]), n, cdf_p, cdf_q
        )
        for l, u_group in zip(occupied.tolist(), branch):
            members = drawn[labels == l].tolist()
            diag_rows = sums = None
            for k, delta in enumerate(deltas):
                key = (l, len(members), delta)
                if key not in plans:
                    plans[key] = _compression_plan(data[l].spectrum, len(members), delta)
                plan = plans[key]
                qubits[k, t] += plan.qubits
                if plan.full:
                    continue  # group fidelity 1
                if sums is None:
                    diag_rows = np.stack([data[l].diag[i] for i in members])
                    sums = _class_sums(diag_rows)
                w = _overlap_weight(plan, diag_rows, sums)
                fidelities[k, t] *= w if u_group <= w else _failure_fidelity(plan, data[l], members, w)

    bit_rate = shannon_entropy(d.p_block, tol)
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
