"""Canonical block decomposition of an ensemble into classical, nonclassical
and redundant parts.

The pipeline restricts the ensemble onto the support of its average
state, splits it into irreducible copies of the operator algebra
generated by the restricted states, reads off per-state weights and
J states of each copy, and finally merges every pair that carries
proportional weights and unitarily equal J states, equivalent copies
of one algebra block among them. The block structure is solved from the
states alone (the commutant of the states themselves); the algebra
they generate is never built. The merged structure is the coarsest one in
which every state takes the form

    rho_i = directsum_l  q[i,l] * (rho_J[i,l] tensor rho_K[l])

with rho_K[l] independent of i and the rho_J[i,l] admitting no common
finer block split.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .algebra import commutant, intertwiner, intertwiner_basis, irrep_decompose
from .ensemble import Ensemble, require_valid, support_restrict, _integer, _matrix_to_pairs, _number, _pairs_to_matrix, _to_json
from .errors import FormViolation, ParseError
from .linalg import DEFAULT_TOL, direct_sum, frob, hermitize, kron

__all__ = [
    "KIBlock",
    "KIDecomposition",
    "ki_decompose",
    "mergeable",
    "verify",
    "remove_redundancy",
    "VerificationReport",
    "decomposition_to_doc",
    "decomposition_from_doc",
    "write_decomposition",
    "read_decomposition",
]


@dataclass(frozen=True)
class KIBlock:
    """One summand: C^n (nonclassical factor) tensor C^k (redundant factor).

    q[i] is the probability weight of state i on this block; rho_J is the
    (m, n, n) stack of normalized block states, row i zero exactly where
    q[i] = 0 (state i misses the block). rho_K is the
    shared k x k redundant state, stored once because it does not depend
    on i. The isometry maps C^n tensor C^k into the support space,
    columns ordered (a, j) -> a*k + j.
    """

    n: int
    k: int
    isometry: np.ndarray
    rho_K: np.ndarray
    q: np.ndarray
    rho_J: np.ndarray  # (m, n, n)


@dataclass(frozen=True)
class KIDecomposition:
    """Blocks of an ensemble, with `frame` the (ambient_dim, support_rank) isometry F
    from the support of the average state into the ambient space."""

    frame: np.ndarray
    blocks: list[KIBlock]

    def block_averages(self, probs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """p_block[l] = sum_i p_i q[i] and the averaged J state sum_i p_i q[i] rho_J[i] / p_block[l]
        of each block, for source probabilities `probs`; a block no state reaches has
        p_block[l] = 0 and a zero averaged J state."""
        p_block = np.array([float(np.dot(probs, b.q)) for b in self.blocks])
        rho_j_avg = []
        for b, pl in zip(self.blocks, p_block):
            acc = np.zeros((b.n, b.n), dtype=complex)
            for w, s in zip(probs * b.q, b.rho_J):  # in state order; a missed block adds zeros
                acc += w * s
            rho_j_avg.append(hermitize(acc / pl) if pl else np.zeros_like(acc))
        return p_block, rho_j_avg

    def ambient_isometries(self) -> list[np.ndarray]:
        """C_l = F V_l for each block l: the isometry from C^n tensor C^k into the ambient space."""
        return [self.frame @ b.isometry for b in self.blocks]

    def _reconstructions(self, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """The `shape` stack of states `rows` rebuilt: per block, one product over the rows it reaches."""
        acc = np.zeros(shape, dtype=complex)
        for b, c in zip(self.blocks, self.ambient_isometries()):
            q = b.q[rows]
            idx = np.flatnonzero(q > 0)
            part = c @ (q[idx, None, None] * kron(np.asarray(b.rho_J)[rows[idx]], b.rho_K)) @ c.conj().T
            if len(idx) == len(rows):
                acc += part
            else:
                np.add.at(acc, idx, part)  # in place; `acc[idx] += part` would copy the rows first
            del part  # before the next block's product
        return acc

    def reconstruct(self, i: int) -> np.ndarray:
        """Ambient-space state assembled from the block data of state i."""
        dim = len(self.frame)
        return self._reconstructions(np.array([i]), (1, dim, dim))[0]

    def reconstruction_residual(self, e: Ensemble) -> float:
        """Largest Frobenius distance between a state of `e` and its reconstruction, all states
        rebuilt at once by the sum that `reconstruct` makes."""
        acc = self._reconstructions(np.arange(len(e)), e.states.shape)
        acc -= e.states
        return float(np.max([frob(x) for x in acc]))  # a NaN residual stays NaN


# ---------------------------------------------------------------------------
# construction


def _extract_block_data(copy: np.ndarray, states: np.ndarray, tol: float) -> KIBlock:
    """The pre-merge block of one irreducible copy, a (dim, n) isometry: k = 1, per-state
    weights (the traces of the compressed states) and the (m, n, n) stack of normalized J
    states, all states in one call; a weight at or below tol is 0 and its J state zero."""
    comp = copy.conj().T @ states @ copy
    weight = np.trace(comp, axis1=1, axis2=2).real
    q = np.where(weight > tol, weight, 0.0)
    sigmas = np.zeros_like(comp)
    hit = np.flatnonzero(q)
    sigmas[hit] = hermitize(comp[hit] / q[hit, None, None])
    return KIBlock(n=copy.shape[1], k=1, isometry=copy, rho_K=np.ones((1, 1), dtype=complex), q=q, rho_J=sigmas)


def _support_set(q: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(q > 0).tolist())


def mergeable(a: KIBlock, b: KIBlock, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float] | None:
    """Merge witness (V, c) for two blocks of one decomposition, or None.

    Blocks merge when they have equal J dimension, identical index sets
    S of contributing states, weights related by one constant c > 0, and a
    single unitary V carrying every J state of `a` onto the matching J
    state of `b`. Near-threshold cases resolve toward not merging.
    The candidate V is read off the intertwiners from rho_J_a[S] to
    rho_J_b[S] (`intertwiner_basis`, the commutant's solve) by
    `intertwiner`; the residual test decides. Equivalent copies of one
    algebra block merge with c = 1.
    """
    if a.n != b.n:
        return None
    support = _support_set(a.q)
    if support != _support_set(b.q) or not support:
        return None
    qa = a.q[list(support)]
    qb = b.q[list(support)]
    c = float(np.dot(qb, qa) / np.dot(qa, qa))
    if c <= 0:
        return None
    if np.max(np.abs(qb - c * qa) / qb) > tol:
        return None
    if a.n == 1:
        v = np.ones((1, 1), dtype=complex)
    else:
        ties = intertwiner_basis(a.rho_J[list(support)], b.rho_J[list(support)], tol)
        if not len(ties):
            return None
        v = intertwiner(ties)
    for i in support:
        resid = frob(v @ a.rho_J[i] @ v.conj().T - b.rho_J[i])
        if resid > tol * max(1.0, frob(b.rho_J[i])):
            return None
    return v, c


def _merge(a: KIBlock, b: KIBlock, v: np.ndarray, c: float) -> KIBlock:
    """Fold the split copy b (k = 1, as every block `_merge_to_fixpoint` folds in is)
    into block a after rotating b's J factor by v: b becomes a's last K column."""
    r = a.isometry.shape[0]
    cols = np.concatenate([a.isometry.reshape(r, a.n, a.k), (b.isometry @ v)[:, :, None]], axis=2)
    rho_k = direct_sum([a.rho_K, c * b.rho_K]) / (1.0 + c)
    return replace(a, k=a.k + 1, isometry=cols.reshape(r, -1), rho_K=rho_k, q=a.q * (1.0 + c))


def _canonicalize_redundant_factor(block: KIBlock) -> KIBlock:
    """Permute the K basis so the diagonal rho_K has descending weights, ties in merge order.

    rho_K is diagonal by construction (1 for each split copy, and `_merge` stacks
    scaled copies), so no eigensolve runs: sorting its diagonal fixes the K basis.
    """
    w = block.rho_K.diagonal().real
    order = np.argsort(-w, kind="stable")
    perm = np.eye(block.k, dtype=complex)[:, order]
    iso = block.isometry @ kron(np.eye(block.n, dtype=complex), perm)
    return replace(block, isometry=iso, rho_K=np.diag(w[order]).astype(complex))


def _block_key(block: KIBlock):
    """Canonical block order: descending n, descending k, then the weight row q ascending
    (lexicographic), so blocks of one shape never fall back to the split's probe order."""
    return (-block.n, -block.k, *block.q)


def _merge_to_fixpoint(blocks: list[KIBlock], tol: float) -> list[KIBlock]:
    """One pass in `_block_key` order: each block folds into the first kept block it is
    `mergeable` with, or is kept. Mergeability is transitive and a merged block keeps its
    first block's J states (q scaled by 1 + c), so this is the fixpoint. The caller sorts."""
    kept: list[KIBlock] = []
    for b in sorted(blocks, key=_block_key):
        for ia, a in enumerate(kept):
            if (witness := mergeable(a, b, tol)) is not None:
                kept[ia] = _merge(a, b, *witness)
                break
        else:
            kept.append(b)
    return kept


def ki_decompose(e: Ensemble, seed: int = 0, tol: float = DEFAULT_TOL) -> KIDecomposition:
    """Compute the canonical block decomposition of a valid ensemble.

    Pipeline: restrict onto the support of the average state, split it
    into irreducible copies of the algebra generated by the restricted
    states (solved from the states' own commutant, `commutant`; no closure
    runs), extract per-state weights and J states of
    each copy, then merge weight-proportional unitarily-equal blocks in
    one pass in canonical order. Output block order and K bases are canonical, so identical
    (input, seed, tol) gives identical output.
    """
    require_valid(e, tol)
    frame, er = support_restrict(e, tol)
    copies = irrep_decompose(hermitize(er.states), seed, tol)  # exactly Hermitian: no adjoints appended
    blocks = [_extract_block_data(copy, er.states, tol) for copy in copies]
    blocks = [_canonicalize_redundant_factor(b) for b in _merge_to_fixpoint(blocks, tol)]
    d = KIDecomposition(frame=frame, blocks=sorted(blocks, key=_block_key))

    worst = d.reconstruction_residual(e)
    if worst > max(tol, 1e4 * np.finfo(float).eps) * max(1.0, max(frob(s) for s in e.states)):
        raise FormViolation(f"reconstruction residual {worst:.3e} exceeds tolerance")
    return d


# ---------------------------------------------------------------------------
# verification and redundancy removal


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {"ok": self.ok, **asdict(self)}


def verify(
    d: KIDecomposition,
    e: Ensemble,
    tol: float = DEFAULT_TOL,
    *,
    channels: int = 20,
    env_dim: int = 2,
    seed: int = 0,
) -> VerificationReport:
    """Check a decomposition against its ensemble; reports, never raises.

    Covered: per-state reconstruction, weight normalization, per-block
    irreducibility of the J states (their commutant is the scalars, so by
    the double commutant theorem they generate the full n x n matrix
    algebra: `commutant`, the same solve that splits the states; n = 1
    needs none), pairwise
    non-mergeability, and preservation of every state under `channels`
    random structure-respecting channels (identity on J, unitary on K plus
    environment, environment traced out; seeds seed * 1000 + r). The
    channel check computes C = F [V_1 ... V_L] (frame times block
    isometries), the complement projector and each rho_K eigenbasis
    once per call. It builds the channels a chunk at a time as one
    (c, env_dim, D, D) Kraus stack (`oracles.random_form2_kraus`) and
    applies the chunk to all m states with one stacked product per Kraus
    term; a chunk's working set stays within `linalg.WORK_BYTES`, or is
    one channel's when a single channel needs more. Its residual is the
    largest Frobenius norm of Phi(rho_i) - rho_i.
    """
    from . import oracles  # local import; oracles builds on this module

    checks: list[CheckResult] = []
    thr = max(tol, 1e-8)

    def check(name, fn):
        """Record check `name`; fn returns (ok, residual, detail)."""
        # a structurally broken document must surface as a failed check,
        # not as an exception out of a reporting operation
        try:
            ok, residual, detail = fn()
        except Exception as exc:  # noqa: BLE001
            ok, residual, detail = False, float("inf"), f"check crashed: {exc}"
        checks.append(CheckResult(name, ok, residual, detail))

    def within_thr(residual):
        return residual <= thr, residual, ""

    def irreducible(b):
        support = _support_set(b.q)
        if not support:
            return False, float("inf"), "no states"
        comm_dim = commutant(np.asarray(b.rho_J)[list(support)], tol).size
        return comm_dim == 1, float(comm_dim - 1), f"commutant dimension {comm_dim}"

    def weight_rows():
        return max(abs(float(sum(b.q[i] for b in d.blocks)) - 1.0) for i in range(len(e)))

    def non_mergeable():
        pairs = itertools.combinations(range(len(d.blocks)), 2)
        hits = [(ia, ib) for ia, ib in pairs if mergeable(d.blocks[ia], d.blocks[ib], tol) is not None]
        return not hits, float(len(hits)), f"mergeable pairs: {hits}" if hits else ""

    def chunk_drifts(kraus):
        """Per channel of a (c, env, D, D) chunk, the largest Frobenius norm of Phi(rho_i) - rho_i."""
        out = oracles.apply_kraus(kraus, e.states)
        out -= e.states
        return np.linalg.norm(out, axis=(2, 3)).max(axis=1).tolist()

    def channel_drift():
        # map holds no chunk while the next one is built
        chunks = oracles.random_form2_kraus(d, env_dim, (seed * 1000 + r for r in range(channels)), len(e))
        return float(np.max([0.0, *itertools.chain.from_iterable(map(chunk_drifts, chunks))]))

    check("reconstruction", lambda: within_thr(d.reconstruction_residual(e)))
    check("weight_rows_sum_to_1", lambda: within_thr(weight_rows()))
    for l, b in enumerate(d.blocks):
        check(f"irreducible_block_{l}", lambda: irreducible(b))
    check("pairwise_non_mergeable", non_mergeable)
    check("channel_preservation", lambda: within_thr(channel_drift()))

    return VerificationReport(checks)


def remove_redundancy(d: KIDecomposition, e: Ensemble) -> Ensemble:
    """Ensemble carrying only the classical and nonclassical parts.

    Each state is replaced by the direct sum over blocks of its weighted
    J states; the shared K factors are dropped. Re-decomposing the
    result gives k = 1 on every block and zero redundant information,
    while the classical and nonclassical parts are unchanged.
    """
    parts = [np.where(b.q > 0, b.q, 0.0)[:, None, None] * b.rho_J for b in d.blocks]
    return Ensemble(probs=e.probs.copy(), states=hermitize(direct_sum(parts)))


# ---------------------------------------------------------------------------
# serialization


def decomposition_to_doc(d: KIDecomposition, probs: np.ndarray) -> dict:
    """The JSON document of `d`, with each block's `p` and `rho_J_avg` derived from `probs`."""
    p_block, rho_j_avg = d.block_averages(probs)
    return {
        "ambient_dim": d.frame.shape[0],
        "support_rank": d.frame.shape[1],
        "frame": _matrix_to_pairs(d.frame),
        "blocks": [
            {
                "n": b.n,
                "k": b.k,
                "p": float(p),
                "isometry": _matrix_to_pairs(b.isometry),
                "rho_K": _matrix_to_pairs(b.rho_K),
                "q": [float(x) for x in b.q],
                "rho_J": [None if qi <= 0 else _matrix_to_pairs(s) for qi, s in zip(b.q, b.rho_J)],
                "rho_J_avg": _matrix_to_pairs(avg),
            }
            for b, p, avg in zip(d.blocks, p_block, rho_j_avg)
        ],
    }


def decomposition_from_doc(doc: dict) -> KIDecomposition:
    """Rebuild a decomposition from its JSON document.

    Intentionally lenient: invariants are not enforced here, so a
    corrupted document round-trips into an object that `verify` can
    then report on. Each block's `p` and `rho_J_avg` are parsed, so a
    malformed one raises ParseError, and then dropped: consumers derive
    them from the ensemble with `block_averages`.
    """
    if isinstance(doc, dict) and "result" in doc and "blocks" not in doc:
        doc = doc["result"]  # accept a whole report wrapper
    try:
        ambient = _integer(doc["ambient_dim"], "ambient_dim", 1)
        rank = _integer(doc["support_rank"], "support_rank", 0)
        frame = _pairs_to_matrix(doc["frame"], ambient, rank, "frame")
        blocks = []
        for bi, bdoc in enumerate(doc["blocks"]):
            n, k = (_integer(bdoc[key], f"blocks[{bi}].{key}", 1) for key in ("n", "k"))
            iso = _pairs_to_matrix(bdoc["isometry"], rank, n * k, f"blocks[{bi}].isometry")
            rho_k = _pairs_to_matrix(bdoc["rho_K"], k, k, f"blocks[{bi}].rho_K")
            q = np.asarray([_number(x, f"blocks[{bi}].q[{qi}]") for qi, x in enumerate(bdoc["q"])])
            # rho_J_avg spells out its n rows, so n is witnessed before a null J state allocates n x n
            _pairs_to_matrix(bdoc["rho_J_avg"], n, n, f"blocks[{bi}].rho_J_avg")
            rho_j = np.array([
                np.zeros((n, n)) if s is None else _pairs_to_matrix(s, n, n, f"blocks[{bi}].rho_J[{si}]")
                for si, s in enumerate(bdoc["rho_J"])
            ], dtype=complex).reshape(-1, n, n)  # a null J state reads as zero
            _number(bdoc["p"], f"blocks[{bi}].p")
            blocks.append(KIBlock(n=n, k=k, isometry=iso, rho_K=rho_k, q=q, rho_J=rho_j))
        return KIDecomposition(frame=frame, blocks=blocks)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed decomposition document: {exc}") from exc


def write_decomposition(d: KIDecomposition, probs: np.ndarray) -> bytes:
    return (_to_json(decomposition_to_doc(d, probs)) + "\n").encode("utf-8")


def read_decomposition(data: bytes) -> KIDecomposition:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"decomposition file: {exc}") from exc
    return decomposition_from_doc(doc)
