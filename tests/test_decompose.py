import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kidecomp import decompose
from kidecomp.algebra import intertwiner_basis
from kidecomp.decompose import (
    KIBlock,
    KIDecomposition,
    decomposition_from_doc,
    decomposition_to_doc,
    ki_decompose,
    mergeable,
    read_decomposition,
    remove_redundancy,
    verify,
    write_decomposition,
)
from kidecomp.ensemble import Ensemble, validate
from kidecomp.errors import DegenerateSample, FormViolation, ParseError, ValidationError
from kidecomp.linalg import DEFAULT_TOL, direct_sum, kron
from kidecomp.measures import info_measures, von_neumann_entropy
from kidecomp.oracles import PlantSpec, haar_unitary, planted_ensemble, random_density
from kidecomp.protocols import rate_sweep

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def two_pure():
    return Ensemble(probs=[0.5, 0.5], states=[KET0, PLUS])


def test_orthogonal_pair_splits_classically():
    d = ki_decompose(Ensemble(probs=[0.5, 0.5], states=[KET0, KET1]), seed=0)
    assert sorted((b.n, b.k) for b in d.blocks) == [(1, 1), (1, 1)]
    # weight matrix is a permutation of the identity: perfectly distinguishable
    q = np.stack([b.q for b in d.blocks])
    assert np.allclose(q @ q.T, np.eye(2), atol=1e-10)
    assert np.allclose(q.sum(axis=0), [1.0, 1.0], atol=1e-10)


def test_two_nonorthogonal_pure_states_one_block():
    d = ki_decompose(two_pure(), seed=0)
    assert [(b.n, b.k) for b in d.blocks] == [(2, 1)]
    assert np.allclose(d.blocks[0].q, [1.0, 1.0], atol=1e-10)


def test_single_mixed_state_all_redundant():
    rho = np.diag([0.75, 0.25]).astype(complex)
    d = ki_decompose(Ensemble(probs=[1.0], states=[rho]), seed=0)
    assert [(b.n, b.k) for b in d.blocks] == [(1, 2)]
    # canonical redundant state: diagonal, descending; equals the input here
    assert np.allclose(d.blocks[0].rho_K, rho, atol=1e-10)


def test_single_degenerate_state():
    d = ki_decompose(Ensemble(probs=[1.0], states=[np.eye(2, dtype=complex) / 2]), seed=0)
    assert [(b.n, b.k) for b in d.blocks] == [(1, 2)]
    assert np.allclose(d.blocks[0].rho_K, np.eye(2) / 2, atol=1e-10)


def _scalar_block(q_col, k=1):
    return KIBlock(
        n=1,
        k=k,
        isometry=np.zeros((4, k), dtype=complex),
        rho_K=np.eye(k, dtype=complex) / k,
        q=np.asarray(q_col, dtype=float),
        rho_J=[np.ones((1, 1), dtype=complex) for _ in q_col],
    )


def test_mergeable_proportional_weights():
    a = _scalar_block([0.2, 0.4])
    b = _scalar_block([0.4, 0.8])
    witness = mergeable(a, b)
    assert witness is not None
    v, c = witness
    assert c == pytest.approx(2.0)
    assert v.shape == (1, 1)


def test_mergeable_rejects_varying_ratio():
    a = _scalar_block([0.2, 0.4])
    b = _scalar_block([0.4, 0.5])
    assert mergeable(a, b) is None


def test_mergeable_rejects_different_support():
    a = _scalar_block([0.2, 0.0])
    b = _scalar_block([0.4, 0.8])
    assert mergeable(a, b) is None


# -- the decisions at their cuts: inputs a known distance on each side ------------


@pytest.mark.parametrize("scale,kept", [(0.5, False), (2.0, True)])
def test_a_block_weight_at_or_below_tol_is_cut_to_zero(scale, kept):
    # the copy e_0 of C^2 and the states diag(1, 0) and diag(w, 1 - w): state 1's weight
    # on the copy is w, cut to 0 with a zero J row at or below tol, kept as is above it
    w = scale * DEFAULT_TOL
    copy = np.array([[1.0], [0.0]], dtype=complex)
    states = np.array([np.diag([1.0, 0.0]), np.diag([w, 1.0 - w])], dtype=complex)
    b = decompose._extract_block_data(copy, states, DEFAULT_TOL)
    assert b.q[0] == 1.0 and b.rho_J[0].tolist() == [[1.0]]
    if kept:
        assert b.q[1] == w and abs(b.rho_J[1] - 1.0).max() <= 1e-15  # w / w, hermitized
    else:
        assert b.q[1] == 0.0 and not b.rho_J[1].any()


def _j_block(q, rho_j):
    n = rho_j.shape[-1]
    return KIBlock(
        n=n,
        k=1,
        isometry=np.eye(n, dtype=complex),
        rho_K=np.ones((1, 1), dtype=complex),
        q=np.asarray(q, dtype=float),
        rho_J=rho_j,
    )


def _j_states(n, seed=3):
    """Three J states of dimension n, and the same states conjugated by one Haar unitary."""
    rng = np.random.default_rng(seed)
    states = np.stack([random_density(n, rng) for _ in range(3)])
    u = haar_unitary(n, 7)
    return states, u @ states @ u.conj().T


@pytest.mark.parametrize("eps,merges", [(1e-10, True), (1e-6, False)])
def test_weight_columns_merge_only_when_proportional_within_tol(eps, merges):
    # q_b = 0.7 q_a (1 + eps [1, -1, 0.5]) with unitarily equal J states: the ratio
    # test alone decides, at relative deviations of about eps against tol = 1e-9
    qa = np.array([0.5, 0.3, 0.2])
    states, moved = _j_states(2)
    qb = 0.7 * qa * (1 + eps * np.array([1.0, -1.0, 0.5]))
    witness = mergeable(_j_block(qa, states), _j_block(qb, moved))
    assert (witness is not None) == merges
    if merges:
        assert witness[1] == pytest.approx(0.7, rel=1e-9)


@pytest.mark.parametrize("delta,merges", [(3e-10, True), (1.6e-9, False)])
def test_j_states_merge_only_when_equal_up_to_a_unitary_within_tol(delta, merges):
    # one of three 8-dim J states moved by delta times a unit traceless Hermitian
    # matrix: at both deltas the intertwiner solve still finds a tie, so the residual
    # test decides. Over a grid of deltas the tie's residual first exceeded tol at
    # 1.0e-9, and from 2.8e-9 on no tie was found at all.
    states, moved = _j_states(8)
    g = np.random.default_rng(3).standard_normal((8, 8, 2)) @ [1.0, 1j]
    h = g + g.conj().T
    h -= np.trace(h) / 8 * np.eye(8)
    moved[0] += delta * h / np.linalg.norm(h)
    assert len(intertwiner_basis(states, moved))
    qa = np.array([0.5, 0.3, 0.2])
    assert (mergeable(_j_block(qa, states), _j_block(0.7 * qa, moved)) is not None) == merges


@pytest.mark.parametrize("delta,ok", [(3e-9, True), (1e-7, False)])
def test_verify_reconstruction_passes_only_within_its_threshold(delta, ok):
    # the plant's own decomposition with one J state moved by delta along the unit
    # traceless diag(1, -1) / sqrt(2): the residual is about delta times that state's
    # weight, against verify's threshold max(tol, 1e-8)
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=1))
    (ib, b), = ((ib, b) for ib, b in enumerate(truth.blocks) if b.n == 2)
    rho_j = b.rho_J.copy()
    rho_j[0] += delta * np.diag([1.0, -1.0]) / np.sqrt(2)
    blocks = [*truth.blocks[:ib], dataclasses.replace(b, rho_J=rho_j), *truth.blocks[ib + 1 :]]
    report = verify(KIDecomposition(frame=truth.frame, blocks=blocks), e, channels=1)
    (recon,) = (c for c in report.checks if c.name == "reconstruction")
    assert recon.ok == ok


@pytest.mark.parametrize("factor,ok", [(0.5, True), (2.0, False)])
def test_verify_weight_rows_pass_only_within_its_threshold(factor, ok):
    # the plant's own decomposition with state 0's weight on block 0 raised by
    # delta = factor * thr: that state's weight row sums to 1 + delta
    thr = max(DEFAULT_TOL, 1e-8)
    delta = factor * thr
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=1))
    b = truth.blocks[0]
    q = b.q.copy()
    q[0] += delta
    blocks = [dataclasses.replace(b, q=q), *truth.blocks[1:]]
    report = verify(KIDecomposition(frame=truth.frame, blocks=blocks), e, channels=1)
    (rows,) = (c for c in report.checks if c.name == "weight_rows_sum_to_1")
    assert rows.ok == ok
    assert abs(rows.residual - delta) <= 1e-14


def test_a_form_off_by_a_millionth_is_refused(monkeypatch):
    # every rho_K scaled by 1 + 1e-6 after the merge: the reconstruction residual of
    # about 1e-6 lies far above the guard's max(tol, 1e4 eps)
    canonical = decompose._canonicalize_redundant_factor

    def scaled(block):
        block = canonical(block)
        return dataclasses.replace(block, rho_K=block.rho_K * (1 + 1e-6))

    monkeypatch.setattr(decompose, "_canonicalize_redundant_factor", scaled)
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=1))
    with pytest.raises(FormViolation, match="reconstruction residual"):
        ki_decompose(e)


def test_merge_trace_single_qubit_state():
    # pre-merge the two eigenprojector blocks have weight ratio 3:1 for the
    # single source state; the pipeline must fold them into one k=2 block
    rho = np.diag([0.75, 0.25]).astype(complex)
    d = ki_decompose(Ensemble(probs=[1.0], states=[rho]), seed=0)
    b = d.blocks[0]
    assert (b.n, b.k) == (1, 2)
    assert np.allclose(np.diag(b.rho_K).real, [0.75, 0.25], atol=1e-10)


def test_planted_recovery():
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=11))
    d = ki_decompose(e, seed=0)
    assert sorted((b.n, b.k) for b in d.blocks) == sorted((b.n, b.k) for b in truth.blocks)
    assert np.allclose(d.block_averages(e.probs)[0], truth.block_averages(e.probs)[0], atol=1e-7)
    for br, bt in zip(d.blocks, truth.blocks):
        assert np.allclose(br.q, bt.q, atol=1e-7)
        assert np.allclose(
            np.linalg.eigvalsh(br.rho_K), np.linalg.eigvalsh(bt.rho_K), atol=1e-7
        )


def _assert_recovers_plant(e, truth, seed=0):
    d = ki_decompose(e, seed=seed)
    assert [(b.n, b.k) for b in d.blocks] == [(b.n, b.k) for b in truth.blocks]
    m, mt = info_measures(d, e), info_measures(truth, e)
    assert m.info_classical == pytest.approx(mt.info_classical, abs=1e-9)
    assert m.info_nonclassical == pytest.approx(mt.info_nonclassical, abs=1e-9)
    assert m.info_redundant == pytest.approx(mt.info_redundant, abs=1e-9)
    return d


def test_planted_recovery_d16():
    e, truth = planted_ensemble(PlantSpec(blocks=((4, 3), (2, 2)), num_states=3, seed=1))
    _assert_recovers_plant(e, truth)


def test_planted_recovery_d26():
    e, truth = planted_ensemble(PlantSpec(blocks=((5, 3), (4, 2), (3, 1)), num_states=3, seed=1))
    d = _assert_recovers_plant(e, truth)
    assert verify(d, e).ok


def test_planted_recovery_d52():
    e, truth = planted_ensemble(PlantSpec(blocks=((8, 4), (6, 2), (4, 2)), num_states=3, seed=1))
    d = _assert_recovers_plant(e, truth)
    assert verify(d, e).ok


def test_overshooting_closure_never_gives_wrong_shapes():
    # The algebra closure broke on these plants: its SVD did not converge for
    # 7003 and 1041457616003 with 2 BLAS threads and for 31003 with 1, and
    # for 1041457616003 it overshot to dim A = 121 = d^2 (one 11x1 block,
    # I_NC 2.93 bits instead of 1.59). Solved from the states alone, each
    # must recover its plant exactly. Pairs are (plant seed, probe seed).
    for plant_seed, probe_seed in ((1041457616003, 0), (7003, 7), (31003, 31)):
        e, truth = planted_ensemble(PlantSpec(blocks=((4, 2), (3, 1)), num_states=3, seed=plant_seed))
        _assert_recovers_plant(e, truth, seed=probe_seed)


def _reference_merge_to_fixpoint(blocks, tol):
    """The merge loop that one pass replaced: restart and re-sort after every merge."""
    blocks = sorted(blocks, key=decompose._block_key)
    changed = True
    while changed:
        changed = False
        for ia in range(len(blocks)):
            for ib in range(ia + 1, len(blocks)):
                witness = mergeable(blocks[ia], blocks[ib], tol)
                if witness is not None:
                    blocks[ia] = decompose._merge(blocks[ia], blocks.pop(ib), *witness)
                    blocks.sort(key=decompose._block_key)
                    changed = True
                    break
            if changed:
                break
    return blocks


@pytest.mark.parametrize("shape", [((2, 4),), ((2, 2), (1, 3)), ((3, 1), (2, 3))], ids=["2x4", "2x2,1x3", "3x1,2x3"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_merge_recovers_multiplicities(shape, seed, monkeypatch):
    # each planted k splits into k pre-merge blocks of multiplicity 1, which
    # must fold back into one block per class
    one_pass, seen = decompose._merge_to_fixpoint, []

    def recording(blocks, tol):
        seen.append(blocks)
        return one_pass(blocks, tol)

    monkeypatch.setattr(decompose, "_merge_to_fixpoint", recording)
    e, truth = planted_ensemble(PlantSpec(blocks=shape, num_states=3, seed=seed))
    d = ki_decompose(e, seed=0)
    (pre_merge,) = seen
    assert sorted(b.n for b in pre_merge) == sorted(n for n, k in shape for _ in range(k))
    assert [(b.n, b.k) for b in d.blocks] == [(b.n, b.k) for b in truth.blocks]
    report = verify(d, e, channels=3)
    assert report.ok
    assert next(c for c in report.checks if c.name == "pairwise_non_mergeable").ok
    # the restart loop gives the same blocks, bit for bit, once sorted
    want = _reference_merge_to_fixpoint(list(pre_merge), 1e-9)
    got = sorted(one_pass(list(pre_merge), 1e-9), key=decompose._block_key)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.isometry, b.isometry) and np.array_equal(a.q, b.q)
        assert np.array_equal(a.rho_K, b.rho_K)


def test_planted_multiplicity_block():
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 2),), num_states=2, seed=3))
    d = ki_decompose(e, seed=0)
    assert [(b.n, b.k) for b in d.blocks] == [(2, 2)]


def test_degenerate_redundant_factor():
    # maximally mixed K factor: the split returns two equivalent copies with
    # equal weights, the merge glues them (c = 1), and I_R comes out as one full bit
    rng = np.random.default_rng(42)
    u = haar_unitary(4, rng)
    sig = [np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex),
           np.array([[0.4, -0.1j], [0.1j, 0.6]], dtype=complex)]
    states = [u @ np.kron(s, np.eye(2) / 2) @ u.conj().T for s in sig]
    e = Ensemble(probs=[0.4, 0.6], states=states)
    d = ki_decompose(e, seed=0)
    assert [(b.n, b.k) for b in d.blocks] == [(2, 2)]
    assert np.allclose(d.blocks[0].rho_K, np.eye(2) / 2, atol=1e-9)
    m = info_measures(d, e)
    assert m.info_redundant == pytest.approx(1.0, abs=1e-9)
    assert m.info_classical == pytest.approx(0.0, abs=1e-9)


def test_block_order_does_not_depend_on_the_probe_seed():
    # two 1x1 blocks share n, k and the weight of state 0, so the rest of
    # the weight row orders them, not the split's probe
    states = [np.diag(v).astype(complex) for v in ([1.0, 0.0, 0.0], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4])]
    e = Ensemble(probs=[0.4, 0.3, 0.3], states=states)
    for seed in range(8):
        q = np.stack([b.q for b in ki_decompose(e, seed=seed).blocks])
        assert np.allclose(q, [[0.0, 0.3, 0.6], [0.0, 0.7, 0.4], [1.0, 0.0, 0.0]], atol=1e-12), seed


def test_redundant_factor_sorts_weights_and_keeps_ties_in_merge_order():
    iso = haar_unitary(6, np.random.default_rng(7))
    block = KIBlock(
        n=2,
        k=3,
        isometry=iso,
        rho_K=np.diag([0.25, 0.5, 0.25]).astype(complex),
        q=np.ones(1),
        rho_J=np.eye(2, dtype=complex)[None] / 2,
    )
    out = decompose._canonicalize_redundant_factor(block)
    assert np.array_equal(out.rho_K, np.diag([0.5, 0.25, 0.25]))
    # column (a, j) -> a*k + j: K column j of the result is K column [1, 0, 2][j] of the input
    assert np.array_equal(out.isometry.reshape(6, 2, 3), iso.reshape(6, 2, 3)[:, :, [1, 0, 2]])


def test_tied_redundant_weights_give_a_diagonal_descending_k_state():
    rho = np.diag([0.15, 0.25, 0.2, 0.15, 0.25]).astype(complex)
    d = ki_decompose(Ensemble(probs=[1.0], states=[rho]), seed=0)
    (b,) = d.blocks
    assert (b.n, b.k) == (1, 5)
    assert np.array_equal(b.rho_K, np.diag(np.diag(b.rho_K)))
    assert np.allclose(np.diag(b.rho_K), [0.25, 0.25, 0.2, 0.15, 0.15], atol=1e-12)
    # each K column is an eigenvector of rho with its weight
    assert np.allclose(rho @ b.isometry, b.isometry @ b.rho_K, atol=1e-10)


def test_split_dropping_coherences_fails_reconstruction(monkeypatch):
    # two 1-dim halves of a 2x1 plant: each half is a block with the state's diagonal
    # entry as weight, but the coherences between the halves are lost
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1),), num_states=3, seed=1))
    halves = [np.eye(2, dtype=complex)[:, [c]] for c in (0, 1)]
    monkeypatch.setattr(decompose, "irrep_decompose", lambda a, seed, tol: halves)
    with pytest.raises(FormViolation, match="reconstruction residual"):
        ki_decompose(e)


def test_reconstruction_residual():
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=2, seed=5))
    d = ki_decompose(e, seed=0)
    for i in range(len(e)):
        assert np.linalg.norm(d.reconstruct(i) - e.states[i]) <= 1e-8


def _zero_weight_ensemble():
    # |0> and |+> in the n = 2 block, I/2 split 0.7 / 0.3 over both blocks, |2> in the n = 1 block
    plus = np.full((2, 2), 0.5)
    states = np.zeros((4, 3, 3), dtype=complex)
    states[0, 0, 0] = 1.0
    states[1, :2, :2] = plus
    states[2] = np.diag([0.35, 0.35, 0.3])
    states[3, 2, 2] = 1.0
    return Ensemble(probs=[0.3, 0.3, 0.2, 0.2], states=states)


def _reference_reconstruct(d, i):
    """State i rebuilt one block at a time from 2-D products, as `reconstruct` did before it
    shared the stacked sum of `reconstruction_residual`."""
    dim = len(d.frame)
    acc = np.zeros((dim, dim), dtype=complex)
    for b, c in zip(d.blocks, d.ambient_isometries()):
        if b.q[i] > 0:
            acc += c @ (b.q[i] * kron(b.rho_J[i], b.rho_K)) @ c.conj().T
    return acc


@pytest.mark.parametrize("case", ["planted", "zero_weight", "perturbed"])
def test_stacked_reconstruction_residual_equals_a_per_state_loop(case):
    if case == "zero_weight":
        e = _zero_weight_ensemble()
    else:
        e, _ = planted_ensemble(PlantSpec(blocks=((2, 2), (1, 1), (1, 3)), num_states=4, seed=3))
    d = ki_decompose(e, seed=0)
    if case == "zero_weight":
        assert any(not np.all(b.q > 0) for b in d.blocks)
    if case == "perturbed":  # a residual far from round-off
        rng = np.random.default_rng(0)
        noise = rng.random((4, e.dim, e.dim))
        e = Ensemble(probs=e.probs, states=e.states + 1e-3 * (noise + noise.swapaxes(1, 2)))
    want = max(float(np.linalg.norm(_reference_reconstruct(d, i) - e.states[i])) for i in range(len(e)))
    assert d.reconstruction_residual(e) == want
    assert all(np.array_equal(d.reconstruct(i), _reference_reconstruct(d, i)) for i in range(len(e)))


def test_reconstruction_residual_of_a_short_document_names_the_missing_state():
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 1)), num_states=3, seed=0))
    short = KIDecomposition(frame=truth.frame, blocks=[
        KIBlock(n=b.n, k=b.k, isometry=b.isometry, rho_K=b.rho_K, q=b.q[:1], rho_J=b.rho_J[:1]) for b in truth.blocks
    ])
    with pytest.raises(IndexError, match="index 1 is out of bounds for axis 0 with size 1"):
        short.reconstruction_residual(e)


def test_verify_clean_decomposition():
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 1)), num_states=3, seed=2))
    d = ki_decompose(e, seed=0)
    report = verify(d, e, seed=1)
    assert report.ok
    recon = [c for c in report.checks if c.name == "reconstruction"][0]
    assert recon.residual <= 1e-10


def test_verify_flags_corruption():
    e, _ = planted_ensemble(PlantSpec(blocks=((1, 2), (1, 1)), num_states=2, seed=8))
    d = ki_decompose(e, seed=0)
    bad_blocks = list(d.blocks)
    b = bad_blocks[0]
    wrong_k = np.diag(np.linspace(1.0, 2.0, b.k)).astype(complex)
    wrong_k /= np.trace(wrong_k).real
    bad_blocks[0] = KIBlock(
        n=b.n, k=b.k, isometry=b.isometry, rho_K=wrong_k, q=b.q, rho_J=b.rho_J
    )
    bad = type(d)(frame=d.frame, blocks=bad_blocks)
    report = verify(bad, e, seed=1)
    assert not report.ok
    assert any(c.name == "reconstruction" and not c.ok for c in report.checks)


def _with_hermitian_noise(e: Ensemble, seed: int, eps: float) -> Ensemble:
    """Each state plus eps times a traceless Hermitian direction of Frobenius norm 1, in state order."""
    rng = np.random.default_rng(seed)
    noisy = []
    for state in e.states:
        g = rng.standard_normal((e.dim, e.dim)) + 1j * rng.standard_normal((e.dim, e.dim))
        h = (g + g.conj().T) / 2
        h -= np.trace(h).real / e.dim * np.eye(e.dim)
        noisy.append(state + eps * h / np.linalg.norm(h))
    return Ensemble(probs=e.probs, states=np.stack(noisy))


def test_noisy_plants_give_no_answer_that_verify_rejects():
    # noise near tol: the split and verify's irreducibility check make one commutant decision,
    # so a noisy plant either fails to split or splits into blocks verify accepts
    for blocks in (((2, 1), (1, 2)), ((2, 2), (1, 1))):
        plant, _ = planted_ensemble(PlantSpec(blocks=blocks, num_states=3, seed=1))
        for seed in (100, 101, 102):
            for eps in (3e-11, 1e-10, 3e-10):
                e = _with_hermitian_noise(plant, seed, eps)
                try:
                    d = ki_decompose(e)
                except DegenerateSample:
                    continue
                report = verify(d, e)
                assert report.ok, (blocks, seed, eps, [c.name for c in report.checks if not c.ok])


def _nan_plant():
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=1))
    return e, truth, list(truth.blocks)


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


def test_verify_fails_on_a_nan_isometry_entry():
    e, truth, blocks = _nan_plant()
    iso = blocks[1].isometry.copy()
    iso[0, 0] = np.nan
    blocks[1] = dataclasses.replace(blocks[1], isometry=iso)
    report = verify(dataclasses.replace(truth, blocks=blocks), e, seed=1)
    check = _check(report, "channel_preservation")
    assert not check.ok and np.isnan(check.residual)
    assert not report.ok


def test_verify_fails_on_a_nan_j_state_entry():
    e, truth, blocks = _nan_plant()
    rho_j = np.array(blocks[0].rho_J)
    rho_j[2, 0, 0] = np.nan
    blocks[0] = dataclasses.replace(blocks[0], rho_J=rho_j)
    d = dataclasses.replace(truth, blocks=blocks)
    assert np.isnan(d.reconstruction_residual(e))
    check = _check(verify(d, e, seed=1), "reconstruction")
    assert not check.ok and np.isnan(check.residual)


def test_forward_channels_preserve_two_pure():
    e = two_pure()
    d = ki_decompose(e, seed=0)
    report = verify(d, e, channels=20, seed=6)
    chan = [c for c in report.checks if c.name == "channel_preservation"][0]
    assert chan.ok and chan.residual <= 1e-8


def test_remove_redundancy_idempotent_on_free_ensemble():
    e = two_pure()
    d = ki_decompose(e, seed=0)
    reduced = remove_redundancy(d, e)
    assert reduced.dim == 2
    d2 = ki_decompose(reduced, seed=0)
    assert [(b.n, b.k) for b in d2.blocks] == [(2, 1)]
    reduced2 = remove_redundancy(d2, reduced)
    m1 = info_measures(d2, reduced)
    d3 = ki_decompose(reduced2, seed=0)
    m2 = info_measures(d3, reduced2)
    assert m1.info_classical == pytest.approx(m2.info_classical, abs=1e-10)
    assert m1.info_nonclassical == pytest.approx(m2.info_nonclassical, abs=1e-10)


def test_remove_redundancy_single_state():
    rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
    e = Ensemble(probs=[1.0], states=[rho])
    d = ki_decompose(e, seed=0)
    reduced = remove_redundancy(d, e)
    assert reduced.dim == 1
    m = info_measures(ki_decompose(reduced, seed=0), reduced)
    assert m.info_redundant == pytest.approx(0.0, abs=1e-10)


def test_remove_redundancy_planted_roundtrip():
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=13))
    d = ki_decompose(e, seed=0)
    m_before = info_measures(d, e)
    reduced = remove_redundancy(d, e)
    assert validate(reduced).ok
    assert reduced.dim == sum(b.n for b in d.blocks)
    d2 = ki_decompose(reduced, seed=0)
    assert all(b.k == 1 for b in d2.blocks)
    m_after = info_measures(d2, reduced)
    assert m_after.info_redundant == pytest.approx(0.0, abs=1e-8)
    assert m_after.info_classical == pytest.approx(m_before.info_classical, abs=1e-8)
    assert m_after.info_nonclassical == pytest.approx(m_before.info_nonclassical, abs=1e-8)


def test_unitary_invariance():
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=17))
    d = ki_decompose(e, seed=0)
    w = haar_unitary(e.dim, seed=99)
    rotated = Ensemble(
        probs=e.probs.copy(), states=[w @ s @ w.conj().T for s in e.states]
    )
    dr = ki_decompose(rotated, seed=0)
    assert sorted((b.n, b.k) for b in d.blocks) == sorted((b.n, b.k) for b in dr.blocks)
    assert np.allclose(np.sort(d.block_averages(e.probs)[0]), np.sort(dr.block_averages(e.probs)[0]), atol=1e-7)
    for ba, bb in zip(d.blocks, dr.blocks):
        assert np.allclose(np.sort(ba.q), np.sort(bb.q), atol=1e-7)
        assert np.allclose(
            np.linalg.eigvalsh(ba.rho_K), np.linalg.eigvalsh(bb.rho_K), atol=1e-7
        )
        for i in range(len(e)):
            if ba.rho_J[i] is not None:
                assert np.allclose(
                    np.linalg.eigvalsh(ba.rho_J[i]),
                    np.linalg.eigvalsh(bb.rho_J[i]),
                    atol=1e-7,
                )


def test_serialization_roundtrip():
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=2, seed=21))
    d = ki_decompose(e, seed=0)
    d2 = read_decomposition(write_decomposition(d, e.probs))
    assert verify(d2, e, channels=5, seed=0).ok
    doc = decomposition_to_doc(d, e.probs)
    doc["blocks"][0]["rho_K"][0][0] = [0.123, 0.0]  # corrupt one entry
    d3 = decomposition_from_doc(doc)
    assert not verify(d3, e, channels=5, seed=0).ok


def test_serialization_keeps_zero_weight_entries():
    # |0> and |+> span an n = 2 block that |2> misses; |2> is a 1 x 1 block the others miss
    ket2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    e = Ensemble(probs=[0.4, 0.4, 0.2], states=[np.pad(KET0, (0, 1)), np.pad(PLUS, (0, 1)), ket2])
    d = ki_decompose(e, seed=0)
    assert sorted((b.n, b.k) for b in d.blocks) == [(1, 1), (2, 1)]
    doc = decomposition_to_doc(d, e.probs)
    d2 = read_decomposition(write_decomposition(d, e.probs))
    for b, bdoc, b2 in zip(d.blocks, doc["blocks"], d2.blocks):
        assert (b.q == 0).any() and (b.q > 0).any()
        assert [s is None for s in bdoc["rho_J"]] == (b.q == 0).tolist()
        assert np.array_equal(b.q, b2.q)
        assert isinstance(b2.rho_J, np.ndarray) and b2.rho_J.shape == (3, b.n, b.n)
        assert not b2.rho_J[b.q == 0].any()
        assert np.array_equal(b2.rho_J, b.rho_J)
    assert verify(d2, e, channels=3, seed=0).ok


@pytest.mark.parametrize(
    "field, value, locus",
    [
        ("isometry", [True, False], r"blocks\[0\]\.isometry\[0\]\[0\]"),
        ("isometry", ["1", "0"], r"blocks\[0\]\.isometry\[0\]\[0\]"),
        ("q", "0.5", r"blocks\[0\]\.q\[0\]"),
        ("q", True, r"blocks\[0\]\.q\[0\]"),
        pytest.param("isometry", [10**400, 0], r"blocks\[0\]\.isometry\[0\]\[0\]", id="isometry-huge-int"),
        pytest.param("q", 10**400, r"blocks\[0\]\.q\[0\]: number out of float range", id="q-huge-int"),
        *(
            pytest.param(field, value, rf"blocks\[0\]\.{locus}: expected a finite number", id=f"{field}-{x}")
            for x in ("nan", "inf", "-inf")
            for field, value, locus in (("isometry", [0.0, float(x)], r"isometry\[0\]\[0\]"), ("q", float(x), r"q\[0\]"))
        ),
    ],
)
def test_decomposition_entries_must_be_numbers(field, value, locus):
    e = two_pure()
    doc = decomposition_to_doc(ki_decompose(e, seed=0), e.probs)
    if field == "isometry":
        doc["blocks"][0]["isometry"][0][0] = value
    else:
        doc["blocks"][0]["q"][0] = value
    with pytest.raises(ParseError, match=locus):
        decomposition_from_doc(doc)


@pytest.mark.parametrize(
    "field, value",
    [("n", 2.7), ("n", "2"), ("n", True), ("n", 0), ("k", 1.0), ("ambient_dim", "4"), ("support_rank", 4.9), ("support_rank", -1)],
)
def test_decomposition_integers_are_strict(field, value):
    e = two_pure()
    doc = decomposition_to_doc(ki_decompose(e, seed=0), e.probs)
    if field in ("n", "k"):
        doc["blocks"][0][field] = value
        locus = rf"blocks\[0\]\.{field}: expected"
    else:
        doc[field] = value
        locus = f"^{field}: expected"
    with pytest.raises(ParseError, match=locus):
        decomposition_from_doc(doc)


def outside_support_ensembles():
    """Two valid ensembles whose second state, of probability 5e-10, lies where the
    average state's eigenvalue falls below the support cut: |0><0|, |1><1| in dimension 2,
    and U diag(.6, .4, 0) U^dagger, U diag(0, 0, 1) U^dagger in dimension 3."""
    probs = [1 - 5e-10, 5e-10]
    u = haar_unitary(3, seed=3)
    rotated = [u @ np.diag(w).astype(complex) @ u.conj().T for w in ([0.6, 0.4, 0.0], [0.0, 0.0, 1.0])]
    return [Ensemble(probs=probs, states=[KET0, KET1]), Ensemble(probs=probs, states=rotated)]


@pytest.mark.parametrize("e", outside_support_ensembles(), ids=["diagonal", "rotated"])
def test_state_outside_the_support_is_rejected(e):
    with pytest.raises(ValidationError, match=r"states\[1\]: outside the support"):
        ki_decompose(e, seed=0)


# support rank 0 and n = 10**9, with null J states: 203 bytes that once asked for an n x n array
UNWITNESSED_N = (
    b'{"ambient_dim": 2, "support_rank": 0, "frame": [[], []], "blocks": [{"n": 1000000000, "k": 1, '
    b'"p": 1.0, "isometry": [], "rho_K": [[[1.0, 0.0]]], "q": [1.0, 1.0], "rho_J": [null, null], "rho_J_avg": []}]}'
)


def test_null_j_states_wait_for_rho_j_avg_to_witness_n():
    assert len(UNWITNESSED_N) == 203
    with pytest.raises(ParseError, match=r"blocks\[0\]\.rho_J_avg: expected 1000000000 rows"):
        read_decomposition(UNWITNESSED_N)


def test_padded_decomposition_document_roundtrip():
    # rank 2 of 4: the document's frame is the (4, 2) isometry and reads back as written
    u = haar_unitary(4, seed=5)
    e = Ensemble(probs=[0.5, 0.5], states=[u @ np.pad(s, (0, 2)) @ u.conj().T for s in (KET0, PLUS)])
    d = ki_decompose(e, seed=0)
    doc = decomposition_to_doc(d, e.probs)
    assert (doc["ambient_dim"], doc["support_rank"]) == d.frame.shape == (4, 2)
    d2 = read_decomposition(write_decomposition(d, e.probs))
    assert np.array_equal(d2.frame, d.frame)
    assert verify(d2, e, channels=3, seed=0).ok


# -- block averages are derived, never read back --------------------------------


@functools.cache
def plant_2x1_1x2():
    """The 2x1,1x2 plant (seed 1), its decomposition, measures and a small rate sweep."""
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=1))
    d = ki_decompose(e, seed=0)
    return e, d, info_measures(d, e), rate_sweep(e, d, 4, [-0.25, 0.0], trials=20, seed=1)


def assert_same_outputs(d, e, m0, runs0):
    assert info_measures(d, e) == m0
    runs = rate_sweep(e, d, 4, [-0.25, 0.0], trials=20, seed=1)
    assert [r.to_dict() for r in runs] == [r.to_dict() for r in runs0]
    assert all(np.array_equal(r.fidelities, r0.fidelities) for r, r0 in zip(runs, runs0))


def test_corrupted_stored_averages_do_not_reach_the_measures():
    # block p set to 0.9 / 0.1 and block 0's rho_J_avg to |0><0|: the stored
    # copies once gave I_C 0.469 and I_NC 0; the document still reads back whole
    e, d, m0, _ = plant_2x1_1x2()
    doc = decomposition_to_doc(d, e.probs)
    doc["blocks"][0]["p"], doc["blocks"][1]["p"] = 0.9, 0.1
    doc["blocks"][0]["rho_J_avg"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    m = info_measures(decomposition_from_doc(doc), e)
    assert m == m0
    assert (round(m.info_classical, 3), round(m.info_nonclassical, 3)) == (0.918, 0.268)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    block=st.integers(0, 1),
    key=st.sampled_from(["p", "rho_J_avg"]),
    op=st.sampled_from(["scale", "permute", "replace"]),
    x=st.floats(-10.0, 10.0, allow_nan=False),
)
def test_stored_block_averages_are_parsed_then_dropped(block, key, op, x):
    e, d, m0, runs0 = plant_2x1_1x2()
    doc = decomposition_to_doc(d, e.probs)
    blocks = doc["blocks"]
    if key == "p":
        if op == "permute":
            blocks[0]["p"], blocks[1]["p"] = blocks[1]["p"], blocks[0]["p"]
        else:
            blocks[block]["p"] = blocks[block]["p"] * x if op == "scale" else x
    else:
        avg = np.array(blocks[block]["rho_J_avg"])
        if op == "scale":
            avg = avg * x
        elif op == "permute":
            avg = avg[::-1, ::-1]
        else:
            avg = np.full_like(avg, x)
        blocks[block]["rho_J_avg"] = avg.tolist()
    mutated = decomposition_from_doc(doc)
    assert_same_outputs(mutated, e, m0, runs0)
    assert decomposition_to_doc(mutated, e.probs) == decomposition_to_doc(d, e.probs)


def test_block_no_state_reaches_has_zero_weight_and_zero_average():
    # only a document can hold such a block; its averages are 0 / 0, which must
    # read as p_l = 0 and a zero J state, without a warning
    e, d, m0, runs0 = plant_2x1_1x2()
    doc = decomposition_to_doc(d, e.probs)
    rank = doc["support_rank"]
    doc["blocks"].append({
        "n": 1, "k": 1, "p": 0.0, "isometry": [[[0.0, 0.0]]] * rank, "rho_K": [[[1.0, 0.0]]],
        "q": [0.0] * len(e), "rho_J": [None] * len(e), "rho_J_avg": [[[0.0, 0.0]]],
    })
    unreached = decomposition_from_doc(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p_block, rho_j_avg = unreached.block_averages(e.probs)
        assert p_block[-1] == 0.0 and not rho_j_avg[-1].any()
        assert_same_outputs(unreached, e, m0, runs0)


def test_row_lengths_are_checked_before_allocating():
    # a declared support rank of 10**6 over empty frame rows once allocated 30.5 MB
    doc = b'{"ambient_dim": 2, "support_rank": 1000000, "frame": [[], []], "blocks": []}'
    assert len(doc) == 76
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^frame\[0\]: expected 1000000 columns$"):
            read_decomposition(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- structure identities of the decomposition: ancillas and products ----------

_SMALL_PLANTS = [((2, 1),), ((1, 2),), ((2, 1), (1, 1)), ((1, 1), (1, 1)), ((2, 2),), ((3, 1), (1, 2)), ((2, 1), (1, 3))]
_TAUS = {  # exact ties, so the merge glues equal-weight copies of one algebra block
    "I/2": np.eye(2) / 2,
    "I/3": np.eye(3) / 3,
    "diag(.5,.25,.25)": np.diag([0.5, 0.25, 0.25]),
    "diag(.7,.3,0)": np.diag([0.7, 0.3, 0.0]),
}


def _measures(d, e):
    m = info_measures(d, e)
    return np.array([m.info_classical, m.info_nonclassical, m.info_redundant])


def _shapes_and_measures(e):
    d = ki_decompose(e)
    return sorted((b.n, b.k) for b in d.blocks), _measures(d, e)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(blocks=st.sampled_from(_SMALL_PLANTS), tau=st.sampled_from(sorted(_TAUS)), seed=st.integers(0, 2**32 - 1))
def test_an_ancilla_multiplies_k_by_its_rank_and_adds_its_entropy_to_i_r(blocks, tau, seed):
    e, _ = planted_ensemble(PlantSpec(blocks=blocks, num_states=3, seed=seed))
    t = _TAUS[tau].astype(complex)
    rank = np.count_nonzero(np.diag(_TAUS[tau]))
    shapes, measures = _shapes_and_measures(e)
    with_ancilla = Ensemble(probs=e.probs, states=[np.kron(s, t) for s in e.states])
    ancilla_shapes, ancilla_measures = _shapes_and_measures(with_ancilla)
    assert ancilla_shapes == sorted((n, k * rank) for n, k in shapes)
    gain = ancilla_measures - measures - [0.0, 0.0, von_neumann_entropy(t)]
    assert np.abs(gain).max() <= 1e-12


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    first=st.sampled_from(_SMALL_PLANTS),
    second=st.sampled_from(_SMALL_PLANTS[:5]),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
)
def test_a_product_ensemble_multiplies_shapes_and_adds_measures(first, second, seeds):
    a, _ = planted_ensemble(PlantSpec(blocks=first, num_states=2, seed=seeds[0]))
    b, _ = planted_ensemble(PlantSpec(blocks=second, num_states=2, seed=seeds[1]))
    product = Ensemble(
        probs=np.outer(a.probs, b.probs).ravel(),
        states=[np.kron(x, y) for x in a.states for y in b.states],
    )
    (shapes_a, measures_a), (shapes_b, measures_b) = _shapes_and_measures(a), _shapes_and_measures(b)
    shapes, measures = _shapes_and_measures(product)
    assert shapes == sorted((n * n2, k * k2) for n, k in shapes_a for n2, k2 in shapes_b)
    assert np.abs(measures - measures_a - measures_b).max() <= 1e-12


# -- structure identities: permuted states, classical direct sums, J rotations --


def _match_blocks(d, d_ref, rows):
    """Per block of `d_ref`, the one block of `d` with its (n, k) whose weight row,
    read at `rows` (a row per state of d_ref's ensemble), equals its own within 1e-10."""
    out = []
    for ref in d_ref.blocks:
        hits = [b for b in d.blocks if (b.n, b.k) == (ref.n, ref.k) and np.abs(b.q[rows] - ref.q).max() <= 1e-10]
        assert len(hits) == 1
        out.append(hits[0])
    return out


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(blocks=st.sampled_from(_SMALL_PLANTS), seed=st.integers(0, 2**32 - 1), order=st.permutations(range(3)))
def test_permuting_the_states_permutes_the_weight_rows(blocks, seed, order):
    e, _ = planted_ensemble(PlantSpec(blocks=blocks, num_states=3, seed=seed))
    order = np.array(order)
    permuted = Ensemble(probs=e.probs[order], states=e.states[order])
    d, d_perm = ki_decompose(e), ki_decompose(permuted)
    assert len(d_perm.blocks) == len(d.blocks)
    # state j of the permuted ensemble is state order[j] of e
    inverse = np.argsort(order)
    assert len({id(b) for b in _match_blocks(d_perm, d, inverse)}) == len(d.blocks)
    assert np.abs(_measures(d_perm, permuted) - _measures(d, e)).max() <= 1e-10


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    first=st.sampled_from(_SMALL_PLANTS),
    second=st.sampled_from(_SMALL_PLANTS),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
)
def test_a_classical_direct_sum_unites_the_blocks_and_halves_the_measures(first, second, seeds):
    # A at weight 1/2 on the first summand, B at 1/2 on the second
    a, _ = planted_ensemble(PlantSpec(blocks=first, num_states=3, seed=seeds[0]))
    b, _ = planted_ensemble(PlantSpec(blocks=second, num_states=2, seed=seeds[1]))
    zero_a, zero_b = np.zeros((a.dim, a.dim)), np.zeros((b.dim, b.dim))
    both = Ensemble(
        probs=np.concatenate([a.probs, b.probs]) / 2,
        states=[direct_sum([s, zero_b]) for s in a.states] + [direct_sum([zero_a, s]) for s in b.states],
    )
    d, d_a, d_b = ki_decompose(both), ki_decompose(a), ki_decompose(b)
    assert len(d.blocks) == len(d_a.blocks) + len(d_b.blocks)
    # a block of A carries no weight on B's states, and one of B none on A's
    from_a = _match_blocks(d, d_a, np.arange(len(a)))
    from_b = _match_blocks(d, d_b, np.arange(len(a), len(both)))
    assert len({id(x) for x in from_a + from_b}) == len(d.blocks)
    assert all(not x.q[len(a):].any() for x in from_a) and all(not x.q[: len(a)].any() for x in from_b)
    want = (_measures(d_a, a) + _measures(d_b, b)) / 2 + [1.0, 0.0, 0.0]
    assert np.abs(_measures(d, both) - want).max() <= 1e-10


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(blocks=st.sampled_from(_SMALL_PLANTS), seed=st.integers(0, 2**32 - 1))
def test_a_consistent_j_rotation_passes_verify_and_keeps_the_measures(blocks, seed):
    # per block a Haar W: isometry (W^dagger tensor I_k) and W rho_J W^dagger
    e, _ = planted_ensemble(PlantSpec(blocks=blocks, num_states=3, seed=seed))
    d = ki_decompose(e)
    rng = np.random.default_rng(seed)
    rotated = []
    for b in d.blocks:
        w = haar_unitary(b.n, rng)
        iso = b.isometry @ np.kron(w.conj().T, np.eye(b.k))
        rotated.append(dataclasses.replace(b, isometry=iso, rho_J=w @ b.rho_J @ w.conj().T))
    d_rot = KIDecomposition(frame=d.frame, blocks=rotated)
    assert verify(d_rot, e, channels=3).ok
    want, got = info_measures(d, e).to_dict(), info_measures(d_rot, e).to_dict()
    assert want.keys() == got.keys()
    assert max(abs(got[key] - want[key]) for key in want) <= 1e-10


# -- closed-form reference: commuting ensembles -----------------------------------


def _entropy_bits(p):
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


@pytest.mark.parametrize("dim", [4, 8, 16, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_commuting_ensemble_has_one_classical_block_per_proportional_column_group(dim, seed):
    # three states diagonal in one Haar frame; the columns of their 3 x dim eigenvalue
    # matrix fall into groups, proportional within a group (lam[i, j] = P[i, g] r_g[j])
    # and not across groups. By the block form, each group is one block with n = 1
    # and k = its size, I_NC = 0, I_C is the Shannon entropy of the group weights
    # and I_R the group-weighted entropy of the average spectrum within each group.
    rng = np.random.default_rng(100 + seed)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=3, replace=False))  # four groups
    groups = np.split(rng.permutation(dim), cuts)
    weights = rng.random((3, len(groups))) + 0.1
    weights /= weights.sum(axis=1, keepdims=True)
    lam = np.zeros((3, dim))
    for g, cols in enumerate(groups):
        r = rng.random(len(cols)) + 0.1
        lam[:, cols] = weights[:, g, None] * r / r.sum()
    u = haar_unitary(dim, rng)
    probs = rng.random(3) + 0.2
    e = Ensemble(probs=probs / probs.sum(), states=[(u * row) @ u.conj().T for row in lam])
    d = ki_decompose(e)
    assert sorted((b.n, b.k) for b in d.blocks) == sorted((1, len(cols)) for cols in groups)
    avg = e.probs @ lam
    p = np.array([avg[cols].sum() for cols in groups])
    want = [_entropy_bits(p), 0.0, sum(pg * _entropy_bits(avg[cols] / pg) for pg, cols in zip(p, groups))]
    assert np.abs(_measures(d, e) - want).max() <= 1e-10


# -- closed-form reference: pure states on orthogonal components ----------------------


@pytest.mark.parametrize("dim", [4, 8, 16, 32])
def test_pure_states_on_orthogonal_components_give_one_block_per_component(dim):
    # C^dim split into orthogonal components, one to four generic pure states in each,
    # all under one Haar frame. Generic pure states generate the full matrix algebra on
    # their span, so each component is one block with n = the rank of its span and
    # k = 1: I_C is the entropy of the component weights, I_NC the weighted entropy of
    # each component's average state, and I_R = 0.
    rng = np.random.default_rng(200 + dim)
    cuts = 2 * np.sort(rng.choice(np.arange(1, dim // 2), size=min(3, dim // 2 - 1), replace=False))
    comps = np.split(np.arange(dim), cuts)  # two to four components of even size
    counts = rng.integers(1, 5, size=len(comps))
    kets = []
    for comp, count in zip(comps, counts):
        for _ in range(count):
            ket = np.zeros(dim, dtype=complex)
            ket[comp] = rng.standard_normal((len(comp), 2)) @ [1.0, 1j]
            kets.append(ket / np.linalg.norm(ket))
    u = haar_unitary(dim, rng)
    kets = np.array(kets) @ u.T
    probs = rng.random(len(kets)) + 0.2
    e = Ensemble(probs=probs / probs.sum(), states=kets[:, :, None] * kets[:, None, :].conj())
    d = ki_decompose(e)
    ranks = [min(len(comp), count) for comp, count in zip(comps, counts)]
    assert sorted((b.n, b.k) for b in d.blocks) == sorted((n, 1) for n in ranks)
    owner = np.repeat(np.arange(len(comps)), counts)
    p = np.array([e.probs[owner == c].sum() for c in range(len(comps))])
    avg = [np.einsum("i,ijk->jk", e.probs[owner == c], e.states[owner == c]) / p[c] for c in range(len(comps))]
    want = [_entropy_bits(p), sum(pc * _entropy_bits(np.linalg.eigvalsh(a).clip(0)) for pc, a in zip(p, avg)), 0.0]
    assert np.abs(_measures(d, e) - want).max() <= 1e-10


# -- structure identities: a split state and a state from the convex hull -----------

_HULL_PLANTS = [((2, 1), (1, 2)), ((3, 1), (2, 2)), ((2, 2), (1, 1)), ((3, 2), (2, 1), (1, 3))]


@pytest.mark.parametrize("blocks", _HULL_PLANTS, ids=["2x1,1x2", "3x1,2x2", "2x2,1x1", "3x2,2x1,1x3"])
def test_splitting_a_state_over_two_copies_keeps_the_shapes_and_measures(blocks):
    e, _ = planted_ensemble(PlantSpec(blocks=blocks, num_states=3, seed=1))
    split = Ensemble(
        probs=np.concatenate([[0.4 * e.probs[0], 0.6 * e.probs[0]], e.probs[1:]]),
        states=np.concatenate([e.states[:1], e.states]),
    )
    shapes, measures = _shapes_and_measures(e)
    split_shapes, split_measures = _shapes_and_measures(split)
    assert split_shapes == shapes
    assert np.abs(split_measures - measures).max() <= 1e-10


@pytest.mark.parametrize("blocks", _HULL_PLANTS, ids=["2x1,1x2", "3x1,2x2", "2x2,1x1", "3x2,2x1,1x3"])
def test_a_state_from_the_convex_hull_keeps_the_shapes_and_mixes_the_weight_rows(blocks):
    # (rho_0 + rho_2) / 2 added at probability 0.1, the other probabilities scaled by 0.9
    e, _ = planted_ensemble(PlantSpec(blocks=blocks, num_states=3, seed=1))
    hull = Ensemble(
        probs=np.append(0.9 * e.probs, 0.1),
        states=np.concatenate([e.states, [(e.states[0] + e.states[2]) / 2]]),
    )
    d = ki_decompose(hull)
    assert sorted((b.n, b.k) for b in d.blocks) == _shapes_and_measures(e)[0]
    for b in d.blocks:
        assert abs(b.q[3] - (b.q[0] + b.q[2]) / 2) <= 1e-12
