import numpy as np
import pytest

from kidecomp.decompose import (
    KIBlock,
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
from kidecomp.errors import ParseError
from kidecomp.measures import info_measures
from kidecomp.oracles import PlantSpec, haar_unitary, planted_ensemble

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
    assert np.allclose(d.p_block, truth.p_block, atol=1e-7)
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


def test_planted_multiplicity_block():
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 2),), num_states=2, seed=3))
    d = ki_decompose(e, seed=0)
    assert [(b.n, b.k) for b in d.blocks] == [(2, 2)]


def test_degenerate_redundant_factor():
    # maximally mixed K factor: the multiplicity is found directly by the
    # algebra (no merge step), and I_R comes out as one full bit
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


def test_reconstruction_residual():
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=2, seed=5))
    d = ki_decompose(e, seed=0)
    for i in range(len(e)):
        assert np.linalg.norm(d.reconstruct(i) - e.states[i]) <= 1e-8


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
    bad = type(d)(frame=d.frame, blocks=bad_blocks, p_block=d.p_block, rho_J_avg=d.rho_J_avg)
    report = verify(bad, e, seed=1)
    assert not report.ok
    assert any(c.name == "reconstruction" and not c.ok for c in report.checks)


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
    assert np.allclose(np.sort(d.p_block), np.sort(dr.p_block), atol=1e-7)
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
    d2 = read_decomposition(write_decomposition(d))
    assert verify(d2, e, channels=5, seed=0).ok
    doc = decomposition_to_doc(d)
    doc["blocks"][0]["rho_K"][0][0] = [0.123, 0.0]  # corrupt one entry
    d3 = decomposition_from_doc(doc)
    assert not verify(d3, e, channels=5, seed=0).ok


def test_serialization_keeps_zero_weight_entries():
    # perfectly distinguishable pair: each block misses one state
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, KET1])
    d = ki_decompose(e, seed=0)
    d2 = read_decomposition(write_decomposition(d))
    for b, b2 in zip(d.blocks, d2.blocks):
        assert np.array_equal(b.q, b2.q)
        for s, s2 in zip(b.rho_J, b2.rho_J):
            assert (s is None) == (s2 is None)
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
    ],
)
def test_decomposition_entries_must_be_numbers(field, value, locus):
    doc = decomposition_to_doc(ki_decompose(two_pure(), seed=0))
    if field == "isometry":
        doc["blocks"][0]["isometry"][0][0] = value
    else:
        doc["blocks"][0]["q"][0] = value
    with pytest.raises(ParseError, match=locus):
        decomposition_from_doc(doc)
