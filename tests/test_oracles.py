import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kidecomp.decompose import ki_decompose, verify
from kidecomp.ensemble import Ensemble, validate
from kidecomp import algebra, oracles
from kidecomp.errors import ConfigTooLarge, RejectionExhausted
from kidecomp.oracles import (
    PlantSpec,
    apply_kraus,
    haar_unitary,
    planted_ensemble,
    random_density,
    random_form2_channel,
    random_form2_kraus,
)


def test_haar_dim_one_is_phase():
    u = haar_unitary(1, seed=0)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitarity():
    u = haar_unitary(8, seed=1)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10


def test_haar_entry_moment():
    # E|u_ij|^2 = 1/dim for Haar; Monte Carlo check at dim 4
    rng = np.random.default_rng(2)
    acc = 0.0
    draws = 1000
    for _ in range(draws):
        u = haar_unitary(4, rng)
        acc += float(np.mean(np.abs(u) ** 2))
    assert acc / draws == pytest.approx(0.25, rel=0.05)


def test_haar_left_invariance_statistic():
    # |tr(U)|^2 averages to 1 under Haar and is invariant under fixed
    # left multiplication; compare the two empirical means
    rng = np.random.default_rng(3)
    fixed = haar_unitary(4, seed=77)
    plain, shifted = [], []
    for _ in range(800):
        u = haar_unitary(4, rng)
        plain.append(abs(np.trace(u)) ** 2)
        shifted.append(abs(np.trace(fixed @ u)) ** 2)
    assert np.mean(plain) == pytest.approx(1.0, abs=0.15)
    assert np.mean(shifted) == pytest.approx(np.mean(plain), abs=0.2)


def test_planted_single_pure_state():
    e, truth = planted_ensemble(PlantSpec(blocks=((1, 1),), num_states=1, seed=0))
    assert e.dim == 1 or np.linalg.matrix_rank(e.states[0]) == 1
    assert validate(e).ok
    assert [(b.n, b.k) for b in truth.blocks] == [(1, 1)]


def test_planted_is_canonical_ground_truth():
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=1))
    assert validate(e).ok
    report = verify(truth, e, channels=5, seed=0)
    assert report.ok


def test_planted_rejects_single_state_with_large_block():
    with pytest.raises(RejectionExhausted):
        planted_ensemble(PlantSpec(blocks=((2, 1),), num_states=1, seed=0))


def test_planted_rejects_proportional_scalar_blocks():
    # one state forces proportional weight columns and identical scalar
    # J states: the plant would be mergeable, so it must be refused
    with pytest.raises(RejectionExhausted):
        planted_ensemble(PlantSpec(blocks=((1, 1), (1, 1)), num_states=1, seed=0))


def test_planted_stack_cap_is_checked_before_any_draw(monkeypatch):
    # a 1x1,1x1 plant of 3 states stacks 3 x 2 x 2 complex entries, 192 bytes; the cap is inclusive
    spec = PlantSpec(blocks=((1, 1), (1, 1)), num_states=3, seed=1)
    monkeypatch.setattr(algebra, "MAX_STACK_BYTES", 192)
    e, _ = planted_ensemble(spec)
    assert e.states.nbytes == 192
    monkeypatch.setattr(algebra, "MAX_STACK_BYTES", 191)

    def no_draw(*args):
        raise AssertionError("drew weights for a refused plant")

    monkeypatch.setattr(oracles, "_draw_weights", no_draw)
    with pytest.raises(ConfigTooLarge, match=r"^planted state stack of 3 x 2 x 2 exceeds 191 bytes$"):
        planted_ensemble(spec)


def _reference_draw_weights(spec, rng):
    """The pair-by-pair screen that the array test of `oracles._draw_weights` replaced."""
    m, nblocks = spec.num_states, len(spec.blocks)
    for _ in range(oracles.MAX_RESAMPLES):
        q = np.stack([oracles.random_simplex(nblocks, rng) for _ in range(m)])
        if nblocks == 1:
            return q
        ok = True
        for a in range(nblocks):
            for b in range(a + 1, nblocks):
                ratios = q[:, b] / q[:, a]
                if ratios.max() / ratios.min() - 1.0 <= oracles.Q_RATIO_SPREAD:
                    ok = False
        if ok:
            return q
    raise RejectionExhausted("no weights")


@pytest.mark.parametrize("spread", [oracles.Q_RATIO_SPREAD, 0.5])
def test_weight_screen_matches_the_pair_by_pair_reference(spread, monkeypatch):
    # the same weights, the same refusals and the same next draw, over 1 to 5 blocks
    # and states; one state refuses every draw of two or more blocks, and a spread of
    # 0.5 rejects many draws before one passes or the resamples run out
    monkeypatch.setattr(oracles, "Q_RATIO_SPREAD", spread)
    outcomes = set()
    for nblocks in range(1, 6):
        for states in range(1, 6):
            for seed in range(8):
                spec = PlantSpec(blocks=((1, 1),) * nblocks, num_states=states, seed=seed)
                rngs = np.random.default_rng(seed), np.random.default_rng(seed)
                results = []
                for draw, rng in zip((oracles._draw_weights, _reference_draw_weights), rngs):
                    try:
                        results.append(draw(spec, rng).tobytes())
                    except RejectionExhausted:
                        results.append(None)
                assert results[0] == results[1], (nblocks, states, seed)
                assert rngs[0].random() == rngs[1].random()
                outcomes.add(results[0] is None)
    assert outcomes == {True, False}


def _trace_preservation_residual(kraus) -> float:
    d = kraus[0].shape[1]
    return float(np.linalg.norm(sum(k.conj().T @ k for k in kraus) - np.eye(d)))


def test_random_form2_channels_preserve_sources():
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=3))
    d = ki_decompose(e, seed=0)
    worst_tp, worst_fix = 0.0, 0.0
    for r in range(20):
        kraus = random_form2_channel(d, env_dim=2, seed=r)
        worst_tp = max(worst_tp, _trace_preservation_residual(kraus))
        for rho in e.states:
            worst_fix = max(worst_fix, float(np.linalg.norm(apply_kraus(kraus, rho) - rho)))
    assert worst_tp <= 1e-10
    assert worst_fix <= 1e-8


def test_random_form2_channel_acts_on_padded_support():
    # ensemble whose average state is rank deficient: the channel must be
    # trace preserving on the full ambient space as well
    e, _ = planted_ensemble(PlantSpec(blocks=((1, 2),), num_states=2, seed=5))
    import kidecomp.ensemble as ens

    big = []
    for s in e.states:
        m = np.zeros((e.dim + 1, e.dim + 1), dtype=complex)
        m[: e.dim, : e.dim] = s
        big.append(m)
    padded = ens.Ensemble(probs=e.probs.copy(), states=big)
    d = ki_decompose(padded, seed=0)
    kraus = random_form2_channel(d, env_dim=2, seed=4)
    assert _trace_preservation_residual(kraus) <= 1e-10
    for rho in padded.states:
        assert np.linalg.norm(apply_kraus(kraus, rho) - rho) <= 1e-8


# ---------------------------------------------------------------------------
# the stacked channel assembly against the per-block construction it replaced


def _legacy_kraus(d, env_dim: int, seed: int) -> np.ndarray:
    """Kraus operators of `random_form2_channel(d, env_dim, seed)` built term by term:
    per block, eigh(rho_K) and one kron per Kraus term, embedded through the block
    isometry and then through the support frame. The reference for the stacked form."""
    rng = np.random.default_rng(seed)
    block_kraus = []
    for b in d.blocks:
        _, vec = np.linalg.eigh((b.rho_K + b.rho_K.conj().T) / 2)
        phases = np.exp(2j * np.pi * rng.random(b.k))
        commuting = vec @ (phases[:, None] * vec.conj().T)
        g = rng.standard_normal((b.k, env_dim)) + 1j * rng.standard_normal((b.k, env_dim))
        env_states = g / np.linalg.norm(g, axis=1, keepdims=True)
        ops = [commuting @ vec @ np.diag(env_states[:, t]) @ vec.conj().T for t in range(env_dim)]
        block_kraus.append(ops)
    f = d.frame
    kraus = []
    for t in range(env_dim):
        acc = np.zeros((f.shape[1], f.shape[1]), dtype=complex)
        for b, bk in zip(d.blocks, block_kraus):
            acc += b.isometry @ np.kron(np.eye(b.n), bk[t]) @ b.isometry.conj().T
        kraus.append(f @ acc @ f.conj().T)
    if f.shape[1] < f.shape[0]:
        kraus[0] = kraus[0] + np.eye(f.shape[0]) - f @ f.conj().T
    return np.stack(kraus)


def _legacy_drift(d, e, channels: int, env_dim: int, seed: int) -> float:
    worst = 0.0
    for r in range(channels):
        kraus = _legacy_kraus(d, env_dim, seed * 1000 + r)
        for rho in e.states:
            out = sum(k @ rho @ k.conj().T for k in kraus)
            worst = max(worst, float(np.linalg.norm(out - rho)))
    return worst


def _assert_same_channels(d, env_dim: int = 2):
    for seed in range(20):
        got = random_form2_channel(d, env_dim=env_dim, seed=seed)
        assert got.shape == (env_dim, d.frame.shape[0], d.frame.shape[0])
        assert np.max(np.abs(got - _legacy_kraus(d, env_dim, seed))) <= 1e-13


def _drift(report) -> float:
    (check,) = [c for c in report.checks if c.name == "channel_preservation"]
    return check.residual


PLANT_SHAPES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(st.sampled_from(PLANT_SHAPES), min_size=1, max_size=3).filter(
        lambda bs: sum(n * k for n, k in bs) <= 8
    ),
    num_states=st.integers(2, 4),
    env_dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_kraus_match_the_per_block_construction(blocks, num_states, env_dim, seed):
    e, truth = planted_ensemble(PlantSpec(blocks=tuple(blocks), num_states=num_states, seed=seed))
    _assert_same_channels(truth, env_dim)
    # a K basis in which rho_K is not diagonal, so the eigenbasis is not a permutation
    rng = np.random.default_rng(seed)
    rotated = []
    for b in truth.blocks:
        w = haar_unitary(b.k, rng)
        iso = b.isometry @ np.kron(np.eye(b.n), w)
        rotated.append(dataclasses.replace(b, isometry=iso, rho_K=w.conj().T @ b.rho_K @ w))
    d = dataclasses.replace(truth, blocks=rotated)
    _assert_same_channels(d, env_dim)
    report = verify(d, e, channels=5, env_dim=env_dim, seed=1)
    assert abs(_drift(report) - _legacy_drift(d, e, 5, env_dim, 1)) <= 1e-13


def test_stacked_kraus_match_on_a_padded_support():
    e, _ = planted_ensemble(PlantSpec(blocks=((1, 2), (2, 1)), num_states=3, seed=5))
    states = np.zeros((len(e), e.dim + 2, e.dim + 2), dtype=complex)
    states[:, : e.dim, : e.dim] = e.states
    padded = Ensemble(probs=e.probs.copy(), states=states)
    d = ki_decompose(padded, seed=0)
    assert d.frame.shape[1] < d.frame.shape[0]
    _assert_same_channels(d)
    assert abs(_drift(verify(d, padded, seed=2)) - _legacy_drift(d, padded, 20, 2, 2)) <= 1e-13


def test_stacked_kraus_match_with_perturbed_j_states():
    # the channels read only the frame, the isometries and rho_K, so they
    # stay the same when a document's J states are off; verify reports the
    # reconstruction and still measures the same drift
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=1))
    rng = np.random.default_rng(0)
    blocks = []
    for b in truth.blocks:
        blocks.append(dataclasses.replace(b, rho_J=[s + 1e-3 * random_density(b.n, rng) for s in b.rho_J]))
    d = dataclasses.replace(truth, blocks=blocks)
    _assert_same_channels(d)
    report = verify(d, e, seed=3)
    assert [c.name for c in report.checks if not c.ok] == ["reconstruction"]
    assert abs(_drift(report) - _legacy_drift(d, e, 20, 2, 3)) <= 1e-13


def test_channel_check_fails_on_off_block_coherence():
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=1))
    a = truth.blocks[0].isometry[:, :1]
    b = truth.blocks[1].isometry[:, :1]
    coherent = Ensemble(probs=e.probs, states=e.states + 1e-3 * (a @ b.conj().T + b @ a.conj().T))
    report = verify(truth, coherent, seed=0)
    drift = _drift(report)
    assert "channel_preservation" in [c.name for c in report.checks if not c.ok]
    assert drift > 1e-4
    assert abs(drift - _legacy_drift(truth, coherent, 20, 2, 0)) <= 1e-13


def _ladder_plant():
    # the d=11 `3x2,2x1,1x3` rung of the benchmark ladder
    return planted_ensemble(PlantSpec(blocks=((3, 2), (2, 1), (1, 3)), num_states=3, seed=1002))


# on this D = 11 plant with 3 states at env 2, 20 channels take 2 chunks and 45 take 5
@pytest.mark.parametrize("channels", [1, 20, 45])
def test_verify_factors_each_rho_k_once(monkeypatch, channels):
    e, truth = _ladder_plant()
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.array(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert verify(truth, e, channels=channels, seed=0).ok
    for b in truth.blocks:
        rho_k = (b.rho_K + b.rho_K.conj().T) / 2
        assert sum(a.shape == rho_k.shape and np.array_equal(a, rho_k) for a in calls) == 1


def test_channel_check_memory_does_not_grow_with_kraus_terms():
    e, truth = _ladder_plant()
    verify(truth, e, channels=3, env_dim=64, seed=0)  # warm caches and lazy imports
    tracemalloc.start()
    try:
        report = verify(truth, e, channels=3, env_dim=64, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    # measured 406 646 bytes (numpy 2.4): the Kraus stacks of two channels
    # and one X C^dagger factor, 124 kB each at env 64, D 11. An apply that
    # held every (channel, Kraus term, state) product would need
    # channels * env * m * D^2 * 16 = 3 * 64 * 3 * 121 * 16 bytes = 1.1 MB.
    assert peak <= 450_000


def test_apply_on_a_stack_equals_per_state_application():
    e, truth = _ladder_plant()
    kraus = random_form2_channel(truth, env_dim=5, seed=9)
    rng = np.random.default_rng(1)
    stack = np.stack([random_density(e.dim, rng) for _ in range(4)])
    got = apply_kraus(kraus, stack)
    assert got.shape == stack.shape
    for rho, out in zip(stack, got):
        assert np.max(np.abs(out - apply_kraus(kraus, rho))) <= 1e-15


# ---------------------------------------------------------------------------
# chunked channels against one channel at a time


def _padded_decomposition():
    e, _ = planted_ensemble(PlantSpec(blocks=((1, 2), (2, 1)), num_states=3, seed=5))
    states = np.zeros((len(e), e.dim + 2, e.dim + 2), dtype=complex)
    states[:, : e.dim, : e.dim] = e.states
    padded = Ensemble(probs=e.probs.copy(), states=states)
    return padded, ki_decompose(padded, seed=0)


def _commuting_decomposition():
    # five states diagonal in one rotated basis of C^6: six 1 x 1 blocks
    rng = np.random.default_rng(4)
    u = haar_unitary(6, rng)
    weights = rng.random((5, 6)) + 0.1
    weights /= weights.sum(axis=1, keepdims=True)
    e = Ensemble(probs=np.full(5, 0.2), states=[u @ np.diag(w) @ u.conj().T for w in weights])
    d = ki_decompose(e, seed=0)
    assert [(b.n, b.k) for b in d.blocks] == [(1, 1)] * 6
    return e, d


CHUNK_CASES = {
    "ladder": _ladder_plant,
    "padded": _padded_decomposition,
    "commuting": _commuting_decomposition,
}


@pytest.mark.parametrize("env_dim", [1, 2, 5, 64])
@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunked_kraus_equal_single_channels_bit_for_bit(case, env_dim):
    e, d = CHUNK_CASES[case]()
    size = len(next(random_form2_kraus(d, env_dim, range(10**4), len(e))))
    seeds = [7 * 1000 + r for r in range(2 * size + 1)]  # two full chunks and one of a single channel
    chunks = list(random_form2_kraus(d, env_dim, seeds, len(e)))
    assert [len(c) for c in chunks] == [size, size, 1]
    got = np.concatenate(chunks)
    for seed, kraus in zip(seeds, got):
        assert np.array_equal(kraus, random_form2_channel(d, env_dim=env_dim, seed=seed))


@pytest.mark.parametrize("env_dim", [1, 2, 64])
@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_channel_residual_equals_a_per_channel_apply_loop(case, env_dim):
    e, d = CHUNK_CASES[case]()
    size = len(next(random_form2_kraus(d, env_dim, range(10**4), len(e))))
    channels = 2 * size + 1
    want = 0.0
    for r in range(channels):
        kraus = random_form2_channel(d, env_dim=env_dim, seed=3 * 1000 + r)
        want = max(want, float(np.linalg.norm(apply_kraus(kraus, e.states) - e.states, axis=(1, 2)).max()))
    assert _drift(verify(d, e, channels=channels, env_dim=env_dim, seed=3)) == want
