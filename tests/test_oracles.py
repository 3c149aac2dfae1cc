import numpy as np
import pytest

from kidecomp.decompose import ki_decompose, verify
from kidecomp.ensemble import validate
from kidecomp.errors import RejectionExhausted
from kidecomp.oracles import (
    PlantSpec,
    form2_channel,
    haar_unitary,
    planted_ensemble,
    random_form2_channel,
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


def _trace_preservation_residual(chan) -> float:
    d = chan.kraus[0].shape[1]
    return float(np.linalg.norm(sum(k.conj().T @ k for k in chan.kraus) - np.eye(d)))


def test_form2_identity_parts_give_identity_channel():
    e, truth = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=2, seed=2))
    parts = [np.eye(b.k, dtype=complex)[None, :, :] for b in truth.blocks]
    chan = form2_channel(truth, parts)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((e.dim, e.dim)) + 1j * rng.standard_normal((e.dim, e.dim))
    probe = g @ g.conj().T
    probe /= np.trace(probe).real
    assert np.linalg.norm(chan.apply(probe) - probe) <= 1e-10
    assert _trace_preservation_residual(chan) <= 1e-10


def test_random_form2_channels_preserve_sources():
    e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=3))
    d = ki_decompose(e, seed=0)
    worst_tp, worst_fix = 0.0, 0.0
    for r in range(20):
        chan = random_form2_channel(d, env_dim=2, seed=r)
        worst_tp = max(worst_tp, _trace_preservation_residual(chan))
        for rho in e.states:
            worst_fix = max(worst_fix, float(np.linalg.norm(chan.apply(rho) - rho)))
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
    chan = random_form2_channel(d, env_dim=2, seed=4)
    assert _trace_preservation_residual(chan) <= 1e-10
    for rho in padded.states:
        assert np.linalg.norm(chan.apply(rho) - rho) <= 1e-8
