import math

import numpy as np
import pytest

from kidecomp.decompose import ki_decompose
from kidecomp.ensemble import Ensemble
from kidecomp.measures import fidelity, info_measures, shannon_entropy, von_neumann_entropy
from kidecomp.oracles import PlantSpec, haar_unitary, planted_ensemble, random_density

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_entropy_pure_state():
    assert von_neumann_entropy(PLUS) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_entropy_maximally_mixed(d):
    assert von_neumann_entropy(np.eye(d, dtype=complex) / d) == pytest.approx(np.log2(d))


def test_entropy_two_level():
    # direct evaluation of the two-term sum
    expected = 2.0 - 0.75 * np.log2(3.0)
    got = von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.811278, abs=1e-6)


@pytest.mark.parametrize("small,kept", [(5e-10, 2), (2e-9, 3)])
def test_shannon_entropy_drops_entries_at_or_below_tol(small, kept):
    # at tol = 1e-9 an entry of 5e-10 is dropped and one of 2e-9 counts
    p = (0.6, 0.4 - small, small)
    want = -sum(x * math.log2(x) for x in p[:kept])
    assert abs(shannon_entropy(p, 1e-9) - want) <= 1e-13


def test_fidelity_identical():
    rng = np.random.default_rng(0)
    rho = random_density(3, rng)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal():
    assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_half_overlap():
    assert fidelity(KET0, PLUS) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetric_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        rho, sigma = random_density(3, rng), random_density(3, rng)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-9


def _full_space_fidelity(rho, sigma):
    """The formula evaluated in the full space, through sqrt(rho): the reference for full-rank inputs."""
    lam, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T
    inner = sq @ sigma @ sq
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None))) ** 2)


def test_fidelity_of_a_rank_deficient_state_equals_the_fidelity_on_its_range():
    # the round-off eigenvalues (~1e-17) of rho's null space must not reach
    # a square root: through one they move the result by up to 1e-8
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = haar_unitary(27, rng)[:, :3]
        rho = p @ random_density(3, rng) @ p.conj().T
        sigma = random_density(27, rng)
        on_range = fidelity(p.conj().T @ rho @ p, p.conj().T @ sigma @ p)
        assert abs(fidelity(rho, sigma) - on_range) <= 1e-12


def test_fidelity_of_full_rank_states_is_unchanged():
    rng = np.random.default_rng(6)
    for dim in (2, 5, 9, 27):
        rho, sigma = random_density(dim, rng), random_density(dim, rng)
        assert abs(fidelity(rho, sigma) - _full_space_fidelity(rho, sigma)) <= 1e-14


def test_fidelity_keeps_a_genuine_eigenvalue_below_tol():
    # only round-off eigenvalues leave the support: a 1e-10 weight on |1>
    # (below the default tol of 1e-9) still carries the overlap with KET1
    rho = np.diag([1.0 - 1e-10, 1e-10]).astype(complex)
    assert fidelity(rho, KET1) == pytest.approx(1e-10, rel=1e-6)


def test_measures_classical_bit():
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, KET1])
    m = info_measures(ki_decompose(e, seed=0), e)
    assert m.info_classical == pytest.approx(1.0, abs=1e-9)
    assert m.info_nonclassical == pytest.approx(0.0, abs=1e-9)
    assert m.info_redundant == pytest.approx(0.0, abs=1e-9)
    assert m.ebits_prepared == 0.0
    assert m.ebits_asymptotic == pytest.approx(0.0, abs=1e-9)


def test_measures_two_pure_states():
    # average state eigenvalues (1 +- 1/sqrt(2)) / 2, entropy by direct formula
    lam = np.array([(1 + 2**-0.5) / 2, (1 - 2**-0.5) / 2])
    s_expected = float(-np.sum(lam * np.log2(lam)))
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, PLUS])
    m = info_measures(ki_decompose(e, seed=0), e)
    assert m.ebits_prepared == pytest.approx(1.0, abs=1e-9)
    assert m.ebits_consumed == pytest.approx(1.0, abs=1e-9)
    assert m.info_classical == pytest.approx(0.0, abs=1e-9)
    assert m.info_redundant == pytest.approx(0.0, abs=1e-9)
    assert m.info_nonclassical == pytest.approx(s_expected, abs=1e-9)
    assert m.ebits_asymptotic == pytest.approx(s_expected, abs=1e-9)
    assert m.info_nonclassical == pytest.approx(0.600876, abs=1e-6)


def test_measures_single_state():
    rng = np.random.default_rng(5)
    rho = random_density(3, rng)
    e = Ensemble(probs=[1.0], states=[rho])
    m = info_measures(ki_decompose(e, seed=0), e)
    assert m.info_classical == pytest.approx(0.0, abs=1e-8)
    assert m.info_nonclassical == pytest.approx(0.0, abs=1e-8)
    assert m.info_redundant == pytest.approx(von_neumann_entropy(rho), abs=1e-8)
    assert m.ebits_prepared == pytest.approx(0.0, abs=1e-8)
    assert m.ebits_consumed == pytest.approx(0.0, abs=1e-8)


def test_additivity_on_planted_ensembles():
    for seed in range(5):
        e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=seed))
        m = info_measures(ki_decompose(e, seed=0), e)
        assert m.additivity_residual <= 1e-8


def test_pure_ensembles_have_no_redundancy():
    rng = np.random.default_rng(11)
    for _ in range(5):
        kets = [haar_unitary(3, rng)[:, 0] for _ in range(3)]
        states = [np.outer(k, k.conj()) for k in kets]
        e = Ensemble(probs=[1 / 3] * 3, states=states)
        m = info_measures(ki_decompose(e, seed=0), e)
        assert m.info_redundant == pytest.approx(0.0, abs=1e-8)


def test_cost_ordering():
    for seed in range(4):
        e, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 1)), num_states=3, seed=seed))
        m = info_measures(ki_decompose(e, seed=0), e)
        assert -1e-12 <= m.ebits_asymptotic <= m.ebits_consumed + 1e-12
        assert m.ebits_consumed <= m.ebits_prepared + 1e-12
        assert m.ebits_prepared <= np.log2(e.dim) + 1e-12
        assert m.info_passive == pytest.approx(m.info_classical + m.info_nonclassical)
        assert m.hybrid_qubit_rate == m.info_nonclassical
        assert m.hybrid_bit_rate == m.info_classical


def test_a_redundant_weight_far_below_the_largest_still_counts_in_i_r():
    # three random 2-dim J states tensor diag(1 - w, w), w = 1e-6, under a Haar frame:
    # one 2x2 block whose I_R is the binary entropy h(w), with w kept by the relative cut
    w = 1e-6
    rng = np.random.default_rng(5)
    rho_k = np.diag([1.0 - w, w]).astype(complex)
    u = haar_unitary(4, rng)
    states = np.array([u @ np.kron(random_density(2, rng), rho_k) @ u.conj().T for _ in range(3)])
    e = Ensemble(probs=[0.2, 0.3, 0.5], states=states)
    d = ki_decompose(e)
    assert [(b.n, b.k) for b in d.blocks] == [(2, 2)]
    h = -(1 - w) * np.log2(1 - w) - w * np.log2(w)
    assert abs(info_measures(d, e).info_redundant - h) <= 1e-10
