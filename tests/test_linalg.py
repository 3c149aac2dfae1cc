import tracemalloc

import numpy as np
import pytest

from kidecomp.errors import ConvergenceFailure, NotHermitian, NotPSD
from kidecomp.linalg import eig_hermitian, nullspace, orthonormalize_hs, psd_sqrt

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_eig_identity():
    eig = eig_hermitian(np.eye(2, dtype=complex))
    assert np.allclose(eig.values, [1.0, 1.0])


def test_eig_diagonal_sorted_ascending():
    eig = eig_hermitian(np.diag([3.0, -1.0]).astype(complex))
    assert np.allclose(eig.values, [-1.0, 3.0])


def test_eig_pauli_x():
    # characteristic polynomial by hand: lambda^2 - 1 = 0
    eig = eig_hermitian(PAULI_X)
    assert np.allclose(eig.values, [-1.0, 1.0])
    minus = np.array([1, -1]) / np.sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(np.vdot(eig.vectors[:, 0], minus)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(eig.vectors[:, 1], plus)) == pytest.approx(1.0, abs=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    for d in (2, 5, 9, 16):
        m = random_hermitian(rng, d)
        eig = eig_hermitian(m)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)
        assert np.allclose(
            eig.vectors.conj().T @ eig.vectors, np.eye(d), atol=1e-12
        )


def test_psd_sqrt_basics():
    assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))
    proj = (np.eye(2) + PAULI_X) / 2  # rank-1 projector, idempotent
    assert np.allclose(psd_sqrt(proj), proj, atol=1e-12)


def test_psd_sqrt_clamps_tiny_negatives():
    m = np.diag([1.0, -1e-12]).astype(complex)
    s = psd_sqrt(m, tol=1e-9)
    assert s[1, 1] == 0.0


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


def test_psd_sqrt_squares_back_random():
    rng = np.random.default_rng(1)
    for d in (2, 4, 8):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        s = psd_sqrt(m)
        assert np.linalg.norm(s @ s - m) <= 1e-9 * np.linalg.norm(m)


def test_orthonormalize_collinear():
    out = orthonormalize_hs([np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex)])
    assert len(out) == 1
    assert np.linalg.norm(out[0]) == pytest.approx(1.0)


def test_orthonormalize_already_orthogonal():
    out = orthonormalize_hs([PAULI_X, PAULI_Z])
    assert len(out) == 2
    for m in out:
        assert np.linalg.norm(m) == pytest.approx(1.0)
    assert abs(np.vdot(out[0], out[1])) <= 1e-12


def test_orthonormalize_drops_below_threshold():
    out = orthonormalize_hs(
        [np.eye(2, dtype=complex), np.eye(2, dtype=complex) + 1e-15 * PAULI_X], tol=1e-9
    )
    assert len(out) == 1


def test_orthonormalize_empty():
    assert orthonormalize_hs([]) == []


def test_orthonormalize_gram_identity_random():
    rng = np.random.default_rng(2)
    mats = [random_hermitian(rng, 4) for _ in range(9)]
    out = orthonormalize_hs(mats)
    vecs = np.stack([m.reshape(-1) for m in out])
    gram = vecs.conj() @ vecs.T
    assert np.linalg.norm(gram - np.eye(len(out))) <= 1e-10


@pytest.mark.parametrize("shape, null_dim", [((6, 3), 1), ((1, 3), 2)])
def test_nullspace_tall_and_wide(shape, null_dim):
    # rank-2 tall stack, and a wide row whose null rows exist only in the full vh
    rng = np.random.default_rng(4)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if shape[0] > shape[1]:
        a[:, 2] = a[:, 0] - 2j * a[:, 1]
    null = nullspace(a)
    assert null.shape == (shape[1], null_dim)
    assert np.linalg.norm(a @ null) <= 1e-12
    assert np.allclose(null.conj().T @ null, np.eye(null_dim), atol=1e-12)


def test_nullspace_tall_stack_forms_no_square_u():
    # the shape of the old center stack at d=11 with a 41-dim algebra: a
    # rows x rows U factor would take 394 MB, the thin one takes 9.6 MB
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4961, 121)) + 1j * rng.standard_normal((4961, 121))
    tracemalloc.start()
    try:
        null = nullspace(a, floor=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert null.shape == (121, 0)
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "call",
    [lambda: nullspace(np.ones((4, 2), dtype=complex)), lambda: orthonormalize_hs([PAULI_X, PAULI_Z])],
    ids=["nullspace", "orthonormalize_hs"],
)
def test_svd_failure_is_typed(monkeypatch, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        call()
