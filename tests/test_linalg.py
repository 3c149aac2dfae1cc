import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kidecomp
from kidecomp.errors import ConvergenceFailure, NotHermitian, NotPSD
from kidecomp.linalg import direct_sum, eigh, eigvalsh, hermitize, kron, nullspace, orthonormalize_hs, polar_unitary, psd_eigen, qr, rank_cut, svd

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_eig_identity():
    values, _ = psd_eigen(np.eye(2, dtype=complex))
    assert np.allclose(values, [1.0, 1.0])


def test_eig_diagonal_sorted_ascending():
    values, _ = eigh(np.diag([3.0, -1.0]).astype(complex))
    assert np.allclose(values, [-1.0, 3.0])


def test_eig_pauli_x():
    # characteristic polynomial by hand: lambda^2 - 1 = 0
    values, vectors = eigh(PAULI_X)
    assert np.allclose(values, [-1.0, 1.0])
    minus = np.array([1, -1]) / np.sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(np.vdot(vectors[:, 0], minus)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(vectors[:, 1], plus)) == pytest.approx(1.0, abs=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        psd_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    for d in (2, 5, 9, 16):
        m = random_hermitian(rng, d)
        values, vectors = eigh(m)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)
        assert np.allclose(
            vectors.conj().T @ vectors, np.eye(d), atol=1e-12
        )


def test_psd_eigen_clamps_tiny_negatives():
    values, _ = psd_eigen(np.diag([1.0, -1e-12]).astype(complex), tol=1e-9)
    assert values.tolist() == [0.0, 1.0]


def test_psd_eigen_rejects_negative():
    with pytest.raises(NotPSD):
        psd_eigen(np.diag([1.0, -0.5]).astype(complex))


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


def test_nullspace_of_a_rank_deficient_tall_stack():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    a[:, 2] = a[:, 0] - 2j * a[:, 1]
    null = nullspace(a)
    assert null.shape == (3, 1)
    assert np.linalg.norm(a @ null) <= 1e-12
    assert np.allclose(null.conj().T @ null, np.eye(1), atol=1e-12)


def test_nullspace_cut_has_a_unit_floor():
    # a stack whose top singular value is round-off is all null; the floor 1 sets the
    # scale of the cut, so an order-one stack cuts at tol itself
    eye = np.eye(3, dtype=complex)
    assert nullspace(1e-12 * eye).shape == (3, 3)
    assert nullspace(np.diag([1.0, 2e-9, 5e-10]).astype(complex)).shape == (3, 1)
    assert nullspace(np.diag([3.0, 2e-9, 5e-10]).astype(complex)).shape == (3, 2)


def test_nullspace_tall_stack_forms_no_square_u():
    # the shape of the old center stack at d=11 with a 41-dim algebra: a
    # rows x rows U factor would take 394 MB, the thin one takes 9.6 MB
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4961, 121)) + 1j * rng.standard_normal((4961, 121))
    tracemalloc.start()
    try:
        null = nullspace(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert null.shape == (121, 0)
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "values, tol, floor, kept",
    [
        ([], 0.1, 0.0, []),
        ([0.0, 0.0, 0.0], 0.1, 0.0, [False, False, False]),
        ([0.0, 0.0], 0.1, 1.0, [False, False]),
        ([2.0, 0.5, 1e-3], 0.1, 0.0, [True, True, False]),  # descending, as from an SVD
        ([-1.0, 1e-3, 0.5, 2.0], 0.1, 0.0, [False, False, True, True]),  # ascending, as from eigh
        ([2.0, 0.5, 1e-3], 0.1, 10.0, [True, False, False]),  # floor above the maximum sets the scale
        ([0.3, 0.2], 0.5, 0.0, [True, True]),  # the cut is strict: 0.2 > 0.15
        ([-2.0, -1.0], 0.1, 0.0, [False, False]),  # non-positive scale keeps nothing
    ],
)
def test_rank_cut(values, tol, floor, kept):
    got = rank_cut(np.array(values, dtype=float), tol, floor)
    assert got.dtype == bool
    assert got.tolist() == kept


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


@pytest.mark.parametrize(
    "routine, call",
    [
        ("svd", lambda: svd(PAULI_X)),
        ("svd", lambda: polar_unitary(PAULI_X)),
        ("eigh", lambda: eigh(PAULI_X)),
        ("eigh", lambda: psd_eigen(PAULI_X)),
        ("eigvalsh", lambda: eigvalsh(PAULI_X)),
        ("qr", lambda: qr(PAULI_X)),
    ],
    ids=["svd", "polar_unitary", "eigh", "psd_eigen", "eigvalsh", "qr"],
)
def test_lapack_failure_is_typed(monkeypatch, routine, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        call()


LAPACK_ROUTINES = {"svd", "eigh", "eigvalsh", "qr", "eig", "eigvals", "solve", "lstsq", "inv", "pinv", "cholesky"}


def test_lapack_is_called_only_through_the_typed_wrappers():
    # outside linalg.py, np.linalg serves only `norm`; any other routine
    # would let a LinAlgError past the ConvergenceFailure (exit 3) mapping.
    # Inside linalg.py no routine is named either: `_lapack` looks each up
    # by name, so every LAPACK call of the package goes through it.
    offenders = []
    for path in sorted(Path(kidecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "linalg.py":
            offenders += [
                f"linalg.py:{node.lineno} names np.linalg.{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in LAPACK_ROUTINES
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
            ]
            continue
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = []
            offenders += [f"{path.name}:{node.lineno} imports {m}" for m in names if m.startswith("numpy.linalg")]
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "linalg"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                and getattr(parent[node], "attr", None) != "norm"
            ):
                offenders.append(f"{path.name}:{node.lineno} uses np.linalg.{getattr(parent[node], 'attr', '')}")
    assert offenders == []


@pytest.mark.parametrize("shape_a, shape_b", [((3, 3), (2, 2)), ((2, 5), (4, 1)), ((1, 3), (3, 2)), ((4, 2), (1, 1))])
def test_kron_equals_numpy_kron(shape_a, shape_b):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
    b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
    assert np.array_equal(kron(a, b), np.kron(a, b))
    assert np.array_equal(kron(a, np.eye(3)), np.kron(a, np.eye(3)))  # complex by real, as in the block form


def test_stacked_helpers_match_each_matrix():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    b = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sq = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    assert kron(a, m).shape == (4, 4, 6) and kron(a, b).shape == (4, 6, 6)
    for i in range(4):
        assert np.array_equal(kron(a, m)[i], np.kron(a[i], m))
        assert np.array_equal(kron(m, a)[i], np.kron(m, a[i]))
        assert np.array_equal(kron(a, b)[i], np.kron(a[i], b[i]))
        assert np.array_equal(hermitize(sq)[i], hermitize(sq[i]))
        assert np.array_equal(direct_sum([sq, m])[i], direct_sum([sq[i], m]))


def test_orthonormalize_checks_the_stack():
    stack = np.stack([np.eye(2, dtype=complex), PAULI_X])
    assert len(orthonormalize_hs(stack)) == 2
    stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        orthonormalize_hs(stack)
    with pytest.raises(ValueError, match="stack of square matrices"):
        orthonormalize_hs(np.ones((2, 2, 3)))
