import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kidecomp import algebra
from kidecomp.algebra import (
    OperatorBasis,
    center_basis,
    commutant,
    generate_algebra,
    intertwiner_basis,
    irrep_decompose,
)
from kidecomp.decompose import KIBlock, mergeable
from kidecomp.ensemble import support_restrict
from kidecomp.errors import ConfigTooLarge, DegenerateSample
from kidecomp.linalg import DEFAULT_TOL, nullspace, orthonormalize_hs, polar_unitary
from kidecomp.oracles import PlantSpec, haar_unitary, planted_ensemble, random_density

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def _vecs(a: OperatorBasis) -> np.ndarray:
    return a.mats.reshape(a.size, -1)


def _contains(a: OperatorBasis, m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Membership of `m` in the span of `a`, relative to its norm."""
    w = m.reshape(-1)
    v = _vecs(a)
    resid = w - (v.conj() @ w) @ v
    return float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(w)))


def _reference_commutant(stack, tol: float = DEFAULT_TOL) -> OperatorBasis:
    """The commutant of a (count, d, d) stack over all d^2 unknowns: the nullspace of the
    stacked kron maps X -> X G - G X."""
    d = np.shape(stack)[-1]
    eye = np.eye(d, dtype=complex)
    rows = [np.kron(eye, g.T) - np.kron(g, eye) for g in stack]
    null = nullspace(np.concatenate(rows, axis=0), tol, floor=1.0)
    mats = [null[:, i].reshape(d, d) for i in range(null.shape[1])]
    return OperatorBasis(dim=d, mats=np.stack(orthonormalize_hs(mats, tol)))


def test_generate_identity_only():
    assert generate_algebra([np.eye(2, dtype=complex)], 2).size == 1


def test_generate_paulis_fill_m2():
    # products of x and z give y and the identity: the full 4-dim algebra
    assert generate_algebra([PAULI_X, PAULI_Z], 2).size == 4


def test_generate_single_diagonal_is_polynomials():
    # distinct eigenvalues: Vandermonde gives all three spectral projectors
    a = generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)], 3)
    assert a.size == 3
    for i in range(3):
        proj = np.zeros((3, 3), dtype=complex)
        proj[i, i] = 1.0
        assert _contains(a, proj, 1e-8)


def _algebra_flags(a: OperatorBasis, tol: float = 1e-8) -> dict[str, bool]:
    """Check numerically that the span is an orthonormal unital *-algebra."""
    return {
        "orthonormal": np.allclose(_vecs(a).conj() @ _vecs(a).T, np.eye(a.size), atol=tol),
        "contains_identity": _contains(a, np.eye(a.dim, dtype=complex), tol),
        "closed_under_adjoint": all(_contains(a, m.conj().T, tol) for m in a.mats),
        "closed_under_product": all(_contains(a, x @ y, tol) for x in a.mats for y in a.mats),
    }


def test_generated_algebra_flags():
    a = generate_algebra([PAULI_X, PAULI_Z], 2)
    flags = _algebra_flags(a)
    assert all(flags.values())


def test_commutant_of_full_matrix_algebra_is_scalars():
    a = generate_algebra([PAULI_X, PAULI_Z], 2)
    assert commutant(a.mats).size == 1
    # four anticommuting involutions generate M_4, though no element of their span is generic
    assert commutant(_clifford_generators(4, 0)).size == 1


def test_commutant_of_scalars_is_everything():
    a = generate_algebra([I2], 2)
    assert commutant(a.mats).size == 4
    for d in (1, 3, 5):  # one eigenspace: the solve runs over all d^2 unknowns
        assert commutant([np.eye(d, dtype=complex)]).size == d * d


def test_commutant_of_x_tensor_identity():
    # eigenspaces of x (x) 1 are two planes; operators block over them: 4 + 4 dims
    a = generate_algebra([np.kron(PAULI_X, I2)], 4)
    c = commutant(a.mats, 1e-9)
    assert c.size == 8
    for x in c.mats:  # every element must genuinely commute with the generator
        g = np.kron(PAULI_X, I2)
        assert np.linalg.norm(x @ g - g @ x) <= 1e-10


def _assert_copies(copies, mats, dims):
    """`copies` are isometries of the dimensions `dims` (as a multiset) whose
    projectors sum to the identity, each mapped into itself by every matrix of `mats`."""
    assert sorted(c.shape[1] for c in copies) == sorted(dims)
    d = copies[0].shape[0]
    assert np.linalg.norm(sum(c @ c.conj().T for c in copies) - np.eye(d)) <= 1e-10
    for c in copies:
        assert np.linalg.norm(c.conj().T @ c - np.eye(c.shape[1])) <= 1e-10
        outside = np.eye(d) - c @ c.conj().T
        assert max(np.linalg.norm(outside @ m @ c) for m in mats) <= 1e-8


def _equivalent(x, y, mats) -> bool:
    """Copies x and y carry equivalent representations: their compressions of `mats` intertwine."""
    return x.shape == y.shape and len(intertwiner_basis(x.conj().T @ mats @ x, y.conj().T @ mats @ y)) > 0


def _classes(copies, mats) -> list[list[int]]:
    """Indices of the copies, grouped into classes of equivalent ones in order of first appearance."""
    classes: list[list[int]] = []
    for i, c in enumerate(copies):
        cls = next((cls for cls in classes if _equivalent(copies[cls[0]], c, mats)), None)
        if cls is None:
            classes.append([i])
        else:
            cls.append(i)
    return classes


def test_irrep_full_m2():
    a = generate_algebra([PAULI_X, PAULI_Z], 2)
    _assert_copies(irrep_decompose(a.mats, seed=0), a.mats, [2])


def test_irrep_diagonal_algebra():
    a = generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)], 3)
    copies = irrep_decompose(a.mats, seed=0)
    _assert_copies(copies, a.mats, [1, 1, 1])
    assert len(_classes(copies, a.mats)) == 3


def test_irrep_m2_tensor_identity():
    # M_2 (x) 1_2: two equivalent 2-dim copies, glued by the merge, not the split
    a = generate_algebra([np.kron(PAULI_X, I2), np.kron(PAULI_Z, I2)], 4)
    copies = irrep_decompose(a.mats, seed=0)
    _assert_copies(copies, a.mats, [2, 2])
    assert _classes(copies, a.mats) == [[0, 1]]


def test_irrep_transport_and_counting_random():
    # hide a (2,1)+(1,2) structure behind a random rotation
    rng = np.random.default_rng(7)
    u = haar_unitary(4, rng)
    gens = []
    for _ in range(3):
        g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h2 = (g2 + g2.conj().T) / 2
        s = rng.standard_normal()
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = h2
        m[2:, 2:] = s * np.eye(2)
        gens.append(u @ m @ u.conj().T)
    a = generate_algebra(gens, 4)
    copies = irrep_decompose(a.mats, seed=1)
    _assert_copies(copies, gens, [2, 1, 1])
    # the two 1-dim copies are equivalent, the 2-dim one stands alone: dim A = 2^2 + 1^2
    classes = _classes(copies, a.mats)
    assert sorted(len(cls) for cls in classes) == [1, 2]
    assert sum(copies[cls[0]].shape[1] ** 2 for cls in classes) == a.size


def test_double_commutant_equals_algebra():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = generate_algebra([(g + g.conj().T) / 2], 3)
    cc = commutant(commutant(a.mats).mats)
    pa = _vecs(a).conj().T @ _vecs(a)
    pc = _vecs(cc).conj().T @ _vecs(cc)
    assert np.linalg.norm(pa - pc) <= 1e-8


def test_irrep_determinism():
    a = generate_algebra([np.kron(PAULI_X, I2), np.kron(PAULI_Z, I2)], 4)
    b1 = irrep_decompose(a.mats, seed=3)
    b2 = irrep_decompose(a.mats, seed=3)
    _assert_copies(b1, a.mats, [2, 2])
    assert len(b1) == len(b2)
    for x, y in zip(b1, b2):
        assert np.array_equal(x, y)


def _projector(basis: OperatorBasis) -> np.ndarray:
    return _vecs(basis).T @ _vecs(basis).conj()


PLANT_SHAPES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(st.sampled_from(PLANT_SHAPES), min_size=1, max_size=3).filter(
        lambda bs: sum(n * k for n, k in bs) <= 8
    ),
    num_states=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_commutant_matches_full_basis(blocks, num_states, seed):
    e, truth = planted_ensemble(PlantSpec(blocks=tuple(blocks), num_states=num_states, seed=seed))
    _, er = support_restrict(e)
    a = generate_algebra(list(er.states), er.dim)
    comm = commutant(er.states)
    reference = commutant(a.mats)
    assert comm.size == reference.size
    assert np.linalg.norm(_projector(comm) - _projector(reference)) <= 1e-8
    # each planted block splits into k inequivalent irreducible blocks
    # (its K state has distinct eigenvalues) before the merge joins them
    irreps = irrep_decompose(a.mats, seed=0)
    assert len(center_basis(comm)) == len(irreps) == sum(b.k for b in truth.blocks)


def test_generate_algebra_checks_its_generators():
    gens = [np.kron(PAULI_X, I2), np.kron(PAULI_Z, I2)]
    assert generate_algebra(gens, 4).size == 4  # M_2 (x) 1 from the seed I, X (x) 1, Z (x) 1
    with pytest.raises(ValueError):
        generate_algebra([PAULI_X], 4)
    with pytest.raises(ValueError, match="non-finite"):
        generate_algebra([np.full((4, 4), np.inf)], 4)


def _hidden_multiplicity_generators(blocks, num_states, seed):
    """States (+) h_il (x) 1_k behind a Haar rotation: irreps of multiplicity k before any merge."""
    rng = np.random.default_rng(seed)
    d = sum(n * k for n, k in blocks)
    u = haar_unitary(d, rng)
    gens = []
    for _ in range(num_states):
        m = np.zeros((d, d), dtype=complex)
        o = 0
        for n, k in blocks:
            m[o : o + n * k, o : o + n * k] = np.kron(random_density(n, rng), np.eye(k))
            o += n * k
        gens.append(u @ m @ u.conj().T)
    return gens


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.lists(st.sampled_from(PLANT_SHAPES), min_size=1, max_size=3).filter(
        lambda bs: sum(n * k for n, k in bs) <= 8
    ),
    num_states=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_span_factors_like_the_closure(blocks, num_states, seed):
    gens = _hidden_multiplicity_generators(blocks, num_states, seed)
    d = gens[0].shape[0]
    closure = generate_algebra(gens, d)
    from_span = irrep_decompose(gens, seed=0)
    from_closure = irrep_decompose(closure.mats, seed=0)
    # the closure's commutant is solved from its own basis, so its probe, and with it
    # the copy order and the choice of copies inside each multiplicity space, differ
    _assert_copies(from_span, gens, [c.shape[1] for c in from_closure])
    _assert_copies(from_closure, gens, [c.shape[1] for c in from_span])
    # one class of equivalent copies per central projection: the center stays the reference
    span_classes = _classes(from_span, gens)
    assert len(span_classes) == len(center_basis(commutant(gens)))

    def class_projectors(copies, classes):
        return [sum(copies[i] @ copies[i].conj().T for i in cls) for cls in classes]

    closure_projectors = class_projectors(from_closure, _classes(from_closure, closure.mats))
    assert len(closure_projectors) == len(span_classes)
    for p in class_projectors(from_span, span_classes):
        assert min(np.linalg.norm(p - q) for q in closure_projectors) <= 1e-8


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 5),
    num_states=st.integers(1, 3),
    split=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_scalar_commutant_iff_closure_is_full_matrix_algebra(n, num_states, split, seed):
    # split > 0 (and < n) hides a two-block direct sum, so the set is reducible
    rng = np.random.default_rng(seed)
    cut = split if 0 < split < n else 0
    u = haar_unitary(n, rng)
    states = []
    for _ in range(num_states):
        if cut:
            m = np.zeros((n, n), dtype=complex)
            m[:cut, :cut] = random_density(cut, rng) * rng.random()
            m[cut:, cut:] = random_density(n - cut, rng)
            states.append(u @ m @ u.conj().T / np.trace(m).real)
        else:
            states.append(random_density(n, rng))
    irreducible = commutant(states).size == 1
    assert irreducible == (generate_algebra(states, n).size == n * n)
    assert irreducible == (not cut and num_states >= 2)


def intertwiner_space(a_mats, b_mats, tol: float) -> np.ndarray:
    """Basis (m, n, n) of the matrices T with T a_c = b_c T for every pair (a_c, b_c).

    The reference merge solve: the nullspace of the stacked kron maps
    T -> T a_c - b_c T, cut at sqrt(tol). By Schur's lemma two irreducible
    sets give one direction when they are unitarily equivalent and none
    otherwise. For n = 1 the identity is returned unchecked.
    """
    n = a_mats[0].shape[0]
    if n == 1:
        return np.ones((1, 1, 1), dtype=complex)
    eye = np.eye(n, dtype=complex)
    rows = [np.kron(eye, a.T) - np.kron(b, eye) for a, b in zip(a_mats, b_mats)]
    null = nullspace(np.concatenate(rows, axis=0), np.sqrt(tol), floor=1.0)
    return null.T.reshape(-1, n, n)


def test_intertwiner_space_split_and_merge_rules():
    # irreducible sets give one direction when equivalent and none
    # otherwise; the reference merge witness is its last direction
    rng = np.random.default_rng(3)
    sigmas = [random_density(3, rng) for _ in range(3)]
    u = haar_unitary(3, rng)
    rotated = [u @ s @ u.conj().T for s in sigmas]
    ts = intertwiner_space(sigmas, rotated, DEFAULT_TOL)
    assert ts.shape == (1, 3, 3)
    v = polar_unitary(ts[0])
    for s, r in zip(sigmas, rotated):
        assert np.allclose(v @ s @ v.conj().T, r, atol=1e-8)
    phase = np.trace(u.conj().T @ v) / 3
    assert np.allclose(v, phase * u, atol=1e-8) and abs(abs(phase) - 1) < 1e-8

    others = [random_density(3, rng) for _ in range(3)]
    assert len(intertwiner_space(sigmas, others, DEFAULT_TOL)) == 0

    reducible = [np.diag([0.7, 0.3]).astype(complex), np.diag([0.2, 0.8]).astype(complex)]
    ts = intertwiner_space(reducible, reducible, DEFAULT_TOL)
    v = polar_unitary(ts[-1])
    assert np.allclose(v.conj().T @ v, I2)
    for s in reducible:
        assert np.allclose(v @ s @ v.conj().T, s, atol=1e-8)


def _j_block(sigmas, q):
    """A block carrying only what `mergeable` reads: J dimension, weights and J states."""
    n = sigmas[0].shape[0]
    return KIBlock(n=n, k=1, isometry=np.eye(n, dtype=complex), rho_K=np.eye(1, dtype=complex), q=np.asarray(q), rho_J=np.asarray(sigmas))


def _assert_merge_witness(sigmas, rotated, q):
    v, c = mergeable(_j_block(sigmas, q), _j_block(rotated, 2 * np.asarray(q)))
    assert c == pytest.approx(2.0, rel=1e-12)
    reference = polar_unitary(intertwiner_space(sigmas, rotated, DEFAULT_TOL)[-1])
    phase = np.trace(reference.conj().T @ v) / len(v)
    assert abs(abs(phase) - 1) < 1e-8 and np.allclose(v, phase * reference, atol=1e-8)
    pivot = v[np.argmax(np.abs(v[:, 0])), 0]
    assert abs(pivot.imag) <= 1e-12 and pivot.real > 0
    for s, r in zip(sigmas, rotated):
        assert np.allclose(v @ s @ v.conj().T, r, atol=1e-8)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), num_states=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_merge_witness_is_the_reference_intertwiner(n, num_states, seed):
    # a Haar-rotated copy with doubled weights merges with c = 2 and the reference V up to one phase
    rng = np.random.default_rng(seed)
    sigmas = [random_density(n, rng) for _ in range(num_states)]
    u = haar_unitary(n, rng)
    q = rng.uniform(0.1, 0.4, num_states)
    _assert_merge_witness(sigmas, [u @ s @ u.conj().T for s in sigmas], q)
    # an inequivalent set (for n = 1, unequal weight ratios) does not merge
    others = [random_density(n, rng) for _ in range(num_states)] if n > 1 else sigmas
    ratios = 2 * q if n > 1 else 2 * q * np.linspace(1.0, 1.5, num_states)
    assert mergeable(_j_block(sigmas, q), _j_block(others, ratios)) is None


def test_merge_witness_on_clifford_states():
    # every real combination of (1 + 0.3 g_i) / 4 is doubly degenerate, so no
    # span element has a generic spectrum; the commutant still gives V
    sigmas = [(np.eye(4) + 0.3 * g) / 4 for g in _clifford_generators(4, 11)]
    assert commutant(sigmas).size == 1
    mix = np.tensordot(np.random.default_rng(13).standard_normal(4), sigmas, axes=1)
    for s in [*sigmas, mix]:
        lam = np.linalg.eigvalsh(s)
        assert np.allclose(lam[0], lam[1]) and np.allclose(lam[2], lam[3])
    u = haar_unitary(4, np.random.default_rng(12))
    _assert_merge_witness(sigmas, [u @ s @ u.conj().T for s in sigmas], [0.1, 0.2, 0.3, 0.4])


def _identity_probe(mats, rng):
    # a multiple of the identity has one eigenspace: every copy in one cluster
    return np.eye(mats[0].shape[0], dtype=complex)


def test_degenerate_probe_is_retried(monkeypatch):
    gens = _hidden_multiplicity_generators([(2, 1), (1, 2)], 3, 5)
    want = irrep_decompose(gens, seed=0)
    real = algebra._random_hermitian_from
    draws = []

    def once_degenerate(mats, rng):
        draws.append(rng)
        return _identity_probe(mats, rng) if len(draws) == 1 else real(mats, rng)

    monkeypatch.setattr(algebra, "_random_hermitian_from", once_degenerate)
    got = irrep_decompose(gens, seed=0)
    assert len(draws) == 2
    _assert_copies(got, gens, [2, 1, 1])
    assert len(got) == len(want)
    for x, y in zip(got, want):  # the rejected draw took nothing from the stream
        assert np.array_equal(x, y)


def test_always_degenerate_probe_raises(monkeypatch):
    gens = _hidden_multiplicity_generators([(2, 1), (1, 2)], 3, 5)
    monkeypatch.setattr(algebra, "_random_hermitian_from", _identity_probe)
    with pytest.raises(DegenerateSample, match=f"failed {algebra.PROBE_RETRIES} times; last failure: copy links are not 0 or 1"):
        irrep_decompose(gens, seed=0)


def _clifford_generators(count, seed):
    """`count` of four anticommuting Hermitian involutions on C^4, behind a Haar rotation.

    Every Hermitian element c_0 I + sum_j c_j g_j has eigenvalues
    c_0 +- |c|, each two-fold, so no element of the span is generic.
    """
    gammas = [np.kron(PAULI_X, PAULI_X), np.kron(PAULI_Y, PAULI_X), np.kron(PAULI_Z, PAULI_X), np.kron(I2, PAULI_Y)]
    u = haar_unitary(4, np.random.default_rng(seed))
    return [u @ g @ u.conj().T for g in gammas[:count]]


def _planted_states(blocks, num_states, seed):
    e, _ = planted_ensemble(PlantSpec(blocks=tuple(blocks), num_states=num_states, seed=seed))
    _, er = support_restrict(e)
    return er.states


def _hidden_states(blocks, num_states, seed):
    return np.stack(_hidden_multiplicity_generators(blocks, num_states, seed))


_PLANT_BLOCKS = st.lists(st.sampled_from(PLANT_SHAPES), min_size=1, max_size=3).filter(
    lambda bs: sum(n * k for n, k in bs) <= 8
)
_SEEDS = st.integers(0, 2**32 - 1)
_STACKS = st.one_of(
    st.builds(_planted_states, _PLANT_BLOCKS, st.integers(2, 4), _SEEDS),
    st.builds(_hidden_states, _PLANT_BLOCKS, st.integers(1, 4), _SEEDS),
    st.builds(lambda count, seed: np.stack(_clifford_generators(count, seed)), st.integers(1, 4), _SEEDS),
    st.builds(lambda d: np.eye(d, dtype=complex)[None], st.integers(1, 6)),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stack=_STACKS)
def test_commutant_matches_the_kron_stack_reference(stack):
    comm = commutant(stack)
    assert np.allclose(_vecs(comm).conj() @ _vecs(comm).T, np.eye(comm.size), atol=1e-12)
    assert np.linalg.norm(_projector(comm) - _projector(_reference_commutant(stack))) <= 1e-10
    # the double commutant: the full commutant basis as generators
    double = commutant(comm.mats)
    assert np.linalg.norm(_projector(double) - _projector(_reference_commutant(comm.mats))) <= 1e-10


def test_commutant_memory_at_d26():
    # over all d^2 unknowns the stack of these states took 91 MB; the eigenspace stack takes about 2 MB
    states = _planted_states(((5, 3), (4, 2), (3, 1)), 3, 1)
    tracemalloc.start()
    try:
        comm = commutant(states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert comm.size == 6  # one inequivalent copy per redundant eigenvalue
    assert peak < 8 * 2**20


def test_commutant_stack_cap_is_checked_before_allocating(monkeypatch):
    # stack {I} at d=91: one cluster of 91 indices, an 8281 x 8281 stack of 1.1 GB
    tracemalloc.start()
    try:
        with pytest.raises(ConfigTooLarge, match="commutant stack of 8281 x 8281"):
            commutant([np.eye(91, dtype=complex)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # the cap is inclusive: {I} at d=2 stacks 1 x 4 x 4 complex unknowns, 256 bytes
    stack = [I2]
    monkeypatch.setattr(algebra, "MAX_STACK_BYTES", 256)
    assert commutant(stack).size == 4
    monkeypatch.setattr(algebra, "MAX_STACK_BYTES", 255)
    with pytest.raises(ConfigTooLarge):
        commutant(stack)


def _span_projector(mats) -> np.ndarray:
    """Projector onto the span of an orthonormal (count, d_b, d_a) basis, as a d_b d_a square matrix."""
    v = np.asarray(mats).reshape(len(mats), -1)
    return v.T @ v.conj()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), num_states=st.integers(1, 3), seed=_SEEDS)
def test_intertwiner_basis_matches_the_kron_stack_reference(n, num_states, seed):
    rng = np.random.default_rng(seed)
    sigmas = np.stack([random_density(n, rng) for _ in range(num_states)])
    u = haar_unitary(n, rng)
    rotated = u @ sigmas @ u.conj().T
    got = intertwiner_basis(sigmas, rotated)
    want = intertwiner_space(sigmas, rotated, DEFAULT_TOL)
    assert len(got) == len(want) >= 1
    assert np.linalg.norm(_span_projector(got) - _span_projector(want)) <= 1e-8
    # a = b: the commutant of the states
    same = intertwiner_basis(sigmas, sigmas)
    assert np.linalg.norm(_span_projector(same) - _projector(_reference_commutant(sigmas))) <= 1e-8
    # an inequivalent tuple (for n = 1, other scalars) has no intertwiner at all
    others = np.stack([random_density(n, rng) for _ in range(num_states)]) if n > 1 else 2 * sigmas
    assert intertwiner_basis(sigmas, others).shape == (0, n, n)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_intertwiner_basis_on_clifford_tuples(count):
    # every real combination of (1 + 0.3 g_i) / 4 is doubly degenerate, so each cluster
    # of the joint spectrum holds four eigenvalues, two from each side
    sigmas = np.stack([(np.eye(4) + 0.3 * g) / 4 for g in _clifford_generators(count, 11)])
    u = haar_unitary(4, np.random.default_rng(12))
    rotated = u @ sigmas @ u.conj().T
    got = intertwiner_basis(sigmas, rotated)
    want = intertwiner_space(sigmas, rotated, DEFAULT_TOL)
    assert len(got) == len(want) == {1: 8, 2: 4, 3: 2, 4: 1}[count]
    assert np.linalg.norm(_span_projector(got) - _span_projector(want)) <= 1e-8
    same = intertwiner_basis(sigmas, sigmas)
    assert np.linalg.norm(_span_projector(same) - _projector(_reference_commutant(sigmas))) <= 1e-8


# ---------------------------------------------------------------------------
# commutant dimension of a J stack


def test_commutant_dim_of_one_dimensional_states_needs_no_solve(monkeypatch):
    monkeypatch.setattr(algebra, "intertwiner_basis", None)  # any solve would fail
    assert commutant(np.full((3, 1, 1), 0.5, dtype=complex)).size == 1


@pytest.mark.parametrize("n, count, seed", [(2, 1, 0), (2, 2, 1), (3, 2, 2), (4, 3, 3), (3, 6, 4)])
def test_commutant_dim_matches_the_span_commutant(n, count, seed):
    rng = np.random.default_rng(seed)
    generic = np.stack([random_density(n, rng) for _ in range(count)])
    # states that commute with a fixed projector: a reducible stack
    proj = np.diag([1.0] * (n - 1) + [0.0]).astype(complex)
    rest = np.eye(n) - proj
    reducible = np.stack([proj @ s @ proj + rest @ s @ rest for s in generic])
    for stack in (generic, reducible):
        want = _reference_commutant(stack).size
        assert commutant(stack).size == want
    assert commutant(reducible).size >= 2


def test_commutant_dim_of_a_non_hermitian_stack_takes_the_adjoints():
    # E_12 alone: with its adjoint E_21 it generates all of M_2
    e12 = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
    with_adjoint = np.concatenate([e12, e12.conj().swapaxes(1, 2)])
    assert commutant(e12).size == _reference_commutant(with_adjoint).size == 1
    assert _reference_commutant(e12).size == 2  # E_12 alone commutes with I and E_12


# ---------------------------------------------------------------------------
# the probe's cluster gap


@pytest.mark.parametrize("f,groups", [(0.5, [[0, 1], [2]]), (2.0, [[0], [1], [2]])])
def test_eigenvalues_cluster_below_a_gap_of_sqrt_tol(f, groups):
    # on [0, 1] the gap is sqrt(tol): a spacing of f sqrt(tol) joins below it and splits above
    values = np.array([0.0, f * np.sqrt(DEFAULT_TOL), 1.0])
    assert [idx.tolist() for idx in algebra._cluster_ascending(values, DEFAULT_TOL)] == groups
