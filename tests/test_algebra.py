import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kidecomp.algebra import (
    OperatorBasis,
    block_form_split,
    center_basis,
    commutant,
    compress_to_block,
    generate_algebra,
    generator_span,
    intertwiner_space,
    irrep_decompose,
)
from kidecomp.ensemble import support_restrict
from kidecomp.linalg import DEFAULT_TOL, polar_unitary
from kidecomp.oracles import PlantSpec, haar_unitary, planted_ensemble, random_density

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


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
        assert a.contains(proj, 1e-8)


def test_generated_algebra_flags():
    a = generate_algebra([PAULI_X, PAULI_Z], 2)
    flags = a.verify_flags()
    assert all(flags.values())


def test_commutant_of_full_matrix_algebra_is_scalars():
    a = generate_algebra([PAULI_X, PAULI_Z], 2)
    assert commutant(a).size == 1


def test_commutant_of_scalars_is_everything():
    a = generate_algebra([I2], 2)
    assert commutant(a).size == 4


def test_commutant_of_x_tensor_identity():
    # eigenspaces of x (x) 1 are two planes; operators block over them: 4 + 4 dims
    a = generate_algebra([np.kron(PAULI_X, I2)], 4)
    c = commutant(a, 1e-9)
    assert c.size == 8
    for x in c.mats:  # every element must genuinely commute with the generator
        g = np.kron(PAULI_X, I2)
        assert np.linalg.norm(x @ g - g @ x) <= 1e-10


def test_irrep_full_m2():
    blocks = irrep_decompose(generate_algebra([PAULI_X, PAULI_Z], 2), seed=0)
    assert [(b.n, b.k) for b in blocks] == [(2, 1)]


def test_irrep_diagonal_algebra():
    blocks = irrep_decompose(
        generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)], 3), seed=0
    )
    assert sorted((b.n, b.k) for b in blocks) == [(1, 1)] * 3


def test_irrep_m2_tensor_identity():
    a = generate_algebra([np.kron(PAULI_X, I2), np.kron(PAULI_Z, I2)], 4)
    blocks = irrep_decompose(a, seed=0)
    assert [(b.n, b.k) for b in blocks] == [(2, 2)]


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
    blocks = irrep_decompose(a, seed=1)
    assert sorted((b.n, b.k) for b in blocks) == [(1, 2), (2, 1)]
    assert sum(b.n * b.k for b in blocks) == 4
    assert sum(b.n * b.n for b in blocks) == a.size
    for b in blocks:
        assert np.allclose(
            b.isometry.conj().T @ b.isometry, np.eye(b.n * b.k), atol=1e-10
        )
        for g in gens:
            _, resid = block_form_split(compress_to_block(b, g), b.n, b.k)
            assert resid <= 1e-8


def test_double_commutant_equals_algebra():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = generate_algebra([(g + g.conj().T) / 2], 3)
    cc = commutant(commutant(a))
    pa = a.vecs().conj().T @ a.vecs()
    pc = cc.vecs().conj().T @ cc.vecs()
    assert np.linalg.norm(pa - pc) <= 1e-8


def test_irrep_determinism():
    a = generate_algebra([np.kron(PAULI_X, I2), np.kron(PAULI_Z, I2)], 4)
    b1 = irrep_decompose(a, seed=3)
    b2 = irrep_decompose(a, seed=3)
    assert len(b1) == len(b2)
    for x, y in zip(b1, b2):
        assert (x.n, x.k) == (y.n, y.k)
        assert np.array_equal(x.isometry, y.isometry)


def _projector(basis: OperatorBasis) -> np.ndarray:
    return basis.vecs().T @ basis.vecs().conj()


def test_generators_default_to_the_basis():
    a = generate_algebra([np.kron(PAULI_X, I2)], 4)
    assert a.generators.shape == (2, 4, 4)  # span of I and the generator
    assert a.size == 2
    plain = OperatorBasis(dim=4, mats=a.mats)
    assert plain.generators is plain.mats


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
    comm = commutant(a)
    reference = commutant(OperatorBasis(dim=a.dim, mats=a.mats))
    assert comm.size == reference.size
    assert np.linalg.norm(_projector(comm) - _projector(reference)) <= 1e-8
    # each planted block splits into k inequivalent irreducible blocks
    # (its K state has distinct eigenvalues) before the merge joins them
    irreps = irrep_decompose(a, seed=0)
    assert len(center_basis(comm)) == len(irreps) == sum(b.k for b in truth.blocks)


def test_generator_span_is_the_closure_seed():
    gens = [np.kron(PAULI_X, I2), np.kron(PAULI_Z, I2)]
    span = generator_span(gens, 4)
    assert span.size == 3  # I, X (x) 1, Z (x) 1
    assert span.generators is span.mats
    assert np.array_equal(generate_algebra(gens, 4).generators, span.mats)
    with pytest.raises(ValueError):
        generator_span([PAULI_X], 4)


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
    from_span = irrep_decompose(generator_span(gens, d), seed=0)
    from_closure = irrep_decompose(generate_algebra(gens, d), seed=0)
    assert [(b.n, b.k) for b in from_span] == [(b.n, b.k) for b in from_closure]
    for x, y in zip(from_span, from_closure):
        px = x.isometry @ x.isometry.conj().T
        py = y.isometry @ y.isometry.conj().T
        assert np.linalg.norm(px - py) <= 1e-8
        # same Schur intertwiners: the (a, j) columns agree, not only their span
        assert np.linalg.norm(x.isometry - y.isometry) <= 1e-8


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
    irreducible = commutant(generator_span(states, n)).size == 1
    assert irreducible == (generate_algebra(states, n).size == n * n)
    assert irreducible == (not cut and num_states >= 2)


def test_intertwiner_space_split_and_merge_rules():
    # the irreducible split accepts exactly one direction (floor 0); the
    # merge takes the last direction as its candidate (floor 1)
    rng = np.random.default_rng(3)
    sigmas = [random_density(3, rng) for _ in range(3)]
    u = haar_unitary(3, rng)
    rotated = [u @ s @ u.conj().T for s in sigmas]
    for floor in (0.0, 1.0):
        ts = intertwiner_space(sigmas, rotated, DEFAULT_TOL, floor)
        assert ts.shape == (1, 3, 3)
        v = polar_unitary(ts[0])
        for s, r in zip(sigmas, rotated):
            assert np.allclose(v @ s @ v.conj().T, r, atol=1e-8)
        phase = np.trace(u.conj().T @ v) / 3
        assert np.allclose(v, phase * u, atol=1e-8) and abs(abs(phase) - 1) < 1e-8

        others = [random_density(3, rng) for _ in range(3)]
        assert len(intertwiner_space(sigmas, others, DEFAULT_TOL, floor)) == 0

    reducible = [np.diag([0.7, 0.3]).astype(complex), np.diag([0.2, 0.8]).astype(complex)]
    assert len(intertwiner_space(reducible, reducible, DEFAULT_TOL, 0.0)) == 2  # the split refuses
    ts = intertwiner_space(reducible, reducible, DEFAULT_TOL, 1.0)
    v = polar_unitary(ts[-1])
    assert np.allclose(v.conj().T @ v, I2)
    for s in reducible:
        assert np.allclose(v @ s @ v.conj().T, s, atol=1e-8)
