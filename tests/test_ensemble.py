import json

import numpy as np
import pytest

from kidecomp.decompose import ki_decompose
from kidecomp.ensemble import (
    Ensemble,
    average_state,
    read_ensemble,
    support_restrict,
    validate,
    write_ensemble,
)
from kidecomp.errors import ParseError, ValidationError
from kidecomp.oracles import haar_unitary, random_density

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_validate_clean():
    assert validate(Ensemble(probs=[1.0], states=[KET0])).ok


def test_validate_probability_sum():
    report = validate(Ensemble(probs=[0.5, 0.6], states=[KET0, KET1]))
    assert not report.ok
    bad = [v for v in report.violations if "sum" in v.message]
    assert bad and bad[0].residual == pytest.approx(0.1)


def test_validate_non_hermitian():
    m = np.array([[1, 1], [0, 0]], dtype=complex)
    report = validate(Ensemble(probs=[1.0], states=[m]))
    assert any("Hermitian" in v.message for v in report.violations)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["p", "matrix"])
def test_validate_reports_a_non_finite_number_at_its_state(bad, where):
    # state 1 carries the non-finite number; states 0 and 2 are valid. The
    # report names state 1 alone, and no arithmetic on it warns (tier-1 turns
    # a RuntimeWarning into an error)
    probs, states = [0.25, 0.5, 0.25], [KET0, PLUS.copy(), KET1]
    if where == "p":
        probs[1] = bad
        message = "probability not finite"
    else:
        states[1][0, 1] = bad
        message = "entries not finite"
    e = Ensemble(probs=probs, states=states)
    report = validate(e)
    assert [(v.locus, v.message, v.residual) for v in report.violations] == [(f"states[1].{where}", message, np.inf)]
    with pytest.raises(ValidationError, match=rf"^states\[1\]\.{where}: {message}"):
        ki_decompose(e)


def test_validate_skips_only_the_non_finite_state():
    # state 0 has a NaN entry and state 1 a trace of 2: both are reported, in state order
    e = Ensemble(probs=[0.5, 0.5], states=[np.full((2, 2), np.nan), 2 * KET0])
    report = validate(e)
    assert [(v.locus, v.message) for v in report.violations] == [
        ("states[0].matrix", "entries not finite"),
        ("states[1].matrix", "trace differs from 1"),
    ]


def test_average_state_single():
    e = Ensemble(probs=[1.0], states=[PLUS])
    assert np.allclose(average_state(e), PLUS)


def test_average_state_maximally_mixed():
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, KET1])
    assert np.allclose(average_state(e), np.eye(2) / 2)


def test_average_state_two_pure():
    # direct 2x2 arithmetic: (|0><0| + |+><+|) / 2
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, PLUS])
    expected = np.array([[0.75, 0.25], [0.25, 0.25]])
    assert np.allclose(average_state(e), expected)


def test_support_restrict_full_rank_gives_identity_frame():
    e = Ensemble(probs=[0.5, 0.5], states=[KET0, KET1])
    frame, er = support_restrict(e)
    assert frame.shape[1] == 2
    assert np.array_equal(frame, np.eye(2, dtype=complex))
    assert np.allclose(er.states, e.states)


@pytest.mark.parametrize("eps,rank", [(1.4e-9, 3), (0.6e-9, 2)])
def test_support_cut_is_relative_to_the_largest_eigenvalue(eps, rank):
    # diag(1, 0, 0) and diag(0, 1 - eps, eps) at 1/2 each: the average's smallest
    # eigenvalue eps / 2 is kept above tol times its largest, 0.5, and dropped below it
    states = np.array([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0 - eps, eps])], dtype=complex)
    frame, _ = support_restrict(Ensemble(probs=[0.5, 0.5], states=states))
    assert frame.shape[1] == rank


def test_support_restrict_single_pure_in_dim_3():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    frame, er = support_restrict(Ensemble(probs=[1.0], states=[rho]))
    assert frame.shape[1] == 1
    assert er.dim == 1
    assert er.states[0][0, 0] == pytest.approx(1.0)


def test_support_restrict_padded_ensemble():
    # embed the two-pure-state qubit pair into dim 4 with two dead levels,
    # behind a random rotation; the restriction must be unitarily equal
    e2 = Ensemble(probs=[0.5, 0.5], states=[KET0, PLUS])
    u = haar_unitary(4, seed=5)
    padded = []
    for s in e2.states:
        big = np.zeros((4, 4), dtype=complex)
        big[:2, :2] = s
        padded.append(u @ big @ u.conj().T)
    e4 = Ensemble(probs=[0.5, 0.5], states=padded)
    frame, er = support_restrict(e4)
    assert frame.shape[1] == 2
    # embedding back reproduces the padded states
    for orig, small in zip(e4.states, er.states):
        assert np.linalg.norm(frame @ small @ frame.conj().T - orig) <= 1e-8
    # Hilbert-Schmidt data matches the unpadded pair up to the frame unitary
    for i in range(2):
        for j in range(2):
            got = np.trace(er.states[i] @ er.states[j]).real
            want = np.trace(e2.states[i] @ e2.states[j]).real
            assert got == pytest.approx(want, abs=1e-10)


def test_roundtrip_minimal_file():
    raw = b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0]]]}]}'
    e = read_ensemble(raw)
    assert len(e) == 1 and e.dim == 1


def test_read_rejects_bad_probability_sum():
    raw = b'{"dim": 1, "states": [{"p": 0.9, "matrix": [[[1.0, 0.0]]]}]}'
    with pytest.raises(ValidationError):
        read_ensemble(raw)


def test_read_rejects_unknown_keys():
    raw = b'{"dim": 1, "extra": 1, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0]]]}]}'
    with pytest.raises(ParseError, match="extra"):
        read_ensemble(raw)
    raw = b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0]]], "note": "x"}]}'
    with pytest.raises(ParseError, match="note"):
        read_ensemble(raw)


@pytest.mark.parametrize("dim", ["1", 1.0, True, 0, -2, None])
def test_read_rejects_non_integer_dim(dim):
    raw = b'{"dim": %s, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0]]]}]}' % json.dumps(dim).encode()
    with pytest.raises(ParseError, match="^dim: expected a positive integer$"):
        read_ensemble(raw)


def test_read_parse_error_names_locus():
    raw = b'{"dim": 2, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0]]]}]}'
    with pytest.raises(ParseError, match=r"states\[0\].matrix"):
        read_ensemble(raw)


def test_read_rejects_integers_beyond_float_range():
    huge = "9" * 400
    raw = f'{{"dim": 1, "states": [{{"p": 1.0, "matrix": [[[{huge}, 0]]]}}]}}'.encode()
    with pytest.raises(ParseError, match=r"states\[0\]\.matrix\[0\]\[0\]: number out of float range"):
        read_ensemble(raw)
    raw = f'{{"dim": 1, "states": [{{"p": {huge}, "matrix": [[[1.0, 0.0]]]}}]}}'.encode()
    with pytest.raises(ParseError, match=r"states\[0\]\.p: number out of float range"):
        read_ensemble(raw)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_read_rejects_non_finite_numbers(token):
    # Python's JSON reader accepts all three tokens
    raw = f'{{"dim": 1, "states": [{{"p": 1.0, "matrix": [[[1.0, {token}]]]}}]}}'.encode()
    with pytest.raises(ParseError, match=r"states\[0\]\.matrix\[0\]\[0\]: expected a finite number"):
        read_ensemble(raw)
    raw = f'{{"dim": 1, "states": [{{"p": {token}, "matrix": [[[1.0, 0.0]]]}}]}}'.encode()
    with pytest.raises(ParseError, match=r"states\[0\]\.p: expected a finite number"):
        read_ensemble(raw)


def test_read_accepts_whitespace():
    raw = b'\n{\t "dim": 1 ,\n "states": [ { "p":  1.0, "matrix": [[[1.0,0.0]]] } ] }\n'
    assert read_ensemble(raw).dim == 1


def test_average_state_unit_trace_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(m))
        e = Ensemble(probs=probs, states=[random_density(dim, rng) for _ in range(m)])
        assert abs(np.trace(average_state(e)).real - 1.0) <= 1e-10


def test_roundtrip_random_qutrit_bitwise():
    rng = np.random.default_rng(3)
    probs = np.array([0.2, 0.35, 0.45])
    states = [random_density(3, rng) for _ in range(3)]
    e = Ensemble(probs=probs, states=states)
    data = write_ensemble(e)
    e2 = read_ensemble(data)
    assert np.array_equal(e.probs, e2.probs)
    assert np.array_equal(e.states, e2.states)  # repr round-trip is exact
    assert write_ensemble(e2) == data
