"""The [re, im] codec: the array-at-a-time reader and the one JSON writer against the
per-entry walker and `json.dumps` they replaced, and the stacked `validate` against
its per-state checks."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kidecomp import algebra, cli, decompose, ensemble
from kidecomp.decompose import decomposition_to_doc, ki_decompose, read_decomposition
from kidecomp.ensemble import Ensemble, Violation, _parse_ensemble, _to_json, validate, write_ensemble
from kidecomp.errors import ParseError
from kidecomp.linalg import eigvalsh, frob, hermitize
from kidecomp.oracles import PlantSpec, planted_ensemble

# -- references: the code the codec replaced ----------------------------------


def _reference_number(x, locus):
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ParseError(f"{locus}: expected a number")
    try:
        value = float(x)
    except OverflowError:
        raise ParseError(f"{locus}: number out of float range") from None
    if not math.isfinite(value):
        raise ParseError(f"{locus}: expected a finite number")
    return value


def _reference_pairs_to_matrix(rows, nrows, ncols, locus):
    """The per-entry walker."""
    if not isinstance(rows, list) or len(rows) != nrows:
        raise ParseError(f"{locus}: expected {nrows} rows")
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise ParseError(f"{locus}[{r}]: expected {ncols} columns")
    out = np.empty((nrows, ncols), dtype=complex)
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"{locus}[{r}][{c}]: expected a [re, im] pair")
            at = f"{locus}[{r}][{c}]"
            out[r, c] = complex(_reference_number(entry[0], at), _reference_number(entry[1], at))
    return out


def _reference_round12(obj):
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return repr(obj)
        return float(f"{obj:.12g}")
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {k: _reference_round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_round12(v) for v in obj]
    return obj


def _reference_state_violations(rho, tol, locus):
    out = []
    herm_res = frob(rho - rho.conj().T) / max(frob(rho), 1.0)
    if herm_res > tol:
        return [Violation(locus, "not Hermitian", herm_res)]
    lam = eigvalsh(hermitize(rho))
    if lam[0] < -tol * max(1.0, float(lam[-1])):
        out.append(Violation(locus, "not positive semidefinite", float(-lam[0])))
    tr_res = abs(float(np.trace(rho).real) - 1.0)
    if tr_res > tol:
        out.append(Violation(locus, "trace differs from 1", tr_res))
    return out


# -- documents and their one-leaf mutations -----------------------------------

PLANT, _ = planted_ensemble(PlantSpec(blocks=((2, 1), (1, 2)), num_states=3, seed=1))
ENSEMBLE_DOC = json.loads(write_ensemble(PLANT))
DECOMPOSITION_DOC = json.loads(json.dumps(decomposition_to_doc(ki_decompose(PLANT), PLANT.probs)))

# mutation -> the JSON text that replaces one number, or one [re, im] pair for the pair kinds
TOKENS = {
    "bool": "true",
    "string": '"0.5"',
    "null": "null",
    "short pair": "[0.5]",
    "long pair": "[0.5, 0.0, 0.0]",
    "1e400": "1e400",
    "10**400": str(10**400),
    "-0.0": "-0.0",
    "above 2**53": str(2**53 + 1),
    "subnormal": "5e-324",
}
PAIR_KINDS = ("short pair", "long pair")
KINDS = (*TOKENS, "ragged row")
PLACEHOLDER = "@@leaf@@"


def _matrices(doc) -> list[list]:
    """Every [re, im] matrix of an ensemble or decomposition document."""
    if "states" in doc:
        return [s["matrix"] for s in doc["states"]]
    out = [doc["frame"]]
    for b in doc["blocks"]:
        out += [b["isometry"], b["rho_K"], b["rho_J_avg"], *(s for s in b["rho_J"] if s is not None)]
    return out


def _scalar_slots(doc) -> list[tuple[list | dict, int | str]]:
    """(container, key) of every number outside the matrices: p, and each block's q entries."""
    if "states" in doc:
        return [(s, "p") for s in doc["states"]]
    return [(b, "p") for b in doc["blocks"]] + [(b["q"], i) for b in doc["blocks"] for i in range(len(b["q"]))]


def _mutate(doc, kind: str, draw) -> bytes:
    """The JSON text of a copy of `doc` with one leaf mutated; `draw(n)` picks an index below n."""
    doc = json.loads(json.dumps(doc))
    if kind == "ragged row":
        matrix = [m for m in _matrices(doc) if m and m[0]]
        row = matrix[draw(len(matrix))]
        row[draw(len(row))].pop()
        return json.dumps(doc).encode()
    slots = _scalar_slots(doc) if kind not in PAIR_KINDS and draw(4) == 0 else []
    if slots:
        container, key = slots[draw(len(slots))]
        container[key] = PLACEHOLDER
    else:
        matrices = [m for m in _matrices(doc) if m and m[0]]
        rows = matrices[draw(len(matrices))]
        row = rows[draw(len(rows))]
        c = draw(len(row))
        if kind in PAIR_KINDS:
            row[c] = PLACEHOLDER
        else:
            row[c][draw(2)] = PLACEHOLDER
    return json.dumps(doc).replace(f'"{PLACEHOLDER}"', TOKENS.get(kind, "")).encode()


def _outcome(read, data: bytes):
    """A reader's answer as bytes, or the text of its ParseError."""
    try:
        result = read(data)
    except ParseError as exc:
        return f"ParseError: {exc}"
    if isinstance(result, Ensemble):
        return result.probs.tobytes(), result.states.tobytes()
    arrays = [result.frame] + [a for b in result.blocks for a in (b.isometry, b.rho_K, b.q, b.rho_J)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _reference_outcome(monkeypatch, read, data: bytes):
    with monkeypatch.context() as m:
        m.setattr(ensemble, "_pairs_to_matrix", _reference_pairs_to_matrix)
        m.setattr(decompose, "_pairs_to_matrix", _reference_pairs_to_matrix)
        return _outcome(read, data)


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(kind=st.sampled_from(KINDS), which=st.sampled_from(("ensemble", "decomposition")), data=st.data())
def test_reader_matches_the_per_entry_walker_on_mutated_documents(monkeypatch, tmp_path, kind, which, data):
    doc, read = (ENSEMBLE_DOC, _parse_ensemble) if which == "ensemble" else (DECOMPOSITION_DOC, read_decomposition)
    text = _mutate(doc, kind, lambda n: data.draw(st.integers(0, n - 1)))
    got = _outcome(read, text)
    assert got == _reference_outcome(monkeypatch, read, text)
    if not isinstance(got, str):
        return
    # a bad document is a parse failure of the CLI: exit 2, one line, no traceback
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    good = tmp_path / "plant.json"
    good.write_bytes(write_ensemble(PLANT))
    argv = ["decompose", str(path)] if which == "ensemble" else ["verify", str(good), "--decomposition", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(argv) == 2
    assert stdout.getvalue() == ""
    assert stderr.getvalue() == f"error: {got.removeprefix('ParseError: ')}\n"


def test_reader_keeps_the_sign_of_zero_and_reads_zero_column_frames():
    m = ensemble._pairs_to_matrix([[[-0.0, -0.0], [5e-324, 1]]], 1, 2, "m")
    assert m.tobytes() == np.array([complex(-0.0, -0.0), complex(5e-324, 1.0)]).tobytes()
    assert ensemble._pairs_to_matrix([[], [], []], 3, 0, "frame").shape == (3, 0)
    # numbers of other types take the per-entry walk and read as before
    m = ensemble._pairs_to_matrix([[[np.float64(0.25), 1]]], 1, 1, "m")
    assert m.tobytes() == np.array([0.25 + 1j]).tobytes()
    # a file round trip keeps -0.0, subnormals and 17-digit numbers bit for bit
    raw = b'{"dim": 2, "states": [{"p": 1.0, "matrix": [[[0.30000000000000004, -0.0], [5e-324, -0.0]], ' \
          b'[[5e-324, 0.0], [0.69999999999999996, -0.0]]]}]}'
    e = _parse_ensemble(raw)
    text = write_ensemble(e)
    assert text.count(b"-0.0") == 3 and b"5e-324" in text and b"0.30000000000000004" in text
    assert _parse_ensemble(text).states.tobytes() == e.states.tobytes()


# -- the writer ------------------------------------------------------------------

_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 0.1 + 0.2, 1e16, 123456789012.5, 2.0**-1074 * 3]),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), _floats, st.text(max_size=6),
    _floats.map(np.float64),
)


@st.composite
def _pair_rows(draw):
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    return [[[draw(_floats), draw(_floats)] for _ in range(ncols)] for _ in range(nrows)]


_documents = st.recursive(
    st.one_of(_leaves, _pair_rows()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=_documents)
def test_writer_matches_json_dumps(doc):
    assert _to_json(doc) == json.dumps(doc, indent=1)
    assert _to_json(doc, digits=12) == json.dumps(_reference_round12(doc), indent=1)


def test_writer_matches_json_dumps_on_package_documents():
    d = ki_decompose(PLANT)
    doc = decomposition_to_doc(d, PLANT.probs)
    assert _to_json(doc) == json.dumps(doc, indent=1)
    assert _to_json(doc, digits=12) == json.dumps(_reference_round12(doc), indent=1)
    assert write_ensemble(PLANT) == (json.dumps(ENSEMBLE_DOC, indent=1) + "\n").encode()
    assert decompose.write_decomposition(d, PLANT.probs) == (json.dumps(doc, indent=1) + "\n").encode()


def test_writer_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        _to_json({"x": np.int64(1)})
    with pytest.raises(TypeError):
        _to_json({1: 0.5})


# -- the stacked validation and the cached draw ----------------------------------


@st.composite
def _ensembles(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, dim = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    g = rng.standard_normal((m, dim, dim)) + 1j * rng.standard_normal((m, dim, dim))
    states = g @ g.conj().swapaxes(1, 2)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    for i in range(m):  # per state, maybe one defect
        defect = draw(st.sampled_from(["none", "skew", "negative", "trace"]))
        if defect == "skew":
            states[i, 0, -1] += draw(st.sampled_from([1e-12, 1e-6, 0.3]))
        elif defect == "negative":
            states[i] -= draw(st.sampled_from([1e-12, 0.5])) * np.eye(dim)
        elif defect == "trace":
            states[i] *= 1.0 + draw(st.sampled_from([1e-12, 0.01]))
    probs = rng.dirichlet(np.ones(m)) * draw(st.sampled_from([1.0, 1.2]))
    if draw(st.booleans()):
        probs[draw(st.integers(0, m - 1))] *= -1
    return Ensemble(probs=probs, states=states)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(e=_ensembles())
def test_stacked_validate_matches_the_per_state_checks(e):
    tol = 1e-9
    want = [Violation(f"states[{i}].p", "probability not positive", float(-p)) for i, p in enumerate(e.probs) if p <= 0]
    if abs(float(np.sum(e.probs)) - 1.0) > tol:
        want.append(Violation("states[*].p", "probabilities do not sum to 1", abs(float(np.sum(e.probs)) - 1.0)))
    for i, rho in enumerate(e.states):
        want += _reference_state_violations(rho, tol, f"states[{i}].matrix")
    got = validate(e, tol).violations
    assert [(v.locus, v.message) for v in got] == [(v.locus, v.message) for v in want]
    for g, w in zip(got, want):
        assert type(g.residual) is float
        assert g.residual == pytest.approx(w.residual, rel=1e-12, abs=1e-300)


def test_intertwiner_coefficients_are_one_fixed_draw_per_count():
    for g in (1, 3, 7):
        draw = np.random.default_rng(0).standard_normal((2, g))
        coeff = algebra._coefficients(g)
        assert coeff.tobytes() == (draw[0] + 1j * draw[1]).tobytes()
        assert not coeff.flags.writeable
        assert algebra._coefficients(g) is coeff
