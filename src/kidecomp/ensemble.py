"""Signal-source model: a weighted finite ensemble of density matrices.

Includes validation, the average state, restriction onto the support of
the average state, and a JSON file format with explicit [re, im] entry
pairs (human-inspectable, bit-stable round trips). The package's one
[re, im] codec lives here: `_pairs_to_matrix` reads a matrix with one
type scan and one float conversion, and `_to_json` writes every
document the package writes (ensemble files, decomposition documents,
CLI reports), a matrix at a time.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import DEFAULT_TOL, eigh, eigvalsh, hermitize, rank_cut


@dataclass(frozen=True)
class Violation:
    locus: str
    message: str
    residual: float


@dataclass(frozen=True)
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"ok": self.ok, **asdict(self)}


@dataclass(frozen=True)
class Ensemble:
    """States ``states[i]`` emitted with probabilities ``probs[i]``."""

    probs: np.ndarray
    states: np.ndarray  # shape (num_states, dim, dim)

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=complex))
        if self.states.ndim != 3 or self.states.shape[1] != self.states.shape[2]:
            raise ValueError(f"states must have shape (m, d, d), got {self.states.shape}")
        if self.probs.ndim != 1 or len(self.probs) != len(self.states):
            raise ValueError("probs and states lengths differ")
        if len(self.probs) == 0:
            raise ValueError("ensemble needs at least one entry")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return zip(self.probs, self.states)


def validate(e: Ensemble, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Report every violated ensemble invariant (empty report means valid).

    Probabilities must be finite and positive and sum to 1 within tol. Each
    state's entries must be finite. It must be Hermitian (the Frobenius
    norm of rho - rho^dagger at most tol times max(1, ||rho||)); a state
    that is not gets no eigenvalue or trace check. It must be positive
    semidefinite (its lowest eigenvalue at least -tol times max(1, its
    largest)) and have unit trace within tol. A non-finite number fails
    every comparison, so it is reported before any arithmetic reads it: a
    non-finite probability skips the sum check, and a non-finite state
    all of its other checks (it enters the stacked arithmetic as zeros).
    All states are checked at once: stacked norms and traces and one
    batched `eigvalsh`. Violations come in state order, each state's in
    the order above.
    """
    finite_p = np.isfinite(e.probs)
    violations = [
        Violation(f"states[{i}].p", "probability not positive", float(-e.probs[i]))
        if finite_p[i]
        else Violation(f"states[{i}].p", "probability not finite", math.inf)
        for i in np.flatnonzero(~finite_p | (e.probs <= 0))
    ]
    psum_res = abs(float(np.sum(e.probs)) - 1.0) if finite_p.all() else 0.0
    if psum_res > tol:
        violations.append(Violation("states[*].p", "probabilities do not sum to 1", psum_res))
    finite = np.isfinite(e.states).all(axis=(1, 2))
    states = e.states if finite.all() else np.where(finite[:, None, None], e.states, 0.0)
    scale = np.maximum(np.linalg.norm(states, axis=(1, 2)), 1.0)
    herm_res = np.linalg.norm(states - states.conj().swapaxes(1, 2), axis=(1, 2)) / scale
    lam = eigvalsh(hermitize(states))
    window = tol * np.maximum(1.0, lam[:, -1])
    tr_res = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    for i in np.flatnonzero(~finite | (herm_res > tol) | (lam[:, 0] < -window) | (tr_res > tol)):
        locus = f"states[{i}].matrix"
        if not finite[i]:
            violations.append(Violation(locus, "entries not finite", math.inf))
            continue  # no check can read such a matrix
        if herm_res[i] > tol:
            violations.append(Violation(locus, "not Hermitian", float(herm_res[i])))
            continue  # eigenvalue checks are meaningless past this point
        if lam[i, 0] < -window[i]:
            violations.append(Violation(locus, "not positive semidefinite", float(-lam[i, 0])))
        if tr_res[i] > tol:
            violations.append(Violation(locus, "trace differs from 1", float(tr_res[i])))
    return ValidationReport(violations)


def require_valid(e: Ensemble, tol: float = DEFAULT_TOL) -> None:
    report = validate(e, tol)
    if not report.ok:
        v = report.violations[0]
        raise ValidationError(f"{v.locus}: {v.message} (residual {v.residual:.3e})")


def average_state(e: Ensemble) -> np.ndarray:
    """The mixture sum_i p_i rho_i."""
    return hermitize(np.einsum("i,ijk->jk", e.probs, e.states))


def support_restrict(e: Ensemble, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, Ensemble]:
    """Restrict the ensemble onto the support of its average state.

    Returns the frame, the (dim, rank) isometry F from the support into
    the ambient space, and the ensemble of the normalized F^dagger rho_i F.
    Eigenvalues of the average state at or below tol times the largest
    are treated as zero. A full-rank average state yields the identity
    frame, so the restricted ensemble is the input unchanged. Raises
    ValidationError for a state whose restricted trace is at or below
    tol: it lies outside the kept support and cannot be normalized.
    """
    d = e.dim
    lam, vec = eigh(average_state(e))
    keep = rank_cut(lam, tol)
    if np.all(keep):
        return np.eye(d, dtype=complex), e
    order = np.argsort(lam[keep])[::-1]
    iso = vec[:, keep][:, order]
    restricted = hermitize(iso.conj().T @ e.states @ iso)
    traces = np.trace(restricted, axis1=1, axis2=2).real
    if (outside := np.flatnonzero(traces <= tol)).size:
        i = outside[0]
        raise ValidationError(
            f"states[{i}]: outside the support of the average state (restricted trace {traces[i]:.3e})"
        )
    return iso, Ensemble(probs=e.probs.copy(), states=restricted / traces[:, None, None])


# ---------------------------------------------------------------------------
# file format


def _number(x, locus: str) -> float:
    """A finite JSON number as a float; booleans, strings, out-of-range integers and
    NaN or +-Infinity (Python's JSON reader accepts them) raise ParseError at `locus`."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ParseError(f"{locus}: expected a number")
    try:
        value = float(x)
    except OverflowError:
        raise ParseError(f"{locus}: number out of float range") from None
    if not math.isfinite(value):
        raise ParseError(f"{locus}: expected a finite number")
    return value


def _integer(x, locus: str, minimum: int) -> int:
    """A JSON integer of at least `minimum` (0 or 1); booleans, floats and strings raise ParseError at `locus`."""
    if not isinstance(x, int) or isinstance(x, bool) or x < minimum:
        raise ParseError(f"{locus}: expected a {'positive' if minimum else 'non-negative'} integer")
    return x


def _matrix_to_pairs(m: np.ndarray) -> list:
    """Rows of [re, im] pairs at full float precision: the complex entries' own halves."""
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(*m.shape, 2).tolist()


def _pair_halves(rows: list) -> list | None:
    """The entries of rows of [re, im] pairs, flattened row-major with re before im, or None
    when an entry is not a 2-element list. One type scan, shared by the reader and the writer."""
    entries = list(itertools.chain.from_iterable(rows))
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
        return list(itertools.chain.from_iterable(entries))
    return None


def _pairs_to_matrix(rows, nrows: int, ncols: int, locus: str) -> np.ndarray:
    """Parse rows of [re, im] number pairs; a ParseError names the first bad locus.

    Every row's length is checked before the array is allocated, so the
    allocation is bounded by the entries the document spells out. Then
    one type scan and one float conversion take the whole matrix, real
    and imaginary halves stored as read (-0.0 keeps its sign). Only
    when they meet an entry they do not take (a bad one, or a number
    that is not a plain int or float) does the per-entry walk run: it
    names the first bad locus in row-major order, or converts the
    entries one by one.
    """
    if not isinstance(rows, list) or len(rows) != nrows:
        raise ParseError(f"{locus}: expected {nrows} rows")
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {ncols}):
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != ncols:
                raise ParseError(f"{locus}[{r}]: expected {ncols} columns")
    values = _pair_halves(rows)
    if values is not None and set(map(type, values)) <= {int, float}:
        try:
            halves = np.array(values, dtype=float)
        except OverflowError:  # an integer beyond float range
            pass
        else:
            if np.isfinite(halves).all():
                return halves.view(complex).reshape(nrows, ncols)
    out = np.empty((nrows, ncols), dtype=complex)
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"{locus}[{r}][{c}]: expected a [re, im] pair")
            at = f"{locus}[{r}][{c}]"
            out[r, c] = complex(_number(entry[0], at), _number(entry[1], at))
    return out


def _round_float(x: float, fmt: str) -> float | str:
    """A report's float: formatted with `fmt` (such as "%.12g") and read back, or, when not
    finite, the string of its repr, as strict JSON has no NaN or Infinity. The one rounding
    rule of reports, for the JSON writer and the CLI's text format alike."""
    return float(fmt % x) if math.isfinite(x) else repr(x)


def _scalar_text(obj, fmt: str | None) -> str:
    """The JSON text of a string, None, bool, int or float. Floats are written as `json.dumps`
    writes them (NaN and +-Infinity as those tokens), or rounded by `_round_float(obj, fmt)`."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if fmt:
            x = _round_float(obj, fmt)
            return float.__repr__(x) if isinstance(x, float) else encode_basestring_ascii(x)
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else ("Infinity" if obj > 0 else "-Infinity")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=256)
def _pairs_template(nrows: int, ncols: int, level: int) -> str:
    """The `indent=1` JSON text of a nonempty (nrows, ncols) matrix of [re, im] pairs opened
    at indent `level`, with one `%r` per float in row-major order, re before im."""
    i1, i2, i3 = ("\n" + " " * (level + k) for k in (1, 2, 3))
    pair = "[" + i3 + "%r," + i3 + "%r" + i2 + "]"
    row = "[" + i2 + ("," + i2).join([pair] * ncols) + i1 + "]"
    return "[" + i1 + ("," + i1).join([row] * nrows) + "\n" + " " * level + "]"


def _pair_matrix(rows: list) -> tuple[list[float], int] | None:
    """The floats (row-major, re before im) and column count of a nonempty list of
    equal rows of [re, im] pairs of finite floats, or None for any other list."""
    if not (type(rows[0]) is list and rows[0] and type(rows[0][0]) is list):
        return None
    if not (set(map(type, rows)) == {list} and len(ncols := set(map(len, rows))) == 1):
        return None
    values = _pair_halves(rows)
    # a finite sum proves every value finite; one that overflows only costs the general path
    if values is None or set(map(type, values)) != {float} or not math.isfinite(sum(values)):
        return None
    return values, ncols.pop()


def _json_parts(obj, level: int, fmt: str | None, out: list[str]) -> None:
    """Append the `indent=1` JSON text of `obj`, opened at indent `level`, to `out`. A dict,
    list or tuple is one item loop: each item follows its head, its key and ": " in a dict
    (a non-str key raises TypeError in `encode_basestring_ascii`), nothing in a list."""
    if isinstance(obj, dict):
        brackets, heads, items = "{}", (encode_basestring_ascii(key) + ": " for key in obj), obj.values()
    elif type(obj) is list and obj and (matrix := _pair_matrix(obj)) is not None:
        values, ncols = matrix
        if fmt:
            values = [_round_float(x, fmt) for x in values]
        out.append(_pairs_template(len(obj), ncols, level) % tuple(values))
        return
    elif isinstance(obj, (list, tuple)):
        brackets, heads, items = "[]", itertools.repeat(""), obj
    else:
        out.append(_scalar_text(obj, fmt))
        return
    if not items:
        out.append(brackets)
        return
    inner = "\n" + " " * (level + 1)
    sep = brackets[0] + inner
    for head, item in zip(heads, items):
        if isinstance(item, (dict, list, tuple)):
            out.append(sep + head)
            _json_parts(item, level + 1, fmt, out)
        else:
            out.append(sep + head + _scalar_text(item, fmt))
        sep = "," + inner
    out.append("\n" + " " * level + brackets[1])


def _to_json(doc, digits: int | None = None) -> str:
    """The text `json.dumps(doc, indent=1)` writes, in one pass over `doc`.

    The package's one writer, for reports, ensemble files and
    decomposition documents. It takes what those hold: dicts with str
    keys, lists, tuples, strings, ints, bools, None and floats. A matrix
    (equal rows of [re, im] pairs of finite floats) is written at once,
    by filling a template per shape and indent with the floats' reprs.
    Floats are written at full precision; at `digits` significant
    digits, as reports write them, a non-finite float is written as the
    string of its repr.
    """
    out: list[str] = []
    _json_parts(doc, 0, f"%.{digits}g" if digits else None, out)
    return "".join(out)


def write_ensemble(e: Ensemble) -> bytes:
    """Serialize to the JSON ensemble format (full float precision)."""
    doc = {"dim": e.dim, "states": [{"p": float(p), "matrix": _matrix_to_pairs(rho)} for p, rho in e]}
    return (_to_json(doc) + "\n").encode("utf-8")


def _object(obj, keys: tuple[str, str], locus: str) -> None:
    """ParseError at `locus` unless `obj` is an object with both `keys` and no other."""
    if not isinstance(obj, dict):
        raise ParseError(f"{locus}: expected an object")
    if unknown := set(obj) - set(keys):
        raise ParseError(f"{locus}: unknown key {sorted(unknown)[0]!r}")
    if keys[0] not in obj or keys[1] not in obj:
        raise ParseError(f"{locus}: keys {keys[0]!r} and {keys[1]!r} are required")


def _parse_ensemble(data: bytes) -> Ensemble:
    """Parse the JSON ensemble format without validating the ensemble.

    Structural problems raise ParseError naming the locus. `read_ensemble`
    validates the result; a caller that validates anyway (as
    `ki_decompose` does) parses with this, so each input is validated once.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    _object(doc, ("dim", "states"), "top level")
    dim = _integer(doc["dim"], "dim", 1)
    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ParseError("states: expected a non-empty list")
    probs, states = [], []
    for i, entry in enumerate(doc["states"]):
        locus = f"states[{i}]"
        _object(entry, ("p", "matrix"), locus)
        probs.append(_number(entry["p"], f"{locus}.p"))
        states.append(_pairs_to_matrix(entry["matrix"], dim, dim, f"{locus}.matrix"))
    return Ensemble(probs=np.asarray(probs), states=np.stack(states))


def read_ensemble(data: bytes, tol: float = DEFAULT_TOL) -> Ensemble:
    """Parse and validate the JSON ensemble format.

    Structural problems raise ParseError naming the locus; a well-formed
    file describing an invalid ensemble raises ValidationError.
    """
    e = _parse_ensemble(data)
    require_valid(e, tol)
    return e


def load_ensemble(path, tol: float = DEFAULT_TOL) -> Ensemble:
    with open(path, "rb") as fh:
        return read_ensemble(fh.read(), tol)


def save_ensemble(path, e: Ensemble) -> None:
    with open(path, "wb") as fh:
        fh.write(write_ensemble(e))
