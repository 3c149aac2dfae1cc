"""Signal-source model: a weighted finite ensemble of density matrices.

Includes validation, the average state, restriction onto the support of
the average state, and a JSON file format with explicit [re, im] entry
pairs (human-inspectable, bit-stable round trips).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import DEFAULT_TOL, as_complex_matrix, eigh, eigvalsh, frob, hermitize, rank_cut


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


def density_matrix_violations(rho: np.ndarray, tol: float, locus: str) -> list[Violation]:
    """Check Hermiticity, positivity and unit trace of one state."""
    out = []
    scale = max(frob(rho), 1.0)
    herm_res = frob(rho - rho.conj().T) / scale
    if herm_res > tol:
        out.append(Violation(locus, "not Hermitian", herm_res))
        return out  # eigenvalue checks are meaningless past this point
    lam = eigvalsh(hermitize(rho))
    window = tol * max(1.0, float(lam[-1]))
    if lam[0] < -window:
        out.append(Violation(locus, "not positive semidefinite", float(-lam[0])))
    tr_res = abs(float(np.trace(rho).real) - 1.0)
    if tr_res > tol:
        out.append(Violation(locus, "trace differs from 1", tr_res))
    return out


def validate(e: Ensemble, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Report every violated ensemble invariant (empty report means valid)."""
    violations: list[Violation] = []
    for i, p in enumerate(e.probs):
        if p <= 0:
            violations.append(Violation(f"states[{i}].p", "probability not positive", float(-p)))
    psum_res = abs(float(np.sum(e.probs)) - 1.0)
    if psum_res > tol:
        violations.append(Violation("states[*].p", "probabilities do not sum to 1", psum_res))
    for i, rho in enumerate(e.states):
        violations.extend(density_matrix_violations(rho, tol, f"states[{i}].matrix"))
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
    """Rows of [re, im] pairs at full float precision."""
    return np.stack((m.real, m.imag), -1).tolist()


def _pairs_to_matrix(rows, nrows: int, ncols: int, locus: str) -> np.ndarray:
    """Parse rows of [re, im] number pairs; a ParseError names the first bad locus.

    Every row's length is checked before the array is allocated, so the
    allocation is bounded by the entries the document spells out.
    """
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
            out[r, c] = complex(_number(entry[0], at), _number(entry[1], at))
    return out


def write_ensemble(e: Ensemble) -> bytes:
    """Serialize to the JSON ensemble format (full float precision)."""
    doc = {
        "dim": e.dim,
        "states": [
            {"p": float(p), "matrix": _matrix_to_pairs(rho)} for p, rho in e
        ],
    }
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def read_ensemble(data: bytes, tol: float = DEFAULT_TOL) -> Ensemble:
    """Parse and validate the JSON ensemble format.

    Structural problems raise ParseError naming the locus; a well-formed
    file describing an invalid ensemble raises ValidationError.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    unknown = set(doc) - {"dim", "states"}
    if unknown:
        raise ParseError(f"top level: unknown key {sorted(unknown)[0]!r}")
    if "dim" not in doc or "states" not in doc:
        raise ParseError("top level: keys 'dim' and 'states' are required")
    dim = _integer(doc["dim"], "dim", 1)
    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ParseError("states: expected a non-empty list")
    probs, states = [], []
    for i, entry in enumerate(doc["states"]):
        locus = f"states[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{locus}: expected an object")
        unknown = set(entry) - {"p", "matrix"}
        if unknown:
            raise ParseError(f"{locus}: unknown key {sorted(unknown)[0]!r}")
        if "p" not in entry or "matrix" not in entry:
            raise ParseError(f"{locus}: keys 'p' and 'matrix' are required")
        probs.append(_number(entry["p"], f"{locus}.p"))
        states.append(_pairs_to_matrix(entry["matrix"], dim, dim, f"{locus}.matrix"))
    e = Ensemble(probs=np.asarray(probs), states=np.stack(states))
    require_valid(e, tol)
    return e


def load_ensemble(path, tol: float = DEFAULT_TOL) -> Ensemble:
    with open(path, "rb") as fh:
        return read_ensemble(fh.read(), tol)


def save_ensemble(path, e: Ensemble) -> None:
    with open(path, "wb") as fh:
        fh.write(write_ensemble(e))

