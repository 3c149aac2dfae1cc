"""Dense complex-matrix utilities: Hermitian spectral calculus and Hilbert-Schmidt geometry.

Everything here works on plain complex ndarrays. Rank and clamping
decisions are relative to the largest singular value / eigenvalue, never
absolute, so the routines are insensitive to the overall scale of their
inputs. `rank_cut` is the one relative rank cut of the package, every
LAPACK call goes through the typed wrappers built by `_lapack`, and
`row_blocks` cuts every bounded loop into slices of at most WORK_BYTES.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotPSD

DEFAULT_TOL = 1e-9
WORK_BYTES = 2**18  # the working set of one slice of every bounded loop of the package (`row_blocks`)


def as_complex_matrix(m, ndim: int = 2) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries: one matrix, or a (count, d, d) stack at ndim=3."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        what = "stack of square matrices" if ndim == 3 else "square matrix"
        raise ValueError(f"expected a {what}, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix contains non-finite entries")
    return a


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dagger) / 2 of a matrix, or of each matrix of a (..., d, d) stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def _lapack(name: str):
    """`np.linalg.<name>`, raising ConvergenceFailure where LAPACK gives up.

    The routine is looked up on each call, so a replacement installed on
    `np.linalg` (as the tests do) reaches every caller.
    """

    def call(*args, **kwargs):
        try:
            return getattr(np.linalg, name)(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc

    call.__name__ = call.__qualname__ = name
    return call


# LAPACK entry points for the whole package; the CLI maps ConvergenceFailure to exit code 3
svd = _lapack("svd")
eigh = _lapack("eigh")
eigvalsh = _lapack("eigvalsh")
qr = _lapack("qr")


def rank_cut(values: np.ndarray, tol: float, floor: float = 0.0) -> np.ndarray:
    """Mask of the `values` above tol * max(largest value, floor).

    The package's one relative rank cut: spans, nullspaces, supports and
    entropies all keep what it keeps. For 0 < tol < 1 nothing is kept
    when the scale is not positive, as every value then lies at or below
    tol * scale.
    """
    scale = max(float(values.max()) if values.size else 0.0, floor)
    return values > tol * scale


def row_blocks(rows: int, row_bytes: int) -> list[slice]:
    """Slices over `rows` rows of `row_bytes` bytes each, WORK_BYTES at most (one row at least) per
    slice: the package's one slicer. WORK_BYTES is read on each call."""
    step = max(1, WORK_BYTES // max(row_bytes, 1))
    return [slice(i, i + step) for i in range(0, rows, step)]


def psd_eigen(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-factor a PSD matrix: ascending eigenvalues clamped at zero, orthonormal column eigenvectors.

    The package's one validated eigen routine: it raises NotHermitian when
    the anti-Hermitian part exceeds tol relative to the Frobenius norm (at
    least 1), then factors the Hermitian part. Eigenvalues in
    [-tol_eff, 0) are clamped to zero so numerically-PSD inputs pass
    through; anything below that window raises NotPSD. The window scales
    with the top eigenvalue for matrices larger than O(1).
    """
    a = as_complex_matrix(m)
    skew = frob(a - a.conj().T)
    if skew > tol * max(frob(a), 1.0):
        raise NotHermitian(f"anti-Hermitian part {skew:.3e} exceeds tolerance")
    lam, vectors = eigh(hermitize(a))
    window = tol * max(1.0, float(lam[-1]) if lam.size else 1.0)
    if lam.size and lam[0] < -window:
        raise NotPSD(f"eigenvalue {lam[0]:.3e} below -{window:.3e}")
    return np.clip(lam, 0.0, None), vectors


def orthonormalize_hs(mats, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """HS-orthonormal basis of the span of a (count, d, d) stack (or a sequence of d x d matrices).

    Checks the whole stack once (square, finite), vectorizes it,
    thresholds singular values at tol relative to the largest, and
    reshapes the surviving right singular vectors back into matrices.
    Empty input gives an empty list.
    """
    stack = np.asarray(mats, dtype=complex)
    if stack.size == 0:
        return []
    stack = as_complex_matrix(stack, ndim=3)
    d = stack.shape[1]
    _, s, vh = svd(stack.reshape(len(stack), -1), full_matrices=False)
    return [vh[i].reshape(d, d) for i in np.flatnonzero(rank_cut(s, tol))]


def nullspace(a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0) -> np.ndarray:
    """Orthonormal columns spanning the right nullspace of `a`.

    Solved from the right singular vectors of a thin SVD: for a tall
    stack (rows >= cols) `vh` is already square, so the rows x rows U
    factor is never formed; only a wide stack needs the full `vh` to
    reach its null rows, and there U is the small side. The rank cut is
    tol relative to the top singular value; `floor` guards stacks whose
    top singular value is itself round-off (rows built from normalized
    operators pass floor=1).
    """
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = svd(a, full_matrices=a.shape[0] < a.shape[1])
    n = a.shape[1]
    rank = int(np.count_nonzero(rank_cut(s, tol, floor)))
    return vh[rank:].conj().T.reshape(n, n - rank)


def polar_unitary(t: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition t = U P."""
    w, _, vh = svd(t)
    return w @ vh


def pivot_phase(col: np.ndarray) -> complex:
    """Unit scalar making the largest-magnitude entry of `col` real positive (1 for a zero column)."""
    pivot = col[int(np.argmax(np.abs(col)))]
    return abs(pivot) / pivot if abs(pivot) > 0 else 1.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, or of each pair of a broadcast (..., r, c) stack.

    The same products as `np.kron` on each pair, as one broadcast multiply.
    """
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def direct_sum(mats) -> np.ndarray:
    """Block-diagonal complex matrix with the square `mats` along the diagonal, or one such
    matrix per entry of their broadcast leading axes for (..., d, d) stacks."""
    total = sum(m.shape[-1] for m in mats)
    out = np.zeros((*np.broadcast_shapes(*(m.shape[:-2] for m in mats)), total, total), dtype=complex)
    s = 0
    for m in mats:
        out[..., s : s + m.shape[-1], s : s + m.shape[-1]] = m
        s += m.shape[-1]
    return out
