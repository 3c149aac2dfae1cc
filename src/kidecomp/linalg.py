"""Dense complex-matrix utilities: Hermitian spectral calculus and Hilbert-Schmidt geometry.

Everything here works on plain complex ndarrays. Rank and clamping
decisions are relative to the largest singular value / eigenvalue, never
absolute, so the routines are insensitive to the overall scale of their
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotPSD

DEFAULT_TOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix contains non-finite entries")
    return a


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dagger) / 2."""
    return (m + m.conj().T) / 2


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral factorization: ascending real eigenvalues, orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(m, tol: float = DEFAULT_TOL) -> HermitianEigen:
    """Eigen-factor a Hermitian matrix, symmetrizing round-off first.

    Raises NotHermitian when the anti-Hermitian part exceeds tol relative
    to the Frobenius norm, and ConvergenceFailure if LAPACK gives up.
    """
    a = as_complex_matrix(m)
    scale = frob(a)
    if frob(a - a.conj().T) > tol * max(scale, 1.0):
        raise NotHermitian(f"anti-Hermitian part {frob(a - a.conj().T):.3e} exceeds tolerance")
    try:
        values, vectors = np.linalg.eigh(hermitize(a))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return HermitianEigen(values=values, vectors=vectors)


def psd_sqrt(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD matrix.

    Eigenvalues in [-tol_eff, 0) are clamped to zero so numerically-PSD
    inputs pass through; anything below that window raises NotPSD. The
    window scales with the top eigenvalue for matrices larger than O(1).
    """
    eig = eig_hermitian(m, tol)
    lam = eig.values
    window = tol * max(1.0, float(lam[-1]) if lam.size else 1.0)
    if lam.size and lam[0] < -window:
        raise NotPSD(f"eigenvalue {lam[0]:.3e} below -{window:.3e}")
    lam = np.clip(lam, 0.0, None)
    v = eig.vectors
    return hermitize((v * np.sqrt(lam)) @ v.conj().T)


def _svd(a: np.ndarray, full_matrices: bool):
    """`np.linalg.svd`, raising ConvergenceFailure where LAPACK gives up."""
    try:
        return np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def orthonormalize_hs(mats, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """HS-orthonormal basis of the span of `mats`.

    Vectorizes the stack, thresholds singular values at tol relative to
    the largest, and reshapes the surviving right singular vectors back
    into matrices. Empty input gives an empty list.
    """
    mats = [as_complex_matrix(m) for m in mats]
    if not mats:
        return []
    d = mats[0].shape[0]
    if any(m.shape[0] != d for m in mats):
        raise ValueError("matrices must share one dimension")
    stack = np.stack([m.reshape(-1) for m in mats])
    _, s, vh = _svd(stack, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    keep = s > tol * s[0]
    return [vh[i].reshape(d, d) for i in range(len(s)) if keep[i]]


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
    _, s, vh = _svd(a, full_matrices=a.shape[0] < a.shape[1])
    n = a.shape[1]
    smax = float(s[0]) if s.size else 0.0
    scale = max(smax, floor)
    rank = int(np.sum(s > tol * scale)) if scale > 0 else 0
    return vh[rank:].conj().T.reshape(n, n - rank)


def polar_unitary(t: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition t = U P."""
    w, _, vh = np.linalg.svd(t)
    return w @ vh
