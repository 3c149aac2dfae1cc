"""Entropies, fidelity, and the information/cost bookkeeping of a decomposition.

All logarithms are base 2; units are bits, ebits and qubits per message.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .decompose import KIDecomposition
from .ensemble import Ensemble, average_state
from .linalg import DEFAULT_TOL, as_complex_matrix, eigvalsh, hermitize, psd_eigen, rank_cut


def von_neumann_entropy(rho, tol: float = DEFAULT_TOL) -> float:
    """-Tr(rho log2 rho) in bits; eigenvalues at or below the relative floor are dropped."""
    rho = as_complex_matrix(rho)
    lam = eigvalsh(hermitize(rho))
    keep = lam[rank_cut(lam, tol)]
    if keep.size == 0:
        return 0.0
    s = float(-np.sum(keep * np.log2(keep)))
    return min(max(s, 0.0), float(np.log2(rho.shape[0])))


def shannon_entropy(p, tol: float = DEFAULT_TOL) -> float:
    p = np.asarray(p, dtype=float)
    keep = p[p > tol]
    if keep.size == 0:
        return 0.0
    return max(float(-np.sum(keep * np.log2(keep))), 0.0)


def fidelity(rho, sigma, tol: float = DEFAULT_TOL) -> float:
    """[Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, clamped to [0, 1].

    Evaluated on the support of rho: with rho = W W^dagger, W = V sqrt(lam)
    over the eigenvalues kept by `rank_cut` at round-off level
    (dim * eps * largest), sqrt(rho) sigma sqrt(rho) has the nonzero
    spectrum of W^dagger sigma W. Round-off eigenvalues of a rank-deficient
    rho thus never reach a square root, while a genuine eigenvalue well
    below `tol` still counts. `tol` bounds the Hermiticity and negativity
    of rho, as in `psd_eigen`.
    """
    rho = as_complex_matrix(rho)
    sigma = as_complex_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("fidelity needs states of equal dimension")
    eig = psd_eigen(rho, tol)
    keep = rank_cut(eig.values, rho.shape[0] * np.finfo(float).eps)
    w = eig.vectors[:, keep] * np.sqrt(eig.values[keep])
    inner = hermitize(w.conj().T @ sigma @ w)
    val = float(np.sum(np.sqrt(np.clip(eigvalsh(inner), 0.0, None))) ** 2)
    return min(max(val, 0.0), 1.0)


@dataclass(frozen=True)
class InfoMeasures:
    """Information split and transmission costs of one decomposed ensemble.

    entropy_total is the entropy of the average state and equals the sum
    of the classical, nonclassical and redundant parts. The nonclassical
    part doubles as the asymptotic entanglement cost per message and the
    hybrid qubit rate; the classical part is the hybrid bit rate.
    """

    entropy_total: float
    info_classical: float
    info_nonclassical: float
    info_redundant: float
    ebits_prepared: float
    ebits_consumed: float
    ebits_asymptotic: float
    info_passive: float
    hybrid_qubit_rate: float
    hybrid_bit_rate: float
    additivity_residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def info_measures(d: KIDecomposition, e: Ensemble, tol: float = DEFAULT_TOL) -> InfoMeasures:
    """Evaluate the three-part information split and the entanglement costs.

    Classical part: entropy of the block distribution. Nonclassical
    part: average block entropy of the averaged J states. Redundant
    part: average block entropy of the shared K states. Prepared ebits
    follow the largest J factor, consumed ebits its block average.
    """
    p = np.asarray(d.p_block, dtype=float)
    i_c = shannon_entropy(p, tol)
    i_nc = float(sum(pl * von_neumann_entropy(rj, tol) for pl, rj in zip(p, d.rho_J_avg)))
    i_r = float(sum(pl * von_neumann_entropy(b.rho_K, tol) for pl, b in zip(p, d.blocks)))
    s_total = von_neumann_entropy(average_state(e), tol)
    e_prep = float(np.log2(max(b.n for b in d.blocks)))
    e_cons = float(sum(pl * np.log2(b.n) for pl, b in zip(p, d.blocks)))
    return InfoMeasures(
        entropy_total=s_total,
        info_classical=i_c,
        info_nonclassical=i_nc,
        info_redundant=i_r,
        ebits_prepared=e_prep,
        ebits_consumed=e_cons,
        ebits_asymptotic=i_nc,
        info_passive=i_c + i_nc,
        hybrid_qubit_rate=i_nc,
        hybrid_bit_rate=i_c,
        additivity_residual=abs(s_total - (i_c + i_nc + i_r)),
    )
