"""Weak values and the quasi-probability distribution behind them.

The weak value of A for pre-selection rho_psi and post-selection rho_phi is

    A_w = Tr(rho_phi A rho_psi) / Tr(rho_phi rho_psi)

and decomposes as A_w = sum_i a_i g_i over the eigenvalues a_i of A, where
g_i = Tr(rho_phi P_i rho_psi) / Tr(rho_phi rho_psi) is a complex-valued
quasi-probability (the g_i have unit sum but may leave the real interval
[0, 1], which is exactly the anomalous regime).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DensityOperator,
    DimensionMismatchError,
    Observable,
    OrthogonalSelectionError,
    StateVector,
    Tolerances,
    require_dims,
)
from .invariants import overlap, overlap_stack

__all__ = [
    "NORMAL",
    "ANOMALOUS_REAL",
    "ANOMALOUS_IMAGINARY",
    "DEFAULT_SELECTION_THRESHOLD",
    "QuasiProbDist",
    "WeakValueResult",
    "classify",
    "anomalous_mask",
    "is_marginal",
    "quasi_prob",
    "quasi_prob_and_weak_value",
    "quasi_prob_stack",
    "selection_overlap",
    "weak_value",
    "weak_value_hermitian",
    "weak_value_pure",
    "anomalous_indices",
]

NORMAL = "Normal"
ANOMALOUS_REAL = "AnomalousReal"
ANOMALOUS_IMAGINARY = "AnomalousImaginary"

# Post-selection overlaps at or below this are treated as orthogonal, by every gate and the scan.
DEFAULT_SELECTION_THRESHOLD = 1e-12


def classify(value: complex, lo: float, hi: float, anomaly_tol: float = DEFAULT_TOL.anom) -> str:
    """Label a weak value against the real spectrum interval [lo, hi].

    Imaginary parts win over real excursions: a value can only be
    AnomalousReal when its imaginary part is negligible.
    """
    if abs(value.imag) > anomaly_tol:
        return ANOMALOUS_IMAGINARY
    if value.real < lo - anomaly_tol or value.real > hi + anomaly_tol:
        return ANOMALOUS_REAL
    return NORMAL


def anomalous_mask(values, lo: float, hi: float, anomaly_tol: float = DEFAULT_TOL.anom) -> np.ndarray:
    """Elementwise: True wherever :func:`classify` would not return NORMAL."""
    values = np.asarray(values)
    return ((np.abs(values.imag) > anomaly_tol)
            | (values.real < lo - anomaly_tol) | (values.real > hi + anomaly_tol))


def is_marginal(value: complex, lo: float, hi: float, anomaly_tol: float = DEFAULT_TOL.anom) -> bool:
    """True when the verdict sits within 10x the tolerance of a decision boundary.

    The real test is additive distance to the spectrum edges.  The imaginary
    test is multiplicative: the decision line |Im| = tol lives at the noise
    scale itself, so an exactly-real value (distance tol from the line) must
    not count as marginal, while anything within a factor of ten of the line
    on either side does.
    """
    band = 10.0 * anomaly_tol
    if anomaly_tol / 10.0 < abs(value.imag) < band:
        return True
    return abs(value.real - lo) < band or abs(value.real - hi) < band


@dataclass(frozen=True)
class QuasiProbDist:
    """Quasi-probability weights over the ascending eigenvalues of an observable."""

    weights: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=complex))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=float))


@dataclass(frozen=True)
class WeakValueResult:
    """Weak value with its conditioning and classification context.

    ``denominator`` is the post-selection overlap Tr(rho_phi rho_psi); small
    values flag an ill-conditioned (nearly orthogonal) selection.
    """

    value: complex
    denominator: float
    spectrum_lo: float
    spectrum_hi: float
    classification: str


def quasi_prob_stack(rho_phi: np.ndarray, rho_psi: np.ndarray, obs: Observable,
                     tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps and quasi-probabilities of (n, d, d) stacks of selection pairs.

    Returns ``den[k] = Tr(rho_phi[k] rho_psi[k])`` and ``g[k, i] =
    <a_i| rho_psi[k] rho_phi[k] |a_i> / den[k]`` over the ascending
    eigenvectors a_i of ``obs``; the weak value is ``sum_i g[k, i] a_i``.
    Rows at or below ``DEFAULT_SELECTION_THRESHOLD`` are the caller's to drop
    (their g may be infinite or NaN). Raises ImaginaryOverlapError when any
    overlap has an imaginary part above ``tol.eig``.
    """
    den = overlap_stack(rho_phi, rho_psi, tol)
    # <a_i| rho_psi rho_phi |a_i> = sum_k (V^dagger rho_psi)_ik (rho_phi V)_ki, each
    # factor one (n d, d) x (d, d) product: (V^dagger rho_psi)^T = rho_psi^T conj(V).
    n, d, _ = rho_phi.shape
    v = obs.eigenvectors
    left = rho_psi.transpose(0, 2, 1).reshape(n * d, d) @ v.conj()
    right = rho_phi.reshape(n * d, d) @ v
    num = (left * right).reshape(n, d, d).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return den, num / den[:, None]


def _check_selection(den: float) -> None:
    if den <= DEFAULT_SELECTION_THRESHOLD:
        raise OrthogonalSelectionError(
            f"post-selection overlap {den:.3e} at or below threshold {DEFAULT_SELECTION_THRESHOLD:.1e}"
        )


def selection_overlap(rho_phi: DensityOperator, rho_psi: DensityOperator,
                      tol: Tolerances = DEFAULT_TOL) -> float:
    """Tr(rho_phi rho_psi), raising OrthogonalSelectionError at or below ``DEFAULT_SELECTION_THRESHOLD``."""
    den = overlap(rho_phi, rho_psi, tol)
    _check_selection(den)
    return den


def _classified(value: complex, den: float, lo: float, hi: float, anomaly_tol: float) -> WeakValueResult:
    return WeakValueResult(value=value, denominator=den, spectrum_lo=lo, spectrum_hi=hi,
                           classification=classify(value, lo, hi, anomaly_tol))


def quasi_prob_and_weak_value(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                              tol: Tolerances = DEFAULT_TOL) -> tuple[QuasiProbDist, WeakValueResult]:
    """Quasi-probabilities and the weak value sum_i a_i g_i of one selection pair.

    This is the n = 1 case of :func:`quasi_prob_stack` behind the selection gate.
    """
    require_dims(obs.dim, rho_phi, rho_psi)
    den, g = quasi_prob_stack(rho_phi.matrix[None], rho_psi.matrix[None], obs, tol)
    den = float(den[0])
    _check_selection(den)
    a = obs.eigenvalues
    # An elementwise product and a row sum give each weak value the same bits
    # in a stack of one as in a scan block; a matrix-vector product does not.
    value = complex((g[0] * a).sum(axis=-1))
    aw = _classified(value, den, float(a[0]), float(a[-1]), tol.anom)
    return QuasiProbDist(weights=g[0], labels=a), aw


def quasi_prob(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
               tol: Tolerances = DEFAULT_TOL) -> QuasiProbDist:
    """Quasi-probability of each eigenvector of ``obs`` for the given selection."""
    return quasi_prob_and_weak_value(rho_phi, rho_psi, obs, tol)[0]


def weak_value(obs: Observable, rho_psi: DensityOperator, rho_phi: DensityOperator,
               tol: Tolerances = DEFAULT_TOL) -> WeakValueResult:
    """Weak value of a validated observable as sum_i a_i g_i."""
    return quasi_prob_and_weak_value(rho_phi, rho_psi, obs, tol)[1]


def weak_value_hermitian(matrix, rho_psi: DensityOperator, rho_phi: DensityOperator,
                         tol: Tolerances = DEFAULT_TOL) -> WeakValueResult:
    """Weak value of a raw Hermitian matrix by the trace ratio, degenerate spectra included.

    The classification needs only the spectrum edges, so projectors and the
    identity work here even though they carry no canonical eigenbasis.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"observable must be square, got shape {mat.shape}")
    require_dims(mat.shape[0], rho_phi, rho_psi)
    spectrum = np.linalg.eigvalsh(mat)
    den = selection_overlap(rho_phi, rho_psi, tol)
    value = complex(np.trace(rho_phi.matrix @ mat @ rho_psi.matrix)) / den
    return _classified(value, den, float(spectrum[0]), float(spectrum[-1]), tol.anom)


def weak_value_pure(obs: Observable, psi: StateVector, phi: StateVector,
                    tol: Tolerances = DEFAULT_TOL) -> WeakValueResult:
    """Weak value <phi|A|psi> / <phi|psi> for pure pre- and post-selection."""
    require_dims(obs.dim, phi, psi)
    inner = complex(phi.amps.conj() @ psi.amps)
    den = abs(inner) ** 2
    _check_selection(den)
    value = complex(phi.amps.conj() @ obs.matrix @ psi.amps) / inner
    return _classified(value, den, float(obs.eigenvalues[0]), float(obs.eigenvalues[-1]), tol.anom)


def anomalous_indices(dist: QuasiProbDist, anomaly_tol: float = DEFAULT_TOL.anom) -> tuple[int, ...]:
    """Indices whose quasi-probability leaves the real interval [0, 1]."""
    return tuple(np.flatnonzero(anomalous_mask(dist.weights, 0.0, 1.0, anomaly_tol)).tolist())
