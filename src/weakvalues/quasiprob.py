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
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_SELECTION_THRESHOLD,
    DEFAULT_TOL,
    DensityOperator,
    Observable,
    OrthogonalSelectionError,
    StateVector,
    Tolerances,
    pure_to_density,
    require_dims,
)
from .invariants import overlap_stack

__all__ = [
    "NORMAL",
    "ANOMALOUS_REAL",
    "ANOMALOUS_IMAGINARY",
    "QuasiProbDist",
    "classify",
    "anomalous_mask",
    "quasi_prob",
    "quasi_prob_stack",
    "weak_value",
    "weak_value_pure",
]

NORMAL = "Normal"
ANOMALOUS_REAL = "AnomalousReal"
ANOMALOUS_IMAGINARY = "AnomalousImaginary"


def classify(value: complex, lo: float, hi: float, anomaly_tol: float) -> str:
    """Label a weak value against the real spectrum interval [lo, hi].

    Imaginary parts win over real excursions: a value can only be
    AnomalousReal when its imaginary part is negligible.
    """
    if abs(value.imag) > anomaly_tol:
        return ANOMALOUS_IMAGINARY
    if value.real < lo - anomaly_tol or value.real > hi + anomaly_tol:
        return ANOMALOUS_REAL
    return NORMAL


def anomalous_mask(values, lo: float, hi: float, anomaly_tol: float) -> np.ndarray:
    """Elementwise: True wherever :func:`classify` would not return NORMAL."""
    values = np.asarray(values)
    return ((np.abs(values.imag) > anomaly_tol)
            | (values.real < lo - anomaly_tol) | (values.real > hi + anomaly_tol))


def _is_marginal(value: complex, lo: float, hi: float, anomaly_tol: float) -> bool:
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
    """Quasi-probabilities of one selection pair and the weak value they average to.

    ``weights`` are the g_i over the ascending eigenvalues ``labels``, and
    ``value`` is A_w = sum_i a_i g_i. ``denominator`` is the post-selection
    overlap Tr(rho_phi rho_psi); small values flag an ill-conditioned (nearly
    orthogonal) selection. ``tol`` is the anomaly band the pair is judged with,
    and every verdict derives from the record on first read: ``classification``
    of A_w against the spectrum edges, ``anomalous_indices`` of the g_i that
    leave [0, 1], ``marginal`` and ``marginal_indices`` for an A_w or g_i near a
    decision line, and ``anomalous`` when A_w or any g_i is anomalous.
    """

    weights: np.ndarray
    labels: np.ndarray
    value: complex
    denominator: float
    tol: Tolerances

    @property
    def spectrum_lo(self) -> float:
        return float(self.labels[0])

    @property
    def spectrum_hi(self) -> float:
        return float(self.labels[-1])

    @cached_property
    def classification(self) -> str:
        return classify(self.value, self.spectrum_lo, self.spectrum_hi, self.tol.anom)

    @cached_property
    def marginal(self) -> bool:
        return _is_marginal(self.value, self.spectrum_lo, self.spectrum_hi, self.tol.anom)

    @cached_property
    def anomalous_indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(anomalous_mask(self.weights, 0.0, 1.0, self.tol.anom)).tolist())

    @cached_property
    def marginal_indices(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights.tolist()) if _is_marginal(w, 0.0, 1.0, self.tol.anom))

    @property
    def anomalous(self) -> bool:
        return self.classification != NORMAL or bool(self.anomalous_indices)


def quasi_prob_stack(rho_phi: np.ndarray, rho_psi: np.ndarray,
                     obs: Observable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlaps, quasi-probabilities and weak values of (n, d, d) stacks of selection pairs.

    Returns ``den[k] = Tr(rho_phi[k] rho_psi[k])``, ``g[k, i] =
    <a_i| rho_psi[k] rho_phi[k] |a_i> / den[k]`` over the ascending
    eigenvectors a_i of ``obs``, and the weak values ``value[k] = sum_i g[k, i] a_i``.
    Rows at or below ``DEFAULT_SELECTION_THRESHOLD`` are the caller's to drop
    (their g and value may be infinite or NaN). Raises ComputationError when any
    overlap has an imaginary part above ``REALITY_TOL``.
    """
    den = overlap_stack(rho_phi, rho_psi)
    # <a_i| rho_psi rho_phi |a_i> = sum_k (V^dagger rho_psi)_ik (rho_phi V)_ki, each
    # factor one (n d, d) x (d, d) product: (V^dagger rho_psi)^T = rho_psi^T conj(V).
    n, d, _ = rho_phi.shape
    v = obs.eigenvectors
    left = rho_psi.transpose(0, 2, 1).reshape(n * d, d) @ v.conj()
    right = rho_phi.reshape(n * d, d) @ v
    # An einsum, not .sum(axis=1): numpy runs that reduction as one inner loop per row.
    num = np.einsum("nki->ni", (left * right).reshape(n, d, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = num / den[:, None]
        # An elementwise product and a row sum give row k the same bits in any
        # stack; a matrix-vector product does not.
        return den, g, (g * obs.eigenvalues).sum(axis=-1)


def quasi_prob(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
               tol: Tolerances = DEFAULT_TOL) -> QuasiProbDist:
    """Quasi-probabilities and the weak value sum_i a_i g_i of one selection pair.

    This is the n = 1 case of :func:`quasi_prob_stack` behind the selection gate.
    """
    require_dims(obs.dim, rho_phi, rho_psi)
    den, g, value = quasi_prob_stack(rho_phi.matrix[None], rho_psi.matrix[None], obs)
    den = float(den[0])
    if den <= DEFAULT_SELECTION_THRESHOLD:
        raise OrthogonalSelectionError(
            f"post-selection overlap at or below threshold {DEFAULT_SELECTION_THRESHOLD:.1e}")
    return QuasiProbDist(weights=g[0], labels=obs.eigenvalues, value=complex(value[0]), denominator=den, tol=tol)


def weak_value(obs: Observable, rho_psi: DensityOperator, rho_phi: DensityOperator) -> QuasiProbDist:
    """Weak value of a validated observable as sum_i a_i g_i, judged with ``DEFAULT_TOL``."""
    return quasi_prob(rho_phi, rho_psi, obs)


def weak_value_pure(obs: Observable, psi: StateVector, phi: StateVector) -> QuasiProbDist:
    """Weak value <phi|A|psi> / <phi|psi> of pure selections, judged with ``DEFAULT_TOL``: the n = 1 kernel."""
    return quasi_prob(pure_to_density(phi), pure_to_density(psi), obs)

