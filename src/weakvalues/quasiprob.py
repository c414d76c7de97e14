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


def anomalous_mask(values, lo: float, hi: float, anomaly_tol: float) -> np.ndarray:
    """Elementwise: True wherever a value leaves the real interval [lo, hi] by more than the band.

    A real array has no imaginary part to test."""
    values = np.asarray(values)
    outside = (values.real < lo - anomaly_tol) | (values.real > hi + anomaly_tol)
    if np.iscomplexobj(values):
        outside |= np.abs(values.imag) > anomaly_tol
    return outside


def classify(value: complex, lo: float, hi: float, anomaly_tol: float) -> str:
    """Label a weak value by :func:`anomalous_mask` against the real spectrum interval [lo, hi].

    Imaginary parts win over real excursions: a value can only be AnomalousReal when its
    imaginary part is negligible, that is when the value moved onto the edge lo stays in the band.
    """
    anomalous, imaginary = anomalous_mask([value, complex(lo, value.imag)], lo, hi, anomaly_tol)
    return ANOMALOUS_IMAGINARY if imaginary else ANOMALOUS_REAL if anomalous else NORMAL


def _marginal_mask(values, lo: float, hi: float, anomaly_tol: float, error) -> np.ndarray:
    """Elementwise: True where a value sits within max(10 tol, 2 error) of a decision line.

    The real test is additive distance to the spectrum edges. The imaginary test is
    multiplicative: the decision line |Im| = tol lives at the noise scale itself, so an
    exactly-real value (distance tol from the line) must not count as marginal while its
    error is below tol / 2, and anything within a factor of ten of the line on either
    side, or within twice its error of it, does.
    """
    values = np.asarray(values)
    band, im = np.maximum(10.0 * anomaly_tol, 2.0 * error), np.abs(values.imag)
    return (((np.minimum(anomaly_tol / 10.0, anomaly_tol - 2.0 * error) < im) & (im < band))
            | (np.abs(values.real - lo) < band) | (np.abs(values.real - hi) < band))


@dataclass(frozen=True)
class QuasiProbDist:
    """Quasi-probabilities of one selection pair and the weak value they average to.

    ``weights`` are the g_i over the ascending eigenvalues ``labels``, and
    ``value`` is A_w = sum_i a_i g_i. ``denominator`` is the post-selection
    overlap Tr(rho_phi rho_psi); small values flag an ill-conditioned (nearly
    orthogonal) selection. ``slack`` is the negativity max(-lambda_min, 0) of
    rho_phi plus that of rho_psi, which the positivity gate accepts up to
    ``PSD_TOL`` each. ``tol`` is the anomaly band the pair is judged with, and
    every verdict derives from the record on first read: ``classification`` of
    A_w against the spectrum edges, ``anomalous_indices`` of the g_i that
    leave [0, 1], ``marginal`` and ``marginal_indices`` for an A_w or g_i near a
    decision line, ``anomalous`` when A_w or any g_i is anomalous, and the
    witness's ``allowance``.

    The record states its own error. ``error`` bounds, to first order, how far
    rounding and the slack move each g_i from its value for the exact, positive
    states: e_i = (c eps + slack) (1 + |g_i|) / Tr with c = 2d, where the kernel
    sums d products and the relative error of Tr scales |g_i|. A rescaled state
    cancels in the ratio, so only the negativity counts. Against exact rational
    arithmetic on the stored doubles, near-orthogonal pairs at d = 2..8 reached
    0.65 eps (1 + |g_i|) / Tr. ``value_error`` = sum_i |a_i| e_i bounds A_w's,
    as A_w = sum_i a_i g_i is computed from the a_i themselves, offset and all.
    A value is marginal within max(10 ``tol.anom``, k error) of a decision line
    with k = 2, so a verdict that the error could flip is flagged while the
    slack is at most half of Tr, and past that every verdict is.
    """

    weights: np.ndarray
    labels: np.ndarray
    value: complex
    denominator: float
    slack: float
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
    def error(self) -> np.ndarray:
        rounding = 2.0 * len(self.labels) * float(np.finfo(float).eps)
        return (rounding + self.slack) * (1.0 + np.abs(self.weights)) / self.denominator

    @cached_property
    def value_error(self) -> float:
        return float(np.abs(self.labels) @ self.error)

    @cached_property
    def marginal(self) -> bool:
        return bool(_marginal_mask(self.value, self.spectrum_lo, self.spectrum_hi, self.tol.anom, self.value_error))

    @cached_property
    def anomalous_indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(anomalous_mask(self.weights, 0.0, 1.0, self.tol.anom)).tolist())

    @cached_property
    def marginal_indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(_marginal_mask(self.weights, 0.0, 1.0, self.tol.anom, self.error)).tolist())

    @property
    def anomalous(self) -> bool:
        return self.classification != NORMAL or bool(self.anomalous_indices)

    @cached_property
    def allowance(self) -> float:
        """How far the witness's excess may pass its bound B without a broken theorem (derived in
        ``witness``): 2 max(2 max_i e_i, value_error / (a_max - a_min)) + (d - 1)^2 slack / (2 Tr)."""
        moved = max(2.0 * float(np.max(self.error)), self.value_error / (self.spectrum_hi - self.spectrum_lo))
        return 2.0 * moved + (len(self.labels) - 1) ** 2 * self.slack / (2.0 * self.denominator)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """The row sums of an (n, d) array ``x``: column 0, then each later column added in sequence.

    One order for every caller, the n = 1 record and a scan stack alike, so a row gets the same bits
    in any stack: O(d) whole-column adds, with no inner loop per row, in the order of
    ``np.add.accumulate(x, axis=-1)[:, -1]``. A float64 row's sum is the real part of its complex
    twin's, since complex addition adds the real parts on their own.
    """
    columns = x.T
    total = columns[0].copy()
    for column in columns[1:]:
        total += column
    return total


def _row_any(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=1)`` of an (n, d) boolean array, as an OR of its columns."""
    columns = mask.T
    found = columns[0].copy()
    for column in columns[1:]:
        found |= column
    return found


def _g_contraction(left: np.ndarray, right: np.ndarray, den: np.ndarray,
                   eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The g rows and weak values of (n, d, d) stacks in the eigenbasis, ``left`` transposed.

    ``left[k]`` is (V^dagger rho_psi[k])^T and ``right[k]`` is rho_phi[k] V, so a stack
    drawn in the eigenbasis enters as ``rho_psi.transpose(0, 2, 1)`` and ``rho_phi``
    themselves; ``den`` is the overlaps of :func:`quasi_prob_stack`.

    Stacks are complex128, or float64 for the scan's real kinds; g and the weak values take their dtype.
    Two rules give a float64 stack its complex128 twin's bits, the weak values as the twin's real parts
    (whose imaginary parts are 0). g is the contraction times the reciprocal 1/den, the product numpy's
    complex division by a real den forms (Smith's method with a zero imaginary part), zero signs
    included, since no einsum sum is -0. The weak values are summed by :func:`_row_sum`, whose adds
    give a float row the real parts of its complex twin's, with no cast to complex.
    """
    # An einsum, not .sum(axis=1): numpy runs that reduction as one inner loop per row.
    num = np.einsum("nki->ni", left * right)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _scaled_g(num, 1.0 / den, eigenvalues)


def _scaled_g(num: np.ndarray, scale: np.ndarray, eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = ``num`` times each row's ``scale``, and the weak values sum_i a_i g_i, of g's dtype.

    The row sum is :func:`_row_sum`, left to right, so a float64 g gives the real part of its complex
    twin's weak values bit for bit: the twin's products a_i (g_i + 0i) have real parts a_i g_i exactly.
    """
    g = num * scale[:, None]
    # An elementwise product and a row sum give row k the same bits in any
    # stack; a matrix-vector product does not.
    return g, _row_sum(g * eigenvalues)


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
    return den, *_g_contraction(left.reshape(n, d, d), right.reshape(n, d, d), den, obs.eigenvalues)


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
    return QuasiProbDist(weights=g[0], labels=obs.eigenvalues, value=complex(value[0]), denominator=den,
                         slack=rho_phi.negativity + rho_psi.negativity, tol=tol)


def weak_value(obs: Observable, rho_psi: DensityOperator, rho_phi: DensityOperator) -> QuasiProbDist:
    """Weak value of a validated observable as sum_i a_i g_i, judged with ``DEFAULT_TOL``."""
    return quasi_prob(rho_phi, rho_psi, obs)


def weak_value_pure(obs: Observable, psi: StateVector, phi: StateVector) -> QuasiProbDist:
    """Weak value <phi|A|psi> / <phi|psi> of pure selections, judged with ``DEFAULT_TOL``: the n = 1 kernel."""
    return quasi_prob(pure_to_density(phi), pure_to_density(psi), obs)

