"""Validated state and observable types plus the basic operations on them.

Raw matrices enter through the validation gates (``state_vector``,
``validate_density``, ``eigensystem``); everything downstream trusts its
inputs and never re-validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "DEFAULT_SELECTION_THRESHOLD",
    "DEFAULT_COHERENCE_TOL",
    "NORM_TOL",
    "HERMITICITY_TOL",
    "PSD_TOL",
    "REALITY_TOL",
    "DEGENERACY_TOL",
    "StateVector",
    "DensityOperator",
    "Observable",
    "ValidationError",
    "ComputationError",
    "OrthogonalSelectionError",
    "state_vector",
    "pure_to_density",
    "validate_density",
    "eigensystem",
    "dephase",
    "require_dims",
    "coherence_l1",
    "commutator_norm",
]


class ValidationError(ValueError):
    """An input failed one of the structural invariants."""


class ComputationError(RuntimeError):
    """A well-formed computation hit a numerically meaningless regime."""


class OrthogonalSelectionError(ComputationError):
    """The post-selection overlap is at or below ``DEFAULT_SELECTION_THRESHOLD``: no weak value exists."""


# Post-selection overlaps at or below this are treated as orthogonal, by every gate and the scan.
DEFAULT_SELECTION_THRESHOLD = 1e-12
# l1 coherence at or above this counts as genuinely coherent, in the witness and the scan.
DEFAULT_COHERENCE_TOL = 1e-8
# The validation gates' thresholds.
NORM_TOL = 1e-10  # unit-norm / unit-trace defect
HERMITICITY_TOL = 1e-10  # largest entrywise Hermiticity defect
PSD_TOL = 1e-10  # how far below zero the lowest eigenvalue of a density operator may sit
REALITY_TOL = 1e-9  # imaginary part refused in an overlap or a real-amplitude input
DEGENERACY_TOL = 1e-8  # least admissible eigenvalue gap


@dataclass(frozen=True)
class Tolerances:
    """The anomaly decision band: half-width ``anom``, below 1/DEFAULT_SELECTION_THRESHOLD.

    A g_i or an A_w is anomalous when it leaves the real spectrum interval by more than
    ``anom``; the validation gates use the module's fixed thresholds instead.
    """

    anom: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.anom < np.inf:
            raise ValidationError(f"tolerance anom must be positive and finite, got {self.anom!r}")
        # |g_i| <= 1 / Tr(rho_phi rho_psi), and every gated pair has Tr above the threshold.
        if self.anom >= 1.0 / DEFAULT_SELECTION_THRESHOLD:
            raise ValidationError(
                f"tolerance anom {self.anom!r} is at or above 1/{DEFAULT_SELECTION_THRESHOLD:.0e}, the bound on "
                "|g_i| past the selection gate, so no quasi-probability could leave the band"
            )


DEFAULT_TOL = Tolerances()


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateVector:
    """Pure state as a 1-D complex amplitude array."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ValidationError(f"state vector must be 1-D with dim >= 2, got shape {amps.shape}")
        object.__setattr__(self, "amps", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


@dataclass(frozen=True)
class DensityOperator:
    """Mixed state as a d x d complex matrix.

    ``trace_defect`` |Tr rho - 1| and ``negativity`` max(-lambda_min, 0), which the density gate accepts up to
    ``NORM_TOL`` and ``PSD_TOL``, are measured once, on first read, for the gate and every later reader.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ValidationError(f"density operator must be square with dim >= 2, got shape {mat.shape}")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def trace_defect(self) -> float:
        with np.errstate(over="ignore"):  # an overflowing trace is an infinite defect, which the gate refuses
            return abs(complex(np.trace(self.matrix)) - 1.0)

    @cached_property
    def negativity(self) -> float:
        return max(-float(np.linalg.eigvalsh(self.matrix)[0]), 0.0)


@dataclass(frozen=True)
class Observable:
    """Non-degenerate Hermitian observable with its ordered eigensystem.

    ``eigenvalues`` is ascending and ``eigenvectors[:, i]`` is the unit
    eigenvector for ``eigenvalues[i]``, with the component of largest
    modulus made real positive.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen(np.asarray(self.matrix, dtype=complex)))
        object.__setattr__(self, "eigenvalues", _frozen(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _frozen(np.asarray(self.eigenvectors, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def basis_state(self, i: int) -> StateVector:
        """Eigenvector i as a pure state."""
        return StateVector(self.eigenvectors[:, i])


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains NaN or Inf entries")


def require_dims(dim: int, *states) -> None:
    """Raise ValidationError unless every state (anything with ``.dim``) has dimension ``dim``."""
    if any(state.dim != dim for state in states):
        dims = "/".join(str(state.dim) for state in states)
        raise ValidationError(f"dimension mismatch: dim {dims} against dim {dim}")


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """``mat`` itself when it equals its conjugate transpose, else its Hermitian part M/2 + M^dagger/2.

    The halves are taken before the sum, which therefore cannot overflow, and the (i, j) entry rounds as
    the conjugate of the (j, i) one, so the result equals its conjugate transpose bit for bit. numpy's
    complex products fuse a multiply-add, so an outer product v v^dagger is Hermitian only to rounding.
    """
    adjoint = mat.conj().T
    if (mat == adjoint).all():
        return mat
    return mat * 0.5 + adjoint * 0.5


def _hermitian(matrix, what: str) -> np.ndarray:
    """``matrix`` as an exactly Hermitian complex array once it is square, non-empty, finite and Hermitian
    within ``HERMITICITY_TOL``; ``what`` names it.

    An accepted matrix with a nonzero defect comes back as its Hermitian part (:func:`_hermitian_part`), so
    no kernel reads an anti-Hermitian part the gate let through; an exactly Hermitian one comes back as is.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValidationError(f"{what} must be square and non-empty, got shape {mat.shape}")
    _require_finite(mat, what)
    with np.errstate(over="ignore"):  # an overflowing difference is an infinite defect, refused below
        defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValidationError(f"Hermiticity defect {defect:.3e} exceeds tolerance {HERMITICITY_TOL:.1e}")
    return _hermitian_part(mat) if defect else mat


def state_vector(values) -> StateVector:
    """Validate amplitudes as a unit-norm pure state."""
    amps = np.asarray(values, dtype=complex)
    if amps.ndim != 1:
        raise ValidationError(f"state vector must be 1-D, got shape {amps.shape}")
    _require_finite(amps, "state vector")
    with np.errstate(over="ignore"):  # an overflowing norm is an infinite defect, refused below
        defect = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    if defect > NORM_TOL:
        raise ValidationError(f"squared norm deviates from 1 by {defect:.3e} (tolerance {NORM_TOL:.1e})")
    return StateVector(amps)


def pure_to_density(psi: StateVector) -> DensityOperator:
    """Rank-1 projector |psi><psi|, made exactly Hermitian as the gate makes an accepted matrix, so a
    report's echoed matrix reads back to the same bits."""
    return DensityOperator(_hermitian_part(np.outer(psi.amps, psi.amps.conj())))


def validate_density(matrix) -> DensityOperator:
    """Validate a raw matrix as a density operator.

    Raises ValidationError naming the violated invariant (Hermiticity,
    positivity or unit trace) and its magnitude.
    """
    rho = DensityOperator(_hermitian(matrix, "density operator"))
    if rho.negativity > PSD_TOL:
        raise ValidationError(f"lowest eigenvalue {-rho.negativity:.3e} below -{PSD_TOL:.1e}")
    if rho.trace_defect > NORM_TOL:
        raise ValidationError(f"trace deviates from 1 by {rho.trace_defect:.3e} (tolerance {NORM_TOL:.1e})")
    return rho


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus component (the first, on a tie) is real positive."""
    pivots = np.take_along_axis(vectors, np.argmax(np.abs(vectors), axis=0)[None], axis=0)[0]
    return vectors * (np.abs(pivots) / pivots)


def eigensystem(matrix) -> Observable:
    """Validate a raw Hermitian matrix as a non-degenerate observable.

    Eigenvalues come out ascending; eigenvector phases follow the
    largest-modulus-component convention so repeated calls agree bitwise.
    """
    mat = _hermitian(matrix, "observable")
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        width = float(eigenvalues[-1] - eigenvalues[0])
    if not np.isfinite(width):  # every gap is at most the width, so no gap overflows past this
        raise ValidationError(f"spectrum width a_max - a_min = {width:.3e} is not a finite float")
    gaps = np.diff(eigenvalues)
    if gaps.size and float(np.min(gaps)) < DEGENERACY_TOL:
        raise ValidationError(
            f"eigenvalue gap {float(np.min(gaps)):.3e} below tolerance {DEGENERACY_TOL:.1e}; "
            "degenerate observables have no canonical eigenbasis"
        )
    return Observable(mat, eigenvalues, _fix_phases(eigenvectors))


def dephase(rho: DensityOperator, basis: Observable) -> DensityOperator:
    """Remove all off-diagonal terms of rho in the eigenbasis of ``basis``."""
    require_dims(basis.dim, rho)
    v = basis.eigenvectors
    populations = np.real(np.einsum("ji,jk,ki->i", v.conj(), rho.matrix, v))
    return DensityOperator((v * populations) @ v.conj().T)


def _l1_in_eigenbasis(stack: np.ndarray) -> np.ndarray:
    """l1 coherence of every matrix of an (n, d, d) stack written in the eigenbasis: moduli sum minus trace.

    The moduli are summed in transposed order, the layout in which :func:`coherence_l1` forms
    V^dagger rho V, so a stack drawn in the eigenbasis gets the bits of the rotated route. The
    difference is clamped at 0: for an incoherent state it can round to a few eps below it.
    """
    moduli = np.ascontiguousarray(np.abs(stack).transpose(0, 2, 1))
    return np.maximum(moduli.sum(axis=(1, 2)) - np.trace(moduli, axis1=1, axis2=2), 0.0)


def coherence_l1(rho: DensityOperator, basis: Observable) -> float:
    """Sum of the moduli of the off-diagonal entries of rho in the eigenbasis."""
    require_dims(basis.dim, rho)
    v = basis.eigenvectors
    # (V^dagger rho V)^T is two products: rho V, then its transpose times conj(V).
    transposed = np.ascontiguousarray((rho.matrix @ v).T) @ v.conj()
    return float(_l1_in_eigenbasis(transposed.T[None])[0])


def commutator_norm(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Frobenius norm of [rho1, rho2]; zero iff the states share an eigenbasis."""
    require_dims(rho1.dim, rho2)
    comm = rho1.matrix @ rho2.matrix - rho2.matrix @ rho1.matrix
    return float(np.linalg.norm(comm))
