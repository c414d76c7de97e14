"""Coherence as the resource behind anomalous weak values.

If either selection state is diagonal in the eigenbasis of the observable,
every quasi-probability g_i is a plain probability: Tr(rho_phi P_i rho_psi)
equals Tr(D rho_psi) for the diagonal PSD operator D = rho_phi P_i, which is
real and non-negative, and the g_i sum to one. Anomalies therefore certify
coherence of both states at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DensityOperator,
    Observable,
    Tolerances,
    ValidationError,
    coherence_l1,
    require_dims,
)
from .quasiprob import (
    DEFAULT_SELECTION_THRESHOLD,
    NORMAL,
    WeakValueResult,
    anomalous_indices,
    classify,
    quasi_prob_and_weak_value,
    selection_overlap,
)

__all__ = [
    "CONSISTENT",
    "VIOLATED",
    "DEFAULT_COHERENCE_TOL",
    "NotIncoherentError",
    "WitnessReport",
    "incoherent_quasi_prob",
    "check_theorem_coherence",
    "corollary_projector_weak_value",
]

CONSISTENT = "ConsistentWithTheorem"
VIOLATED = "TheoremViolated"

# l1 coherence at or above this counts as genuinely coherent.
DEFAULT_COHERENCE_TOL = 1e-8


class NotIncoherentError(ValidationError):
    pass


@dataclass(frozen=True)
class WitnessReport:
    """Joint coherence / anomaly diagnosis for one selection pair."""

    l1_post: float
    l1_pre: float
    coherent_post: bool
    coherent_pre: bool
    g_anomalous: tuple[int, ...]
    aw: WeakValueResult
    verdict: str

    @property
    def aw_classification(self) -> str:
        return self.aw.classification

    @property
    def anomaly_present(self) -> bool:
        return bool(self.g_anomalous) or self.aw.classification != NORMAL


def incoherent_quasi_prob(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                          threshold: float = DEFAULT_SELECTION_THRESHOLD,
                          coherence_tol: float = DEFAULT_COHERENCE_TOL,
                          tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Factorized distribution for selections diagonal in the eigenbasis.

    When both states are incoherent the quasi-probability collapses to
    g_i = <a_i|rho_phi|a_i> <a_i|rho_psi|a_i> / Tr(rho_phi rho_psi),
    a genuine probability distribution.
    """
    require_dims(obs.dim, rho_phi, rho_psi)
    for name, rho in (("post-selection", rho_phi), ("pre-selection", rho_psi)):
        l1 = coherence_l1(rho, obs)
        if l1 >= coherence_tol:
            raise NotIncoherentError(
                f"{name} state has l1 coherence {l1:.3e} (threshold {coherence_tol:.1e})"
            )
    den = selection_overlap(rho_phi, rho_psi, threshold, tol)
    v = obs.eigenvectors
    pops_phi = np.real(np.einsum("ji,jk,ki->i", v.conj(), rho_phi.matrix, v))
    pops_psi = np.real(np.einsum("ji,jk,ki->i", v.conj(), rho_psi.matrix, v))
    return pops_phi * pops_psi / den


def check_theorem_coherence(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                            threshold: float = DEFAULT_SELECTION_THRESHOLD,
                            coherence_tol: float = DEFAULT_COHERENCE_TOL,
                            tol: Tolerances = DEFAULT_TOL) -> WitnessReport:
    """Diagnose one selection pair: coherence, anomalies, and their consistency.

    The verdict is ``TheoremViolated`` only if an anomaly shows up while at
    least one selection state is incoherent in the observable eigenbasis,
    which a correct implementation can never produce.
    """
    l1_post = coherence_l1(rho_phi, obs)
    l1_pre = coherence_l1(rho_psi, obs)
    dist, aw = quasi_prob_and_weak_value(rho_phi, rho_psi, obs, threshold, tol)
    bad = anomalous_indices(dist, tol.anom)
    coherent_post = l1_post >= coherence_tol
    coherent_pre = l1_pre >= coherence_tol
    anomaly = bool(bad) or aw.classification != NORMAL
    verdict = VIOLATED if anomaly and not (coherent_post and coherent_pre) else CONSISTENT
    return WitnessReport(
        l1_post=l1_post,
        l1_pre=l1_pre,
        coherent_post=coherent_post,
        coherent_pre=coherent_pre,
        g_anomalous=bad,
        aw=aw,
        verdict=verdict,
    )


def corollary_projector_weak_value(rho_phi: DensityOperator, rho_psi: DensityOperator,
                                   obs: Observable, i: int,
                                   threshold: float = DEFAULT_SELECTION_THRESHOLD,
                                   tol: Tolerances = DEFAULT_TOL) -> WeakValueResult:
    """Weak value of the i-th eigenprojector, classified against spectrum {0, 1}.

    Evaluated by the direct three-operator trace ratio, so it provides an
    independent route to g_i: an anomalous quasi-probability is itself the
    anomalous weak value of the matching projector.
    """
    if not 0 <= i < obs.dim:
        raise ValidationError(f"eigenvector index {i} out of range for dim {obs.dim}")
    den = selection_overlap(rho_phi, rho_psi, threshold, tol)
    proj = obs.projector(i)
    num = complex(np.trace(rho_phi.matrix @ proj.matrix @ rho_psi.matrix))
    value = num / den
    return WeakValueResult(value=value, denominator=den, spectrum_lo=0.0, spectrum_hi=1.0,
                           classification=classify(value, 0.0, 1.0, tol.anom))
