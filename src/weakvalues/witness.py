"""Coherence as the resource behind anomalous weak values.

If either selection state is diagonal in the eigenbasis of the observable,
every quasi-probability g_i is a plain probability: Tr(rho_phi P_i rho_psi)
equals Tr(D rho_psi) for the diagonal PSD operator D = rho_phi P_i, which is
real and non-negative, and the g_i sum to one. Anomalies therefore certify
coherence of both states at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_TOL, DensityOperator, Observable, Tolerances, coherence_l1
from .quasiprob import (
    DEFAULT_SELECTION_THRESHOLD,
    NORMAL,
    QuasiProbDist,
    WeakValueResult,
    anomalous_indices,
    quasi_prob_and_weak_value,
)

__all__ = [
    "CONSISTENT",
    "VIOLATED",
    "DEFAULT_COHERENCE_TOL",
    "WitnessReport",
    "check_theorem_coherence",
]

CONSISTENT = "ConsistentWithTheorem"
VIOLATED = "TheoremViolated"

# l1 coherence at or above this counts as genuinely coherent.
DEFAULT_COHERENCE_TOL = 1e-8


@dataclass(frozen=True)
class WitnessReport:
    """Joint coherence / anomaly diagnosis for one selection pair.

    ``dist`` and ``aw`` are the quasi-probabilities and weak value behind
    the verdict, from one kernel evaluation.
    """

    l1_post: float
    l1_pre: float
    coherent_post: bool
    coherent_pre: bool
    g_anomalous: tuple[int, ...]
    dist: QuasiProbDist
    aw: WeakValueResult
    verdict: str

    @property
    def aw_classification(self) -> str:
        return self.aw.classification

    @property
    def anomaly_present(self) -> bool:
        return bool(self.g_anomalous) or self.aw.classification != NORMAL


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
        dist=dist,
        aw=aw,
        verdict=verdict,
    )
