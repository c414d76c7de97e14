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
from .quasiprob import QuasiProbDist, quasi_prob

__all__ = [
    "CONSISTENT",
    "VIOLATED",
    "DEFAULT_COHERENCE_TOL",
    "WitnessReport",
    "check_theorem_coherence",
]

CONSISTENT = "ConsistentWithTheorem"
VIOLATED = "TheoremViolated"

# l1 coherence at or above this counts as genuinely coherent, here and in the scan.
DEFAULT_COHERENCE_TOL = 1e-8


@dataclass(frozen=True)
class WitnessReport:
    """Joint coherence / anomaly diagnosis for one selection pair.

    ``dist`` holds the quasi-probabilities and weak value behind the verdict,
    and their anomaly verdicts (``dist.anomalous_indices``, ``dist.anomalous``).
    A state is coherent when its l1 coherence is at least
    ``DEFAULT_COHERENCE_TOL``. The ``verdict`` is ``TheoremViolated`` only if
    an anomaly shows up while at least one selection state is incoherent in the
    observable eigenbasis, which a correct implementation can never produce.
    """

    l1_post: float
    l1_pre: float
    dist: QuasiProbDist

    @property
    def coherent_post(self) -> bool:
        return self.l1_post >= DEFAULT_COHERENCE_TOL

    @property
    def coherent_pre(self) -> bool:
        return self.l1_pre >= DEFAULT_COHERENCE_TOL

    @property
    def verdict(self) -> str:
        return VIOLATED if self.dist.anomalous and not (self.coherent_post and self.coherent_pre) else CONSISTENT


def check_theorem_coherence(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                            tol: Tolerances = DEFAULT_TOL) -> WitnessReport:
    """Diagnose one selection pair: coherence, anomalies, and their consistency."""
    return WitnessReport(l1_post=coherence_l1(rho_phi, obs), l1_pre=coherence_l1(rho_psi, obs),
                         dist=quasi_prob(rho_phi, rho_psi, obs, tol))
