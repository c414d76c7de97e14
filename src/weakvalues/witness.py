"""Coherence as the resource behind anomalous weak values.

If either selection state is diagonal in the eigenbasis of the observable,
every quasi-probability g_i is a plain probability: Tr(rho_phi P_i rho_psi)
equals Tr(D rho_psi) for the diagonal PSD operator D = rho_phi P_i, which is
real and non-negative, and the g_i sum to one. Anomalies therefore certify
coherence of both states at once.

The theorem holds as an inequality in the l1 coherences C_psi and C_phi
(Baumgratz, Cramer and Plenio, PRL 113, 140401, 2014). In the eigenbasis,
with x = rho_psi, y = rho_phi and T = Tr(rho_phi rho_psi), the numerator of
g_i is x_ii y_ii + o_i with o_i = sum_{k != i} x_ik y_ki, and x_ii y_ii >= 0.
Since |y_ki| <= sqrt(y_kk y_ii) <= 1/2, |o_i| is at most half the
off-diagonal moduli of row i of x, which by Hermiticity stand again in
column i: |o_i| <= C_psi / 4 and sum_i |o_i| <= C_psi / 2, and the same with
C_phi when x and y swap roles. With B = min(C_psi, C_phi) / (2 T):

- -Re g_i and |Im g_i| are each at most |o_i| / T <= B / 2;
- Re g_i - 1 = -sum_{j != i} Re g_j <= sum_j |o_j| / T <= B;
- as the g_i sum to one, Re A_w - a_max = sum_i (a_i - a_max) Re g_i and
  a_min - Re A_w are at most (a_max - a_min) sum_i max(-Re g_i, 0)
  <= (a_max - a_min) B, and |Im A_w| = |sum_i (a_i - (a_min + a_max) / 2) Im g_i|
  <= (a_max - a_min) B / 2.

So each term of ``WitnessReport.excess`` is at most B at every dimension.

The proof holds for the exact values of exactly positive states, and
``dist.allowance`` covers the distance to the record. To first order,
rounding and the negativity that the gates accept (``dist.slack``) move each
g_i by at most its ``dist.error`` e_i, and A_w by at most ``dist.value_error``
e_A (see ``QuasiProbDist``). A rescaled state moves no ratio, so the gates'
trace slack does not count. The excess therefore moves by at most
m = max(2 max_i e_i, e_A / (a_max - a_min)). B moves as well. Rounding moves
each l1 coherence by a few d eps, and an error in Tr moves B by the relative
(c eps + slack) / Tr; where the verdict can turn, B is close to the excess,
about 2 max_i |g_i|, so the factor 1 + |g_i| in e_i makes a second m cover
both. Last, a negative part has at most d - 1 eigenvalues, each of modulus at
most the slack, so its l1 coherence is at most (d - 1)^2 slack, which raises
B by at most (d - 1)^2 slack / (2 Tr). The allowance is their sum,
2 m + (d - 1)^2 slack / (2 Tr).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_COHERENCE_TOL, DEFAULT_TOL, DensityOperator, Observable, Tolerances, coherence_l1
from .quasiprob import QuasiProbDist, quasi_prob

__all__ = [
    "CONSISTENT",
    "VIOLATED",
    "WitnessReport",
    "check_theorem_coherence",
]

CONSISTENT = "ConsistentWithTheorem"
VIOLATED = "TheoremViolated"

@dataclass(frozen=True)
class WitnessReport:
    """Joint coherence / anomaly diagnosis for one selection pair.

    ``dist`` holds the quasi-probabilities and weak value behind the verdict,
    and their anomaly verdicts (``dist.anomalous_indices``, ``dist.anomalous``).
    A state is coherent when its l1 coherence is at least
    ``DEFAULT_COHERENCE_TOL``. ``bound`` is B = min(l1_pre, l1_post) /
    (2 Tr(rho_phi rho_psi)) and ``excess`` the largest amount by which the
    record leaves what an incoherent pair allows, each term scaled so that the
    module's proof bounds it by B. The ``verdict`` is ``TheoremViolated`` only
    when an anomalous record has an excess above B plus the record's
    ``allowance``, which gate-accepted states can never produce.
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
    def bound(self) -> float:
        return min(self.l1_pre, self.l1_post) / (2.0 * self.dist.denominator)

    @property
    def excess(self) -> float:
        """The largest of 0, 2 max_i(-Re g_i), 2 max_i |Im g_i|, max_i(Re g_i - 1) and
        max(Re A_w - a_max, a_min - Re A_w, |Im A_w|) / (a_max - a_min)."""
        g, value = self.dist.weights, self.dist.value
        lo, hi = self.dist.spectrum_lo, self.dist.spectrum_hi
        aw_exit = max(value.real - hi, lo - value.real, abs(value.imag)) / (hi - lo)
        return max(0.0, 2.0 * float(np.max(-g.real)), 2.0 * float(np.max(np.abs(g.imag))),
                   float(np.max(g.real)) - 1.0, aw_exit)

    @property
    def verdict(self) -> str:
        broken = self.dist.anomalous and self.excess > self.bound + self.dist.allowance
        return VIOLATED if broken else CONSISTENT


def check_theorem_coherence(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                            tol: Tolerances = DEFAULT_TOL) -> WitnessReport:
    """Diagnose one selection pair: coherence, anomalies, and their consistency."""
    return WitnessReport(l1_post=coherence_l1(rho_phi, obs), l1_pre=coherence_l1(rho_psi, obs),
                         dist=quasi_prob(rho_phi, rho_psi, obs, tol))
