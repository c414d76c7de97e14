"""Three-cycle overlap inequalities and the qubit fragment they live on.

For any three states with pairwise overlaps r12, r13, r23, classical
(noncontextual) models obey r12 + r13 - r23 <= 1 together with the other
two placements of the minus sign. Violations witness contextuality using
nothing but Born-rule overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import DEFAULT_TOL, DensityOperator, NotQubitError, Observable, Tolerances, ValidationError
from .invariants import FrameGraph, frame_graph_from_matrices
from .quasiprob import DEFAULT_SELECTION_THRESHOLD, QuasiProbDist, quasi_prob

__all__ = [
    "NotRealAmplitudeError",
    "CycleInequality",
    "all_three_cycles",
    "qubit_fragment_graph",
    "anomaly_implies_violation",
]

FRAGMENT_LABELS = ("phi", "psi", "a1", "a2", "phi_perp", "psi_perp")


class NotRealAmplitudeError(ValidationError):
    pass


@dataclass(frozen=True)
class CycleInequality:
    """One evaluated 3-cycle inequality.

    ``value`` is the sum of the two plus-edges minus the ``minus_edge``
    weight; the inequality is violated when value > 1.
    """

    triple: tuple[str, str, str]
    minus_edge: tuple[str, str]
    value: float
    violated: bool


def all_three_cycles(graph: FrameGraph, anomaly_tol: float = DEFAULT_TOL.anom) -> list[CycleInequality]:
    """Every 3-cycle inequality of the graph, three minus placements per triple.

    Output order is canonical: triples in lexicographic vertex order, the
    minus edge cycling through the third, second, first pair of each triple.
    """
    out = []
    for i, j, k in combinations(range(graph.n_vertices), 3):
        e_ij = graph.edge(i, j)
        e_ik = graph.edge(i, k)
        e_jk = graph.edge(j, k)
        triple = (graph.labels[i], graph.labels[j], graph.labels[k])
        for minus_pair, value in (
            ((graph.labels[j], graph.labels[k]), e_ij + e_ik - e_jk),
            ((graph.labels[i], graph.labels[k]), e_ij + e_jk - e_ik),
            ((graph.labels[i], graph.labels[j]), e_ik + e_jk - e_ij),
        ):
            out.append(CycleInequality(
                triple=triple,
                minus_edge=minus_pair,
                value=value,
                violated=value > 1.0 + anomaly_tol,
            ))
    return out


def _require_real(matrix: np.ndarray, what: str, real_tol: float) -> None:
    worst = float(np.max(np.abs(matrix.imag)))
    if worst > real_tol:
        raise NotRealAmplitudeError(f"{what} has imaginary entries up to {worst:.3e}")


def qubit_fragment_graph(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                         tol: Tolerances = DEFAULT_TOL) -> FrameGraph:
    """Six-vertex overlap graph for a qubit selection pair, mixed states allowed.

    The perpendicular vertices generalize to 1 - rho, which reduces to the
    antipodal projector when rho is pure.
    """
    if rho_phi.dim != 2 or rho_psi.dim != 2 or obs.dim != 2:
        raise NotQubitError(
            f"fragment graph needs qubits, got dims {rho_phi.dim}/{rho_psi.dim}/{obs.dim}"
        )
    eye = np.eye(2, dtype=complex)
    vertices = [
        rho_phi,
        rho_psi,
        obs.projector(0),
        obs.projector(1),
        DensityOperator(eye - rho_phi.matrix),
        DensityOperator(eye - rho_psi.matrix),
    ]
    return frame_graph_from_matrices(FRAGMENT_LABELS, vertices, tol)


def anomaly_implies_violation(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                              threshold: float = DEFAULT_SELECTION_THRESHOLD,
                              tol: Tolerances = DEFAULT_TOL,
                              ) -> tuple[QuasiProbDist, list[CycleInequality]]:
    """Quasi-probabilities and violated fragment cycles for real qubit inputs.

    For qubits with real amplitudes, any quasi-probability above 1 forces at
    least one violated 3-cycle on the six-vertex fragment graph, so callers
    get both the anomaly and its contextuality certificate in one call.
    """
    _require_real(rho_phi.matrix, "post-selection state", tol.eig)
    _require_real(rho_psi.matrix, "pre-selection state", tol.eig)
    _require_real(obs.eigenvectors, "observable eigenbasis", tol.eig)

    dist = quasi_prob(rho_phi, rho_psi, obs, threshold, tol)
    graph = qubit_fragment_graph(rho_phi, rho_psi, obs, tol)
    violated = [c for c in all_three_cycles(graph, tol.anom) if c.violated]
    return dist, violated
