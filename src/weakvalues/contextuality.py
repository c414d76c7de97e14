"""Three-cycle overlap inequalities and the qubit fragment they live on.

For any three states with pairwise overlaps r12, r13, r23, classical
(noncontextual) models obey r12 + r13 - r23 <= 1 together with the other
two placements of the minus sign. Violations witness contextuality using
nothing but Born-rule overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .core import DEFAULT_TOL, DensityOperator, NotQubitError, Observable, Tolerances, ValidationError
from .invariants import FrameGraph, _graph_from_vertices
from .quasiprob import QuasiProbDist, quasi_prob

__all__ = ["NotRealAmplitudeError", "CycleInequality", "all_three_cycles", "qubit_fragment_graph",
           "fragment_cycles", "anomaly_implies_violation", "real_amplitude_failure"]

FRAGMENT_LABELS = ("phi", "psi", "a1", "a2", "phi_perp", "psi_perp")
_PERPENDICULAR = frozenset(FRAGMENT_LABELS[4:])

# Rounding in a fragment cycle value, a sum of three overlaps of order one: a few eps
# (up to 3.3 eps against the exact excess of anomalous pairs, 3 eps at orthogonal ones).
_CYCLE_ROUNDING = 1e-15


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


@lru_cache(maxsize=16)
def _triples(n: int) -> np.ndarray:
    """(C(n, 3), 3) vertex triples in lexicographic order."""
    return np.fromiter(chain.from_iterable(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)


def all_three_cycles(graph: FrameGraph, anomaly_tol: float = DEFAULT_TOL.anom) -> list[CycleInequality]:
    """Every 3-cycle inequality of the graph, three minus placements per triple.

    Output order is canonical: triples in lexicographic vertex order, the
    minus edge cycling through the third, second, first pair of each triple.
    """
    triples = _triples(graph.n_vertices)
    i, j, k = triples.T
    e_ij, e_ik, e_jk = graph.weights[i, j], graph.weights[i, k], graph.weights[j, k]
    values = np.stack([e_ij + e_ik - e_jk, e_ij + e_jk - e_ik, e_ik + e_jk - e_ij], axis=1)
    violated = values > 1.0 + anomaly_tol
    names = np.array(graph.labels, dtype=object)
    # one label tuple per triple, shared by its three placements
    triple_labels = zip(names[i].tolist(), names[j].tolist(), names[k].tolist())
    repeated = (triple for triple in triple_labels for _ in range(3))
    # the minus edge of each placement: jk, then ik, then ij
    minus_labels = zip(names[triples[:, [1, 0, 0]]].ravel().tolist(),
                       names[triples[:, [2, 2, 1]]].ravel().tolist())
    return [CycleInequality(triple, minus, value, bad)
            for triple, minus, value, bad in zip(repeated, minus_labels, values.ravel().tolist(),
                                                 violated.ravel().tolist())]


def real_amplitude_failure(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                           real_tol: float) -> str | None:
    """Why the real-amplitude anomaly-to-violation claim misses these inputs; None if it applies."""
    for matrix, what in ((rho_phi.matrix, "post-selection state"),
                         (rho_psi.matrix, "pre-selection state"),
                         (obs.eigenvectors, "observable eigenbasis")):
        worst = float(np.max(np.abs(matrix.imag)))
        if worst > real_tol:
            return f"{what} has imaginary entries up to {worst:.3e}"
    return None


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
    selection = np.stack([rho_phi.matrix, rho_psi.matrix])
    vertices = np.concatenate([selection, [obs.projector(0).matrix, obs.projector(1).matrix],
                               np.eye(2, dtype=complex) - selection])
    return _graph_from_vertices(FRAGMENT_LABELS, vertices, tol)


def fragment_cycles(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                    tol: Tolerances) -> tuple[FrameGraph, list[CycleInequality]]:
    """The qubit fragment graph and its 3-cycles, judged on the scale of the anomaly band.

    For real qubits the largest cycle exceeds 1 by exactly 2 Tr(rho_phi rho_psi) m, m the
    margin by which the g_i leave [0, 1], and cycles through a perpendicular vertex take
    every value of the others. Those cycles are judged against 2 Tr(rho_phi rho_psi)
    ``tol.anom`` less the rounding, but never below what an anomaly-free input reaches:
    the rounding plus four times each state's defect |Tr rho - 1| + 2 max(-lambda_min, 0)
    (a cycle moves by at most three), when that defect is more than rounding. Cycles among
    phi, psi, a1, a2 keep ``tol.anom``, as in ``build_frame_graph`` at d = 2.
    """
    graph = qubit_fragment_graph(rho_phi, rho_psi, obs, tol)
    selection = np.stack([rho_phi.matrix, rho_psi.matrix])
    defects = (np.abs(np.trace(selection, axis1=1, axis2=2).real - 1.0)
               + 2.0 * np.maximum(-np.linalg.eigvalsh(selection)[:, 0], 0.0))
    floor = _CYCLE_ROUNDING + 4.0 * float(defects[defects > _CYCLE_ROUNDING].sum())
    band = max(2.0 * graph.edge(0, 1) * tol.anom - _CYCLE_ROUNDING, floor)
    return graph, [replace(c, violated=c.value > 1.0 + band) if _PERPENDICULAR & set(c.triple) else c
                   for c in all_three_cycles(graph, tol.anom)]


def anomaly_implies_violation(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                              tol: Tolerances = DEFAULT_TOL) -> tuple[QuasiProbDist, list[CycleInequality]]:
    """Quasi-probabilities and violated fragment cycles for real qubit inputs.

    For qubits with real amplitudes, any quasi-probability above 1 forces at
    least one violated 3-cycle on the six-vertex fragment graph, so callers
    get both the anomaly and its contextuality certificate in one call.
    """
    failure = real_amplitude_failure(rho_phi, rho_psi, obs, tol.eig)
    if failure is not None:
        raise NotRealAmplitudeError(failure)

    dist = quasi_prob(rho_phi, rho_psi, obs, tol)
    return dist, [c for c in fragment_cycles(rho_phi, rho_psi, obs, tol)[1] if c.violated]
