"""Three-cycle overlap inequalities and the qubit fragment they live on.

For any three states with pairwise overlaps r12, r13, r23, classical
(noncontextual) models obey r12 + r13 - r23 <= 1 together with the other
two placements of the minus sign. Violations witness contextuality using
nothing but Born-rule overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .core import (DEFAULT_TOL, REALITY_TOL, DensityOperator, NotQubitError, Observable, Tolerances,
                   ValidationError, _frozen)
from .invariants import FrameGraph, _frame_vertices, _graph_from_vertices
from .quasiprob import QuasiProbDist, quasi_prob

__all__ = ["NotRealAmplitudeError", "CycleTable", "all_three_cycles", "qubit_fragment_graph",
           "fragment_cycles", "anomaly_implies_violation", "real_amplitude_failure"]

FRAGMENT_LABELS = ("phi", "psi", "a1", "a2", "phi_perp", "psi_perp")

# Rounding in a fragment cycle value, a sum of three overlaps of order one: a few eps
# (up to 3.3 eps against the exact excess of anomalous pairs, 3 eps at orthogonal ones).
_CYCLE_ROUNDING = 1e-15


class NotRealAmplitudeError(ValidationError):
    pass


@dataclass(frozen=True, eq=False)
class CycleTable:
    """3-cycle inequalities as arrays: ``values[r]`` adds the plus edges of ``triples[r]`` less its
    ``minus_edges[r]`` weight, ``violated[r]`` judges it, ``labels`` names the vertices."""

    labels: tuple[str, ...]
    triples: np.ndarray
    minus_edges: np.ndarray
    values: np.ndarray
    violated: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows: np.ndarray) -> CycleTable:
        return CycleTable(self.labels, self.triples[rows], self.minus_edges[rows], self.values[rows],
                          self.violated[rows])


@lru_cache(maxsize=16)
def _cycle_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triples, minus edges (jk, ik, ij in turn) and the flat weight indices of the plus edges
    at the vertex off the minus edge and of the minus edge; read-only, as every table shares them."""
    triples = np.fromiter(chain.from_iterable(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    minus_edges = triples[:, [[1, 2], [0, 2], [0, 1]]].reshape(-1, 2)
    apex, (low, high) = triples.ravel(), minus_edges.T
    return (_frozen(np.repeat(triples, 3, axis=0)), _frozen(minus_edges),
            _frozen(np.stack([apex * n + low, apex * n + high, low * n + high])))


def all_three_cycles(graph: FrameGraph, anomaly_tol: float | np.ndarray = DEFAULT_TOL.anom) -> CycleTable:
    """Every 3-cycle inequality of the graph, three minus placements per triple.

    A row is violated when its value exceeds 1 + ``anomaly_tol``: one band for every row, or
    an array with one band per row. Row order is canonical: triples in lexicographic vertex
    order, the minus edge cycling through the third, second, first pair of each triple.
    """
    triples, minus_edges, (first, second, minus) = _cycle_index(graph.n_vertices)
    weights = graph.weights.ravel()
    values = weights[first] + weights[second] - weights[minus]
    return CycleTable(graph.labels, triples, minus_edges, values, values > 1.0 + anomaly_tol)


def real_amplitude_failure(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable) -> str | None:
    """Why the real-amplitude anomaly-to-violation claim misses these inputs; None if it applies."""
    for matrix, what in ((rho_phi.matrix, "post-selection state"),
                         (rho_psi.matrix, "pre-selection state"),
                         (obs.eigenvectors, "observable eigenbasis")):
        worst = float(np.max(np.abs(matrix.imag)))
        if worst > REALITY_TOL:
            return f"{what} has imaginary entries up to {worst:.3e}"
    return None


def qubit_fragment_graph(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable) -> FrameGraph:
    """Six-vertex overlap graph for a qubit selection pair, mixed states allowed.

    The vertices are those of ``FRAGMENT_LABELS``: the frame vertices, then 1 - phi and
    1 - psi. The perpendicular vertices generalize to 1 - rho, which reduces to the
    antipodal projector when rho is pure.
    """
    if rho_phi.dim != 2 or rho_psi.dim != 2 or obs.dim != 2:
        raise NotQubitError(
            f"fragment graph needs qubits, got dims {rho_phi.dim}/{rho_psi.dim}/{obs.dim}"
        )
    frame = _frame_vertices(rho_phi, rho_psi, obs)
    return _graph_from_vertices(FRAGMENT_LABELS, np.concatenate([frame, np.eye(2, dtype=complex) - frame[:2]]))


def fragment_cycles(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                    tol: Tolerances) -> tuple[FrameGraph, CycleTable]:
    """The qubit fragment graph and its 3-cycles, judged on the scale of the anomaly band.

    For real qubits the largest cycle exceeds 1 by exactly 2 Tr(rho_phi rho_psi) m, m the
    margin by which the g_i leave [0, 1], and cycles through a perpendicular vertex take
    every value of the others. Those cycles are judged against 2 Tr(rho_phi rho_psi)
    ``tol.anom`` less the rounding, but never below what an anomaly-free input reaches:
    the rounding plus four times each state's defect |Tr rho - 1| + 2 max(-lambda_min, 0)
    (a cycle moves by at most three), when that defect is more than rounding. Cycles among
    phi, psi, a1, a2 keep ``tol.anom``, as in ``build_frame_graph`` at d = 2.
    """
    graph = qubit_fragment_graph(rho_phi, rho_psi, obs)
    selection = np.stack([rho_phi.matrix, rho_psi.matrix])
    defects = (np.abs(np.trace(selection, axis1=1, axis2=2).real - 1.0)
               + 2.0 * np.maximum(-np.linalg.eigvalsh(selection)[:, 0], 0.0))
    floor = _CYCLE_ROUNDING + 4.0 * float(defects[defects > _CYCLE_ROUNDING].sum())
    band = max(2.0 * graph.edge(0, 1) * tol.anom - _CYCLE_ROUNDING, floor)
    through_perpendicular = _cycle_index(graph.n_vertices)[0][:, 2] >= 4  # a triple lists its largest vertex last
    return graph, all_three_cycles(graph, np.where(through_perpendicular, band, tol.anom))


def anomaly_implies_violation(rho_phi: DensityOperator, rho_psi: DensityOperator,
                              obs: Observable) -> tuple[QuasiProbDist, CycleTable]:
    """Quasi-probabilities (with their weak value) and violated fragment cycles for real qubit inputs.

    For qubits with real amplitudes, any quasi-probability above 1 forces at
    least one violated 3-cycle on the six-vertex fragment graph, so callers get both the
    anomaly and its contextuality certificate, judged with ``DEFAULT_TOL``, in one call.
    """
    failure = real_amplitude_failure(rho_phi, rho_psi, obs)
    if failure is not None:
        raise NotRealAmplitudeError(failure)

    dist = quasi_prob(rho_phi, rho_psi, obs)
    cycles = fragment_cycles(rho_phi, rho_psi, obs, DEFAULT_TOL)[1]
    return dist, cycles[cycles.violated]
