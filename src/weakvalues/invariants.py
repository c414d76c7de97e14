"""Cyclic trace invariants of state tuples and the overlap frame graph."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    DensityOperator,
    ImaginaryOverlapError,
    Observable,
    Tolerances,
    ValidationError,
    require_dims,
)

__all__ = [
    "FrameGraph",
    "bargmann",
    "overlap",
    "frame_graph_from_matrices",
    "build_frame_graph",
]


def bargmann(states: Sequence[DensityOperator]) -> complex:
    """Trace of the ordered product of the given states (left to right)."""
    if len(states) < 2:
        raise ValidationError(f"need at least 2 states, got {len(states)}")
    require_dims(states[0].dim, *states[1:])
    return complex(np.trace(reduce(np.matmul, [state.matrix for state in states])))


def overlap(rho1: DensityOperator, rho2: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> float:
    """Second-order invariant Tr(rho1 rho2), guaranteed real for valid states."""
    value = bargmann((rho1, rho2))
    if abs(value.imag) > tol.eig:
        raise ImaginaryOverlapError(f"two-state overlap has imaginary part {value.imag:.3e}")
    return value.real


@dataclass(frozen=True)
class FrameGraph:
    """Complete weighted graph of pairwise overlaps.

    ``labels[i]`` names vertex i; ``weights[(i, j)]`` with i < j holds
    Tr(rho_i rho_j).
    """

    labels: tuple[str, ...]
    weights: dict

    def edge(self, i: int, j: int) -> float:
        if i == j:
            raise ValidationError("frame graph has no self-loops")
        return self.weights[(min(i, j), max(i, j))]

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def adjacency_text(self) -> list[str]:
        """Adjacency list lines ``u v weight`` with full-precision weights."""
        lines = []
        for (i, j), w in sorted(self.weights.items()):
            lines.append(f"{self.labels[i]} {self.labels[j]} {w:.17g}")
        return lines


def frame_graph_from_matrices(labels: Sequence[str], states: Sequence[DensityOperator],
                              tol: Tolerances = DEFAULT_TOL) -> FrameGraph:
    """Complete overlap graph over an explicit list of labeled states."""
    if len(labels) != len(states):
        raise ValidationError(f"{len(labels)} labels for {len(states)} states")
    weights = {}
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            weights[(i, j)] = overlap(states[i], states[j], tol)
    return FrameGraph(labels=tuple(labels), weights=weights)


def build_frame_graph(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable,
                      tol: Tolerances = DEFAULT_TOL) -> FrameGraph:
    """Overlap graph over both states and every eigenprojector of ``obs``.

    Vertices are labeled ``phi``, ``psi``, ``a1`` ... ``ad`` following the
    ascending eigenvalue order of the observable.
    """
    require_dims(obs.dim, rho_phi, rho_psi)
    labels = ["phi", "psi"] + [f"a{i + 1}" for i in range(obs.dim)]
    states = [rho_phi, rho_psi] + [obs.projector(i) for i in range(obs.dim)]
    return frame_graph_from_matrices(labels, states, tol)
