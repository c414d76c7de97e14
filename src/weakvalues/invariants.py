"""Cyclic trace invariants of state tuples and the overlap frame graph."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .core import REALITY_TOL, ComputationError, DensityOperator, Observable, ValidationError, require_dims

__all__ = ["FrameGraph", "bargmann", "overlap", "overlap_stack", "build_frame_graph"]


def bargmann(states: Sequence[DensityOperator]) -> complex:
    """Trace of the ordered product of the given states (left to right)."""
    if len(states) < 2:
        raise ValidationError(f"need at least 2 states, got {len(states)}")
    require_dims(states[0].dim, *states[1:])
    return complex(np.trace(reduce(np.matmul, [state.matrix for state in states])))


def overlap_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real overlaps Tr(a[k] b[k]) of (n, d, d) stacks, each the O(d^2) sum_ij a_ij b_ji.

    A single (d, d) operand broadcasts, and row k's bits do not depend on the stack. Raises
    ComputationError when any imaginary part exceeds ``REALITY_TOL``."""
    value = np.einsum("...ij,...ji->...", a, b)
    imaginary = np.abs(value.imag) > REALITY_TOL
    if imaginary.any():
        worst = value.imag.ravel()[np.argmax(imaginary)]  # argmax is a flat index, and 0-d has no axis
        raise ComputationError(f"two-state overlap has imaginary part {worst:.3e}")
    return value.real


def overlap(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Second-order invariant Tr(rho1 rho2), guaranteed real for valid states."""
    require_dims(rho1.dim, rho2)
    return float(overlap_stack(rho1.matrix[None], rho2.matrix[None])[0])


@dataclass(frozen=True)
class FrameGraph:
    """Complete weighted graph of pairwise overlaps.

    ``labels[i]`` names vertex i; the symmetric ``weights[i, j]`` holds
    Tr(rho_i rho_j) for i != j and NaN on the diagonal.
    """

    labels: tuple[str, ...]
    weights: np.ndarray

    def edge(self, i: int, j: int) -> float:
        if i == j:
            raise ValidationError("frame graph has no self-loops")
        if not (0 <= i < self.n_vertices and 0 <= j < self.n_vertices):
            raise KeyError((i, j))
        return float(self.weights[i, j])

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def adjacency_text(self) -> list[str]:
        """Adjacency list lines ``u v weight`` with full-precision weights."""
        i, j = np.triu_indices(self.n_vertices, 1)
        return [f"{self.labels[a]} {self.labels[b]} {w:.17g}"
                for a, b, w in zip(i.tolist(), j.tolist(), self.weights[i, j].tolist())]


def _graph_from_vertices(labels: Sequence[str], vertices: np.ndarray) -> FrameGraph:
    """Overlap graph of a (V, d, d) vertex stack, one overlap row per vertex."""
    n = len(vertices)
    weights = np.full((n, n), np.nan)
    for i in range(n - 1):
        weights[i, i + 1:] = weights[i + 1:, i] = overlap_stack(vertices[i], vertices[i + 1:])
    return FrameGraph(labels=tuple(labels), weights=weights)


def _frame_vertices(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable) -> np.ndarray:
    """The (d + 2, d, d) vertex stack phi, psi, a_1 ... a_d, a_i the eigenprojectors of ``obs``."""
    require_dims(obs.dim, rho_phi, rho_psi)
    v = obs.eigenvectors.T  # projectors[i] = outer(v_i, conj(v_i))
    projectors = v[:, :, None] * v.conj()[:, None, :]
    return np.concatenate([np.stack([rho_phi.matrix, rho_psi.matrix]), projectors])


def build_frame_graph(rho_phi: DensityOperator, rho_psi: DensityOperator, obs: Observable) -> FrameGraph:
    """Overlap graph over both states and every eigenprojector of ``obs``.

    Vertices are labeled ``phi``, ``psi``, ``a1`` ... ``ad`` following the
    ascending eigenvalue order of the observable.
    """
    vertices = _frame_vertices(rho_phi, rho_psi, obs)
    return _graph_from_vertices(["phi", "psi"] + [f"a{i + 1}" for i in range(obs.dim)], vertices)
