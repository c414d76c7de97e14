"""Random-state exploration: samplers, anomaly-rate scans, negativity search.

Every random draw flows through a counter-based generator keyed by
(master seed, key). ``sample`` keys one state by its index; a scan draws
its pairs in blocks of ``max(1, 65536 // d**2)`` and keys each block by its
block number, so a fixed seed reproduces every count bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import (
    DEFAULT_TOL,
    DensityOperator,
    Observable,
    StateVector,
    Tolerances,
    ValidationError,
    coherence_l1_stack,
    require_dims,
)
from .quasiprob import DEFAULT_SELECTION_THRESHOLD, anomalous_mask, quasi_prob_stack
from .witness import DEFAULT_COHERENCE_TOL

__all__ = [
    "HAAR_PURE",
    "MIXED_FULL_RANK",
    "REAL_PURE",
    "REAL_MIXED",
    "DIAGONAL",
    "SAMPLER_KINDS",
    "SamplerSpec",
    "SearchResult",
    "ScanSummary",
    "sample",
    "search_max_negativity",
    "scan_anomaly_rate",
]

HAAR_PURE = "haar"
MIXED_FULL_RANK = "mixed"
REAL_PURE = "real-pure"
REAL_MIXED = "real-mixed"
DIAGONAL = "diagonal"

SAMPLER_KINDS = (HAAR_PURE, MIXED_FULL_RANK, REAL_PURE, REAL_MIXED, DIAGONAL)


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: dimension, ensemble kind, master seed, held as plain ints."""

    dim: int
    kind: str
    seed: int

    def __post_init__(self) -> None:
        if not _is_int(self.dim) or operator.index(self.dim) < 2:
            raise ValidationError(f"sampler dimension must be an integer >= 2, got {self.dim!r}")
        if self.kind not in SAMPLER_KINDS:
            raise ValidationError(f"unknown sampler kind {self.kind!r}, expected one of {SAMPLER_KINDS}")
        object.__setattr__(self, "dim", operator.index(self.dim))
        object.__setattr__(self, "seed", _require_seed(self.seed))


def _is_int(value) -> bool:
    """True for an integer, numpy's included, that is not a bool: the type of every size and seed."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_seed(seed) -> bool:
    """True for a master seed: an integer, not a bool, in [0, 2**64)."""
    return _is_int(seed) and 0 <= operator.index(seed) < 2 ** 64


def _require_seed(seed) -> int:
    """The master seed as a plain int; raises unless it is one."""
    if not _is_seed(seed):
        raise ValidationError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return operator.index(seed)


def _task_rng(seed: int, key: int) -> np.random.Generator:
    """Counter-based generator for one (seed, key) pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


def _draw(kind: str, dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` states of one ensemble: (size, dim) amplitudes for pure kinds, else (size, dim, dim).

    From standard normal variates: ``real-pure`` is x / |x| for a real
    x; ``haar`` is z / |z| for z = x + iy; ``mixed`` is g g^dagger / Tr
    for g = X + iY; ``real-mixed`` is W W^T / Tr for W = [X | Y], which
    equals Re(g g^dagger) / Tr, made exactly symmetric; ``diagonal`` puts a
    flat Dirichlet draw on the diagonal. State k consumes the generator's
    k-th run of variates, so the first states of a draw do not depend on
    ``size``. Norms and traces are einsums because numpy reduces a short
    trailing axis with one inner loop per row. States are scaled by 1/t,
    the product numpy's complex division by a real t forms, without its cost.
    """
    if kind == REAL_PURE:
        x = rng.normal(size=(size, dim))
        return (x * (1.0 / np.sqrt(np.einsum("ni,ni->n", x, x)))[:, None]).astype(complex)
    if kind == HAAR_PURE:
        x = rng.normal(size=(size, 2, dim))
        x *= (1.0 / np.sqrt(np.einsum("nki,nki->n", x, x)))[:, None, None]
        return x[:, 0] + 1j * x[:, 1]
    if kind == MIXED_FULL_RANK:
        x = rng.normal(size=(size, 2, dim, dim))
        g = x[:, 0] + 1j * x[:, 1]
        rho = g @ g.conj().transpose(0, 2, 1)
        rho *= (1.0 / np.einsum("nii->n", rho).real)[:, None, None]
        return rho
    if kind == REAL_MIXED:
        w = rng.normal(size=(size, 2, dim, dim)).transpose(0, 2, 1, 3).reshape(size, dim, 2 * dim)
        rho = w @ w.transpose(0, 2, 1)
        rho *= (1.0 / np.einsum("nii->n", rho))[:, None, None]
        return ((rho + rho.transpose(0, 2, 1)) * 0.5).astype(complex)
    # DIAGONAL, the last kind SamplerSpec admits.
    probs = rng.dirichlet(np.ones(dim), size=size)
    rho = np.zeros((size, dim, dim), dtype=complex)
    rho[:, np.arange(dim), np.arange(dim)] = probs
    return rho


def sample(spec: SamplerSpec, index: int = 0):
    """One draw from the ensemble; pure kinds give StateVector, mixed give DensityOperator.

    The same (spec, index) always reproduces the same state bit for bit.
    """
    if not _is_int(index) or operator.index(index) < 0:
        raise ValidationError(f"sample index must be an integer >= 0, got {index!r}")
    state = _draw(spec.kind, spec.dim, _task_rng(spec.seed, operator.index(index)), 1)[0]
    return StateVector(state) if state.ndim == 1 else DensityOperator(state)


def _block_size(dim: int) -> int:
    """Pairs per scan block: no (block, d, d) complex stack exceeds 1 MiB."""
    return max(1, 65536 // dim ** 2)


def _density_block(spec: SamplerSpec, block: int, size: int) -> np.ndarray:
    """Block ``block`` of a scan as a (size, d, d) stack of density matrices."""
    states = _draw(spec.kind, spec.dim, _task_rng(spec.seed, block), size)
    if states.ndim == 2:
        states = states[:, :, None] * states[:, None, :].conj()
    return states


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the negativity search.

    ``weak_value`` is A_w at ``best_states`` (post- then pre-selection) and
    ``best_value`` is exactly its -Re: candidates are projected onto the
    feasible overlap region before evaluation, so no penalty term ever
    enters the objective.
    """

    best_states: tuple[StateVector, StateVector]
    best_value: float
    weak_value: complex
    evaluations: int


# The search's settings: restarts, the floor on |<phi|psi>|^2, a restart's first and last poll step.
SEARCH_RESTARTS = 20
SEARCH_MIN_OVERLAP = 0.25
SEARCH_INITIAL_STEP = 0.9
SEARCH_MIN_STEP = 1e-9
# The Bloch separation x[:, 0] whose squared overlap cos(x[:, 0] / 2)**2 is the floor.
_MAX_SEPARATION = 2.0 * np.arccos(np.sqrt(SEARCH_MIN_OVERLAP))


def _angle_factor(k: int, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle k's column as scored, and the factor it contributes to a selection pair.

    The four angles are (phi polar, phi azimuth, psi polar, psi azimuth). The
    pre-selection angles are absolute; the post-selection angles live in the
    frame whose north pole is the pre-selection state, so angle 0 is the
    Bloch separation between the two states and the squared overlap is
    cos(x[:, 0]/2)**2 exactly. -Re(A_w) grows without bound as the pair
    approaches orthogonality, so the separation is clamped here, and only
    here, to the range whose squared overlap stays at or above the floor.
    Because the separation is itself a coordinate, the constraint surface is
    a box face: the other three coordinates keep moving freely along it and
    the search cannot wedge against a curved boundary.

    A polar angle (k = 0, 2) contributes the (2, n) rows cos and sin of half
    the angle, an azimuth (k = 1, 3) the phases exp(1j * angle).
    """
    if k == 0:
        column = np.minimum(np.maximum(column, 0.0), _MAX_SEPARATION)
    if k % 2:
        return column, np.exp(1j * column)
    half = column / 2.0
    return column, np.array((np.cos(half), np.sin(half)))


def _pre_selection(polar: np.ndarray, phase: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pre-selection side from angles 2 and 3: the (n, 2) stacks psi, perp and matrix @ psi.

    perp is the state orthogonal to psi, the south pole of the frame in which
    the post-selection angles live.
    """
    cos_polar, sin_polar = polar
    psi = np.empty((len(phase), 2), dtype=complex)
    psi[:, 0] = cos_polar
    psi[:, 1] = phase * sin_polar
    perp = np.empty_like(psi)
    perp[:, 0] = np.conj(psi[:, 1])
    perp[:, 1] = -np.conj(psi[:, 0])
    return psi, perp, (matrix @ psi[:, :, None])[:, :, 0]


def _weak_values(separation: np.ndarray, phase: np.ndarray,
                 pre: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) stack phi from angles 0 and 1 and the pre-selection side, and the n weak values A_w.

    Both inner products are stacked matmuls because those reproduce the
    one-pair ``np.vdot`` route bit for bit; a conj-multiply-add or an einsum
    does not.
    """
    cos_sep, sin_sep = separation
    psi, perp, matrix_psi = pre
    phi = cos_sep[:, None] * psi + (phase * sin_sep)[:, None] * perp
    bra = phi.conj()[:, None, :]
    return phi, ((bra @ matrix_psi[:, :, None]) / (bra @ psi[:, :, None]))[:, 0, 0]


def search_max_negativity(observable, budget: int, seed: int) -> SearchResult:
    """Maximize -Re(A_w) over pure qubit selection pairs by pattern search.

    Pairs are parameterized by a polar and an azimuthal Bloch angle per
    state, the post-selection pair taken relative to the pre-selection state
    (see ``_angle_factor``); separations past the ``SEARCH_MIN_OVERLAP``
    floor of 1/4 are clamped before scoring. There the constrained optimum
    for a rank-1 projector is 1/2, reached when the two states and the small
    eigenvector close a 120-degree great circle.

    ``SEARCH_RESTARTS`` restarts draw independent starting points keyed by
    (seed, restart) and split the evaluation budget evenly; a budget of 0 or
    less evaluates one start. Each restart is a coordinate pattern search: it
    polls +h and -h along each angle in turn, from h = ``SEARCH_INITIAL_STEP``,
    adopts a strictly better point, and halves h after a sweep without a
    move. It retires when its share is spent or h falls below
    ``SEARCH_MIN_STEP``. All restarts poll the same (angle, sign) position at
    each step, so one stacked evaluation serves them all, retired rows
    included.

    Each restart's current point is kept as the factor each angle
    contributes (see ``_angle_factor``) and its pre-selection side (psi, perp
    and matrix @ psi). A poll on angle k computes the moved column and that
    angle's factor alone, rebuilds the pre-selection side only when k is a
    pre-selection angle (2 or 3), and forms phi and A_w from the cached rest.
    Adopting rows copies only the moved column, factor and side.
    """
    matrix = observable.matrix if isinstance(observable, Observable) else np.asarray(observable, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValidationError(f"search is defined for qubit observables, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("search needs a finite observable matrix")
    if not _is_int(budget):
        raise ValidationError(f"search budget must be an integer, got {budget!r}")
    budget, seed = operator.index(budget), _require_seed(seed)

    n_restarts = max(1, min(SEARCH_RESTARTS, budget))
    shares = budget // n_restarts + (np.arange(n_restarts) < budget % n_restarts)
    x = np.empty((n_restarts, 4))
    for r in range(n_restarts):
        rng = _task_rng(seed, r)
        theta = np.arccos(rng.uniform(-1.0, 1.0, size=2))
        azimuth = rng.uniform(0.0, 2.0 * np.pi, size=2)
        x[r] = theta[0], azimuth[0], theta[1], azimuth[1]
    factors = []
    for k in range(4):
        x[:, k], factor = _angle_factor(k, x[:, k])
        factors.append(factor)
    pre = _pre_selection(factors[2], factors[3], matrix)
    best = -_weak_values(factors[0], factors[1], pre)[1].real
    evals = np.ones(n_restarts, dtype=np.int64)
    h = np.full(n_restarts, SEARCH_INITIAL_STEP)
    active = (evals < shares) & (h >= SEARCH_MIN_STEP)
    while active.any():
        moved = np.zeros(n_restarts, dtype=bool)
        for k in range(4):
            for step in (h, -h):
                live = active & (evals < shares)
                column, factor = _angle_factor(k, x[:, k] + step)
                trial = factors[:k] + [factor] + factors[k + 1:]
                trial_pre = _pre_selection(trial[2], trial[3], matrix) if k >= 2 else pre
                val = -_weak_values(trial[0], trial[1], trial_pre)[1].real
                better = live & (val > best)
                evals += live
                np.copyto(x[:, k], column, where=better)
                np.copyto(best, val, where=better)
                np.copyto(factors[k], factor, where=better)
                if k >= 2:
                    for kept, polled in zip(pre, trial_pre):
                        np.copyto(kept, polled, where=better[:, None])
                moved |= better
        h[active & ~moved] /= 2.0
        active &= (evals < shares) & (h >= SEARCH_MIN_STEP)

    winner = int(np.argmax(best))
    rows = slice(winner, winner + 1)
    phi, weak_value = _weak_values(factors[0][..., rows], factors[1][..., rows], [side[rows] for side in pre])
    return SearchResult(
        best_states=(StateVector(phi[0]), StateVector(pre[0][winner])),
        best_value=float(best[winner]),
        weak_value=complex(weak_value[0]),
        evaluations=int(evals.sum()),
    )


@dataclass(frozen=True)
class ScanSummary:
    """Tallies over sampled selection pairs against one observable."""

    n: int
    anomalous_g: int
    anomalous_aw: int
    coherent_non_anomalous: int
    skipped: int


def scan_anomaly_rate(spec_phi: SamplerSpec, spec_psi: SamplerSpec, obs: Observable, n: int,
                      tol: Tolerances = DEFAULT_TOL) -> ScanSummary:
    """Anomaly statistics over ``n`` independent selection pairs.

    Block b holds the next ``max(1, 65536 // d**2)`` pairs (the last block
    is shorter), drawn from the keys (spec.seed, b), and goes through
    :func:`quasi_prob_stack` at once, which gives the g_i and A_w; the rules of
    ``classify`` and ``coherence_l1`` apply elementwise. Pairs whose overlap
    falls at or below the selection threshold are skipped and tallied apart.
    """
    if not _is_int(n):
        raise ValidationError(f"scan needs an integer n, got {n!r}")
    n = operator.index(n)
    if n < 1:
        raise ValidationError(f"scan needs n >= 1, got {n}")
    require_dims(obs.dim, spec_phi, spec_psi)
    a = obs.eigenvalues
    block = _block_size(obs.dim)
    g_count = aw_count = quiet_count = skipped = 0
    for b, start in enumerate(range(0, n, block)):
        size = min(block, n - start)
        rho_phi = _density_block(spec_phi, b, size)
        rho_psi = _density_block(spec_psi, b, size)
        den, g, value = quasi_prob_stack(rho_phi, rho_psi, obs)
        kept = den > DEFAULT_SELECTION_THRESHOLD
        g_bad = anomalous_mask(g, 0.0, 1.0, tol.anom).any(axis=1) & kept
        aw_bad = anomalous_mask(value, a[0], a[-1], tol.anom) & kept
        quiet = kept & ~g_bad & ~aw_bad
        quiet[quiet] = ((coherence_l1_stack(rho_phi[quiet], obs) >= DEFAULT_COHERENCE_TOL)
                        & (coherence_l1_stack(rho_psi[quiet], obs) >= DEFAULT_COHERENCE_TOL))
        g_count += int(g_bad.sum())
        aw_count += int(aw_bad.sum())
        quiet_count += int(quiet.sum())
        skipped += size - int(kept.sum())
    return ScanSummary(n=n, anomalous_g=g_count, anomalous_aw=aw_count,
                       coherent_non_anomalous=quiet_count, skipped=skipped)
