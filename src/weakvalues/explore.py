"""Random-state exploration: samplers, anomaly-rate scans, negativity search.

Every random draw flows through a counter-based generator keyed by
(master seed, key). ``sample`` keys one state by its index; a scan draws
its pairs in blocks of ``max(1, 65536 // d**2)`` and keys each block by its
block number, so a fixed seed reproduces every count bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "MIXED_FIXED_RANK",
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

HAAR_PURE = "haar-pure"
MIXED_FULL_RANK = "mixed-full-rank"
MIXED_FIXED_RANK = "mixed-fixed-rank"
REAL_PURE = "real-pure"
REAL_MIXED = "real-mixed"
DIAGONAL = "diagonal"

SAMPLER_KINDS = (HAAR_PURE, MIXED_FULL_RANK, MIXED_FIXED_RANK, REAL_PURE, REAL_MIXED, DIAGONAL)


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: dimension, ensemble kind, master seed, optional rank."""

    dim: int
    kind: str
    seed: int
    rank: int | None = None

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValidationError(f"sampler dimension must be >= 2, got {self.dim}")
        if self.kind not in SAMPLER_KINDS:
            raise ValidationError(f"unknown sampler kind {self.kind!r}, expected one of {SAMPLER_KINDS}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValidationError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        if self.kind == MIXED_FIXED_RANK:
            if self.rank is None or not 1 <= self.rank <= self.dim:
                raise ValidationError(
                    f"kind {MIXED_FIXED_RANK!r} needs 1 <= rank <= dim, got rank={self.rank}"
                )
        elif self.rank is not None:
            raise ValidationError(f"rank is only meaningful for kind {MIXED_FIXED_RANK!r}")


def _task_rng(seed: int, key: int) -> np.random.Generator:
    """Counter-based generator for one (seed, key) pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


def _draw(kind: str, dim: int, rank: int | None, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` states of one ensemble: (size, dim) amplitudes for pure kinds, else (size, dim, dim).

    State k consumes the generator's k-th run of variates, so the first
    states of a draw do not depend on ``size``.
    """
    if kind == REAL_PURE:
        x = rng.normal(size=(size, dim))
        return x.astype(complex) / np.linalg.norm(x, axis=1, keepdims=True)
    if kind == HAAR_PURE:
        x = rng.normal(size=(size, 2, dim))
        z = x[:, 0] + 1j * x[:, 1]
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    if kind in (MIXED_FULL_RANK, MIXED_FIXED_RANK, REAL_MIXED):
        r = rank if kind == MIXED_FIXED_RANK else dim
        x = rng.normal(size=(size, 2, dim, r))
        g = x[:, 0] + 1j * x[:, 1]
        rho = g @ g.conj().transpose(0, 2, 1)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        if kind == REAL_MIXED:
            re = rho.real
            rho = ((re + re.transpose(0, 2, 1)) / 2.0).astype(complex)
        return rho
    if kind == DIAGONAL:
        probs = rng.dirichlet(np.ones(dim), size=size)
        rho = np.zeros((size, dim, dim), dtype=complex)
        rho[:, np.arange(dim), np.arange(dim)] = probs
        return rho
    raise ValidationError(f"unknown sampler kind {kind!r}")


def sample(spec: SamplerSpec, index: int = 0):
    """One draw from the ensemble; pure kinds give StateVector, mixed give DensityOperator.

    The same (spec, index) always reproduces the same state bit for bit.
    """
    state = _draw(spec.kind, spec.dim, spec.rank, _task_rng(spec.seed, index), 1)[0]
    return StateVector(state) if state.ndim == 1 else DensityOperator(state)


def _block_size(dim: int) -> int:
    """Pairs per scan block: no (block, d, d) complex stack exceeds 1 MiB."""
    return max(1, 65536 // dim ** 2)


def _density_block(spec: SamplerSpec, block: int, size: int) -> np.ndarray:
    """Block ``block`` of a scan as a (size, d, d) stack of density matrices."""
    states = _draw(spec.kind, spec.dim, spec.rank, _task_rng(spec.seed, block), size)
    if states.ndim == 2:
        states = states[:, :, None] * states[:, None, :].conj()
    return states


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the negativity search.

    ``best_value`` is exactly -Re(A_w) at ``best_states`` (post- then
    pre-selection): candidates are projected onto the feasible overlap
    region before evaluation, so no penalty term ever enters the objective.
    """

    best_states: tuple[StateVector, StateVector]
    best_value: float
    evaluations: int


def _bloch(theta: float, azimuth: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0), np.exp(1j * azimuth) * np.sin(theta / 2.0)])


def _pair_from_params(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Selection pair from four angles: (phi polar, phi azimuth, psi polar, psi azimuth).

    The pre-selection angles are absolute; the post-selection angles live in
    the frame whose north pole is the pre-selection state, so x[0] is the
    Bloch separation between the two states and the squared overlap is
    cos(x[0]/2)**2 exactly.
    """
    psi = _bloch(x[2], x[3])
    perp = np.array([np.conj(psi[1]), -np.conj(psi[0])])
    phi = np.cos(x[0] / 2.0) * psi + np.exp(1j * x[1]) * np.sin(x[0] / 2.0) * perp
    return phi, psi


def _evaluator_factory(matrix: np.ndarray, min_overlap: float):
    """Box-clamped objective: pin the separation angle, then score -Re(A_w).

    -Re(A_w) grows without bound as the selection pair approaches
    orthogonality, so the Bloch separation x[0] is clamped to the range
    whose squared overlap stays at or above ``min_overlap``. Because the
    separation is itself a search coordinate, the constraint surface is a
    box face: the other three coordinates keep moving freely along it and
    the search cannot wedge against a curved boundary. The returned value
    always equals the raw objective at the returned, possibly clamped,
    angles.
    """
    max_separation = 2.0 * np.arccos(np.sqrt(min_overlap))

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, float]:
        clamped = min(max(x[0], 0.0), max_separation)
        if clamped != x[0]:
            x = np.array([clamped, x[1], x[2], x[3]])
        phi, psi = _pair_from_params(x)
        inner = np.vdot(phi, psi)
        value = -float((np.vdot(phi, matrix @ psi) / inner).real)
        return x, value

    return evaluate


def _compass(evaluate, start: np.ndarray, share: int, step: float,
             min_step: float) -> tuple[np.ndarray, float, int]:
    """Coordinate pattern search; every evaluation counts against ``share``.

    ``evaluate`` may move a candidate (separation clamp), so the point it
    returns, not the proposed one, is what gets adopted on improvement.
    """
    best_x, best_val = evaluate(np.array(start, dtype=float))
    evals = 1
    h = step
    while evals < share and h >= min_step:
        moved = False
        for k in range(best_x.size):
            for sign in (1.0, -1.0):
                if evals >= share:
                    break
                cand = np.array(best_x)
                cand[k] += sign * h
                cand, val = evaluate(cand)
                evals += 1
                if val > best_val:
                    best_x, best_val = cand, val
                    moved = True
        if not moved:
            h /= 2.0
    return best_x, best_val, evals


def search_max_negativity(observable, budget: int, seed: int, *,
                          restarts: int = 20,
                          min_overlap: float = 0.25,
                          initial_step: float = 0.9,
                          min_step: float = 1e-9) -> SearchResult:
    """Maximize -Re(A_w) over pure qubit selection pairs by pattern search.

    Pairs are parameterized by a polar and an azimuthal Bloch angle per
    state, the post-selection pair taken relative to the pre-selection state
    (see ``_pair_from_params``); separations past the ``min_overlap`` floor
    are clamped before scoring. At the default 0.25 floor the constrained
    optimum for a rank-1 projector is 1/2, reached when the two states and
    the small eigenvector close a 120-degree great circle.

    Restarts draw independent starting points keyed by (seed, restart) and
    split the evaluation budget evenly.
    """
    matrix = observable.matrix if isinstance(observable, Observable) else np.asarray(observable, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValidationError(f"search is defined for qubit observables, got shape {matrix.shape}")
    if not 0.0 < min_overlap <= 1.0:
        raise ValidationError(f"min_overlap must lie in (0, 1], got {min_overlap}")
    evaluate = _evaluator_factory(matrix, min_overlap)

    def random_start(rng: np.random.Generator) -> np.ndarray:
        theta = np.arccos(rng.uniform(-1.0, 1.0, size=2))
        azimuth = rng.uniform(0.0, 2.0 * np.pi, size=2)
        return np.array([theta[0], azimuth[0], theta[1], azimuth[1]])

    if budget <= 0:
        x, value = evaluate(random_start(_task_rng(seed, 0)))
        outcomes = [(x, value, 1)]
    else:
        n_restarts = max(1, min(restarts, budget))
        shares = [budget // n_restarts + (1 if r < budget % n_restarts else 0) for r in range(n_restarts)]
        outcomes = [_compass(evaluate, random_start(_task_rng(seed, r)), shares[r],
                             initial_step, min_step)
                    for r in range(n_restarts)]

    best_x, best_val = None, -np.inf
    for x, val, _ in outcomes:
        if val > best_val:
            best_x, best_val = x, val
    phi, psi = _pair_from_params(best_x)
    return SearchResult(
        best_states=(StateVector(phi), StateVector(psi)),
        best_value=best_val,
        evaluations=sum(used for _, _, used in outcomes),
    )


@dataclass(frozen=True)
class ScanSummary:
    """Tallies over sampled selection pairs against one observable."""

    n: int
    anomalous_g: int
    anomalous_aw: int
    coherent_non_anomalous: int
    skipped: int

    @property
    def anomalous_g_fraction(self) -> float:
        return self.anomalous_g / self.n

    @property
    def anomalous_aw_fraction(self) -> float:
        return self.anomalous_aw / self.n

    @property
    def coherent_non_anomalous_fraction(self) -> float:
        return self.coherent_non_anomalous / self.n


def scan_anomaly_rate(spec_phi: SamplerSpec, spec_psi: SamplerSpec, obs: Observable, n: int,
                      threshold: float = DEFAULT_SELECTION_THRESHOLD,
                      coherence_tol: float = DEFAULT_COHERENCE_TOL,
                      tol: Tolerances = DEFAULT_TOL) -> ScanSummary:
    """Anomaly statistics over ``n`` independent selection pairs.

    Block b holds the next ``max(1, 65536 // d**2)`` pairs (the last block
    is shorter), drawn from the keys (spec.seed, b), and goes through
    :func:`quasi_prob_stack` at once; A_w = sum_i g_i a_i, and the rules of
    ``classify`` and ``coherence_l1`` apply elementwise. Pairs whose overlap
    falls at or below the selection threshold are skipped and tallied apart.
    """
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
        den, g = quasi_prob_stack(rho_phi, rho_psi, obs, tol)
        kept = den > threshold
        g_bad = anomalous_mask(g, 0.0, 1.0, tol.anom).any(axis=1) & kept
        aw_bad = anomalous_mask((g * a).sum(axis=-1), a[0], a[-1], tol.anom) & kept
        quiet = kept & ~g_bad & ~aw_bad
        quiet[quiet] = ((coherence_l1_stack(rho_phi[quiet], obs) >= coherence_tol)
                        & (coherence_l1_stack(rho_psi[quiet], obs) >= coherence_tol))
        g_count += int(g_bad.sum())
        aw_count += int(aw_bad.sum())
        quiet_count += int(quiet.sum())
        skipped += size - int(kept.sum())
    return ScanSummary(n=n, anomalous_g=g_count, anomalous_aw=aw_count,
                       coherent_non_anomalous=quiet_count, skipped=skipped)
