"""Random-state exploration: samplers, anomaly-rate scans, negativity search.

Every random draw comes from an SFC64 stream keyed by (master seed, block):
a scan draws its pairs in blocks of ``max(1, 65536 // d**2)`` and seeds each
block's stream from its block number, so a fixed seed reproduces every
count bit for bit. A scan reads every drawn state as coordinates in the
eigenbasis of its observable, so its path has no basis rotation, and scores
each block in the form it was drawn: a block of two pure kinds as (n, d)
amplitude rows and a block of two ``diagonal`` specs as (n, d) population
rows, both whole and in O(d) a pair, and any other block as density
matrices, in chunks of ``max(1, 16384 // d**2)`` pairs drawn one after
another from the block's streams. The negativity search draws nothing: it
writes down the constrained optimum in closed form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import (
    DEFAULT_COHERENCE_TOL,
    DEFAULT_SELECTION_THRESHOLD,
    DEFAULT_TOL,
    Observable,
    StateVector,
    Tolerances,
    ValidationError,
    _hermitian,
    _l1_in_eigenbasis,
    require_dims,
)
from .invariants import overlap_stack
from .quasiprob import _g_contraction, _row_any, _scaled_g, anomalous_mask

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
    """The SFC64 stream of one (seed, key) pair, seeded by ``SeedSequence(entropy=seed, spawn_key=(key,))``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


def _draw(kind: str, dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` states of one ensemble: (size, dim) amplitudes for pure kinds, (size, dim) populations
    for ``diagonal``, else (size, dim, dim).

    From standard normal variates, each kind drawn in the layout it reads:
    ``real-pure`` is x / |x| for a real x, drawn (size, d); ``haar`` is
    z / |z| for z = x + iy, drawn (size, d, 2) as (Re, Im) pairs and read as
    complex in place; ``mixed`` is g g^dagger / Tr for g = X + iY, drawn
    (size, d, d, 2) the same way; ``real-mixed`` is W W^T / Tr for a
    (size, d, 2d) draw W = [X | Y], which equals Re(g g^dagger) / Tr for
    g = X + iY and is exactly symmetric, as numpy forms W W^T by a symmetric
    rank-k update; ``diagonal`` is a flat Dirichlet draw, the populations of
    a state diagonal in the eigenbasis. ``real-pure``, ``real-mixed`` and
    ``diagonal`` come out float64, so everything downstream of a scan does
    real arithmetic on them; ``haar`` and ``mixed`` come out complex128.
    State k consumes the generator's k-th run of variates, so the first
    states of a draw do not depend on ``size``, and two draws in a row give
    the states of one draw of their summed size. Norms and traces are einsums
    because numpy reduces a short trailing axis with one inner loop per row.
    States are scaled by 1/t, the product numpy's complex division by a real
    t forms, without its cost.
    """
    if kind == REAL_PURE:
        x = rng.standard_normal(size=(size, dim))
        return x * (1.0 / np.sqrt(np.einsum("ni,ni->n", x, x)))[:, None]
    if kind == HAAR_PURE:
        x = rng.standard_normal(size=(size, dim, 2))
        x *= (1.0 / np.sqrt(np.einsum("nik,nik->n", x, x)))[:, None, None]
        return x.view(complex)[..., 0]
    if kind == MIXED_FULL_RANK:
        g = rng.standard_normal(size=(size, dim, dim, 2)).view(complex)[..., 0]
        rho = g @ g.conj().transpose(0, 2, 1)
        rho *= (1.0 / np.einsum("nii->n", rho).real)[:, None, None]
        return rho
    if kind == REAL_MIXED:
        w = rng.standard_normal(size=(size, dim, 2 * dim))
        rho = w @ w.transpose(0, 2, 1)
        rho *= (1.0 / np.einsum("nii->n", rho))[:, None, None]
        return rho
    # DIAGONAL, the last kind SamplerSpec admits.
    return rng.dirichlet(np.ones(dim), size=size)


def _as_matrices(kind: str, states: np.ndarray) -> np.ndarray:
    """:func:`_draw`'s states of ``kind`` as a (size, d, d) stack of density matrices, of its dtype:
    |v><v| of amplitude rows, diag(p) of population rows."""
    if states.ndim == 3:
        return states
    if kind == DIAGONAL:
        return states[:, :, None] * np.eye(states.shape[1])
    return states[:, :, None] * states[:, None, :].conj()


def _block_size(dim: int) -> int:
    """Pairs per scan block: no (block, d, d) complex stack exceeds 1 MiB."""
    return max(1, 65536 // dim ** 2)


def _chunk_size(dim: int) -> int:
    """Pairs per chunk of a scan block scored as matrices: no (chunk, d, d) complex stack exceeds 256 KiB."""
    return max(1, 16384 // dim ** 2)


def _density_block(spec: SamplerSpec, block: int, size: int) -> np.ndarray:
    """Block ``block`` of a scan as a (size, d, d) stack of density matrices, of :func:`_draw`'s dtype.

    A float64 block of the real kinds gives its complex128 twin's overlaps, g, A_w and l1 bit for bit,
    A_w as the twin's real part, by the two rules of :func:`_g_contraction`: g scales by 1/Tr, and A_w
    is summed in the twin's complex lanes.
    """
    return _as_matrices(spec.kind, _draw(spec.kind, spec.dim, _task_rng(spec.seed, block), size))


def _pure_contraction(phi: np.ndarray, psi: np.ndarray,
                      eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlaps, g rows and weak values of (n, d) pure amplitude rows in the eigenbasis, in O(d) a pair.

    With c_i = conj(phi_i) psi_i and <phi|psi> = sum_i c_i, the overlap is T = |<phi|psi>|^2 and
    g_i = c_i conj(<phi|psi>) / T, the rows :func:`quasi_prob_stack` gives on the projectors to
    within the record's ``error``. T is real by construction. The weak values are summed as
    :func:`_scaled_g` sums them, and are float64 for ``real-pure`` rows.
    """
    cross = phi.conj() * psi
    amp = np.einsum("ni->n", cross)
    overlap = (amp * amp.conj()).real
    with np.errstate(divide="ignore", invalid="ignore"):
        return overlap, *_scaled_g(cross, amp.conj() * (1.0 / overlap), eigenvalues)


def _pure_l1(states: np.ndarray) -> np.ndarray:
    """l1 coherence of (n, d) pure amplitude rows in the eigenbasis: (sum_i |v_i|)^2 - sum_i |v_i|^2, O(d)."""
    moduli = np.abs(states)
    return np.einsum("ni->n", moduli) ** 2 - np.einsum("ni,ni->n", moduli, moduli)


def _population_contraction(phi: np.ndarray, psi: np.ndarray,
                            eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlaps, g rows and weak values of (n, d) population rows, states diagonal in the eigenbasis.

    g_i = psi_i phi_i / T for T = sum_i psi_i phi_i, O(d) a pair. On diag(phi) and diag(psi) every other
    product of :func:`overlap_stack` and :func:`_g_contraction` is an exact zero, so these are their
    bits: T is summed one column after another, the order in which the overlap's einsum meets the
    diagonal products, where an einsum or a reduction over the rows groups them otherwise from d = 3.
    """
    num = psi * phi
    overlap = num[:, 0].copy()
    for column in num.T[1:]:
        overlap += column
    with np.errstate(divide="ignore", invalid="ignore"):
        return overlap, *_scaled_g(num, 1.0 / overlap, eigenvalues)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the negativity search.

    ``weak_value`` is A_w at ``best_states`` (post- then pre-selection), ``best_value`` exactly its -Re,
    ``evaluations`` the number of pairs scored, one, and ``spectrum`` the observable's ascending eigenvalues.
    """

    best_states: tuple[StateVector, StateVector]
    best_value: float
    weak_value: complex
    evaluations: int
    spectrum: np.ndarray


# The floor on the post-selection probability |<phi|psi>|^2 under which the search maximizes -Re(A_w).
SEARCH_MIN_OVERLAP = 0.25


def search_max_negativity(observable, budget: int, seed: int) -> SearchResult:
    """The largest -Re(A_w) over pure qubit pairs with |<phi|psi>|^2 >= ``SEARCH_MIN_OVERLAP``, in closed form.

    With T = |<phi|psi>|^2 and P = |a><a|, in Bloch vectors (complex states too):
    - Re P_w = Re <phi|a><a|psi><psi|phi> / T = (1 + n_phi.n_a + n_a.n_psi + n_psi.n_phi) / (4T);
    - n_psi.n_phi = 2T - 1 and |n_phi + n_psi| = 2 sqrt(T), so the least value over n_a is
      Re P_w = (1 - 1/sqrt(T)) / 2, which is -1/2 at the floor T = 1/4;
    - A = a_0 + (a_1 - a_0) P_1 for eigenvalues a_0 <= a_1, so -Re A_w <= -a_0 + (a_1 - a_0) / 2.
    In the eigenbasis the optimum is psi = (cos 30deg, -sin 30deg), phi = (cos 30deg, sin 30deg):
    <phi|psi> = 1/2 and P_1,w = -1/2. The pair is mapped back with the eigenvectors, its half-angle
    stepped down one float at a time while its squared overlap rounds below the floor, and scored
    once as <phi|A|psi> / <phi|psi>, and the eigenvalues of the same decomposition are returned with it.
    ``budget`` and ``seed`` are validated and change nothing.
    """
    matrix = observable.matrix if isinstance(observable, Observable) else np.asarray(observable, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValidationError(f"search is defined for qubit observables, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("search needs a finite observable matrix")
    matrix = _hermitian(matrix, "search observable")
    if not _is_int(budget):
        raise ValidationError(f"search budget must be an integer, got {budget!r}")
    _require_seed(seed)

    spectrum, vectors = np.linalg.eigh(matrix)
    half = np.pi / 6.0
    while True:
        cos, sin = np.cos(half), np.sin(half)
        phi, psi = vectors @ np.array([cos, sin]), vectors @ np.array([cos, -sin])
        overlap = np.vdot(phi, psi)
        if abs(overlap) ** 2 >= SEARCH_MIN_OVERLAP:
            break
        half = np.nextafter(half, 0.0)
    weak_value = complex(np.vdot(phi, matrix @ psi) / overlap)
    return SearchResult(best_states=(StateVector(phi), StateVector(psi)), best_value=-weak_value.real,
                        weak_value=weak_value, evaluations=1, spectrum=spectrum)


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

    Every drawn state is read as coordinates in the eigenbasis of ``obs``,
    whose eigenvectors the scan never reads: ``haar`` and ``mixed`` are
    unitarily invariant, and ``real-*`` and ``diagonal`` are real, or
    diagonal, in that basis, so ``diagonal`` is the theorem's incoherent
    ensemble for any observable. Block b holds the next
    ``max(1, 65536 // d**2)`` pairs (the last block is shorter), drawn from
    the keys (spec.seed, b), and is scored in the form it is drawn in. A
    block of two pure kinds stays amplitude rows, scored at once by
    :func:`_pure_contraction` within the record's ``error`` and forming no
    projector. A block of two ``diagonal`` specs stays population rows,
    scored at once by :func:`_population_contraction` with the bits of the
    matrix route; its states have no coherence, so none of its pairs counts
    as coherent. Any other block goes through the contraction of
    :func:`quasi_prob_stack` as density matrices, in chunks of
    ``max(1, 16384 // d**2)`` pairs, each chunk the next states of the
    block's streams, so the chunks give the bits of the whole block. The
    rules of ``classify`` and ``coherence_l1`` apply elementwise. Pairs
    whose overlap falls at or below the selection threshold are skipped and
    tallied apart.
    """
    if not _is_int(n):
        raise ValidationError(f"scan needs an integer n, got {n!r}")
    n = operator.index(n)
    if n < 1:
        raise ValidationError(f"scan needs n >= 1, got {n}")
    require_dims(obs.dim, spec_phi, spec_psi)
    a = obs.eigenvalues
    block = _block_size(obs.dim)
    kinds = {spec_phi.kind, spec_psi.kind}
    pure = kinds <= {HAAR_PURE, REAL_PURE}
    populations = kinds == {DIAGONAL}
    chunk = block if pure or populations else _chunk_size(obs.dim)
    l1 = _pure_l1 if pure else _l1_in_eigenbasis
    g_count = aw_count = quiet_count = skipped = 0
    for b, start in enumerate(range(0, n, block)):
        rng_phi, rng_psi = _task_rng(spec_phi.seed, b), _task_rng(spec_psi.seed, b)
        end = min(start + block, n)
        for at in range(start, end, chunk):
            size = min(chunk, end - at)
            # One state array per statement, so each draw can reuse the memory of the last chunk's.
            phi = _draw(spec_phi.kind, spec_phi.dim, rng_phi, size)
            psi = _draw(spec_psi.kind, spec_psi.dim, rng_psi, size)
            if pure:
                den, g, value = _pure_contraction(phi, psi, a)
            elif populations:
                den, g, value = _population_contraction(phi, psi, a)
            else:
                phi = _as_matrices(spec_phi.kind, phi)
                psi = _as_matrices(spec_psi.kind, psi)
                den = overlap_stack(phi, psi)
                g, value = _g_contraction(psi.transpose(0, 2, 1), phi, den, a)
            kept = den > DEFAULT_SELECTION_THRESHOLD
            g_bad = _row_any(anomalous_mask(g, 0.0, 1.0, tol.anom)) & kept
            aw_bad = anomalous_mask(value, a[0], a[-1], tol.anom) & kept
            g_count += int(np.count_nonzero(g_bad))
            aw_count += int(np.count_nonzero(aw_bad))
            skipped += size - int(np.count_nonzero(kept))
            if not populations:
                quiet = kept & ~g_bad & ~aw_bad
                # psi's l1 is taken only on the rows whose phi is already coherent.
                quiet[quiet] = l1(phi[quiet]) >= DEFAULT_COHERENCE_TOL
                quiet[quiet] = l1(psi[quiet]) >= DEFAULT_COHERENCE_TOL
                quiet_count += int(np.count_nonzero(quiet))
    return ScanSummary(n=n, anomalous_g=g_count, anomalous_aw=aw_count,
                       coherent_non_anomalous=quiet_count, skipped=skipped)
