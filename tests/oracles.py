"""Second routes to quantities the package computes one way, kept as test oracles.

``trace_ratio_weak_value`` is A_w as Tr(rho_phi A rho_psi) / Tr(rho_phi rho_psi)
for any Hermitian matrix, degenerate ones included, and
``amplitude_ratio_weak_value`` is <phi|A|psi> / <phi|psi> for pure
selections: the two routes the package's one kernel sum_i a_i g_i is
checked against. ``incoherent_quasi_prob`` is the factorized distribution
the coherence theorem predicts for incoherent selections (criterion 4),
``corollary_projector_weak_value`` is the three-operator trace ratio of an
eigenprojector (criterion 6), and ``antipodal`` builds the orthogonal qubit
ray for direct overlap arithmetic on the six-state fragment (criterion 7),
and ``projector`` builds one eigenprojector at a time for the graph oracles.
None of them goes through the quasi-probability kernel; each applies its
own selection gate. ``verdicts`` judges a ``QuasiProbDist``'s values and
stated errors one scalar at a time: ``classify`` and ``is_marginal`` applied
to A_w and, in a loop, to each g_i, the reference for the record's array
rules. ``exact_verdicts`` judges a selection pair in exact rational
arithmetic (``fractions.Fraction``) on its stored doubles, the reference
for the rounding the record's ``error`` states. ``scalar_search``
is a coordinate pattern search for the largest -Re(A_w) under the overlap
floor, one restart and one candidate at a time: the closed-form search must
never lose to it. ``pairwise_frame_graph`` and
``looped_three_cycles`` fill the overlap graph one vertex pair at a time
(each edge the one-pair ``overlap``, over the vertex states that
``selection_states`` and ``fragment_states`` list) and evaluate its cycles
one triple at a time, as plain tuples, the reference for the stacked
overlap rows and the cycle table; ``looped_fragment_cycles`` judges the
fragment's rows one at a time. ``pairwise_overlap`` is Tr(rho1 rho2) by the
Bargmann trace of a product, which every overlap must match within
``overlap_rounding_bound``.
``nodewise_matrix`` and ``nodewise_state`` read a problem file's matrices
and states one node at a time, probing each state as a grid and as a
vector, the reference for the reader that classifies each entry once.
``looped_render_json`` and ``looped_render_csv`` render a report of plain
values one leaf at a time, the reference for the renderers; ``as_lists``
turns a report's arrays into the plain lists they stand for.
``pointer_estimate`` reads the weak value off one pointer readout by the
formulas the ``pointer`` report wrote its series rows with before the
extrapolation kept its estimates. ``looped_fix_phases`` rotates an
eigenbasis one column at a time, the reference for the one array expression
that fixes every column's phase. ``reference_draw`` samples each ensemble
with numpy's row reductions, complex divisions and, for ``real-mixed``, the
real part of a complex product g g^dagger; every state of the sampler lies
within ``draw_rounding_bound`` of it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

import numpy as np

import weakvalues as wv
from weakvalues.cli import ProblemFileError
from weakvalues.contextuality import _CYCLE_ROUNDING, FRAGMENT_LABELS
from weakvalues.core import DEFAULT_COHERENCE_TOL, REALITY_TOL, require_dims
from weakvalues.explore import (DIAGONAL, HAAR_PURE, MIXED_FULL_RANK, REAL_MIXED, REAL_PURE, SEARCH_MIN_OVERLAP,
                                SearchResult, _task_rng)
from weakvalues.invariants import FrameGraph


class NotIncoherentError(wv.ValidationError):
    pass


def projector(obs, i):
    """Rank-1 projector onto eigenvector i of ``obs``, as a density operator of its own."""
    v = obs.eigenvectors[:, i]
    return wv.DensityOperator(np.outer(v, v.conj()))


def _gated(den):
    """A post-selection overlap, refused at or below the selection threshold."""
    if den <= wv.DEFAULT_SELECTION_THRESHOLD:
        raise wv.OrthogonalSelectionError(f"post-selection overlap {den:.3e} at or below the threshold")
    return den


@dataclass(frozen=True)
class OracleWeakValue:
    """A weak value by a second route, under the attribute names of ``QuasiProbDist``."""

    value: complex
    denominator: float
    spectrum_lo: float
    spectrum_hi: float
    classification: str


def _result(value, den, lo, hi, tol):
    return OracleWeakValue(value=value, denominator=den, spectrum_lo=lo, spectrum_hi=hi,
                           classification=classify(value, lo, hi, tol.anom))


def trace_ratio_weak_value(matrix, rho_psi, rho_phi, tol=wv.DEFAULT_TOL):
    """Weak value of a raw Hermitian matrix by the trace ratio, classified against its spectrum edges."""
    mat = np.asarray(matrix, dtype=complex)
    require_dims(mat.shape[0], rho_phi, rho_psi)
    spectrum = np.linalg.eigvalsh(mat)
    den = _gated(wv.overlap(rho_phi, rho_psi))
    value = complex(np.trace(rho_phi.matrix @ mat @ rho_psi.matrix)) / den
    return _result(value, den, float(spectrum[0]), float(spectrum[-1]), tol)


def amplitude_ratio_weak_value(obs, psi, phi, tol=wv.DEFAULT_TOL):
    """Weak value <phi|A|psi> / <phi|psi> of pure selections, with |<phi|psi>|^2 as the denominator."""
    require_dims(obs.dim, phi, psi)
    inner = complex(np.vdot(phi.amps, psi.amps))
    den = _gated(abs(inner) ** 2)
    value = complex(np.vdot(phi.amps, obs.matrix @ psi.amps)) / inner
    return _result(value, den, float(obs.eigenvalues[0]), float(obs.eigenvalues[-1]), tol)


def incoherent_quasi_prob(rho_phi, rho_psi, obs):
    """Factorized distribution for selections diagonal in the eigenbasis.

    When both states are incoherent the quasi-probability collapses to
    g_i = <a_i|rho_phi|a_i> <a_i|rho_psi|a_i> / Tr(rho_phi rho_psi),
    a genuine probability distribution.
    """
    for name, rho in (("post-selection", rho_phi), ("pre-selection", rho_psi)):
        l1 = wv.coherence_l1(rho, obs)
        if l1 >= DEFAULT_COHERENCE_TOL:
            raise NotIncoherentError(
                f"{name} state has l1 coherence {l1:.3e} (threshold {DEFAULT_COHERENCE_TOL:.1e})"
            )
    den = _gated(wv.overlap(rho_phi, rho_psi))
    v = obs.eigenvectors
    pops_phi = np.real(np.einsum("ji,jk,ki->i", v.conj(), rho_phi.matrix, v))
    pops_psi = np.real(np.einsum("ji,jk,ki->i", v.conj(), rho_psi.matrix, v))
    return pops_phi * pops_psi / den


def corollary_projector_weak_value(rho_phi, rho_psi, obs, i, tol=wv.DEFAULT_TOL):
    """Weak value of the i-th eigenprojector, classified against spectrum {0, 1}.

    Evaluated by the direct three-operator trace ratio, so it provides an
    independent route to g_i: an anomalous quasi-probability is itself the
    anomalous weak value of the matching projector.
    """
    if not 0 <= i < obs.dim:
        raise wv.ValidationError(f"eigenvector index {i} out of range for dim {obs.dim}")
    den = _gated(wv.overlap(rho_phi, rho_psi))
    proj = projector(obs, i)
    value = complex(np.trace(rho_phi.matrix @ proj.matrix @ rho_psi.matrix)) / den
    return _result(value, den, 0.0, 1.0, tol)


def classify(value, lo, hi, anomaly_tol):
    """Label a weak value against the real interval [lo, hi]; imaginary excursions win over real ones."""
    if abs(value.imag) > anomaly_tol:
        return wv.ANOMALOUS_IMAGINARY
    if value.real < lo - anomaly_tol or value.real > hi + anomaly_tol:
        return wv.ANOMALOUS_REAL
    return wv.NORMAL


def anomalous_indices(weights, anomaly_tol):
    """Indices whose quasi-probability leaves the real interval [0, 1]."""
    return tuple(i for i, w in enumerate(weights) if classify(complex(w), 0.0, 1.0, anomaly_tol) != wv.NORMAL)


def is_marginal(value, lo, hi, anomaly_tol, error):
    """True when the verdict sits within max(10 tol, 2 error) of a decision boundary.

    Additive distance to the spectrum edges for the real part; for the imaginary
    part, within a factor of ten of the line |Im| = tol on either side, or within
    twice the error of it.
    """
    band = max(10.0 * anomaly_tol, 2.0 * error)
    if min(anomaly_tol / 10.0, anomaly_tol - 2.0 * error) < abs(value.imag) < band:
        return True
    return abs(value.real - lo) < band or abs(value.real - hi) < band


def verdicts(dist, anomaly_tol):
    """(classification, marginal, anomalous_indices, marginal_indices, anomalous) of a record's values
    and of its stated errors."""
    lo, hi = float(dist.labels[0]), float(dist.labels[-1])
    classification = classify(dist.value, lo, hi, anomaly_tol)
    bad = anomalous_indices(dist.weights, anomaly_tol)
    marginal = tuple(i for i, (w, e) in enumerate(zip(dist.weights, dist.error))
                     if is_marginal(complex(w), 0.0, 1.0, anomaly_tol, float(e)))
    return (classification, is_marginal(dist.value, lo, hi, anomaly_tol, dist.value_error), bad, marginal,
            classification != wv.NORMAL or bool(bad))


class _Exact(NamedTuple):
    """A complex number as an exact pair of fractions, judged by ``classify`` as a complex is."""

    real: Fraction
    imag: Fraction

    def __mul__(self, other):
        return _Exact(self.real * other.real - self.imag * other.imag, self.real * other.imag + self.imag * other.real)

    def conjugate(self):
        return _Exact(self.real, -self.imag)


def _exact(z):
    """A stored complex double as the exact rational pair it is."""
    z = complex(z)
    return _Exact(Fraction(z.real), Fraction(z.imag))


def _sum(terms):
    terms = list(terms)
    return _Exact(sum(t.real for t in terms), sum(t.imag for t in terms))


def exact_verdicts(rho_phi, rho_psi, obs, anomaly_tol):
    """(classification, anomalous_indices) of a selection pair in exact rational arithmetic on its stored doubles.

    The g_i are <a_i| rho_psi rho_phi |a_i> / Re Tr(rho_phi rho_psi) over the stored eigenvectors
    and matrix entries, each taken as the exact rational it is, and A_w is sum_i a_i g_i over the
    stored eigenvalues: only the package's rounding of the sums and products is taken away. The
    verdicts compare them exactly with the band edges as the package rounds them.
    """
    d = obs.dim
    phi = [[_exact(x) for x in row] for row in rho_phi.matrix]
    psi = [[_exact(x) for x in row] for row in rho_psi.matrix]
    vecs = [[_exact(x) for x in row] for row in obs.eigenvectors]
    den = _sum(phi[j][k] * psi[k][j] for j in range(d) for k in range(d)).real
    g = []
    for i in range(d):
        bra = [_sum(v[i].conjugate() * psi[j][k] for j, v in enumerate(vecs)) for k in range(d)]
        ket = [_sum(phi[k][j] * v[i] for j, v in enumerate(vecs)) for k in range(d)]
        num = _sum(b * k for b, k in zip(bra, ket))
        g.append(_Exact(num.real / den, num.imag / den))
    value = _sum(_exact(a) * w for a, w in zip(obs.eigenvalues, g))
    lo, hi = float(obs.eigenvalues[0]), float(obs.eigenvalues[-1])
    return (classify(value, lo, hi, anomaly_tol),
            tuple(i for i, w in enumerate(g) if classify(w, 0.0, 1.0, anomaly_tol) != wv.NORMAL))


def antipodal(psi):
    """Orthogonal qubit state, its largest-modulus component made real positive."""
    if psi.dim != 2:
        raise wv.ValidationError(f"antipodal state is defined for dim 2, got dim {psi.dim}")
    perp = np.array([np.conj(psi.amps[1]), -np.conj(psi.amps[0])])
    pivot = perp[int(np.argmax(np.abs(perp)))]
    return wv.StateVector(perp * (np.abs(pivot) / pivot))


# The pattern search's settings: restarts, a restart's first and last poll step.
SEARCH_RESTARTS = 20
SEARCH_INITIAL_STEP = 0.9
SEARCH_MIN_STEP = 1e-9


def _bloch(theta, azimuth):
    return np.array([np.cos(theta / 2.0), np.exp(1j * azimuth) * np.sin(theta / 2.0)])


def _pair_from_params(x):
    """Selection pair from four angles, the separation first (see ``scalar_search``)."""
    psi = _bloch(x[2], x[3])
    perp = np.array([np.conj(psi[1]), -np.conj(psi[0])])
    phi = np.cos(x[0] / 2.0) * psi + np.exp(1j * x[1]) * np.sin(x[0] / 2.0) * perp
    return phi, psi


def _pair_weak_value(matrix, x):
    """A_w of the pair at angles ``x`` by two ``np.vdot`` inner products."""
    phi, psi = _pair_from_params(x)
    return complex(np.vdot(phi, matrix @ psi) / np.vdot(phi, psi))


def _evaluator_factory(matrix):
    """Box-clamped objective for one candidate: pin the separation, score -Re(A_w)."""
    max_separation = 2.0 * np.arccos(np.sqrt(SEARCH_MIN_OVERLAP))

    def evaluate(x):
        clamped = min(max(x[0], 0.0), max_separation)
        if clamped != x[0]:
            x = np.array([clamped, x[1], x[2], x[3]])
        return x, -_pair_weak_value(matrix, x).real

    return evaluate


def _compass(evaluate, start, share):
    """Coordinate pattern search; every evaluation counts against ``share``."""
    best_x, best_val = evaluate(np.array(start, dtype=float))
    evals = 1
    h = SEARCH_INITIAL_STEP
    while evals < share and h >= SEARCH_MIN_STEP:
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


def scalar_search(observable, budget, seed):
    """The largest -Re(A_w) a coordinate pattern search finds in ``budget`` evaluations.

    Pairs are four angles: the Bloch separation of phi from psi, clamped so
    that |<phi|psi>|^2 stays at the ``SEARCH_MIN_OVERLAP`` floor or above, an
    azimuth about psi, and psi's polar and azimuthal angles. The
    ``SEARCH_RESTARTS`` restarts start at points keyed by (seed, restart),
    split the budget evenly and run to completion in turn; a budget of 0 or
    less evaluates one start. A restart polls +h and -h along each angle,
    from h = ``SEARCH_INITIAL_STEP``, adopts a strictly better point, halves
    h after a sweep without a move, and retires when its share is spent or h
    falls below ``SEARCH_MIN_STEP``. Each candidate is one ``np.vdot`` ratio.
    """
    matrix = observable.matrix if isinstance(observable, wv.Observable) else np.asarray(observable, dtype=complex)
    evaluate = _evaluator_factory(matrix)

    def random_start(rng):
        theta = np.arccos(rng.uniform(-1.0, 1.0, size=2))
        azimuth = rng.uniform(0.0, 2.0 * np.pi, size=2)
        return np.array([theta[0], azimuth[0], theta[1], azimuth[1]])

    if budget <= 0:
        x, value = evaluate(random_start(_task_rng(seed, 0)))
        outcomes = [(x, value, 1)]
    else:
        n_restarts = max(1, min(SEARCH_RESTARTS, budget))
        shares = [budget // n_restarts + (1 if r < budget % n_restarts else 0) for r in range(n_restarts)]
        outcomes = [_compass(evaluate, random_start(_task_rng(seed, r)), shares[r]) for r in range(n_restarts)]

    best_x, best_val = None, -np.inf
    for x, val, _ in outcomes:
        if val > best_val:
            best_x, best_val = x, val
    phi, psi = _pair_from_params(best_x)
    return SearchResult(
        best_states=(wv.StateVector(phi), wv.StateVector(psi)),
        best_value=best_val,
        weak_value=_pair_weak_value(matrix, best_x),
        evaluations=sum(used for _, _, used in outcomes),
        spectrum=np.linalg.eigvalsh(matrix),
    )


def pairwise_overlap(rho1, rho2):
    """Tr(rho1 rho2) as the two-state Bargmann product of one pair, imaginary parts refused."""
    value = wv.bargmann((rho1, rho2))
    if abs(value.imag) > REALITY_TOL:
        raise wv.ComputationError(f"two-state overlap has imaginary part {value.imag:.3e}")
    return value.real


def overlap_rounding_bound(a, b):
    """Bound on the gap between ``overlap`` and ``pairwise_overlap`` for (d, d) matrices a, b.

    With S = sum_ij |a_ij| |b_ji| and unit roundoff u = eps / 2, a complex
    inner product of length m, products formed with four real multiplications
    and summed in any order, is off by at most sqrt(2) gamma_(m+2) sum_k
    |x_k| |y_k|, gamma_m = m u / (1 - m u) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.6). The kernel's contraction is one
    such sum of m = d^2 products a_ij b_ji: off by sqrt(2) gamma_(d^2+2) S.
    The Bargmann route forms each (a b)_ii, a sum of d products, off by
    sqrt(2) gamma_(d+2) S_i with sum_i S_i = S, then adds the d entries, which
    adds at most gamma_(d-1) (1 + sqrt(2) gamma_(d+2)) S. Since d + 2 and d - 1
    are below d^2 + 2, the gap between the two is at most
    (2 sqrt(2) + 1) u (d^2 + 2) S (1 + O(d^2 u)) < 2 (d^2 + 2) eps S, and its
    real part no more.
    """
    d = a.shape[-1]
    return 2.0 * (d * d + 2) * np.finfo(float).eps * float(np.sum(np.abs(a) * np.abs(b).T))


def pairwise_frame_graph(labels, states):
    """Complete overlap graph over labeled states, filled one ``overlap`` call per vertex pair."""
    if len(labels) != len(states):
        raise wv.ValidationError(f"{len(labels)} labels for {len(states)} states")
    weights = np.full((len(states), len(states)), np.nan)
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            weights[i, j] = weights[j, i] = wv.overlap(states[i], states[j])
    return FrameGraph(labels=tuple(labels), weights=weights)


def selection_states(rho_phi, rho_psi, obs):
    """The frame graph's vertices phi, psi, a_1 ... a_d, each projector a state of its own."""
    return [rho_phi, rho_psi] + [projector(obs, i) for i in range(obs.dim)]


def fragment_states(rho_phi, rho_psi, obs):
    """The qubit fragment's six vertices, the complements 1 - rho as states of their own."""
    eye = np.eye(2, dtype=complex)
    return [rho_phi, rho_psi, projector(obs, 0), projector(obs, 1),
            wv.DensityOperator(eye - rho_phi.matrix), wv.DensityOperator(eye - rho_psi.matrix)]


def pairwise_selection_graph(rho_phi, rho_psi, obs):
    """``build_frame_graph`` over explicit projector states, one pair at a time."""
    labels = ["phi", "psi"] + [f"a{i + 1}" for i in range(obs.dim)]
    return pairwise_frame_graph(labels, selection_states(rho_phi, rho_psi, obs))


def pairwise_fragment_graph(rho_phi, rho_psi, obs):
    """``qubit_fragment_graph`` over explicit complement states, one pair at a time."""
    return pairwise_frame_graph(FRAGMENT_LABELS, fragment_states(rho_phi, rho_psi, obs))


def looped_three_cycles(graph, anomaly_tol=wv.DEFAULT_TOL.anom):
    """``all_three_cycles`` evaluated one triple and one edge lookup at a time.

    Returns one ``(triple, minus_edge, value, violated)`` tuple per inequality,
    with the vertices named by their labels.
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
            out.append((triple, minus_pair, value, value > 1.0 + anomaly_tol))
    return out


def looped_fragment_cycles(graph, rho_phi, rho_psi, tol=wv.DEFAULT_TOL):
    """``fragment_cycles`` on a given fragment graph, one cycle at a time.

    The rows of ``looped_three_cycles``; those through a perpendicular vertex
    are judged again against the fragment band, computed state by state.
    """
    defects = [abs(np.trace(rho.matrix).real - 1.0) + 2.0 * max(-np.linalg.eigvalsh(rho.matrix)[0], 0.0)
               for rho in (rho_phi, rho_psi)]
    floor = _CYCLE_ROUNDING + 4.0 * sum(defect for defect in defects if defect > _CYCLE_ROUNDING)
    band = max(2.0 * graph.edge(0, 1) * tol.anom - _CYCLE_ROUNDING, floor)
    perpendicular = set(FRAGMENT_LABELS[4:])
    return [(triple, minus, value, value > 1.0 + band if perpendicular & set(triple) else bad)
            for triple, minus, value, bad in looped_three_cycles(graph, tol.anom)]


def _expect_number(node, where):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ProblemFileError(where, f"expected a number, got {type(node).__name__}")
    return float(node)


def _nodewise_complex(node, where):
    if isinstance(node, list) and len(node) == 2:
        return complex(_expect_number(node[0], f"{where}[0]"), _expect_number(node[1], f"{where}[1]"))
    try:
        return complex(_expect_number(node, where))
    except ProblemFileError:
        raise ProblemFileError(where, "expected a [re, im] pair or a real number") from None


def _parses(parse, node):
    try:
        parse(node, "")
    except ProblemFileError:
        return False
    return True


def nodewise_matrix(node, where):
    """A problem-file matrix parsed entry by entry into Python complex numbers."""
    if not isinstance(node, list) or not node:
        raise ProblemFileError(where, "expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            raise ProblemFileError(f"{where}[{i}]", "expected a non-empty row list")
        rows.append([_nodewise_complex(entry, f"{where}[{i}][{j}]") for j, entry in enumerate(row)])
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ProblemFileError(f"{where}[{i}]", f"ragged matrix: row has {len(row)} entries, expected {width}")
    return np.array(rows, dtype=complex)


def nodewise_state(node, where, dim):
    """A problem-file state, probed as a grid of numbers and as a vector before it is read.

    A dim x dim grid of bare numbers reads as a matrix, with the vector of
    [re, im] pairs as the fallback at dim 2; a vector of numbers and pairs
    reads as amplitudes, and so does a state with no list entry; anything
    else reads as a matrix.
    """
    if not isinstance(node, list) or not node:
        raise ProblemFileError(where, "expected an amplitude vector or a density matrix")
    grid_like = (
        len(node) == dim
        and all(isinstance(row, list) and len(row) == dim and all(_parses(_expect_number, e) for e in row)
                for row in node)
    )
    vector_like = all(_parses(_nodewise_complex, e) for e in node)

    def as_vector():
        amps = [_nodewise_complex(entry, f"{where}[{i}]") for i, entry in enumerate(node)]
        if len(amps) != dim:
            raise ProblemFileError(where, f"state has {len(amps)} amplitudes, expected {dim}")
        return wv.pure_to_density(wv.state_vector(amps))

    if grid_like:
        matrix = nodewise_matrix(node, where)
        try:
            return wv.validate_density(matrix)
        except wv.ValidationError as exc:
            if not vector_like:
                raise ProblemFileError(where, str(exc)) from exc
            matrix_error = exc
        try:
            return as_vector()
        except (wv.ValidationError, ProblemFileError):
            raise ProblemFileError(
                where, f"not a valid density matrix ({matrix_error}) and the "
                       "amplitude-vector reading fails as well"
            ) from matrix_error
    if vector_like:
        try:
            return as_vector()
        except wv.ValidationError as exc:
            raise ProblemFileError(where, str(exc)) from exc
    if not any(isinstance(entry, list) for entry in node):
        as_vector()  # raises, naming the refused amplitude: without a list entry there is no matrix
    matrix = nodewise_matrix(node, where)
    if matrix.shape != (dim, dim):
        raise ProblemFileError(where, f"state has shape {matrix.shape}, expected ({dim}, {dim})")
    try:
        return wv.validate_density(matrix)
    except wv.ValidationError as exc:
        raise ProblemFileError(where, str(exc)) from exc


def as_lists(node):
    """A report with every array as nested lists."""
    kind = type(node)
    if kind is dict:
        return {key: as_lists(value) for key, value in node.items()}
    if kind is list:
        return [as_lists(value) for value in node]
    if kind is np.ndarray:
        return node.tolist()
    return node


def _leaf(node):
    kind = type(node)
    if kind is float:
        if not math.isfinite(node):
            return "null"
        text = f"{node:.17g}"
        return "-0.0" if text == "-0" else text
    if kind is bool:
        return "true" if node else "false"
    if kind is int:
        return str(node)
    raise TypeError(f"cannot serialize {kind.__name__}")


def looped_render_json(node):
    """JSON text of a report of plain values, one leaf at a time."""
    kind = type(node)
    if kind is dict:
        return "{" + ",".join(f"{_quote(key)}:{looped_render_json(value)}" for key, value in node.items()) + "}"
    if kind is list:
        return "[" + ",".join(map(looped_render_json, node)) + "]"
    if kind is str:
        return _quote(node)
    return "null" if node is None else _leaf(node)


def _looped_csv_rows(node, path, rows):
    kind = type(node)
    if kind is dict:
        for key, value in node.items():
            _looped_csv_rows(value, f"{path}.{key}" if path else key, rows)
    elif kind is list:
        for i, value in enumerate(node):
            _looped_csv_rows(value, f"{path}.{i}", rows)
    elif kind is str:
        if "," in node or '"' in node:
            node = '"' + node.replace('"', '""') + '"'
        rows.append(f"{path},{node}")
    else:
        rows.append(f"{path}," if node is None else f"{path},{_leaf(node)}")


def looped_render_csv(node):
    """CSV text (``key,value`` rows) of a report of plain values, one leaf at a time."""
    rows = ["key,value"]
    _looped_csv_rows(node, "", rows)
    return "\n".join(rows)


def pointer_estimate(outcome, coupling, width):
    """(x/g, 2 sigma^2 p/g) of one pointer readout, each part as a float of its own."""
    return outcome.mean_position / coupling, 2.0 * width ** 2 * outcome.mean_momentum / coupling


def looped_fix_phases(vectors):
    """Each column rotated so its largest-modulus component (the first, on a tie) is real positive."""
    out = np.array(vectors)
    for i in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, i])))
        pivot = out[k, i]
        out[:, i] *= np.abs(pivot) / pivot
    return out


def reference_draw(kind: str, dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` states of one ensemble: (size, dim) amplitudes for pure kinds, (size, dim) populations
    for ``diagonal``, else (size, dim, dim).

    Each kind reads its normals in the layout ``explore._draw`` draws them:
    ``haar`` (size, d, 2) and ``mixed`` (size, d, d, 2) as (Re, Im) pairs,
    ``real-mixed`` (size, d, 2d) as g = X + iY for W = [X | Y]. State k
    consumes the generator's k-th run of variates, so the first states of a
    draw do not depend on ``size``.
    """
    if kind == REAL_PURE:
        x = rng.normal(size=(size, dim))
        return x.astype(complex) / np.linalg.norm(x, axis=1, keepdims=True)
    if kind == HAAR_PURE:
        x = rng.normal(size=(size, dim, 2))
        z = x[..., 0] + 1j * x[..., 1]
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    if kind in (MIXED_FULL_RANK, REAL_MIXED):
        if kind == MIXED_FULL_RANK:
            x = rng.normal(size=(size, dim, dim, 2))
            g = x[..., 0] + 1j * x[..., 1]
        else:
            w = rng.normal(size=(size, dim, 2 * dim))
            g = w[:, :, :dim] + 1j * w[:, :, dim:]
        rho = g @ g.conj().transpose(0, 2, 1)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        if kind == REAL_MIXED:
            re = rho.real
            rho = ((re + re.transpose(0, 2, 1)) / 2.0).astype(complex)
        return rho
    if kind == DIAGONAL:
        return rng.dirichlet(np.ones(dim), size=size)
    raise wv.ValidationError(f"unknown sampler kind {kind!r}")


def draw_rounding_bound(kind, variates, reference):
    """Entrywise bound on |explore._draw - reference_draw| for one run of ``variates``.

    ``reference`` is ``reference_draw``'s output from ``variates``, the
    generator's normals; u = eps / 2 and gamma_m = m u / (1 - m u). The
    reference divides by a real t as a complex division, which is the product
    with fl(1 / t) (Smith's method with a zero imaginary part), and the
    sampler scales by fl(1 / t) itself, so the two part only where they sum.
    A sum of m rounded products is off by at most gamma_m times the sum of
    their moduli, in any order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.1).

    - ``real-pure``: the squared norms, sums of d positive squares, agree to
      2 gamma_d relatively; the square root halves that and adds u a side,
      the reciprocal and the scaling u each: (d + 6) u |ref| to first order.
    - ``haar``: the same over 2d squares: (2d + 6) u |ref|.
    - ``mixed``: g g^dagger is one shared product; the traces sum the same d
      positive diagonal entries and agree to 2 gamma_(d-1); the reciprocal
      and the scaling add u a side: (2d + 2) u |ref|.
    - ``real-mixed``: ``variates`` is the (size, d, 2d) draw W = [X | Y]. Let
      E = W W^T be the exact product and M = |W| |W|^T = |X| |X|^T +
      |Y| |Y|^T, so |E_ij| <= M_ij and T = Tr M = Tr E. Both products (2d
      terms an entry) are within gamma_(2d) M of E, and each trace is within
      gamma_(2d) + gamma_(d-1) of T relatively. An entry scaled by its
      reciprocal then differs by at most (4d + 2 (3d - 1) + 4) u M_ij / T.
      The sampler's W W^T is exactly symmetric, and the reference's
      symmetrizing adds at most 2 u M_ij / T: (10d + 4) u M_ij / T.
    - ``diagonal``: one route, no gap.

    Each bound takes one u more, which covers the second-order terms for d <= 64.
    """
    dim = reference.shape[-1]
    u = np.finfo(float).eps / 2.0
    if kind == REAL_PURE:
        return (dim + 7) * u * np.abs(reference)
    if kind == HAAR_PURE:
        return (2 * dim + 7) * u * np.abs(reference)
    if kind == MIXED_FULL_RANK:
        return (2 * dim + 3) * u * np.abs(reference)
    if kind == REAL_MIXED:
        a = np.abs(variates)
        m = a @ a.transpose(0, 2, 1)
        return (10 * dim + 5) * u * m / np.trace(m, axis1=1, axis2=2)[:, None, None]
    return np.zeros(reference.shape)
