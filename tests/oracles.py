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
own selection gate. ``verdicts`` judges a ``QuasiProbDist``'s values by the
free-function rules the record's derived verdicts replaced:
``anomalous_indices`` through ``anomalous_mask`` and ``is_marginal`` applied
to A_w and, in a loop, to each g_i. ``scalar_search``
is the negativity search walked one restart and one candidate at a time,
the reference for the lockstep stacked search. ``pairwise_frame_graph`` and
``looped_three_cycles`` fill the overlap graph one vertex pair at a time
and evaluate its cycles one triple at a time, as plain tuples, the
reference for the stacked overlap rows and the cycle table;
``looped_fragment_cycles`` judges the fragment's rows one at a time.
``nodewise_matrix`` and ``nodewise_state`` read a problem file's matrices
and states one node at a time, probing each state as a grid and as a
vector, the reference for the reader that classifies each entry once.
``looped_render_json`` and ``looped_render_csv`` render a report one leaf at
a time, the reference for the renderers that turn each array and row table
into text in one format call; ``as_lists`` turns a report's arrays and row
tables into the plain lists and row dicts they stand for.
``pointer_estimate`` reads the weak value off one pointer readout by the
formulas the ``pointer`` report wrote its series rows with before the
extrapolation kept its estimates. ``looped_fix_phases`` rotates an
eigenbasis one column at a time, the reference for the one array expression
that fixes every column's phase.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

import weakvalues as wv
from weakvalues.cli import ProblemFileError, _Rows
from weakvalues.contextuality import _CYCLE_ROUNDING, FRAGMENT_LABELS
from weakvalues.core import REALITY_TOL, require_dims
from weakvalues.explore import (SEARCH_INITIAL_STEP, SEARCH_MIN_OVERLAP, SEARCH_MIN_STEP, SEARCH_RESTARTS,
                                SearchResult, _task_rng)
from weakvalues.invariants import FrameGraph
from weakvalues.quasiprob import anomalous_mask
from weakvalues.witness import DEFAULT_COHERENCE_TOL


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
                           classification=wv.classify(value, lo, hi, tol.anom))


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


def anomalous_indices(dist, anomaly_tol):
    """Indices whose quasi-probability leaves the real interval [0, 1]."""
    return tuple(np.flatnonzero(anomalous_mask(dist.weights, 0.0, 1.0, anomaly_tol)).tolist())


def is_marginal(value, lo, hi, anomaly_tol):
    """True when the verdict sits within 10x the tolerance of a decision boundary.

    Additive distance to the spectrum edges for the real part; for the imaginary
    part, within a factor of ten of the line |Im| = tol on either side.
    """
    band = 10.0 * anomaly_tol
    if anomaly_tol / 10.0 < abs(value.imag) < band:
        return True
    return abs(value.real - lo) < band or abs(value.real - hi) < band


def verdicts(dist, anomaly_tol):
    """(classification, marginal, anomalous_indices, marginal_indices, anomalous) of a record's values."""
    lo, hi = float(dist.labels[0]), float(dist.labels[-1])
    classification = wv.classify(dist.value, lo, hi, anomaly_tol)
    bad = anomalous_indices(dist, anomaly_tol)
    marginal = tuple(i for i, w in enumerate(dist.weights) if is_marginal(complex(w), 0.0, 1.0, anomaly_tol))
    return (classification, is_marginal(dist.value, lo, hi, anomaly_tol), bad, marginal,
            classification != wv.NORMAL or bool(bad))


def antipodal(psi):
    """Orthogonal qubit state, its largest-modulus component made real positive."""
    if psi.dim != 2:
        raise wv.NotQubitError(f"antipodal state is defined for dim 2, got dim {psi.dim}")
    perp = np.array([np.conj(psi.amps[1]), -np.conj(psi.amps[0])])
    pivot = perp[int(np.argmax(np.abs(perp)))]
    return wv.StateVector(perp * (np.abs(pivot) / pivot))


def _bloch(theta, azimuth):
    return np.array([np.cos(theta / 2.0), np.exp(1j * azimuth) * np.sin(theta / 2.0)])


def _pair_from_params(x):
    """Selection pair from four angles, the separation first (see ``_pairs_from_params``)."""
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
    """``search_max_negativity`` with each restart run to completion in turn.

    Same starts, shares, polls and strict-improvement rule as the stacked
    search, but one ``np.vdot`` evaluation per candidate.
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
    )


def pairwise_overlap(rho1, rho2):
    """Tr(rho1 rho2) as the two-state Bargmann product of one pair, imaginary parts refused."""
    value = wv.bargmann((rho1, rho2))
    if abs(value.imag) > REALITY_TOL:
        raise wv.ImaginaryOverlapError(f"two-state overlap has imaginary part {value.imag:.3e}")
    return value.real


def pairwise_frame_graph(labels, states):
    """Complete overlap graph over labeled states, filled one vertex pair at a time."""
    if len(labels) != len(states):
        raise wv.ValidationError(f"{len(labels)} labels for {len(states)} states")
    weights = np.full((len(states), len(states)), np.nan)
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            weights[i, j] = weights[j, i] = pairwise_overlap(states[i], states[j])
    return FrameGraph(labels=tuple(labels), weights=weights)


def pairwise_selection_graph(rho_phi, rho_psi, obs):
    """``build_frame_graph`` over explicit projector states, one pair at a time."""
    labels = ["phi", "psi"] + [f"a{i + 1}" for i in range(obs.dim)]
    states = [rho_phi, rho_psi] + [projector(obs, i) for i in range(obs.dim)]
    return pairwise_frame_graph(labels, states)


def pairwise_fragment_graph(rho_phi, rho_psi, obs):
    """``qubit_fragment_graph`` over explicit complement states, one pair at a time."""
    eye = np.eye(2, dtype=complex)
    states = [rho_phi, rho_psi, projector(obs, 0), projector(obs, 1),
              wv.DensityOperator(eye - rho_phi.matrix), wv.DensityOperator(eye - rho_psi.matrix)]
    return pairwise_frame_graph(FRAGMENT_LABELS, states)


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
    """A report with every array as nested lists and every row table as a list of row dicts."""
    kind = type(node)
    if kind is dict:
        return {key: as_lists(value) for key, value in node.items()}
    if kind is list:
        return [as_lists(value) for value in node]
    if kind is np.ndarray:
        return node.tolist()
    if kind is _Rows:
        columns = {key: column.tolist() for key, column in node.items()}
        return [dict(zip(columns, row)) for row in zip(*columns.values())]
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
