"""Second routes to quantities the package computes one way, kept as test oracles.

``incoherent_quasi_prob`` is the factorized distribution the coherence
theorem predicts for incoherent selections (criterion 4),
``corollary_projector_weak_value`` is the three-operator trace ratio of an
eigenprojector (criterion 6), and ``antipodal`` builds the orthogonal qubit
ray for direct overlap arithmetic on the six-state fragment (criterion 7).
None of them goes through the quasi-probability kernel. ``scalar_search``
is the negativity search walked one restart and one candidate at a time,
the reference for the lockstep stacked search. ``pairwise_frame_graph`` and
``looped_three_cycles`` fill the overlap graph one vertex pair at a time
and evaluate its cycles one triple at a time, the reference for the
stacked overlap rows and the cycle index table. ``nodewise_matrix`` and
``nodewise_state`` read a problem file's matrices and states one node at a
time, probing each state as a grid and as a vector, the reference for the
reader that classifies each entry once.
"""

from itertools import combinations

import numpy as np

import weakvalues as wv
from weakvalues.cli import ProblemFileError
from weakvalues.contextuality import FRAGMENT_LABELS, CycleInequality
from weakvalues.explore import (SEARCH_INITIAL_STEP, SEARCH_MIN_OVERLAP, SEARCH_MIN_STEP, SEARCH_RESTARTS,
                                SearchResult, _task_rng)
from weakvalues.invariants import FrameGraph
from weakvalues.quasiprob import selection_overlap
from weakvalues.witness import DEFAULT_COHERENCE_TOL


class NotIncoherentError(wv.ValidationError):
    pass


def incoherent_quasi_prob(rho_phi, rho_psi, obs, tol=wv.DEFAULT_TOL):
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
    den = selection_overlap(rho_phi, rho_psi, tol)
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
    den = selection_overlap(rho_phi, rho_psi, tol)
    proj = obs.projector(i)
    value = complex(np.trace(rho_phi.matrix @ proj.matrix @ rho_psi.matrix)) / den
    return wv.WeakValueResult(value=value, denominator=den, spectrum_lo=0.0, spectrum_hi=1.0,
                              classification=wv.classify(value, 0.0, 1.0, tol.anom))


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


def _evaluator_factory(matrix):
    """Box-clamped objective for one candidate: pin the separation, score -Re(A_w)."""
    max_separation = 2.0 * np.arccos(np.sqrt(SEARCH_MIN_OVERLAP))

    def evaluate(x):
        clamped = min(max(x[0], 0.0), max_separation)
        if clamped != x[0]:
            x = np.array([clamped, x[1], x[2], x[3]])
        phi, psi = _pair_from_params(x)
        inner = np.vdot(phi, psi)
        value = -float((np.vdot(phi, matrix @ psi) / inner).real)
        return x, value

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
        evaluations=sum(used for _, _, used in outcomes),
    )


def pairwise_overlap(rho1, rho2, tol=wv.DEFAULT_TOL):
    """Tr(rho1 rho2) as the two-state Bargmann product of one pair, imaginary parts refused."""
    value = wv.bargmann((rho1, rho2))
    if abs(value.imag) > tol.eig:
        raise wv.ImaginaryOverlapError(f"two-state overlap has imaginary part {value.imag:.3e}")
    return value.real


def pairwise_frame_graph(labels, states, tol=wv.DEFAULT_TOL):
    """Complete overlap graph over labeled states, filled one vertex pair at a time."""
    if len(labels) != len(states):
        raise wv.ValidationError(f"{len(labels)} labels for {len(states)} states")
    weights = np.full((len(states), len(states)), np.nan)
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            weights[i, j] = weights[j, i] = pairwise_overlap(states[i], states[j], tol)
    return FrameGraph(labels=tuple(labels), weights=weights)


def pairwise_selection_graph(rho_phi, rho_psi, obs, tol=wv.DEFAULT_TOL):
    """``build_frame_graph`` over explicit projector states, one pair at a time."""
    labels = ["phi", "psi"] + [f"a{i + 1}" for i in range(obs.dim)]
    states = [rho_phi, rho_psi] + [obs.projector(i) for i in range(obs.dim)]
    return pairwise_frame_graph(labels, states, tol)


def pairwise_fragment_graph(rho_phi, rho_psi, obs, tol=wv.DEFAULT_TOL):
    """``qubit_fragment_graph`` over explicit complement states, one pair at a time."""
    eye = np.eye(2, dtype=complex)
    states = [rho_phi, rho_psi, obs.projector(0), obs.projector(1),
              wv.DensityOperator(eye - rho_phi.matrix), wv.DensityOperator(eye - rho_psi.matrix)]
    return pairwise_frame_graph(FRAGMENT_LABELS, states, tol)


def looped_three_cycles(graph, anomaly_tol=wv.DEFAULT_TOL.anom):
    """``all_three_cycles`` evaluated one triple and one edge lookup at a time."""
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


def nodewise_state(node, where, dim, tol=wv.DEFAULT_TOL):
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
        return wv.pure_to_density(wv.state_vector(amps, tol))

    if grid_like:
        matrix = nodewise_matrix(node, where)
        try:
            return wv.validate_density(matrix, tol)
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
        return wv.validate_density(matrix, tol)
    except wv.ValidationError as exc:
        raise ProblemFileError(where, str(exc)) from exc
