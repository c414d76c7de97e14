"""3-cycle overlap inequalities, the six-state qubit fragment, and the
anomaly-to-violation bridge."""

from itertools import combinations

import numpy as np
import pytest

import weakvalues as wv
from weakvalues.contextuality import (
    CycleTable,
    _cycle_index,
    all_three_cycles,
    anomaly_implies_violation,
    fragment_cycles,
    qubit_fragment_graph,
)
from weakvalues.invariants import FrameGraph, build_frame_graph

from conftest import random_mixed, random_pure
from oracles import (
    antipodal,
    fragment_states,
    looped_fragment_cycles,
    looped_three_cycles,
    overlap_rounding_bound,
    pairwise_fragment_graph,
    pairwise_frame_graph,
    pairwise_overlap,
    pairwise_selection_graph,
    selection_states,
)


def _graph_from_edges(labels, edges):
    weights = np.full((len(labels), len(labels)), np.nan)
    for (i, j), w in edges.items():
        weights[i, j] = weights[j, i] = w
    return FrameGraph(labels=tuple(labels), weights=weights)


def _rows(table):
    """The table as ``(triple, minus_edge, value, violated)`` tuples of labels and plain values."""
    names = np.array(table.labels, dtype=object)
    return [(tuple(triple), tuple(minus), value, bad)
            for triple, minus, value, bad in zip(names[table.triples].tolist(),
                                                 names[table.minus_edges].tolist(),
                                                 table.values.tolist(), table.violated.tolist())]


def _max_violation(graph):
    """Largest 3-cycle value minus 1; positive means the graph is contextual."""
    return float(all_three_cycles(graph).values.max()) - 1.0


def _pure_fragment(phi, psi, obs):
    """The six-vertex graph of a pure selection pair, with its six rays for overlap arithmetic."""
    graph = qubit_fragment_graph(wv.pure_to_density(phi), wv.pure_to_density(psi), obs)
    rays = [phi.amps, psi.amps, obs.basis_state(0).amps, obs.basis_state(1).amps,
            antipodal(phi).amps, antipodal(psi).amps]
    return graph, rays


def test_cycle_counts():
    g4 = _graph_from_edges("abcd", {(i, j): 0.5 for i in range(4) for j in range(i + 1, 4)})
    assert len(all_three_cycles(g4)) == 12  # C(4,3) triples x 3 minus slots
    g6 = _graph_from_edges("abcdef", {(i, j): 0.5 for i in range(6) for j in range(i + 1, 6)})
    assert len(all_three_cycles(g6)) == 60


def test_crafted_violation():
    g = _graph_from_edges("xyz", {(0, 1): 0.9, (0, 2): 0.9, (1, 2): 0.1})
    rows = _rows(all_three_cycles(g))
    values = {minus: value for _, minus, value, _ in rows}
    assert abs(values[("y", "z")] - 1.7) < 1e-14
    assert abs(values[("x", "z")] - 0.1) < 1e-14
    _, worst_minus, _, worst_violated = max(rows, key=lambda row: row[2])
    assert worst_violated and worst_minus == ("y", "z")
    assert abs(_max_violation(g) - 0.7) < 1e-14


def test_cycle_index_tables_are_read_only():
    # every table of a size shares the cached index arrays, so a write must not reach them
    rng = np.random.default_rng(63)
    edges = {(i, j): w for (i, j), w in zip(combinations(range(5), 2), rng.uniform(0.0, 1.0, size=10))}
    table = all_three_cycles(_graph_from_edges("abcde", edges))
    for column in (table.triples, table.minus_edges):
        with pytest.raises(ValueError, match="read-only"):
            column[0, 0] = 4
    assert not any(index.flags.writeable for index in _cycle_index(5))
    fresh = _graph_from_edges("vwxyz", edges)
    assert _rows(all_three_cycles(fresh)) == looped_three_cycles(fresh)


def test_great_circle_basic_graph(great_circle_densities, proj_zero):
    rho_psi, rho_phi = great_circle_densities
    graph = build_frame_graph(rho_phi, rho_psi, proj_zero)
    cycles = {(triple, minus): (value, bad) for triple, minus, value, bad in _rows(all_three_cycles(graph))}
    # phi and a1 nearly coincide while psi sits 120 degrees from phi:
    # r(phi,a1) + r(psi,a1) - r(phi,psi) = 3/4 + 3/4 - 1/4
    hot_value, hot_violated = cycles[(("phi", "psi", "a1"), ("phi", "psi"))]
    assert abs(hot_value - 1.25) < 1e-12
    assert hot_violated
    tame_value, tame_violated = cycles[(("phi", "psi", "a2"), ("phi", "psi"))]
    assert abs(tame_value - 0.25) < 1e-12
    assert not tame_violated
    assert abs(_max_violation(graph) - 0.25) < 1e-12


def test_fragment_great_circle_oracle(great_circle_pair, proj_zero):
    psi, phi = great_circle_pair
    graph, vecs = _pure_fragment(phi, psi, proj_zero)
    # independent oracle: raw Born overlaps of the six rays
    best = 0.0
    for i in range(6):
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                r_ij = abs(np.vdot(vecs[i], vecs[j])) ** 2
                r_ik = abs(np.vdot(vecs[i], vecs[k])) ** 2
                r_jk = abs(np.vdot(vecs[j], vecs[k])) ** 2
                best = max(best, r_ij + r_ik - r_jk, r_ij + r_jk - r_ik,
                           r_ik + r_jk - r_ij)
    assert abs(best - 1.25) < 1e-12
    assert abs((_max_violation(graph) + 1.0) - best) < 1e-12
    assert np.count_nonzero(all_three_cycles(graph).violated) == 6


def test_orthogonal_triple_never_violates():
    basis = wv.eigensystem(np.diag([0.0, 1.0, 2.0]))
    rhos = [wv.pure_to_density(basis.basis_state(i)) for i in range(3)]
    g = pairwise_frame_graph(("u", "v", "w"), rhos)
    assert _max_violation(g) <= 0.0


def test_diagonal_states_never_violate(proj_zero):
    rng = np.random.default_rng(60)
    for _ in range(100):
        p, q = rng.uniform(0.0, 1.0, size=2)
        rho_phi = wv.validate_density(np.diag([p, 1.0 - p]))
        rho_psi = wv.validate_density(np.diag([q, 1.0 - q]))
        graph = qubit_fragment_graph(rho_phi, rho_psi, proj_zero)
        assert _max_violation(graph) <= 1e-12


def test_basis_anchored_triples_stay_classical():
    # triples containing both basis vertices satisfy r1 + r2 <= 1 trivially
    rng = np.random.default_rng(61)
    obs = wv.eigensystem(np.diag([0.0, 1.0]))
    for _ in range(50):
        phi = wv.state_vector(random_pure(rng, 2))
        psi = wv.state_vector(random_pure(rng, 2))
        graph = build_frame_graph(wv.pure_to_density(phi), wv.pure_to_density(psi), obs)
        for triple, _, value, _ in _rows(all_three_cycles(graph)):
            if "a1" in triple and "a2" in triple:
                assert value <= 1.0 + 1e-12


def _random_hermitian(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return wv.eigensystem(h + h.conj().T)


def _assert_same_graph_and_cycles(graph, oracle, states):
    # bit for bit against the graph of one-pair overlaps, and within the
    # stated rounding bound of the Bargmann trace of each pair's product
    assert graph.labels == oracle.labels
    for i in range(graph.n_vertices):
        for j in range(graph.n_vertices):
            if i != j:
                assert graph.edge(i, j) == oracle.edge(i, j), (i, j)
                gap = abs(graph.edge(i, j) - pairwise_overlap(states[i], states[j]))
                assert gap <= overlap_rounding_bound(states[i].matrix, states[j].matrix), (i, j)
    assert graph.adjacency_text() == oracle.adjacency_text()
    for tol in (wv.DEFAULT_TOL.anom, 0.0):
        assert _rows(all_three_cycles(graph, tol)) == looped_three_cycles(oracle, tol)


@pytest.mark.parametrize("d", (2, 3, 5, 16, 24, 64))
def test_frame_graph_and_cycles_match_the_pairwise_oracle(d):
    # the overlap rows and the cycle index table give every edge and every
    # cycle value the bits of the pair-by-pair and triple-by-triple route
    rng = np.random.default_rng(1000 + d)
    rho_phi = wv.validate_density(random_mixed(rng, d))
    rho_psi = wv.pure_to_density(wv.state_vector(random_pure(rng, d)))
    obs = _random_hermitian(rng, d)
    _assert_same_graph_and_cycles(wv.build_frame_graph(rho_phi, rho_psi, obs),
                                  pairwise_selection_graph(rho_phi, rho_psi, obs),
                                  selection_states(rho_phi, rho_psi, obs))


def test_fragment_matches_the_pairwise_oracle():
    rng = np.random.default_rng(1064)
    for _ in range(40):
        pure_phi = wv.pure_to_density(wv.state_vector(random_pure(rng, 2)))
        pure_psi = wv.pure_to_density(wv.state_vector(random_pure(rng, 2)))
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        real_phi = wv.pure_to_density(wv.state_vector([np.cos(t1), np.sin(t1)]))
        real_psi = wv.pure_to_density(wv.state_vector([np.cos(t2), np.sin(t2)]))
        mixed_phi = wv.validate_density(random_mixed(rng, 2))
        mixed_psi = wv.validate_density(random_mixed(rng, 2))
        obs = _random_hermitian(rng, 2)
        for rho_phi, rho_psi in ((pure_phi, pure_psi), (real_phi, real_psi),
                                 (mixed_phi, mixed_psi), (pure_phi, mixed_psi)):
            oracle = pairwise_fragment_graph(rho_phi, rho_psi, obs)
            _assert_same_graph_and_cycles(qubit_fragment_graph(rho_phi, rho_psi, obs), oracle,
                                          fragment_states(rho_phi, rho_psi, obs))
            assert (_rows(fragment_cycles(rho_phi, rho_psi, obs, wv.DEFAULT_TOL)[1])
                    == looped_fragment_cycles(oracle, rho_phi, rho_psi))


def test_build_fragment_shape(great_circle_pair, proj_zero):
    # on pure states the complement vertices 1 - rho are the antipodal rays,
    # so every edge is the Born overlap of two of the six rays
    psi, phi = great_circle_pair
    graph, rays = _pure_fragment(phi, psi, proj_zero)
    assert graph.labels == ("phi", "psi", "a1", "a2", "phi_perp", "psi_perp")
    assert graph.n_vertices == 6
    for i in range(6):
        for j in range(i + 1, 6):
            assert abs(graph.edge(i, j) - abs(np.vdot(rays[i], rays[j])) ** 2) < 1e-12
    # antipodal states really are orthogonal to their seeds
    assert graph.edge(0, 4) < 1e-12
    assert graph.edge(1, 5) < 1e-12


def test_build_fragment_flags_duplicates(proj_zero):
    # rays that collapse onto each other show up as unit-overlap edges
    phi = proj_zero.basis_state(0)
    psi = proj_zero.basis_state(1)
    graph, _ = _pure_fragment(phi, psi, proj_zero)
    duplicates = {(graph.labels[i], graph.labels[j])
                  for i in range(6) for j in range(i + 1, 6) if graph.edge(i, j) > 1.0 - 1e-9}
    assert ("phi", "a1") in duplicates
    assert ("psi", "a2") in duplicates
    # each perp collapses onto the opposite pole as well
    assert ("a2", "phi_perp") in duplicates or ("psi", "phi_perp") in duplicates


def test_build_fragment_rejects_qutrits():
    obs3 = wv.eigensystem(np.diag([0.0, 1.0, 2.0]))
    rho = wv.pure_to_density(obs3.basis_state(0))
    with pytest.raises(wv.ValidationError, match="fragment graph needs qubits, got dims 3/3/3"):
        qubit_fragment_graph(rho, rho, obs3)


def test_mixed_fragment_uses_complement(proj_zero):
    rho = wv.validate_density(np.array([[0.7, 0.2], [0.2, 0.3]]))
    graph = qubit_fragment_graph(rho, rho, proj_zero)
    # phi and phi_perp: Tr(rho (I - rho)) = Tr(rho) - Tr(rho^2)
    expected = 1.0 - float(np.trace(rho.matrix @ rho.matrix).real)
    assert abs(graph.edge(0, 4) - expected) < 1e-12  # phi, phi_perp


def test_anomaly_bridge_great_circle(great_circle_densities, proj_zero):
    rho_psi, rho_phi = great_circle_densities
    dist, violated = anomaly_implies_violation(rho_phi, rho_psi, proj_zero)
    assert dist.anomalous_indices != ()
    assert len(violated) == 6
    assert isinstance(violated, CycleTable) and violated.violated.all()
    assert abs(violated.values.max() - 1.25) < 1e-12


def test_anomaly_bridge_identical_selections(proj_zero):
    rho = wv.pure_to_density(wv.state_vector([np.sqrt(0.3), np.sqrt(0.7)]))
    dist, violated = anomaly_implies_violation(rho, rho, proj_zero)
    assert dist.anomalous_indices == ()
    assert len(violated) == 0


def test_anomaly_bridge_rejects_complex_amplitudes(proj_zero):
    rho = wv.pure_to_density(wv.state_vector([1.0, 1.0j] / np.sqrt(2)))
    real = wv.pure_to_density(wv.state_vector([0.6, 0.8]))
    with pytest.raises(wv.ValidationError, match="post-selection state has imaginary entries up to 5.000e-01"):
        anomaly_implies_violation(rho, real, proj_zero)
    with pytest.raises(wv.ValidationError, match="pre-selection state has imaginary entries up to 5.000e-01"):
        anomaly_implies_violation(real, rho, proj_zero)


def test_every_real_anomaly_certifies(proj_zero):
    rng = np.random.default_rng(62)
    found = 0
    while found < 200:
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        psi = wv.state_vector([np.cos(t1), np.sin(t1)])
        phi = wv.state_vector([np.cos(t2), np.sin(t2)])
        if abs(np.vdot(phi.amps, psi.amps)) ** 2 < 1e-6:
            continue
        rho_psi, rho_phi = wv.pure_to_density(psi), wv.pure_to_density(phi)
        dist, violated = anomaly_implies_violation(rho_phi, rho_psi, proj_zero)
        if dist.anomalous_indices == ():
            continue
        found += 1
        assert len(violated) >= 1
    assert found == 200


def test_a_small_anomaly_at_low_overlap_still_certifies():
    """g_0 = -2e-9 at Tr(rho_phi rho_psi) = 0.2 lifts the largest cycle by only 2 * 0.2 * 2e-9."""
    angle = 1e-9
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    obs = wv.eigensystem((rotation * np.array([0.0, 1.0])) @ rotation.T)
    rho_phi = wv.validate_density([[0.0, 0.0], [0.0, 1.0]])
    rho_psi = wv.validate_density([[0.8, -0.4], [-0.4, 0.2]])
    dist, violated = anomaly_implies_violation(rho_phi, rho_psi, obs)
    assert abs(dist.weights[0] + 2e-9) < 1e-15
    assert dist.anomalous_indices == (0, 1)
    assert violated
    assert abs(violated.values.max() - (1.0 + 8e-10)) < 1e-15


def test_an_anomaly_at_the_edge_of_the_band_still_certifies(proj_one):
    """g_1 = -1e-9 - 1e-18 passes the band by less than the rounding of a cycle value."""
    rho_phi = wv.validate_density([[0.5, 0.5], [0.5, 0.5]])
    rho_psi = wv.DensityOperator(np.outer([1.0, -1e-9], [1.0, -1e-9]).astype(complex))
    dist, violated = anomaly_implies_violation(rho_phi, rho_psi, proj_one)
    assert dist.anomalous_indices == (1,)
    assert violated


def test_orthogonal_real_pairs_show_no_rounding_violation():
    # Tr(rho_phi rho_psi) = 0 makes 2 Tr anom vanish, while the cycle values carry rounding.
    rng = np.random.default_rng(3)
    for t, a in rng.uniform(0.0, np.pi, size=(50, 2)):
        rotation = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        obs = wv.eigensystem((rotation * np.array([0.0, 1.0])) @ rotation.T)
        rho_phi = wv.pure_to_density(wv.state_vector([np.cos(t), np.sin(t)]))
        rho_psi = wv.pure_to_density(wv.state_vector([-np.sin(t), np.cos(t)]))
        _, cycles = fragment_cycles(rho_phi, rho_psi, obs, wv.DEFAULT_TOL)
        assert not cycles.violated.any()


@pytest.mark.parametrize("pre_state, post_state, observable", [
    # a pre-selection norm 2e-11 above 1
    ([1.00000000001, 0.0], [0.001, 0.9999995], [[0.0, 0.0], [0.0, 1.0]]),
    # amplitudes written to ten digits, an overlap of 1%
    ([0.7071067812, 0.7071067812], [0.7741670785, -0.6329813067], [[0.5, 0.5], [0.5, 0.5]]),
], ids=["norm", "ten-digits"])
def test_an_accepted_input_defect_violates_no_fragment_cycle(pre_state, post_state, observable):
    """Validation accepts these defects; g sits on [0, 1] and no cycle may be flagged."""
    rho_phi, rho_psi = (wv.pure_to_density(wv.state_vector(amps)) for amps in (post_state, pre_state))
    obs = wv.eigensystem(observable)
    dist, violated = anomaly_implies_violation(rho_phi, rho_psi, obs)
    assert not dist.anomalous_indices
    assert fragment_cycles(rho_phi, rho_psi, obs, wv.DEFAULT_TOL)[1].values.max() > 1.0 + 1e-11
    assert len(violated) == 0
