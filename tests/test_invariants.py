"""Multi-state trace products and the two-state overlap graph."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import weakvalues as wv
from weakvalues.core import ComputationError, DensityOperator, ValidationError
from weakvalues.contextuality import qubit_fragment_graph
from weakvalues.invariants import _frame_vertices, overlap_stack
from weakvalues.quasiprob import quasi_prob_stack

from conftest import random_mixed, random_pure
from oracles import overlap_rounding_bound, pairwise_frame_graph, pairwise_overlap


def _pure(rng, d):
    return wv.pure_to_density(wv.state_vector(random_pure(rng, d)))


def test_pair_invariant_equals_overlap():
    r0 = wv.pure_to_density(wv.state_vector([1.0, 0.0]))
    plus = wv.pure_to_density(wv.state_vector([1.0, 1.0] / np.sqrt(2)))
    assert abs(wv.bargmann((r0, plus)) - 0.5) < 1e-15
    assert abs(wv.overlap(r0, plus) - 0.5) < 1e-15
    assert abs(wv.overlap(r0, wv.validate_density(np.eye(2) / 2)) - 0.5) < 1e-15


def test_overlap_edge_cases():
    r0 = wv.pure_to_density(wv.state_vector([1.0, 0.0]))
    r1 = wv.pure_to_density(wv.state_vector([0.0, 1.0]))
    assert wv.overlap(r0, r1) == 0.0
    assert abs(wv.overlap(r0, r0) - 1.0) < 1e-15


def test_third_order_invariant_great_circle(great_circle_densities, proj_zero):
    rho_psi, rho_phi = great_circle_densities
    basis = wv.pure_to_density(proj_zero.basis_state(1))  # the |0> vertex
    val = wv.bargmann((rho_phi, basis, rho_psi))
    assert abs(val - (-0.125)) < 1e-12
    assert abs(wv.overlap(rho_phi, rho_psi) - 0.25) < 1e-12


def test_bargmann_cyclic_invariance():
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        states = [wv.validate_density(random_mixed(rng, d)) for _ in range(n)]
        base = wv.bargmann(states)
        for shift in range(1, n):
            rolled = states[shift:] + states[:shift]
            assert abs(wv.bargmann(rolled) - base) < 1e-12


def test_bargmann_reversal_conjugates():
    rng = np.random.default_rng(22)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 6))
        states = [wv.validate_density(random_mixed(rng, d)) for _ in range(n)]
        assert abs(wv.bargmann(states[::-1]) - np.conj(wv.bargmann(states))) < 1e-12


def test_bargmann_magnitude_bounded():
    # |trace product| stays inside 1 + tol for tuples of valid states, n <= 5
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        states = []
        for _ in range(n):
            if rng.uniform() < 0.5:
                states.append(_pure(rng, d))
            else:
                states.append(wv.validate_density(random_mixed(rng, d)))
        assert abs(wv.bargmann(states)) <= 1.0 + 1e-9


def test_bargmann_needs_two_states_and_matching_dims():
    rng = np.random.default_rng(24)
    one = wv.validate_density(random_mixed(rng, 2))
    other = wv.validate_density(random_mixed(rng, 3))
    with pytest.raises(wv.ValidationError):
        wv.bargmann((one,))
    with pytest.raises(ValidationError, match="dimension mismatch: dim 3 against dim 2"):
        wv.bargmann((one, other))


def test_ordering_matters_for_three_noncommuting_states():
    rng = np.random.default_rng(25)
    a, b, c = (_pure(rng, 2) for _ in range(3))
    forward = wv.bargmann((a, b, c))
    swapped = wv.bargmann((a, c, b))
    assert abs(forward - swapped) > 1e-6  # generic configurations differ


def test_overlap_coerces_real_and_rejects_garbage():
    rng = np.random.default_rng(26)
    r1 = wv.validate_density(random_mixed(rng, 3))
    r2 = wv.validate_density(random_mixed(rng, 3))
    val = wv.overlap(r1, r2)
    assert isinstance(val, float)
    assert abs(val - np.trace(r1.matrix @ r2.matrix).real) < 1e-14

    # a non-Hermitian matrix smuggled around validation produces a complex
    # trace, which overlap refuses to coerce
    bad = DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ComputationError, match="two-state overlap has imaginary part -5.000e-02"):
        wv.overlap(bad, DensityOperator(np.array([[0.7, 0.2j], [-0.1j, 0.3]])))


def test_pure_overlap_matches_amplitude_product():
    rng = np.random.default_rng(27)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        u = random_pure(rng, d)
        w = random_pure(rng, d)
        lib = wv.overlap(wv.pure_to_density(wv.state_vector(u)),
                         wv.pure_to_density(wv.state_vector(w)))
        assert abs(lib - abs(np.vdot(u, w)) ** 2) < 1e-13


def test_frame_graph_great_circle(great_circle_densities, proj_zero):
    rho_psi, rho_phi = great_circle_densities
    graph = wv.build_frame_graph(rho_phi, rho_psi, proj_zero)
    assert graph.labels == ("phi", "psi", "a1", "a2")
    assert graph.n_vertices == 4
    # a2 is the eigenvalue-1 vector |0>; every 120-degree pair overlaps at 1/4
    phi, psi, a1, a2 = range(4)
    assert abs(graph.edge(phi, psi) - 0.25) < 1e-12
    assert abs(graph.edge(phi, a2) - 0.25) < 1e-12
    assert abs(graph.edge(psi, a2) - 0.25) < 1e-12
    assert abs(graph.edge(phi, a1) - 0.75) < 1e-12
    assert graph.edge(a1, a2) < 1e-12


def test_frame_graph_collapsed_and_mixed_cases(proj_zero):
    a1 = wv.pure_to_density(proj_zero.basis_state(0))
    graph = wv.build_frame_graph(a1, a1, proj_zero)
    assert abs(graph.edge(0, 2) - 1.0) < 1e-12  # phi, a1
    assert graph.edge(0, 3) < 1e-12  # phi, a2

    mm = wv.validate_density(np.eye(2) / 2)
    graph2 = wv.build_frame_graph(mm, mm, proj_zero)
    for state in (0, 1):  # phi, psi
        for basis in (2, 3):  # a1, a2
            assert abs(graph2.edge(state, basis) - 0.5) < 1e-12


def test_frame_graph_edges_in_range():
    rng = np.random.default_rng(28)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        graph = wv.build_frame_graph(wv.validate_density(random_mixed(rng, d)),
                                     wv.validate_density(random_mixed(rng, d)), obs)
        for i in range(graph.n_vertices):
            for j in range(i + 1, graph.n_vertices):
                assert -1e-12 <= graph.edge(i, j) <= 1.0 + 1e-9
        # basis-basis edges vanish
        for i in range(d):
            for j in range(i + 1, d):
                assert graph.edge(2 + i, 2 + j) < 1e-9


def test_edge_lookup_is_symmetric_and_checked():
    rng = np.random.default_rng(29)
    states = [wv.validate_density(random_mixed(rng, 2)) for _ in range(3)]
    graph = pairwise_frame_graph(("x", "y", "z"), states)
    assert graph.edge(0, 2) == graph.edge(2, 0)
    assert graph.edge(1, 0) == graph.edge(0, 1)
    with pytest.raises(KeyError):
        graph.edge(0, 3)
    # an array index would wrap these round to the last vertex
    with pytest.raises(KeyError):
        graph.edge(-1, 0)
    with pytest.raises(KeyError):
        graph.edge(0, -1)
    with pytest.raises(wv.ValidationError):
        graph.edge(1, 1)


def test_adjacency_text_stable():
    rng = np.random.default_rng(30)
    states = [wv.validate_density(random_mixed(rng, 2)) for _ in range(3)]
    graph = pairwise_frame_graph(("u", "v", "w"), states)
    lines = graph.adjacency_text()
    assert len(lines) == 3
    assert lines == graph.adjacency_text()  # deterministic
    first = lines[0].split()
    assert first[0] == "u" and first[1] == "v"
    float(first[2])  # numeric payload parses


def _assert_one_pair_rows(stacked, pairs):
    # each row has the bits of the one-pair call and lies within the stated
    # rounding bound of the Bargmann trace of the pair's product
    for value, (a, b) in zip(stacked, pairs, strict=True):
        rho_a, rho_b = DensityOperator(a), DensityOperator(b)
        assert value == wv.overlap(rho_a, rho_b)
        assert abs(value - pairwise_overlap(rho_a, rho_b)) <= overlap_rounding_bound(a, b)


def test_overlap_is_the_one_pair_case_of_the_stack():
    rng = np.random.default_rng(31)
    for d in (2, 3, 5, 8, 16, 33):
        a = np.stack([random_mixed(rng, d) for _ in range(4)])
        b = np.stack([random_mixed(rng, d) for _ in range(4)])
        _assert_one_pair_rows(overlap_stack(a, b), zip(a, b))
        _assert_one_pair_rows(overlap_stack(a[0], b), ((a[0], m) for m in b))


@st.composite
def overlap_stacks(draw):
    """Two (n, d, d) stacks and one (d, d) matrix of complex pure and mixed states, d = 2..64."""
    d = draw(st.integers(2, 64))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.booleans(), min_size=2 * n + 1, max_size=2 * n + 1))
    states = np.stack([_pure(rng, d).matrix if pure else random_mixed(rng, d) for pure in kinds])
    return states[:n], states[n:2 * n], states[2 * n]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(overlap_stacks())
def test_every_stack_row_is_the_one_pair_overlap(case):
    a, b, single = case
    _assert_one_pair_rows(overlap_stack(a, b), zip(a, b))
    _assert_one_pair_rows(overlap_stack(single, b), ((single, m) for m in b))
    _assert_one_pair_rows(overlap_stack(a, single), ((m, single) for m in a))


def test_imaginary_overlaps_are_refused_alike_on_every_route(proj_zero):
    # a non-Hermitian matrix smuggled around validation: the overlap, both
    # graphs and the quasi-probability kernel refuse it with one message
    bad = DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    other = DensityOperator(np.array([[0.7, 0.2j], [-0.1j, 0.3]]))
    with pytest.raises(ComputationError, match="two-state overlap has imaginary part") as expected:
        pairwise_overlap(bad, other)
    routes = (
        lambda: wv.overlap(bad, other),
        lambda: wv.build_frame_graph(bad, other, proj_zero),
        lambda: qubit_fragment_graph(bad, other, proj_zero),
        lambda: quasi_prob_stack(bad.matrix[None], other.matrix[None], proj_zero),
        lambda: overlap_stack(np.stack([other.matrix, bad.matrix]), np.stack([other.matrix, other.matrix])),
        lambda: overlap_stack(bad.matrix, other.matrix),  # two single (d, d) operands: a 0-d trace
    )
    for route in routes:
        with pytest.raises(ComputationError) as got:
            route()
        assert str(got.value) == str(expected.value)


def test_frame_vertices_hold_the_eigenprojectors_of_the_basis_states():
    obs = wv.eigensystem(np.diag([0.0, 1.0, 2.0]))
    rho = wv.validate_density(np.eye(3) / 3.0)
    vertices = _frame_vertices(rho, rho, obs)
    assert vertices.shape == (5, 3, 3)
    for i in range(3):
        b = obs.basis_state(i).amps
        assert np.array_equal(vertices[2 + i], np.outer(b, b.conj()))
