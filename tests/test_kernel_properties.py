"""Properties of the stacked quasi-probability kernel over generated inputs.

Each example is a stack of n selection pairs of dimension d = 2..8, mixed
states G G^dagger / Tr built from generated entries, and a non-degenerate
observable with a generated spectrum in a generated eigenbasis. The verdict
property judges one such pair, its values pushed next to the decision lines.
The phase property draws pure pairs in the same way. The last two properties draw real
qubit pairs instead and check the contextuality certificate that the paper
attaches to every real-qubit anomaly.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import weakvalues as wv
from weakvalues.contextuality import anomaly_implies_violation, fragment_cycles
from weakvalues.quasiprob import anomalous_mask, quasi_prob_stack

from oracles import verdicts

entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


def _states(raw: np.ndarray) -> np.ndarray:
    """(n, d, d) density matrices from an (n, 2, d, d) array of real entries."""
    g = raw[:, 0] + 1j * raw[:, 1]
    rho = g @ g.conj().transpose(0, 2, 1)
    trace = np.trace(rho, axis1=1, axis2=2).real
    assume(np.all(trace > 1e-3))
    return rho / trace[:, None, None]


def _observable(draw, d: int) -> wv.Observable:
    basis = draw(hnp.arrays(np.float64, (2, d, d), elements=entries))
    q, r = np.linalg.qr(basis[0] + 1j * basis[1] + 3.0 * np.eye(d))
    assume(np.min(np.abs(np.diag(r))) > 1e-3)
    gaps = draw(hnp.arrays(np.float64, d, elements=st.floats(0.1, 2.0)))
    spectrum = np.cumsum(gaps) - draw(st.floats(-3.0, 3.0))
    return wv.eigensystem((q * spectrum) @ q.conj().T)


@st.composite
def selection_stacks(draw):
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 4))
    phi = _states(draw(hnp.arrays(np.float64, (n, 2, d, d), elements=entries)))
    psi = _states(draw(hnp.arrays(np.float64, (n, 2, d, d), elements=entries)))
    return phi, psi, _observable(draw, d)


@st.composite
def pure_selections(draw):
    """Unit vectors psi, phi with |<phi|psi>|^2 > 1e-2, an observable, and two phases."""
    d = draw(st.integers(2, 8))
    raw = draw(hnp.arrays(np.float64, (2, 2, d), elements=entries))
    vectors = raw[:, 0] + 1j * raw[:, 1]
    norms = np.linalg.norm(vectors, axis=1)
    assume(np.all(norms > 1e-3))
    psi, phi = vectors / norms[:, None]
    # g carries rounding of order eps / |<phi|psi>|^2 on either side of the comparison
    assume(abs(np.vdot(phi, psi)) ** 2 > 1e-2)
    phases = np.exp(1j * np.array(draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=2, max_size=2))))
    return psi, phi, _observable(draw, d), phases


def _selected(den: np.ndarray) -> np.ndarray:
    # Well away from the 1e-12 selection threshold, where g carries 1/den rounding.
    return den > 1e-6


@PROPERTY_SETTINGS
@given(selection_stacks())
def test_weights_sum_to_one(case):
    phi, psi, obs = case
    den, g = quasi_prob_stack(phi, psi, obs)
    g = g[_selected(den)]
    assert np.all(np.abs(g.sum(axis=1) - 1.0) <= 1e-12 * np.abs(g).sum(axis=1))


_TINY = -1.35e-163 * (1 - 1j)
_PLUS = np.full((1, 2, 2), 0.5, dtype=complex)
_ZERO = np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex)


@PROPERTY_SETTINGS
@given(selection_stacks())
# g = (1, 0) against a = (0, 1): every term g_i a_i is 0, while the trace ratio is conj(c) ~ 1.9e-163
@example((_PLUS, _ZERO, wv.eigensystem(np.array([[0.0, _TINY], [np.conj(_TINY), 1.0]]))))
def test_weighted_eigenvalues_give_the_trace_ratio(case):
    phi, psi, obs = case
    den, g = quasi_prob_stack(phi, psi, obs)
    a = obs.eigenvalues
    for k in np.flatnonzero(_selected(den)):
        direct = np.trace(phi[k] @ obs.matrix @ psi[k]) / np.trace(phi[k] @ psi[k])
        # rounding in either route scales with the terms and with eps ||A||
        scale = np.abs(g[k] * a).sum() + np.abs(a).max()
        assert abs((g[k] * a).sum() - direct) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(selection_stacks())
def test_swapping_the_selection_conjugates_the_weights(case):
    phi, psi, obs = case
    den, g = quasi_prob_stack(phi, psi, obs)
    _, swapped = quasi_prob_stack(psi, phi, obs)
    keep = _selected(den)
    g, swapped = g[keep], swapped[keep]
    assert np.all(np.abs(g - swapped.conj()) <= 1e-12 * np.abs(g).max(axis=1, keepdims=True))


@PROPERTY_SETTINGS
@given(selection_stacks())
def test_a_dephased_pre_selection_gives_no_anomalous_weight(case):
    phi, psi, obs = case
    dephased = np.stack([wv.dephase(wv.DensityOperator(m), obs).matrix for m in psi])
    den, g = quasi_prob_stack(phi, dephased, obs)
    assert not np.any(anomalous_mask(g[_selected(den)], 0.0, 1.0, wv.DEFAULT_TOL.anom))


# signed distances from a decision line, in units of the band: anom/10, anom and 10 anom
_OFFSETS = st.sampled_from((-10.0, -1.0, -0.1, 0.1, 1.0, 10.0))


@st.composite
def judged_records(draw):
    """The kernel record of one generated pair, judged at a band from 1e-12 to 1e-3, and the same
    record with each part of each g_i and of A_w left alone or pushed next to a decision line.

    The g_i may first be clipped into [0, 1], so that an A_w verdict also meets g_i that are
    all normal."""
    d = draw(st.integers(2, 8))
    phi, psi = map(wv.DensityOperator, _states(draw(hnp.arrays(np.float64, (2, 2, d, d), elements=entries))))
    obs = _observable(draw, d)
    anom = 10.0 ** draw(st.floats(-12.0, -3.0))
    assume(np.trace(phi.matrix @ psi.matrix).real > 1e-6)
    dist = wv.quasi_prob(phi, psi, obs, wv.Tolerances(anom=anom))

    def push(z, lo, hi):
        line = draw(st.sampled_from((None, lo, hi)))
        re = z.real if line is None else line + draw(_OFFSETS) * anom
        im = z.imag if draw(st.booleans()) else draw(_OFFSETS) * anom
        return complex(re, im)

    weights = dist.weights.real.clip(0.0, 1.0) if draw(st.booleans()) else dist.weights
    weights = np.array([push(complex(w), 0.0, 1.0) for w in weights])
    return dist, replace(dist, weights=weights, value=push(dist.value, dist.spectrum_lo, dist.spectrum_hi))


@PROPERTY_SETTINGS
@given(judged_records())
def test_the_record_verdicts_are_the_free_function_rules(records):
    for dist in records:
        assert (dist.classification, dist.marginal, dist.anomalous_indices, dist.marginal_indices,
                dist.anomalous) == verdicts(dist, dist.tol.anom)


@PROPERTY_SETTINGS
@given(pure_selections())
def test_selection_phases_change_neither_g_nor_the_weak_value(case):
    psi, phi, obs, (pre_phase, post_phase) = case

    def g_and_weak_value(psi, phi):
        pre, post = wv.StateVector(psi), wv.StateVector(phi)
        dist = wv.quasi_prob(wv.pure_to_density(post), wv.pure_to_density(pre), obs)
        return dist.weights, wv.weak_value_pure(obs, pre, post).value

    g, aw = g_and_weak_value(psi, phi)
    g_phased, aw_phased = g_and_weak_value(pre_phase * psi, post_phase * phi)
    assert np.all(np.abs(g_phased - g) <= 1e-12 * np.abs(g).sum())
    assert abs(aw_phased - aw) <= 1e-12 * np.abs(g * obs.eigenvalues).sum()


@st.composite
def real_qubit_density(draw):
    """A real qubit state: v v^T / |v|^2 when pure, G G^T / Tr(G G^T) when mixed."""
    if draw(st.booleans()):
        v = draw(hnp.arrays(np.float64, 2, elements=entries))
        m = np.outer(v, v)
    else:
        g = draw(hnp.arrays(np.float64, (2, 2), elements=entries))
        m = g @ g.T
    trace = np.trace(m)
    assume(trace > 1e-3)
    return wv.DensityOperator((m / trace).astype(complex))


@st.composite
def real_qubit_observables(draw):
    angle = draw(st.floats(0.0, np.pi))
    low = draw(st.floats(-3.0, 3.0))
    spectrum = np.array([low, low + draw(st.floats(0.1, 3.0))])
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return wv.eigensystem((rotation * spectrum) @ rotation.T)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(real_qubit_density(), real_qubit_density(), real_qubit_observables())
def test_a_real_qubit_anomaly_gives_a_violated_cycle(rho_phi, rho_psi, obs):
    assume(np.trace(rho_phi.matrix @ rho_psi.matrix).real > 1e-6)
    dist, violated = anomaly_implies_violation(rho_phi, rho_psi, obs)
    if dist.anomalous_indices:
        assert violated


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(real_qubit_density(), real_qubit_density(), real_qubit_observables())
def test_the_fragment_excess_is_twice_the_overlap_times_the_anomaly_margin(rho_phi, rho_psi, obs):
    assume(np.trace(rho_phi.matrix @ rho_psi.matrix).real > 1e-6)
    dist = wv.quasi_prob(rho_phi, rho_psi, obs)
    if dist.anomalous_indices:
        g = dist.weights.real
        margin = max(-g.min(), g.max() - 1.0)
        graph, cycles = fragment_cycles(rho_phi, rho_psi, obs, wv.DEFAULT_TOL)
        excess = cycles.values.max() - 1.0
        assert abs(excess - 2.0 * graph.edge(0, 1) * margin) <= 1e-12
