"""Coherence witnessing, and the factorized and projector oracles it is checked against."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weakvalues as wv
from weakvalues import witness
from weakvalues.core import DEFAULT_COHERENCE_TOL
from weakvalues.witness import CONSISTENT, VIOLATED, WitnessReport, check_theorem_coherence

from conftest import random_mixed, random_pure
from oracles import NotIncoherentError, corollary_projector_weak_value, incoherent_quasi_prob


def test_factorized_hand_case(proj_one):
    rho_phi = wv.validate_density(np.diag([0.75, 0.25]))
    rho_psi = wv.validate_density(np.diag([0.75, 0.25]))
    g = incoherent_quasi_prob(rho_phi, rho_psi, proj_one)
    # populations (3/4, 1/4) each, overlap 9/16 + 1/16 = 5/8
    assert np.max(np.abs(g - np.array([0.9, 0.1]))) < 1e-14
    assert abs(np.sum(g) - 1.0) < 1e-14
    assert np.all(g >= 0.0)


def test_factorized_maximally_mixed(proj_zero):
    mm = wv.validate_density(np.eye(2) / 2)
    g = incoherent_quasi_prob(mm, mm, proj_zero)
    assert np.max(np.abs(g - 0.5)) < 1e-14


def test_factorized_concentrates_on_shared_support(proj_zero):
    pure0 = wv.validate_density(np.diag([1.0, 0.0]))
    mm = wv.validate_density(np.eye(2) / 2)
    g = incoherent_quasi_prob(pure0, mm, proj_zero)
    # proj_zero sorts eigenvalues ascending, so |0> is the second label
    assert np.max(np.abs(g - np.array([0.0, 1.0]))) < 1e-14


def test_factorized_agrees_with_general_route():
    rng = np.random.default_rng(50)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        p = rng.uniform(0.05, 1.0, size=d)
        q = rng.uniform(0.05, 1.0, size=d)
        rho_phi = wv.validate_density(np.diag(p / p.sum()))
        rho_psi = wv.validate_density(np.diag(q / q.sum()))
        g = incoherent_quasi_prob(rho_phi, rho_psi, obs)
        dist = wv.quasi_prob(rho_phi, rho_psi, obs)
        assert np.max(np.abs(g - dist.weights)) < 1e-11
        assert np.max(np.abs(dist.weights.imag)) < 1e-12


def test_factorized_rejects_coherent_input(coherent_pair, proj_zero):
    rho_psi, rho_phi = coherent_pair
    with pytest.raises(NotIncoherentError):
        incoherent_quasi_prob(rho_phi, rho_psi, proj_zero)
    # one coherent partner is enough to refuse
    diag = wv.validate_density(np.diag([0.5, 0.5]))
    with pytest.raises(NotIncoherentError):
        incoherent_quasi_prob(diag, rho_psi, proj_zero)


def test_witness_great_circle(great_circle_densities, proj_zero):
    rho_psi, rho_phi = great_circle_densities
    report = check_theorem_coherence(rho_phi, rho_psi, proj_zero)
    assert report.dist.anomalous_indices == (0, 1)
    assert report.coherent_pre and report.coherent_post
    assert report.dist.classification == wv.ANOMALOUS_REAL
    assert report.verdict == CONSISTENT
    assert abs(report.l1_pre - np.sqrt(3) / 2) < 1e-12
    assert abs(report.l1_post - np.sqrt(3) / 2) < 1e-12


def test_witness_coherent_but_tame(coherent_pair, proj_zero):
    rho_psi, rho_phi = coherent_pair
    report = check_theorem_coherence(rho_phi, rho_psi, proj_zero)
    assert report.coherent_pre and report.coherent_post
    assert report.dist.anomalous_indices == ()
    assert report.dist.classification == wv.NORMAL
    assert report.verdict == CONSISTENT
    assert abs(report.l1_post - np.sqrt(3) / 4) < 1e-12


def test_witness_after_dephasing(great_circle_densities, proj_zero):
    rho_psi, rho_phi = great_circle_densities
    report = check_theorem_coherence(wv.dephase(rho_phi, proj_zero),
                                     wv.dephase(rho_psi, proj_zero), proj_zero)
    assert not report.coherent_pre and not report.coherent_post
    assert report.dist.anomalous_indices == ()
    assert report.dist.classification == wv.NORMAL
    assert report.verdict == CONSISTENT


def test_witness_coherence_and_verdict_derive_from_the_record(great_circle_densities, coherent_pair, proj_zero):
    # l1 at DEFAULT_COHERENCE_TOL counts as coherent, one ulp below it does not. The verdict
    # reads the bound instead: an l1 of 1e-8 cannot carry the 120-degree excess of 1 (g_0 = -1/2).
    below = np.nextafter(DEFAULT_COHERENCE_TOL, 0.0)
    circle = check_theorem_coherence(*great_circle_densities[::-1], proj_zero)
    anomalous, true_l1 = circle.dist, circle.l1_post
    tame = check_theorem_coherence(*coherent_pair[::-1], proj_zero).dist
    coherent = DEFAULT_COHERENCE_TOL
    for l1_post, l1_pre, dist, verdict in [(true_l1, true_l1, anomalous, CONSISTENT),
                                           (coherent, coherent, anomalous, VIOLATED),
                                           (true_l1, below, anomalous, VIOLATED),
                                           (below, true_l1, anomalous, VIOLATED),
                                           (below, below, tame, CONSISTENT)]:
        report = WitnessReport(l1_post=l1_post, l1_pre=l1_pre, dist=dist)
        assert (report.coherent_post, report.coherent_pre) == (l1_post != below, l1_pre != below)
        assert report.verdict == verdict
    assert abs(circle.excess - 1.0) < 1e-12 and abs(circle.bound - np.sqrt(3.0)) < 1e-12


def test_witness_small_coherence_anomaly_within_the_bound_is_consistent():
    # Tr(rho_phi rho_psi) = 0.75, so no rounding is at play: g_0 = -1.31e-9 is truly
    # negative, within the bound 9.8e-9 / 1.5 that C_psi = 9.8e-9 (below 1e-8) allows
    obs = wv.eigensystem(np.diag([0.0, 1.0]))
    rho_psi = wv.validate_density([[3.92e-9, 4.9e-9], [4.9e-9, 1.0 - 3.92e-9]])
    rho_phi = wv.validate_density([[0.25, -0.4], [-0.4, 0.75]])
    report = check_theorem_coherence(rho_phi, rho_psi, obs)
    assert report.dist.anomalous and not report.coherent_pre
    assert report.excess < report.bound
    assert report.verdict == CONSISTENT


def test_witness_reads_violated_when_an_incoherent_pair_breaks_the_bound(monkeypatch, proj_zero):
    # Both states are diagonal, so B = 0; a kernel that moves 2e-9 of weight off g_0 = 0
    # gives an anomaly no valid pair can give.
    rho_phi = wv.validate_density(np.diag([0.5, 0.5]))
    rho_psi = wv.validate_density(np.diag([1.0, 0.0]))
    honest = check_theorem_coherence(rho_phi, rho_psi, proj_zero)
    assert (honest.bound, honest.excess, honest.verdict) == (0.0, 0.0, CONSISTENT)

    def broken(*args):
        dist = wv.quasi_prob(*args)
        return dataclasses.replace(dist, weights=dist.weights + np.array([-2e-9, 2e-9]))

    monkeypatch.setattr(witness, "quasi_prob", broken)
    report = check_theorem_coherence(rho_phi, rho_psi, proj_zero)
    assert report.dist.anomalous_indices == (0, 1) and report.bound == 0.0
    assert report.excess == 4e-9
    assert report.verdict == VIOLATED


@st.composite
def scaled_pairs(draw):
    """An observable and a selection pair at d = 2..8, pure or mixed, each state's coherence
    scaled by s in [1e-12, 1] by mixing it with its dephased self."""
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    obs = wv.eigensystem(random_mixed(rng, d))
    states = []
    for pure in (draw(st.booleans()), draw(st.booleans())):
        amps = random_pure(rng, d)
        rho = wv.validate_density(np.outer(amps, amps.conj()) if pure else random_mixed(rng, d))
        s = 10.0 ** draw(st.floats(-12.0, 0.0))
        states.append(wv.validate_density(s * rho.matrix + (1.0 - s) * wv.dephase(rho, obs).matrix))
    return obs, *states


@settings(max_examples=200, deadline=None)
@given(scaled_pairs())
def test_excess_stays_within_the_bound(case):
    obs, rho_phi, rho_psi = case
    try:
        report = check_theorem_coherence(rho_phi, rho_psi, obs)
    except wv.OrthogonalSelectionError:
        assume(False)
    assert report.excess <= report.bound + report.dist.allowance
    assert report.verdict == CONSISTENT


def test_one_diagonal_state_never_anomalous():
    # coherence of BOTH states is necessary, so nuking one side suffices
    rng = np.random.default_rng(51)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        p = rng.uniform(0.05, 1.0, size=d)
        rho_phi = wv.validate_density(np.diag(p / p.sum()))
        rho_psi = wv.validate_density(random_mixed(rng, d))
        report = check_theorem_coherence(rho_phi, rho_psi, obs)
        assert report.dist.anomalous_indices == ()
        assert report.dist.classification == wv.NORMAL
        assert report.verdict == CONSISTENT


def test_corollary_great_circle(great_circle_densities, proj_zero):
    rho_psi, rho_phi = great_circle_densities
    low = corollary_projector_weak_value(rho_phi, rho_psi, proj_zero, 1)
    assert abs(low.value - (-0.5)) < 1e-12
    assert low.classification == wv.ANOMALOUS_REAL
    assert (low.spectrum_lo, low.spectrum_hi) == (0.0, 1.0)
    high = corollary_projector_weak_value(rho_phi, rho_psi, proj_zero, 0)
    assert abs(high.value - 1.5) < 1e-12
    assert high.classification == wv.ANOMALOUS_REAL


def test_corollary_equals_quasi_prob_weight():
    rng = np.random.default_rng(52)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        rho_phi = wv.validate_density(random_mixed(rng, d))
        rho_psi = wv.validate_density(random_mixed(rng, d))
        dist = wv.quasi_prob(rho_phi, rho_psi, obs)
        for i in range(d):
            res = corollary_projector_weak_value(rho_phi, rho_psi, obs, i)
            assert abs(res.value - dist.weights[i]) < 1e-12


def test_corollary_tame_case(coherent_pair, proj_zero):
    rho_psi, rho_phi = coherent_pair
    for i in range(2):
        res = corollary_projector_weak_value(rho_phi, rho_psi, proj_zero, i)
        assert res.classification == wv.NORMAL
        assert 0.0 <= res.value.real <= 1.0


def test_corollary_index_validation(great_circle_densities, proj_zero):
    rho_psi, rho_phi = great_circle_densities
    with pytest.raises(wv.ValidationError):
        corollary_projector_weak_value(rho_phi, rho_psi, proj_zero, 2)
    with pytest.raises(wv.ValidationError):
        corollary_projector_weak_value(rho_phi, rho_psi, proj_zero, -1)
