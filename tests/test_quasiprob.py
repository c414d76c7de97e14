import numpy as np
import pytest

import weakvalues as wv
from weakvalues.core import OrthogonalSelectionError, ValidationError
from weakvalues.quasiprob import classify

from conftest import random_mixed, random_pure
from oracles import amplitude_ratio_weak_value


def _config(rng, d, pure_prob=0.5):
    if rng.uniform() < pure_prob:
        return wv.pure_to_density(wv.state_vector(random_pure(rng, d)))
    return wv.validate_density(random_mixed(rng, d))


def test_classify_decisions():
    anom = wv.DEFAULT_TOL.anom
    assert classify(complex(-0.5, 0.0), 0.0, 1.0, anom) == wv.ANOMALOUS_REAL
    assert classify(complex(0.3, 0.0), 0.0, 1.0, anom) == wv.NORMAL
    assert classify(complex(0.3, 0.2), 0.0, 1.0, anom) == wv.ANOMALOUS_IMAGINARY
    # imaginary excursions win when both kinds are present
    assert classify(complex(5.0, 5.0), 0.0, 1.0, anom) == wv.ANOMALOUS_IMAGINARY
    # tolerance fences
    assert classify(complex(1.0 + 5e-10, 0.0), 0.0, 1.0, anom) == wv.NORMAL
    assert classify(complex(1.0 + 2e-9, 0.0), 0.0, 1.0, anom) == wv.ANOMALOUS_REAL
    assert classify(complex(0.5, 5e-10), 0.0, 1.0, anom) == wv.NORMAL


def _judged(value: complex) -> wv.QuasiProbDist:
    """A record whose A_w is ``value`` over the spectrum [0, 1], judged at the default band."""
    return wv.QuasiProbDist(weights=np.array([1.0 - value, value]), labels=np.array([0.0, 1.0]), value=value,
                            denominator=1.0, slack=0.0, tol=wv.DEFAULT_TOL)


def test_is_marginal_band():
    assert _judged(complex(1.0 + 5e-9, 0.0)).marginal
    assert _judged(complex(-4e-9, 0.0)).marginal
    assert not _judged(complex(0.5, 0.0)).marginal
    assert not _judged(complex(2.0, 0.0)).marginal
    assert _judged(complex(0.5, 3e-9)).marginal


def test_great_circle_weights(great_circle_densities, proj_zero):
    rho_psi, rho_phi = great_circle_densities
    dist = wv.quasi_prob(rho_phi, rho_psi, proj_zero)
    assert np.allclose(dist.labels, [0.0, 1.0])
    assert abs(dist.weights[0] - 1.5) < 1e-12
    assert abs(dist.weights[1] - (-0.5)) < 1e-12
    assert dist.anomalous_indices == (0, 1)


def test_coherent_pair_weights(coherent_pair, proj_one):
    rho_psi, rho_phi = coherent_pair
    dist = wv.quasi_prob(rho_phi, rho_psi, proj_one)
    assert abs(dist.weights[0].real - 0.829997) < 5e-6
    assert abs(dist.weights[1].real - 0.170003) < 5e-6
    assert abs(dist.weights[0].imag) < 1e-12
    assert dist.anomalous_indices == ()
    # denominator frozen from an independent hand evaluation:
    # 9/16 + 1/16 + 2*sqrt(3/32)*sqrt(3)/8
    assert abs(wv.overlap(rho_phi, rho_psi) - 0.7575825214724776) < 1e-15


def test_projective_limit(proj_zero):
    a1 = wv.pure_to_density(proj_zero.basis_state(0))
    dist = wv.quasi_prob(a1, a1, proj_zero)
    assert np.allclose(dist.weights, [1.0, 0.0])
    assert dist.anomalous_indices == ()


def test_normalization_and_conjugation():
    rng = np.random.default_rng(40)
    for _ in range(300):
        d = int(rng.integers(2, 6))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        rho_phi = _config(rng, d)
        rho_psi = _config(rng, d)
        dist = wv.quasi_prob(rho_phi, rho_psi, obs)
        assert abs(np.sum(dist.weights) - 1.0) < 1e-10
        flipped = wv.quasi_prob(rho_psi, rho_phi, obs)
        assert np.max(np.abs(flipped.weights - np.conj(dist.weights))) < 1e-12


def test_scale_invariance_against_three_operator_route():
    # raw ratio formula on alpha-scaled matrices, sidestepping validation;
    # doubles as the check that the rank-1 computation equals the
    # three-operator trace product
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        m_phi = random_mixed(rng, d)
        m_psi = random_mixed(rng, d)
        dist = wv.quasi_prob(wv.validate_density(m_phi), wv.validate_density(m_psi), obs)
        alpha = complex(rng.normal(), rng.normal())
        s_phi, s_psi = alpha * m_phi, alpha * m_psi
        den = np.trace(s_phi @ s_psi)
        for i in range(d):
            v = obs.eigenvectors[:, i]
            raw = np.trace(s_phi @ np.outer(v, v.conj()) @ s_psi) / den
            assert abs(raw - dist.weights[i]) < 1e-10


def test_reconstruction_matches_trace_ratio():
    rng = np.random.default_rng(42)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        obs = wv.eigensystem(np.diag(np.sort(rng.normal(size=d)) * 3.0)) \
            if False else wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        rho_phi = _config(rng, d)
        rho_psi = _config(rng, d)
        dist = wv.quasi_prob(rho_phi, rho_psi, obs)
        aw = wv.weak_value(obs, rho_psi, rho_phi)
        recon = np.sum(dist.weights * dist.labels)
        assert abs(recon - aw.value) < 1e-12


def test_anomalous_aw_implies_anomalous_weight():
    rng = np.random.default_rng(43)
    seen = 0
    for _ in range(400):
        d = int(rng.integers(2, 4))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        rho_phi = _config(rng, d, pure_prob=1.0)
        rho_psi = _config(rng, d, pure_prob=1.0)
        aw = wv.weak_value(obs, rho_psi, rho_phi)
        if aw.classification == wv.NORMAL:
            continue
        seen += 1
        dist = wv.quasi_prob(rho_phi, rho_psi, obs)
        assert dist.anomalous_indices != ()
    assert seen > 100  # pure pairs make anomalies generic


def test_excess_weight_forces_negative_partner():
    rng = np.random.default_rng(44)
    seen = 0
    for _ in range(500):
        d = int(rng.integers(2, 4))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        dist = wv.quasi_prob(_config(rng, d, 1.0), _config(rng, d, 1.0), obs)
        re = dist.weights.real
        over = np.where(re > 1.0 + 1e-9)[0]
        if over.size == 0:
            continue
        seen += 1
        for i in over:
            partners = np.delete(re, i)
            assert np.any(partners < -1e-9)
    assert seen > 20


def test_weak_value_great_circle(great_circle_densities, proj_zero, proj_one):
    rho_psi, rho_phi = great_circle_densities
    aw = wv.weak_value(proj_zero, rho_psi, rho_phi)
    assert abs(aw.value - (-0.5)) < 1e-12
    assert aw.classification == wv.ANOMALOUS_REAL
    assert (aw.spectrum_lo, aw.spectrum_hi) == (0.0, 1.0)
    assert abs(aw.denominator - 0.25) < 1e-12

    bw = wv.weak_value(proj_one, rho_psi, rho_phi)
    assert abs(bw.value - 1.5) < 1e-12
    assert bw.classification == wv.ANOMALOUS_REAL

    # the identity is the sum of the eigenprojectors, so its weak value is sum_i g_i
    assert wv.quasi_prob(rho_phi, rho_psi, proj_zero).weights.sum() == 1.0


def test_weak_value_on_own_eigenstate():
    obs = wv.eigensystem(np.diag([0.0, 1.0, 2.0]))
    for i in range(3):
        rho = wv.pure_to_density(obs.basis_state(i))
        aw = wv.weak_value(obs, rho, rho)
        assert abs(aw.value - obs.eigenvalues[i]) < 1e-12
        assert aw.classification == wv.NORMAL


def test_weak_value_pure_routes_agree():
    rng = np.random.default_rng(45)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        u = wv.state_vector(random_pure(rng, d))
        w = wv.state_vector(random_pure(rng, d))
        pure = wv.weak_value_pure(obs, u, w)
        rho_u, rho_w = wv.pure_to_density(u), wv.pure_to_density(w)
        # the three entry points are one kernel: the same record, to the bit
        for other in (wv.quasi_prob(rho_w, rho_u, obs), wv.weak_value(obs, rho_u, rho_w)):
            assert type(other) is type(pure) is wv.QuasiProbDist
            assert np.array_equal(other.weights, pure.weights)
            assert (other.value, other.denominator, other.classification) == \
                (pure.value, pure.denominator, pure.classification)
        ratio = amplitude_ratio_weak_value(obs, u, w)
        assert abs(pure.value - ratio.value) < 1e-12
        assert abs(pure.denominator - ratio.denominator) < 1e-13
        assert pure.classification == ratio.classification


def test_weak_value_pure_hand_cases(great_circle_pair, proj_zero):
    psi, phi = great_circle_pair
    assert abs(wv.weak_value_pure(proj_zero, psi, phi).value - (-0.5)) < 1e-12

    z = wv.eigensystem(np.diag([1.0, -1.0]))
    plus = wv.state_vector([1.0, 1.0] / np.sqrt(2))
    zero = wv.state_vector([1.0, 0.0])
    assert abs(wv.weak_value_pure(z, plus, zero).value - 1.0) < 1e-12

    # psi == phi reduces to the ordinary expectation value
    rng = np.random.default_rng(46)
    for _ in range(10):
        v = wv.state_vector(random_pure(rng, 3))
        obs = wv.eigensystem(np.diag([0.0, 1.0, 2.0]))
        aw = wv.weak_value_pure(obs, v, v)
        expect = np.vdot(v.amps, obs.matrix @ v.amps).real
        assert abs(aw.value - expect) < 1e-12


def test_orthogonal_selection_rejected(proj_zero):
    zero = wv.pure_to_density(wv.state_vector([1.0, 0.0]))
    one = wv.pure_to_density(wv.state_vector([0.0, 1.0]))
    with pytest.raises(OrthogonalSelectionError):
        wv.quasi_prob(zero, one, proj_zero)
    with pytest.raises(OrthogonalSelectionError):
        wv.weak_value(proj_zero, one, zero)
    with pytest.raises(OrthogonalSelectionError):
        wv.weak_value_pure(proj_zero, wv.state_vector([0.0, 1.0]),
                           wv.state_vector([1.0, 0.0]))


def test_dimension_mismatch(proj_zero):
    r3 = wv.validate_density(np.eye(3) / 3)
    with pytest.raises(ValidationError, match="dimension mismatch: dim 3/3 against dim 2"):
        wv.weak_value(proj_zero, r3, r3)
    with pytest.raises(ValidationError, match="dimension mismatch: dim 2/3 against dim 2"):
        wv.weak_value_pure(proj_zero, wv.state_vector([1.0, 0.0, 0.0]), wv.state_vector([1.0, 0.0]))


def test_anomalous_indices_on_handmade_distribution():
    # the record derives its verdicts from its own values, so none can contradict them
    dist = wv.QuasiProbDist(weights=np.array([1.0, 0.0, 0.0], dtype=complex),
                            labels=np.array([0.0, 1.0, 2.0]),
                            value=0j, denominator=1.0, slack=0.0, tol=wv.DEFAULT_TOL)
    assert dist.anomalous_indices == ()
    assert dist.classification == wv.NORMAL
    assert not dist.anomalous
    assert (dist.spectrum_lo, dist.spectrum_hi) == (0.0, 2.0)
    dist2 = wv.QuasiProbDist(weights=np.array([0.5, 0.5 + 2e-9j, 0.0 - 0.0j], dtype=complex),
                             labels=np.array([0.0, 1.0, 2.0]),
                             value=0.5 + 2e-9j, denominator=1.0, slack=0.0, tol=wv.DEFAULT_TOL)
    assert dist2.anomalous_indices == (1,)
    assert dist2.classification == wv.ANOMALOUS_IMAGINARY
    assert dist2.anomalous


def test_orthogonal_refusal_prints_no_rounding_noise(proj_zero):
    # This pair's overlap rounds to a small negative number, which the message once printed as data.
    psi = wv.pure_to_density(wv.state_vector([np.cos(0.7), np.sin(0.7)]))
    phi = wv.pure_to_density(wv.state_vector([-np.sin(0.7), np.cos(0.7)]))
    with pytest.raises(OrthogonalSelectionError) as excinfo:
        wv.quasi_prob(phi, psi, proj_zero)
    assert str(excinfo.value) == "post-selection overlap at or below threshold 1.0e-12"
