from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import weakvalues as wv
from weakvalues.core import (
    DEGENERACY_TOL,
    HERMITICITY_TOL,
    NORM_TOL,
    PSD_TOL,
    REALITY_TOL,
    DegenerateError,
    ImaginaryOverlapError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotQubitError,
    Tolerances,
    TraceNotOneError,
    ValidationError,
    _fix_phases,
)

from conftest import random_mixed, random_pure
from oracles import antipodal, looped_fix_phases


def test_tolerances_defaults():
    assert [field.name for field in fields(Tolerances)] == ["anom"]
    assert wv.DEFAULT_TOL.anom == 1e-9
    assert (NORM_TOL, HERMITICITY_TOL, PSD_TOL, REALITY_TOL, DEGENERACY_TOL) == (1e-10, 1e-10, 1e-10, 1e-9, 1e-8)


def test_tolerances_must_be_positive():
    for value in (0.0, -1e-9):
        with pytest.raises(ValidationError, match=f"tolerance anom must be positive and finite, got {value!r}"):
            Tolerances(anom=value)


def test_tolerances_must_be_finite():
    for value in (np.inf, np.nan):
        with pytest.raises(ValidationError, match=f"tolerance anom must be positive and finite, got {value!r}"):
            Tolerances(anom=value)
    # no quasi-probability past the selection gate reaches 1/DEFAULT_SELECTION_THRESHOLD
    for value in (1e12, 1e300):
        with pytest.raises(ValidationError, match="no quasi-probability could leave the band"):
            Tolerances(anom=value)
    assert Tolerances(anom=9.9e11).anom == 9.9e11


_PROJ_ZERO = wv.DensityOperator(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("gate, inside, outside, error, message", [
    (lambda x: wv.state_vector([np.sqrt(1.0 + x), 0.0]), 0.9 * NORM_TOL, 1.1 * NORM_TOL, NotNormalizedError,
     "squared norm deviates from 1 by 1.100e-10 (tolerance 1.0e-10)"),
    (lambda x: wv.validate_density(np.diag([0.5, 0.5 + x])), 0.9 * NORM_TOL, 1.1 * NORM_TOL, TraceNotOneError,
     "trace deviates from 1 by 1.100e-10 (tolerance 1.0e-10)"),
    (lambda x: wv.validate_density(np.array([[0.5, x], [0.0, 0.5]])), 0.9 * HERMITICITY_TOL,
     1.1 * HERMITICITY_TOL, NotHermitianError, "Hermiticity defect 1.100e-10 exceeds tolerance 1.0e-10"),
    (lambda x: wv.eigensystem(np.array([[0.0, x], [0.0, 1.0]])), 0.9 * HERMITICITY_TOL,
     1.1 * HERMITICITY_TOL, NotHermitianError, "Hermiticity defect 1.100e-10 exceeds tolerance 1.0e-10"),
    (lambda x: wv.validate_density(np.diag([1.0 + x, -x])), 0.9 * PSD_TOL, 1.1 * PSD_TOL, NotPSDError,
     "lowest eigenvalue -1.100e-10 below -1.0e-10"),
    (lambda x: wv.overlap(_PROJ_ZERO, wv.DensityOperator(np.diag([0.5 + 1j * x, 0.5]))), 0.9 * REALITY_TOL,
     1.1 * REALITY_TOL, ImaginaryOverlapError, "two-state overlap has imaginary part 1.100e-09"),
    # the gap is a floor: a wider gap passes
    (lambda x: wv.eigensystem(np.diag([0.0, x])), 1.1 * DEGENERACY_TOL, 0.9 * DEGENERACY_TOL, DegenerateError,
     "eigenvalue gap 9.000e-09 below tolerance 1.0e-08; degenerate observables have no canonical eigenbasis"),
], ids=["norm", "trace", "density-hermiticity", "observable-hermiticity", "psd", "imaginary-overlap", "gap"])
def test_gates_enforce_their_constants(gate, inside, outside, error, message):
    gate(inside)
    with pytest.raises(error) as refused:
        gate(outside)
    assert str(refused.value) == message


def test_state_vector_accepts_normalized():
    s = wv.state_vector([0.6, 0.8])
    assert s.dim == 2
    assert abs(np.vdot(s.amps, s.amps) - 1.0) < 1e-15


def test_state_vector_rejects_unnormalized_and_nan():
    with pytest.raises(NotNormalizedError):
        wv.state_vector([0.9, 0.9])
    with pytest.raises(ValidationError):
        wv.state_vector([np.nan, 0.0])
    with pytest.raises(ValidationError):
        wv.state_vector([1.0])  # needs at least two amplitudes


def test_state_vector_is_frozen():
    s = wv.state_vector([1.0, 0.0])
    with pytest.raises(ValueError):
        s.amps[0] = 0.5


def test_pure_to_density_examples():
    r0 = wv.pure_to_density(wv.state_vector([1.0, 0.0]))
    assert np.allclose(r0.matrix, np.diag([1.0, 0.0]))

    plus = wv.pure_to_density(wv.state_vector([1.0, 1.0] / np.sqrt(2)))
    assert np.allclose(plus.matrix, np.full((2, 2), 0.5))

    ky = wv.pure_to_density(wv.state_vector([1.0, 1j] / np.sqrt(2)))
    assert abs(ky.matrix[0, 1] - (-0.5j)) < 1e-15
    assert abs(ky.matrix[1, 0] - 0.5j) < 1e-15


def test_pure_to_density_rank_one():
    rng = np.random.default_rng(302)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = wv.pure_to_density(wv.state_vector(random_pure(rng, d)))
        ev = np.linalg.eigvalsh(rho.matrix)
        assert abs(ev[-1] - 1.0) < 1e-12
        assert np.all(np.abs(ev[:-1]) < 1e-12)


def test_validate_density_accepts_valid(coherent_pair):
    rho = wv.validate_density(np.eye(2) / 2)
    assert rho.dim == 2
    # the mixed coherent pair from the fixtures parses too
    assert coherent_pair[0].dim == 2


def test_validate_density_error_taxonomy():
    with pytest.raises(NotPSDError):
        wv.validate_density(np.diag([1.5, -0.5]))
    with pytest.raises(TraceNotOneError):
        wv.validate_density(np.diag([0.7, 0.7]))
    with pytest.raises(NotHermitianError) as err:
        wv.validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))
    assert "0.3" in str(err.value) or "3.0" in str(err.value)  # magnitude named
    with pytest.raises(ValidationError):
        wv.validate_density(np.full((2, 2), np.inf))


def test_eigensystem_diag_sorted_ascending():
    obs = wv.eigensystem(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(obs.eigenvalues, [1.0, 2.0, 3.0])
    # eigenvector columns line up with the sorted eigenvalues
    assert abs(abs(obs.eigenvectors[1, 0]) - 1.0) < 1e-12
    assert abs(abs(obs.eigenvectors[2, 1]) - 1.0) < 1e-12
    assert abs(abs(obs.eigenvectors[0, 2]) - 1.0) < 1e-12


def test_eigensystem_pauli_cases():
    z = wv.eigensystem(np.diag([1.0, -1.0]))
    assert np.allclose(z.eigenvalues, [-1.0, 1.0])
    assert np.allclose(z.basis_state(0).amps, [0.0, 1.0])  # |1> first
    assert np.allclose(z.basis_state(1).amps, [1.0, 0.0])

    x = wv.eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(x.eigenvalues, [-1.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(x.basis_state(0).amps, [s, -s])
    assert np.allclose(x.basis_state(1).amps, [s, s])

    proj = wv.eigensystem(np.diag([1.0, 0.0]))
    assert np.allclose(proj.eigenvalues, [0.0, 1.0])


def test_eigensystem_random_hermitian_properties():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        obs = wv.eigensystem(h)
        v, lam = obs.eigenvectors, obs.eigenvalues
        assert np.all(np.diff(lam) > 0)
        assert np.max(np.abs(h @ v - v * lam)) < 1e-9
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(d))) < 1e-9
        for i in range(d):
            col = v[:, i]
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12


# Entries of equal modulus, so that several components of one column tie for the pivot.
_TIED = st.sampled_from([s * np.sqrt(0.5) for s in (1, -1, 1j, -1j)] + [0.5 * (1 + 1j), 0.0])


@st.composite
def eigenbases(draw):
    """(d, d) columns, d = 2..64, real or complex: an eigensolver's basis, or entries of equal modulus."""
    d = draw(st.integers(2, 64))
    if draw(st.booleans()):
        raw = draw(hnp.arrays(np.float64, (2, d, d), elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
        h = raw[0] + 1j * raw[1] if draw(st.booleans()) else raw[0]
        return np.linalg.eigh(h + h.conj().T)[1]
    vectors = draw(hnp.arrays(complex, (d, d), elements=_TIED))
    if draw(st.booleans()):
        vectors = vectors.real.copy()
    vectors[0, np.abs(vectors).max(axis=0) == 0] = 1.0  # no column is all zeros
    return vectors


@settings(max_examples=200, deadline=None)
@given(eigenbases())
def test_fix_phases_is_the_column_loop_bit_for_bit(vectors):
    fixed, looped = _fix_phases(vectors), looped_fix_phases(vectors)
    assert fixed.dtype == looped.dtype and fixed.tobytes() == looped.tobytes()


def test_eigensystem_rejects_degenerate_and_nonhermitian():
    with pytest.raises(DegenerateError):
        wv.eigensystem(np.eye(2))
    with pytest.raises(DegenerateError):
        wv.eigensystem(np.diag([0.0, 1.0, 1.0 + 1e-9]))  # gap below DEGENERACY_TOL
    with pytest.raises(NotHermitianError):
        wv.eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("gate", [wv.eigensystem, wv.validate_density])
def test_gates_refuse_empty_matrices(gate):
    with pytest.raises(ValidationError, match=r"non-empty, got shape \(0, 0\)"):
        gate(np.zeros((0, 0)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", ([[1e308, 1e308], [1e308, 1e308]], np.diag([1e308, -1e308])))
def test_eigensystem_refuses_a_spectrum_wider_than_a_float(matrix):
    # eigh returns (0, inf) for the first; the second's width overflows
    with pytest.raises(ValidationError, match="spectrum width a_max - a_min = inf is not a finite float"):
        wv.eigensystem(matrix)
    assert wv.eigensystem(np.diag([0.5e308, -0.5e308])).eigenvalues[-1] == 0.5e308


def test_dephase_examples(coherent_pair, proj_one):
    rho_psi, rho_phi = coherent_pair
    out = wv.dephase(rho_psi, proj_one)
    assert np.allclose(out.matrix, np.diag([0.75, 0.25]))

    plus = wv.pure_to_density(wv.state_vector([1.0, 1.0] / np.sqrt(2)))
    assert np.allclose(wv.dephase(plus, proj_one).matrix, np.eye(2) / 2)

    # dephasing in the state's own eigenbasis is the identity map
    obs_own = wv.eigensystem(rho_phi.matrix)
    assert np.allclose(wv.dephase(rho_phi, obs_own).matrix, rho_phi.matrix, atol=1e-12)


def test_dephase_idempotent_and_trace_preserving():
    rng = np.random.default_rng(11)
    obs = wv.eigensystem(np.diag([0.0, 1.0, 2.0]))
    for _ in range(20):
        rho = wv.validate_density(random_mixed(rng, 3))
        once = wv.dephase(rho, obs)
        twice = wv.dephase(once, obs)
        assert np.allclose(once.matrix, twice.matrix, atol=1e-14)
        assert abs(np.trace(once.matrix).real - 1.0) < 1e-12


def test_coherence_l1_examples(coherent_pair, proj_one):
    _, rho_phi = coherent_pair
    assert wv.coherence_l1(wv.validate_density(np.diag([0.3, 0.7])), proj_one) == 0.0
    plus = wv.pure_to_density(wv.state_vector([1.0, 1.0] / np.sqrt(2)))
    assert abs(wv.coherence_l1(plus, proj_one) - 1.0) < 1e-12
    assert abs(wv.coherence_l1(rho_phi, proj_one) - np.sqrt(3.0) / 4.0) < 1e-12


def test_coherence_l1_vanishes_after_dephasing():
    rng = np.random.default_rng(12)
    obs = wv.eigensystem(np.diag([0.0, 1.0, 2.0, 3.0]))
    for _ in range(20):
        rho = wv.validate_density(random_mixed(rng, 4))
        assert wv.coherence_l1(wv.dephase(rho, obs), obs) < 1e-12


def test_antipodal_examples():
    # the oracle behind criterion 7's direct overlap arithmetic
    assert np.allclose(antipodal(wv.state_vector([1.0, 0.0])).amps, [0.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(antipodal(wv.state_vector([s, s])).amps, [s, -s])
    for theta in (0.3, 1.1, 2.5):
        v = wv.state_vector([np.cos(theta / 2), np.sin(theta / 2)])
        a = antipodal(v)
        assert abs(np.vdot(v.amps, a.amps)) < 1e-15
    with pytest.raises(NotQubitError):
        antipodal(wv.state_vector([1.0, 0.0, 0.0]))


def test_commutator_norm_examples(coherent_pair):
    d1 = wv.validate_density(np.diag([0.2, 0.8]))
    d2 = wv.validate_density(np.diag([0.6, 0.4]))
    assert wv.commutator_norm(d1, d2) == 0.0

    r0 = wv.pure_to_density(wv.state_vector([1.0, 0.0]))
    plus = wv.pure_to_density(wv.state_vector([1.0, 1.0] / np.sqrt(2)))
    assert abs(wv.commutator_norm(r0, plus) - 1.0 / np.sqrt(2.0)) < 1e-14

    assert wv.commutator_norm(*coherent_pair) > 0.0
