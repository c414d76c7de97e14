"""Closed-form Gaussian pointer readout and its extrapolation to zero coupling."""

import re

import numpy as np
import pytest

import weakvalues as wv
from weakvalues.pointer import ExtrapolationResult, PointerConfig, extrapolate, simulate

from conftest import random_pure


def test_config_validation():
    cfg = PointerConfig()
    assert cfg.coupling == 1e-2 and cfg.width == 1.0
    with pytest.raises(wv.ValidationError):
        PointerConfig(coupling=0.0)
    with pytest.raises(wv.ValidationError):
        PointerConfig(width=-1.0)
    with pytest.raises(wv.ValidationError):
        PointerConfig(couplings_series=(1e-2, 5e-3))
    with pytest.raises(wv.ValidationError):
        PointerConfig(couplings_series=(1e-2, 1e-2, 5e-3))
    with pytest.raises(wv.ValidationError):
        PointerConfig(couplings_series=(1e-2, 5e-3, -1e-3))


def test_config_rejects_non_finite_values():
    for value in (np.inf, np.nan):
        with pytest.raises(wv.ValidationError):
            PointerConfig(coupling=value)
        with pytest.raises(wv.ValidationError):
            PointerConfig(width=value)
        with pytest.raises(wv.ValidationError):
            PointerConfig(couplings_series=(value, 1e-2, 5e-3))


@pytest.mark.parametrize("width", [1.2e154, 1e200, 1e-200, 1e-155])
def test_config_refuses_a_width_whose_variance_leaves_the_normal_floats(width):
    # 4 width^2 overflows to inf, or underflows to 0 or (at 1e-155) to a subnormal
    # whose reciprocal overflows: the readouts divide by it
    with pytest.raises(wv.ValidationError, match=re.escape(f"pointer width {width!r} puts 4 width")):
        PointerConfig(width=width)


@pytest.mark.parametrize("width", [1e153, 1e-154])
def test_widths_at_the_edges_of_the_float_range_read_out_finite_moments(great_circle_pair, proj_zero, width):
    psi, phi = great_circle_pair
    out = simulate(proj_zero, psi, phi, PointerConfig(width=width))
    assert np.isfinite([out.mean_position, out.mean_momentum, out.postselect_prob]).all()


def test_eigenstate_readout_is_exact():
    obs = wv.eigensystem(np.diag([0.0, 1.0, 2.0]))
    for i in range(3):
        v = obs.basis_state(i)
        out = simulate(obs, v, v, PointerConfig(coupling=0.3))
        # a single branch: the pointer shifts by exactly g a_i
        assert abs(out.mean_position - 0.3 * obs.eigenvalues[i]) < 1e-15
        assert abs(out.mean_momentum) < 1e-15
        assert abs(out.postselect_prob - 1.0) < 1e-14


def test_great_circle_raw_and_extrapolated(great_circle_pair, proj_zero):
    psi, phi = great_circle_pair
    out = simulate(proj_zero, psi, phi, PointerConfig(coupling=1e-2))
    # raw first moment sits within O(g^2) of g * Re(A_w) = -0.005
    assert abs(out.mean_position / 1e-2 - (-0.5)) < 1e-3
    assert abs(out.postselect_prob - 0.25) < 1e-3

    res = extrapolate(proj_zero, psi, phi)
    assert isinstance(res, ExtrapolationResult)
    assert abs(res.value - (-0.5)) < 1e-9
    assert abs(res.value.imag) < 1e-9
    assert res.error < 1e-6


def test_extrapolation_matches_weak_value():
    rng = np.random.default_rng(70)
    for _ in range(40):
        d = int(rng.integers(2, 4))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        psi = wv.state_vector(random_pure(rng, d))
        phi = wv.state_vector(random_pure(rng, d))
        if abs(np.vdot(phi.amps, psi.amps)) ** 2 < 1e-3:
            continue
        aw = wv.weak_value_pure(obs, psi, phi)
        res = extrapolate(obs, psi, phi)
        assert abs(res.value - aw.value) < 1e-6
        # imaginary parts come through the momentum channel
        if abs(aw.value.imag) > 0.01:
            assert abs(res.value.imag - aw.value.imag) < 1e-6


def test_error_scales_as_coupling_squared(great_circle_pair, proj_zero):
    psi, phi = great_circle_pair
    def raw_estimate(g):
        out = simulate(proj_zero, psi, phi, PointerConfig(coupling=g))
        return out.mean_position / g
    e1 = abs(raw_estimate(1e-2) - (-0.5))
    e2 = abs(raw_estimate(5e-3) - (-0.5))
    assert 3.5 < e1 / e2 < 4.5


def test_wide_pointer_still_extrapolates(great_circle_pair, proj_zero):
    psi, phi = great_circle_pair
    res = extrapolate(proj_zero, psi, phi, PointerConfig(width=0.7))
    assert abs(res.value - (-0.5)) < 1e-6


def test_extrapolation_refuses_series_outside_the_weak_regime(great_circle_pair, proj_zero):
    psi, phi = great_circle_pair
    with pytest.raises(wv.ValidationError, match="weak regime"):
        extrapolate(proj_zero, psi, phi, PointerConfig(couplings_series=(1000.0, 100.0, 10.0)))
    # max(g) (a_max - a_min) / width = 1 exactly is the last accepted spread; at psi = phi = |+>
    # A_w = 1/2 sits mid-spectrum, so no branch is more than half a width from g A_w
    plus = wv.state_vector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    edge = PointerConfig(width=2.0, couplings_series=(2.0, 1.0, 0.5))
    assert np.isfinite(extrapolate(proj_zero, plus, plus, edge).value)
    z = wv.eigensystem(np.diag([1.0, -1.0]))
    z_edge = PointerConfig(couplings_series=(0.5, 0.25, 0.125))
    assert np.isfinite(extrapolate(z, plus, plus, z_edge).value)
    spread = PointerConfig(width=2.0, couplings_series=(np.nextafter(2.0, 3.0), 1.0, 0.5))
    with pytest.raises(wv.ValidationError, match=re.escape("(a_max - a_min) / width = 1,")):
        extrapolate(proj_zero, plus, plus, spread)
    # the great-circle pair's A_w = -1/2 (-2 for z) puts a branch 1.5 widths from g A_w on both edges
    for obs, cfg in ((proj_zero, edge), (z, z_edge)):
        with pytest.raises(wv.ValidationError, match=re.escape("max_i |a_i - A_w| / width = 1.5,")):
            extrapolate(obs, psi, phi, cfg)
    # max(g) max_i |a_i - A_w| / width = 1.5 / 1.5 = 1 exactly is the last accepted amplification
    amplified = PointerConfig(width=1.5, couplings_series=(1.0, 0.5, 0.25))
    assert np.isfinite(extrapolate(proj_zero, psi, phi, amplified).value)
    past = PointerConfig(width=1.5, couplings_series=(np.nextafter(1.0, 2.0), 0.5, 0.25))
    with pytest.raises(wv.ValidationError, match=re.escape("max_i |a_i - A_w| / width = 1,")):
        extrapolate(proj_zero, psi, phi, past)


def test_momentum_channel_sign():
    # psi = (|0> + i|1>)/sqrt(2), phi = (|0> + |1>)/sqrt(2), A = |0><0|:
    # A_w = (1/2) / ((1 + i)/2) = (1 - i)/2
    obs = wv.eigensystem(np.diag([1.0, 0.0]))
    psi = wv.state_vector(np.array([1.0, 1.0j]) / np.sqrt(2))
    phi = wv.state_vector(np.array([1.0, 1.0]) / np.sqrt(2))
    aw = wv.weak_value_pure(obs, psi, phi)
    assert abs(aw.value - (0.5 - 0.5j)) < 1e-12
    assert aw.classification == wv.ANOMALOUS_IMAGINARY
    res = extrapolate(obs, psi, phi)
    assert abs(res.value - aw.value) < 1e-9


def test_orthogonal_postselection_raises():
    obs = wv.eigensystem(np.diag([1.0, 0.0]))
    psi = wv.state_vector([1.0, 0.0])
    phi = wv.state_vector([0.0, 1.0])
    with pytest.raises(wv.ZeroPostselectionError):
        simulate(obs, psi, phi)


def test_extrapolate_reads_out_the_configured_coupling_too(great_circle_pair, proj_zero):
    psi, phi = great_circle_pair
    for coupling in (1e-2, 3e-3):  # inside the series and outside it
        cfg = PointerConfig(coupling=coupling)
        assert extrapolate(proj_zero, psi, phi, cfg).outcome == simulate(proj_zero, psi, phi, cfg)
    # An orthogonal pair has no weak value to read out, whatever the coupling. Its pointer
    # reads out with probability ~ g^2 / 16: about 1e-7 and more over the series, exactly 0
    # at g = 1e-170.
    plus = wv.state_vector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    minus = wv.state_vector(np.array([1.0, -1.0]) / np.sqrt(2.0))
    with pytest.raises(wv.OrthogonalSelectionError):
        extrapolate(proj_zero, plus, minus)
    assert simulate(proj_zero, plus, minus).postselect_prob > 0.0
    with pytest.raises(wv.ZeroPostselectionError, match="probability 0.000e"):
        simulate(proj_zero, plus, minus, PointerConfig(coupling=1e-170))


def test_dimension_mismatch():
    obs = wv.eigensystem(np.diag([0.0, 1.0, 2.0]))
    psi = wv.state_vector([1.0, 0.0])
    with pytest.raises(wv.DimensionMismatchError):
        simulate(obs, psi, psi)
