"""Properties of the stacked quasi-probability kernel over generated inputs.

Each example is a stack of n selection pairs of dimension d = 2..8, mixed
states G G^dagger / Tr built from generated entries, and a non-degenerate
observable with a generated spectrum in a generated eigenbasis. The verdict
property judges one such pair, its values pushed next to the decision lines
and its stated error set beside the band. The rounding property draws pure
pairs down to Tr(rho_phi rho_psi) = 1e-11 and holds each verdict to exact
rational arithmetic or to its flag. The phase property draws pure pairs in the
same way as the stacks. The A_w rounding property draws pure and mixed pairs at
d = 2 to 64 down to Tr(rho_phi rho_psi) = 1e-10 and holds the record's A_w to
the exact sum over its stored a_i and g_i within the stated error. The dtype
properties draw real and complex stacks at d = 2..64 with signed zeros and hold
the float64 kernels to the bits of their complex128 twins, and g to numpy's
complex division. The row-rule property draws (n, d) rows with signed zeros,
infinities and NaNs and holds the column sums to numpy's left-to-right
accumulation and the column ORs to numpy's any. The last two properties draw
real qubit pairs instead and check the contextuality certificate that the
paper attaches to every real-qubit anomaly.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import weakvalues as wv
from weakvalues.contextuality import anomaly_implies_violation, fragment_cycles
from weakvalues.core import _l1_in_eigenbasis
from weakvalues.invariants import overlap_stack
from weakvalues.quasiprob import _g_contraction, _row_any, _row_sum, anomalous_mask, classify, quasi_prob_stack

from oracles import classify as oracle_classify
from oracles import _exact, _sum, exact_verdicts, verdicts

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
    den, g, _ = quasi_prob_stack(phi, psi, obs)
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
    den, g, value = quasi_prob_stack(phi, psi, obs)
    a = obs.eigenvalues
    for k in np.flatnonzero(_selected(den)):
        direct = np.trace(phi[k] @ obs.matrix @ psi[k]) / np.trace(phi[k] @ psi[k])
        # rounding in either route scales with the terms and with eps ||A||
        scale = np.abs(g[k] * a).sum() + np.abs(a).max()
        assert abs(value[k] - direct) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(selection_stacks())
def test_the_kernel_weak_value_is_the_record_weak_value(case):
    """Row k of a stack gets the bits the n = 1 record of pair k gets."""
    phi, psi, obs = case
    den, _, value = quasi_prob_stack(phi, psi, obs)
    for k in np.flatnonzero(den > wv.DEFAULT_SELECTION_THRESHOLD):
        dist = wv.quasi_prob(wv.DensityOperator(phi[k]), wv.DensityOperator(psi[k]), obs)
        assert dist.value == complex(value[k])


@PROPERTY_SETTINGS
@given(selection_stacks())
def test_swapping_the_selection_conjugates_the_weights(case):
    phi, psi, obs = case
    den, g, _ = quasi_prob_stack(phi, psi, obs)
    _, swapped, _ = quasi_prob_stack(psi, phi, obs)
    keep = _selected(den)
    g, swapped = g[keep], swapped[keep]
    assert np.all(np.abs(g - swapped.conj()) <= 1e-12 * np.abs(g).max(axis=1, keepdims=True))


@PROPERTY_SETTINGS
@given(selection_stacks())
def test_a_dephased_pre_selection_gives_no_anomalous_weight(case):
    phi, psi, obs = case
    dephased = np.stack([wv.dephase(wv.DensityOperator(m), obs).matrix for m in psi])
    den, g, _ = quasi_prob_stack(phi, dephased, obs)
    assert not np.any(anomalous_mask(g[_selected(den)], 0.0, 1.0, wv.DEFAULT_TOL.anom))


def _signed_zero_stacks(rng, shape, zeros):
    """Normal variates of ``shape`` with shares ``zeros`` = (negative, positive) of them set to -0.0 and +0.0."""
    stack = rng.standard_normal(shape)
    for zero, share in zip((-0.0, 0.0), zeros):
        stack[rng.random(shape) < share] = zero
    return stack


def _bits(values: np.ndarray) -> np.ndarray:
    """The raw 64-bit words of a float64 or complex128 array, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(values).view(np.uint64)


stack_shapes = dict(d=st.integers(2, 64), n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
                    zeros=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)))


@PROPERTY_SETTINGS
@given(**stack_shapes)
# From d = 4 numpy's pairwise sum groups a complex row's real parts apart from a float row's; at d = 64 in blocks.
@example(d=4, n=8, seed=1, zeros=(0.0, 0.0))
@example(d=9, n=8, seed=2, zeros=(0.25, 0.0))
@example(d=64, n=4, seed=3, zeros=(0.1, 0.1))
def test_a_real_stack_gives_its_complex_twins_bits(d, n, seed, zeros):
    """The scan's real kinds stay float64: overlaps, g, A_w and l1 of a real stack are those of its twin,
    A_w as the real part of the twin's, whose imaginary part is 0."""
    rng = np.random.default_rng(seed)
    phi, psi = _signed_zero_stacks(rng, (2, n, d, d), zeros)
    eigenvalues = np.sort(rng.standard_normal(d))
    twin_phi, twin_psi = phi.astype(complex), psi.astype(complex)
    den, twin_den = overlap_stack(phi, psi), overlap_stack(twin_phi, twin_psi)
    assert den.dtype == np.float64
    kept = den > wv.DEFAULT_SELECTION_THRESHOLD
    assert np.array_equal(_bits(den[kept]), _bits(twin_den[kept]))
    g, value = _g_contraction(psi.transpose(0, 2, 1), phi, den, eigenvalues)
    twin_g, twin_value = _g_contraction(twin_psi.transpose(0, 2, 1), twin_phi, twin_den, eigenvalues)
    assert (g.dtype, value.dtype) == (np.float64, np.float64)
    assert np.array_equal(_bits(g[kept].astype(complex)), _bits(twin_g[kept]))
    assert np.array_equal(_bits(value[kept]), _bits(twin_value[kept].real))
    assert np.all(twin_value[kept].imag == 0.0)
    for stack, twin in ((phi, twin_phi), (psi, twin_psi)):
        assert np.array_equal(_bits(_l1_in_eigenbasis(stack[kept])), _bits(_l1_in_eigenbasis(twin[kept])))


@PROPERTY_SETTINGS
@given(**stack_shapes)
@example(d=2, n=8, seed=4, zeros=(0.5, 0.5))  # rows whose contraction has a zero part
def test_g_of_a_complex_stack_is_the_quotient(d, n, seed, zeros):
    """Scaling by the reciprocal of den is numpy's complex division by den, zero signs included."""
    rng = np.random.default_rng(seed)
    stacks = np.empty((2, n, d, d), dtype=complex)
    stacks.real = _signed_zero_stacks(rng, stacks.shape, zeros)
    stacks.imag = _signed_zero_stacks(rng, stacks.shape, zeros)
    phi, psi = stacks
    den = np.einsum("nij,nji->n", phi, psi).real
    left = psi.transpose(0, 2, 1)
    g, _ = _g_contraction(left, phi, den, np.arange(d, dtype=float))
    kept = den > wv.DEFAULT_SELECTION_THRESHOLD
    assert g.dtype == np.complex128
    num = np.einsum("nki->ni", left * phi)
    assert np.array_equal(_bits(g[kept]), _bits(num[kept] / den[kept, None]))


def _special_rows(rng, shape, shares):
    """Normal variates of ``shape`` over 60 decades, with shares ``shares`` of them set to -0.0, +inf, -inf and NaN."""
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    for special, share in zip((-0.0, np.inf, -np.inf, np.nan), shares):
        rows[rng.random(shape) < share] = special
    return rows


def _bits_or_nan(values: np.ndarray) -> np.ndarray:
    """:func:`_bits` with every NaN read as one NaN: numpy's own add loops keep either operand's NaN
    payload, depending on the length of the call, so no row sum can promise a NaN's sign."""
    words = _bits(values).copy()
    words[np.isnan(np.ascontiguousarray(values).view(np.float64))] = _bits(np.array(np.nan))
    return words


@PROPERTY_SETTINGS
@given(d=st.integers(2, 64), n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       shares=st.tuples(*[st.sampled_from((0.0, 0.02, 0.3))] * 4), signed_zero_rows=st.integers(0, 3))
# Rows of signed zeros at d = 4, every special value at d = 9 over 300 rows, and the largest d a scan takes.
@example(d=4, n=5, seed=1, shares=(0.3, 0.0, 0.0, 0.0), signed_zero_rows=2)
@example(d=9, n=300, seed=2, shares=(0.02, 0.02, 0.02, 0.02), signed_zero_rows=1)
@example(d=64, n=3, seed=3, shares=(0.0, 0.02, 0.02, 0.0), signed_zero_rows=0)
def test_the_row_rules_add_the_columns_left_to_right(d, n, seed, shares, signed_zero_rows):
    """_row_sum of a complex or float row is numpy's left-to-right accumulation of it, zero signs and
    infinities included, and a float row's sum the real part of its complex twin's; _row_any is numpy's any."""
    rng = np.random.default_rng(seed)
    rows = _special_rows(rng, (n, d), shares)
    entries = np.empty((n, d), dtype=complex)
    entries.real, entries.imag = rows, _special_rows(rng, (n, d), shares)
    rows[:signed_zero_rows] = entries[:signed_zero_rows] = -0.0
    g = rng.uniform(-0.1, 1.1, (n, d)) + 1j * rng.choice((0.0, 1e-12, 1e-6), (n, d))
    with np.errstate(invalid="ignore"):
        for x in (entries, rows):
            assert np.array_equal(_bits_or_nan(_row_sum(x)), _bits_or_nan(np.add.accumulate(x, axis=-1)[:, -1]))
        assert np.array_equal(_bits_or_nan(_row_sum(rows)), _bits_or_nan(_row_sum(rows.astype(complex)).real))
    mask = anomalous_mask(g, 0.0, 1.0, wv.DEFAULT_TOL.anom)
    assert np.array_equal(_row_any(mask), mask.any(axis=1))


# signed distances from a decision line, in units of the band: anom/10, anom and 10 anom, or anything within 20 anom
_OFFSETS = st.sampled_from((-10.0, -1.0, -0.1, 0.1, 1.0, 10.0)) | st.floats(-20.0, 20.0)


@st.composite
def judged_records(draw):
    """The kernel record of one generated pair, judged at a band from 1e-12 to 1e-3, and the same
    record with each part of each g_i and of A_w left alone or pushed within 20 bands of a decision
    line (a spectrum edge, or |Im| = band), and a slack that puts each error at up to 20 bands.

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
    slack = draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 20.0)) * anom * dist.denominator
    return dist, replace(dist, weights=weights, value=push(dist.value, dist.spectrum_lo, dist.spectrum_hi),
                         slack=slack)


@PROPERTY_SETTINGS
@given(judged_records())
def test_the_record_verdicts_are_the_free_function_rules(records):
    for dist in records:
        assert (dist.classification, dist.marginal, dist.anomalous_indices, dist.marginal_indices,
                dist.anomalous) == verdicts(dist, dist.tol.anom)
        lo, hi, anom = dist.spectrum_lo, dist.spectrum_hi, dist.tol.anom
        assert [classify(complex(w), 0.0, 1.0, anom) for w in dist.weights] == [
            oracle_classify(complex(w), 0.0, 1.0, anom) for w in dist.weights]
        assert anomalous_mask(dist.value, lo, hi, anom) == (oracle_classify(dist.value, lo, hi, anom) != wv.NORMAL)


def _unit_vectors(rng, d, real):
    """A draw of random unit vectors of C^d (R^d when ``real``), each orthogonal to the unit vectors passed to it."""

    def unit(*against):
        v = rng.normal(size=d) + (0.0 if real else 1j * rng.normal(size=d))
        for u in against:
            v = v - np.vdot(u, v) * u
        return v / np.linalg.norm(v)

    return unit


@st.composite
def near_orthogonal_selections(draw):
    """Pure selections at d = 2..4, real or complex, with Tr(rho_phi rho_psi) = 10^u for u in [-11, 0],
    a band from 1e-12 to 1e-6, and an observable whose eigenvector a_0 lies anywhere, or tilted from
    the part of phi orthogonal to psi by 10^v rad (v in [-13, -3]) or by the angle that aims Re g_0
    at the decision line -band, give or take the rounding scale eps / Tr."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    real = draw(st.booleans())
    unit = _unit_vectors(rng, d, real)
    psi = unit()
    perp = unit(psi)
    overlap = 10.0 ** draw(st.floats(-11.0, 0.0))
    phi = np.sqrt(1.0 - overlap) * perp + np.sqrt(overlap) * psi
    anom = 10.0 ** draw(st.floats(-12.0, -6.0))
    aim = draw(st.sampled_from(("anywhere", "near", "aimed", "aimed")))
    if aim != "anywhere":
        towards = unit(perp)
        # a_0 = cos(tilt) perp + sin(tilt) towards gives g_0 = tilt k to first order
        k = np.vdot(towards, psi) * np.vdot(phi, perp) / np.vdot(phi, psi)
        assume(k.real != 0.0)  # 0 at Tr = 1, where phi is psi
        tilt = (10.0 ** draw(st.floats(-13.0, -3.0)) if aim == "near"
                else -(anom + draw(st.floats(-0.25, 0.25)) * np.finfo(float).eps / overlap) / k.real)
        first = np.cos(tilt) * perp + np.sin(tilt) * towards
        basis = np.linalg.qr(np.column_stack([first] + [unit() for _ in range(d - 1)]))[0]
    else:
        basis = np.linalg.qr(np.column_stack([unit() for _ in range(d)]))[0]
    spectrum = np.cumsum(draw(hnp.arrays(np.float64, d, elements=st.floats(0.1, 2.0)))) - draw(st.floats(-3.0, 3.0))
    matrix = (basis * np.roll(spectrum, draw(st.integers(0, d - 1)))) @ basis.conj().T
    obs = wv.eigensystem((matrix + matrix.conj().T) / 2.0)
    states = [wv.pure_to_density(wv.state_vector(v)) for v in (phi, psi)]
    return (*states, obs, wv.Tolerances(anom=anom))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_orthogonal_selections())
def test_a_verdict_that_rounding_flips_is_flagged(case):
    """Each anomaly verdict is the one exact arithmetic on the stored doubles gives, or it is flagged marginal."""
    rho_phi, rho_psi, obs, tol = case
    try:
        dist = wv.quasi_prob(rho_phi, rho_psi, obs, tol)
    except wv.OrthogonalSelectionError:
        assume(False)
    classification, anomalous_indices = exact_verdicts(rho_phi, rho_psi, obs, tol.anom)
    assert dist.classification == classification or dist.marginal
    for i in range(obs.dim):
        assert (i in dist.anomalous_indices) == (i in anomalous_indices) or i in dist.marginal_indices


@PROPERTY_SETTINGS
@given(d=st.sampled_from((2, 5, 16, 33, 64)), mixed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       log_overlap=st.floats(-10.0, 0.0))
def test_the_weak_value_sum_stays_within_its_stated_error(d, mixed, seed, log_overlap):
    """A_w = sum_i a_i g_i, summed column after column, lies within ``value_error`` of the same sum in
    exact rational arithmetic over the record's stored eigenvalues and g_i, up to d = 64 and down to
    Tr(rho_phi rho_psi) = 1e-10. A mixed pair is each pure state mixed with I / d at that overlap's weight."""
    rng = np.random.default_rng(seed)
    unit = _unit_vectors(rng, d, real=False)
    psi = unit()
    overlap = 10.0 ** log_overlap
    phi = np.sqrt(1.0 - overlap) * unit(psi) + np.sqrt(overlap) * psi
    weight = overlap if mixed else 0.0
    rho_phi, rho_psi = (wv.DensityOperator((1.0 - weight) * np.outer(v, v.conj()) + weight * np.eye(d) / d)
                        for v in (phi, psi))
    basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    spectrum = np.cumsum(rng.uniform(0.1, 2.0, d)) - rng.uniform(-3.0, 3.0)
    obs = wv.eigensystem((basis * spectrum) @ basis.conj().T)
    try:
        dist = wv.quasi_prob(rho_phi, rho_psi, obs)
    except wv.OrthogonalSelectionError:
        assume(False)
    exact = _sum(_exact(a) * _exact(w) for a, w in zip(dist.labels, dist.weights))
    value = _exact(dist.value)
    assert (value.real - exact.real) ** 2 + (value.imag - exact.imag) ** 2 <= Fraction(dist.value_error) ** 2


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
