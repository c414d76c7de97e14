"""Random-state ensembles, the negativity search, and the anomaly scan."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import weakvalues as wv
from weakvalues import explore
from weakvalues.cli import _SEARCH_OBSERVABLES
from weakvalues.core import _l1_in_eigenbasis
from weakvalues.explore import (
    DIAGONAL,
    HAAR_PURE,
    MIXED_FULL_RANK,
    REAL_MIXED,
    REAL_PURE,
    SAMPLER_KINDS,
    SEARCH_MIN_OVERLAP,
    SamplerSpec,
    scan_anomaly_rate,
    search_max_negativity,
)
from weakvalues.explore import _block_size, _chunk_size, _density_block, _draw, _task_rng
from weakvalues.quasiprob import _g_contraction, quasi_prob_stack
from oracles import draw_rounding_bound, reference_draw, scalar_search, trace_ratio_weak_value
from scan_oracle import pairwise_counts


def test_sampling_is_bit_reproducible():
    for kind in SAMPLER_KINDS:
        spec = SamplerSpec(dim=3, kind=kind, seed=123)
        block = _density_block(spec, 7, 4)
        assert np.array_equal(block, _density_block(spec, 7, 4))
        assert not np.array_equal(block, _density_block(spec, 8, 4))


def test_all_kinds_yield_valid_states():
    for kind in SAMPLER_KINDS:
        for d in (2, 3, 5):
            for rho in _density_block(SamplerSpec(dim=d, kind=kind, seed=9), 0, 20):
                wv.validate_density(rho)


def test_purity_by_kind():
    pure = _density_block(SamplerSpec(dim=4, kind=HAAR_PURE, seed=1), 0, 1)[0]
    assert abs(np.trace(pure @ pure).real - 1.0) < 1e-12

    full = _density_block(SamplerSpec(dim=4, kind=MIXED_FULL_RANK, seed=1), 0, 1)[0]
    assert np.all(np.linalg.eigvalsh(full) > 1e-6)


def test_real_kinds_are_entrywise_real():
    for kind in (REAL_PURE, REAL_MIXED):
        block = _density_block(SamplerSpec(dim=3, kind=kind, seed=5), 0, 30)
        assert np.max(np.abs(block.imag)) == 0.0


@pytest.mark.parametrize("kind, dtype", [(HAAR_PURE, np.complex128), (MIXED_FULL_RANK, np.complex128),
                                         (REAL_PURE, np.float64), (REAL_MIXED, np.float64), (DIAGONAL, np.float64)])
def test_real_kinds_are_drawn_as_float64(kind, dtype):
    assert _draw(kind, 3, _task_rng(5, 0), 4).dtype == dtype
    assert _density_block(SamplerSpec(dim=3, kind=kind, seed=5), 0, 4).dtype == dtype


def test_diagonal_kind_has_no_coherence():
    spec = SamplerSpec(dim=4, kind=DIAGONAL, seed=6)
    obs = wv.eigensystem(np.diag(np.arange(4.0)))
    for rho in _density_block(spec, 0, 30):
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) == 0.0
        assert wv.coherence_l1(wv.DensityOperator(rho), obs) < 1e-14


def test_an_incoherent_state_has_no_negative_coherence():
    # The moduli sum minus the trace rounds to either side of 0 on the lifted diagonal rows of seed 9301,
    # block 0, at d = 5 (with numpy 2's reduction order, below it on 281 of the 2,621 rows, down to
    # -4.4e-16). Those rows read exactly 0.
    obs = wv.eigensystem(np.diag(np.arange(5.0)))
    block = _density_block(SamplerSpec(dim=5, kind=DIAGONAL, seed=9301), 0, _block_size(5))
    moduli = np.abs(block)
    raw = moduli.sum(axis=(1, 2)) - np.trace(moduli, axis1=1, axis2=2)
    assert np.count_nonzero(raw < 0.0) > 0
    l1 = np.array([wv.coherence_l1(wv.DensityOperator(rho), obs) for rho in block])
    assert np.array_equal(l1, np.maximum(raw, 0.0)) and np.array_equal(_l1_in_eigenbasis(block), l1)


def test_spec_validation():
    with pytest.raises(wv.ValidationError):
        SamplerSpec(dim=1, kind=HAAR_PURE, seed=0)
    with pytest.raises(wv.ValidationError):
        SamplerSpec(dim=2, kind="bogus", seed=0)
    with pytest.raises(wv.ValidationError):
        SamplerSpec(dim=2, kind=HAAR_PURE, seed=-1)


@pytest.mark.parametrize("dim, seed", [(2, 1.5), (2, True), (2, 2 ** 64), (2, "1"), (2.5, 0), (True, 0), (2.0, 0),
                                       (2, np.bool_(True)), (2, np.float64(1.0)), (np.bool_(True), 0),
                                       (np.float64(2.0), 0)],
                         ids=["float-seed", "bool-seed", "seed-past-64-bits", "str-seed", "float-dim", "bool-dim",
                              "integral-float-dim", "numpy-bool-seed", "numpy-float-seed", "numpy-bool-dim",
                              "numpy-float-dim"])
def test_spec_takes_integer_dimension_and_seed(dim, seed):
    # seed 1.5 and dim 2.5 once passed and failed in numpy inside the sampler, and seed True drew as seed 1
    with pytest.raises(wv.ValidationError, match="seed must be an unsigned|dimension must be an integer >= 2"):
        SamplerSpec(dim=dim, kind=HAAR_PURE, seed=seed)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True, pytest.param(np.bool_(True), id="numpy-bool"),
                                  pytest.param(np.float64(1.0), id="numpy-float")])
def test_search_takes_an_unsigned_64_bit_seed(seed):
    # seed -1 once failed in numpy's SeedSequence with "expected non-negative integer"
    with pytest.raises(wv.ValidationError, match="seed must be an unsigned 64-bit integer"):
        search_max_negativity(np.diag([1.0, 0.0]), 10, seed)


@pytest.mark.parametrize("budget", [1.5, True, 10.0, pytest.param(np.bool_(True), id="numpy-bool"),
                                    pytest.param(np.float64(10.0), id="numpy-float")])
def test_search_takes_an_integer_budget(budget):
    # budget 1.5 once failed in numpy with a bare TypeError, and budget True ran as budget 1
    with pytest.raises(wv.ValidationError, match="search budget must be an integer"):
        search_max_negativity(np.diag([1.0, 0.0]), budget, 0)


@pytest.mark.parametrize("n, message", [(2.5, "scan needs an integer n, got 2.5"),
                                        (True, "scan needs an integer n, got True"),
                                        pytest.param(np.bool_(True), "scan needs an integer n, got np.True_",
                                                     id="numpy-bool"),
                                        pytest.param(np.float64(2.0), "scan needs an integer n, got np.float64(2.0)",
                                                     id="numpy-float"),
                                        (0, "scan needs n >= 1, got 0"), (-3, "scan needs n >= 1, got -3")])
def test_scan_takes_an_integer_n_of_at_least_one(proj_zero, n, message):
    # n 2.5 once failed in numpy with a bare TypeError, and n True returned ScanSummary(n=True, ...)
    spec = SamplerSpec(dim=2, kind=HAAR_PURE, seed=0)
    with pytest.raises(wv.ValidationError) as excinfo:
        scan_anomaly_rate(spec, spec, proj_zero, n)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32, np.uint8], ids=lambda t: t.__name__)
def test_numpy_integers_act_as_plain_ints(proj_zero, integer):
    # each of these once failed: "sampler dimension must be an integer >= 2, got np.int64(3)" and the like
    spec = SamplerSpec(dim=integer(2), kind=HAAR_PURE, seed=integer(7))
    assert spec == SamplerSpec(dim=2, kind=HAAR_PURE, seed=7)
    assert type(spec.dim) is int and type(spec.seed) is int
    summary = scan_anomaly_rate(spec, spec, proj_zero, integer(50))
    assert summary == scan_anomaly_rate(spec, spec, proj_zero, 50)
    assert type(summary.n) is int
    matrix = np.diag([1.0, 0.0])
    _assert_same_search(search_max_negativity(matrix, integer(30), integer(7)), search_max_negativity(matrix, 30, 7))


def test_haar_overlap_distribution():
    # |<0|psi>|^2 under the d=2 Haar measure is uniform on [0, 1]
    spec = SamplerSpec(dim=2, kind=HAAR_PURE, seed=11)
    n = 100_000
    sorted_vals = np.sort(_density_block(spec, 0, n)[:, 0, 0].real)
    ks = np.max(np.abs(sorted_vals - (np.arange(1, n + 1) - 0.5) / n))
    assert ks < 0.01


def test_search_reaches_constrained_optimum():
    obs = wv.eigensystem(np.diag([1.0, 0.0]))
    res = search_max_negativity(obs, budget=10_000, seed=0)
    assert res.best_value >= 0.5 - 1e-6
    assert res.evaluations <= 10_000
    phi, psi = res.best_states
    aw = wv.weak_value_pure(obs, psi, phi)
    assert abs(-aw.value.real - res.best_value) < 1e-12


def test_search_geometry_at_optimum(proj_zero):
    res = search_max_negativity(proj_zero, budget=10_000, seed=1)
    phi, psi = res.best_states
    ray = proj_zero.basis_state(1)  # the projector's own ray, eigenvalue 1
    r_pp = abs(np.vdot(phi.amps, psi.amps)) ** 2
    r_pa = abs(np.vdot(phi.amps, ray.amps)) ** 2
    r_sa = abs(np.vdot(psi.amps, ray.amps)) ** 2
    # optimum closes the symmetric 120-degree configuration
    for r in (r_pp, r_pa, r_sa):
        assert abs(r - 0.25) < 1e-12


def test_search_identity_is_flat():
    # raw matrices are accepted; eigensystem() would reject the degeneracy
    res = search_max_negativity(np.eye(2), budget=500, seed=2)
    assert abs(res.best_value - (-1.0)) < 1e-12


def test_search_rejects_non_finite_matrices():
    for bad in (np.nan, np.inf):
        with pytest.raises(wv.ValidationError, match="finite"):
            search_max_negativity(np.array([[bad, 0.0], [0.0, 1.0]]), budget=100, seed=0)


def test_search_rejects_a_non_hermitian_matrix():
    # eigh reads one triangle; this matrix once returned best_value 1.779 with Im A_w = 0.0094
    with pytest.raises(wv.ValidationError, match="Hermiticity defect"):
        search_max_negativity(np.array([[0, 1], [0, 1]]), 2000, 0)


def test_search_budget_of_zero_evaluates_once(proj_zero):
    res = search_max_negativity(proj_zero, budget=0, seed=3)
    assert res.evaluations == 1


def test_search_is_repeatable(proj_zero):
    first = search_max_negativity(proj_zero, budget=3000, seed=5)
    again = search_max_negativity(proj_zero, budget=3000, seed=5)
    assert first.best_value == again.best_value
    assert np.array_equal(first.best_states[0].amps, again.best_states[0].amps)
    assert np.array_equal(first.best_states[1].amps, again.best_states[1].amps)
    assert first.evaluations == again.evaluations


def _assert_same_search(got, want):
    assert got.best_value == want.best_value
    assert got.weak_value == want.weak_value
    assert got.evaluations == want.evaluations
    assert np.array_equal(got.best_states[0].amps, want.best_states[0].amps)
    assert np.array_equal(got.best_states[1].amps, want.best_states[1].amps)


unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(diagonal=st.tuples(unit, unit), off=st.tuples(unit, unit), seed=st.integers(0, 2 ** 32),
       budget=st.integers(0, 300))
@example(diagonal=(0.6, 0.3), off=(-0.5, 0.4), seed=0, budget=1)  # its 30-degree pair rounds to 0.24999999999999994
def test_search_value_is_the_weak_value_at_a_feasible_pair(diagonal, off, seed, budget):
    b = complex(*off)
    matrix = np.array([[diagonal[0], b], [b.conjugate(), diagonal[1]]])
    res = search_max_negativity(matrix, budget, seed)
    phi, psi = res.best_states
    assert res.weak_value.real == -res.best_value
    aw = trace_ratio_weak_value(matrix, wv.pure_to_density(psi), wv.pure_to_density(phi))
    assert abs(res.weak_value - aw.value) <= 1e-12
    assert abs(np.vdot(phi.amps, psi.amps)) ** 2 >= SEARCH_MIN_OVERLAP
    # The spectrum that classifies A_w is the search's own decomposition, ascending.
    assert np.all(np.diff(res.spectrum) >= 0.0)
    assert np.allclose(res.spectrum, np.linalg.eigvalsh(matrix), rtol=0.0, atol=1e-12)


flat = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False).map(lambda c: c * np.eye(2))


@st.composite
def hermitian(draw):
    diagonal, off = draw(st.tuples(unit, unit)), draw(st.tuples(unit, unit))
    b = complex(*off)
    return np.array([[diagonal[0], b], [b.conjugate(), diagonal[1]]])


def _optimum(matrix):
    """-a_0 + (a_1 - a_0)/2, the largest -Re(A_w) under the floor 1/4, and the scale max(1, |a|) of its rounding."""
    a = np.linalg.eigvalsh(matrix)
    return -a[0] + (a[1] - a[0]) / 2.0, max(1.0, float(np.max(np.abs(a))))


observables = st.one_of(flat, hermitian())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix=observables, seed=st.integers(0, 2 ** 32), budget=st.integers(1, 3000))
def test_search_matches_scalar_oracle_on_drawn_observables(matrix, seed, budget):
    # The pattern search never beats the closed form.
    best = search_max_negativity(matrix, budget, seed).best_value
    _, scale = _optimum(matrix)
    assert scalar_search(matrix, budget, seed).best_value <= best + 1e-12 * scale


@pytest.mark.parametrize("budget", (0, 1, 7, 19, 20, 21, 3000))
def test_search_matches_scalar_oracle_across_budgets(budget):
    # Fewer evaluations than restarts, uneven shares, and one long restart: the closed form
    # scores one pair whatever the budget, and no budget lets the pattern search beat it.
    for name in ("proj0", "x", "identity"):
        matrix = _SEARCH_OBSERVABLES[name]
        got = search_max_negativity(matrix, budget, 4)
        assert got.evaluations == 1
        _assert_same_search(got, search_max_negativity(matrix, 1, 0))
        assert scalar_search(matrix, budget, 4).best_value <= got.best_value + 1e-12 * _optimum(matrix)[1]


@pytest.mark.parametrize("name", sorted(_SEARCH_OBSERVABLES))
def test_search_matches_scalar_oracle_on_cli_observables(name):
    # At budget 10^4 the pattern search reaches the closed form to 1e-6 from below.
    matrix = _SEARCH_OBSERVABLES[name]
    best = search_max_negativity(matrix, 10_000, 0).best_value
    found = scalar_search(matrix, 10_000, 0).best_value
    assert best - 1e-6 <= found <= best + 1e-12 * _optimum(matrix)[1]


@settings(max_examples=200, deadline=None)
@given(matrix=observables)
def test_search_value_is_the_closed_form_optimum(matrix):
    optimum, scale = _optimum(matrix)
    assert abs(search_max_negativity(matrix, 1, 0).best_value - optimum) <= 1e-12 * scale


def test_no_pure_qubit_pair_above_the_floor_beats_the_optimum():
    # The proof's numeric check: Re P_w >= -1/2 for P = |0><0| whenever |<phi|psi>|^2 >= 1/4.
    rng = np.random.default_rng(2026)
    z = rng.standard_normal((2, 2, 300_000)) + 1j * rng.standard_normal((2, 2, 300_000))
    phi, psi = z / np.linalg.norm(z, axis=1, keepdims=True)
    inner = np.sum(phi.conj() * psi, axis=0)
    feasible = np.abs(inner) ** 2 >= SEARCH_MIN_OVERLAP
    assert np.count_nonzero(feasible) >= 200_000
    negativity = -(phi[0].conj() * psi[0] / inner)[feasible].real
    assert negativity.max() <= 0.5 + 1e-12


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
@pytest.mark.parametrize("dim", (2, 3, 5))
def test_scan_matches_pairwise_oracle(kind, dim):
    # n crosses the first block boundary, so two keyed blocks are drawn.
    n = _block_size(dim) + 40
    spec_phi = SamplerSpec(dim=dim, kind=kind, seed=21)
    spec_psi = SamplerSpec(dim=dim, kind=kind, seed=22)
    obs = wv.eigensystem(np.diag(np.arange(dim, dtype=float)))
    summary = scan_anomaly_rate(spec_phi, spec_psi, obs, n)
    counts = (summary.anomalous_g, summary.anomalous_aw,
              summary.coherent_non_anomalous, summary.skipped)
    assert counts == pairwise_counts(spec_phi, spec_psi, obs, n)
    assert summary.n == n


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
@pytest.mark.parametrize("basis", ("swap", "rotation"))
def test_scan_reads_its_draws_in_the_eigenbasis_of_any_observable(proj_zero, kind, basis):
    # The oracle writes each pair as V rho V^dagger and rotates it back through the rotated kernels;
    # in the wide band the counts of the complex kinds depend on their states too.
    if basis == "swap":
        obs = proj_zero
    else:  # a real rotation of R^3: about x by 0.4, then about z by 1.1
        (cx, cz), (sx, sz) = np.cos([0.4, 1.1]), np.sin([0.4, 1.1])
        rotation = (np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
                    @ np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]]))
        obs = wv.eigensystem(rotation @ np.diag([0.0, 1.0, 2.0]) @ rotation.T)
    assert not np.array_equal(np.abs(obs.eigenvectors), np.eye(obs.dim))
    n = 600
    spec_phi = SamplerSpec(dim=obs.dim, kind=kind, seed=51)
    spec_psi = SamplerSpec(dim=obs.dim, kind=kind, seed=52)
    summary = scan_anomaly_rate(spec_phi, spec_psi, obs, n, WIDE_BAND)
    counts = (summary.anomalous_g, summary.anomalous_aw, summary.coherent_non_anomalous, summary.skipped)
    assert counts == pairwise_counts(spec_phi, spec_psi, obs, n, WIDE_BAND)
    if kind == DIAGONAL:
        assert counts == (0, 0, 0, 0)


EPS = float(np.finfo(float).eps)


def _projectors(rows: np.ndarray) -> np.ndarray:
    """|v><v| of (n, d) amplitude rows, formed as :func:`_density_block` forms them."""
    return rows[:, :, None] * rows[:, None, :].conj()


def _record_error(g: np.ndarray, den: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``QuasiProbDist.error`` of every row's record, slack 0: 2 d eps (1 + |g_i|) / Tr."""
    return wv.QuasiProbDist(weights=g, labels=labels, value=0j, denominator=den[:, None], slack=0.0,
                            tol=wv.DEFAULT_TOL).error


def _pure_rounding(d: int, l1: np.ndarray) -> np.ndarray:
    """How far the pure rules' overlaps and l1 may sit from the projector kernels' on unit rows.

    To first order the projector route sums d^2 products of relative error 4 eps, and the pure route
    squares a sum of d moduli and subtracts a sum of d squares; together at most
    (d^2 + 3 d + 11) eps (sum_i |v_i|)^2, and (sum_i |v_i|)^2 = 1 + l1 for a unit row. The overlap's
    two routes differ by at most (d^2 + 2 d + 9) eps, as T <= (sum_i |phi_i| |psi_i|)^2 <= 1.
    """
    return (d + 4) ** 2 * EPS * (1.0 + l1)


def _bits(values: np.ndarray) -> np.ndarray:
    """The raw 64-bit words of a float64 or complex128 array, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(values).view(np.uint64)


def _assert_pure_rows_within_error(phi, psi, den, g, value, obs):
    """The pure rule's rows against :func:`quasi_prob_stack` on the projectors: g within each record's
    ``error``, A_w within its ``value_error``, the overlaps within rounding."""
    den_want, g_want, value_want = quasi_prob_stack(_projectors(phi), _projectors(psi), obs)
    kept = den_want > wv.DEFAULT_SELECTION_THRESHOLD
    assert np.array_equal(den > wv.DEFAULT_SELECTION_THRESHOLD, kept)
    assert np.all(np.abs(den - den_want) <= _pure_rounding(obs.dim, 0.0))
    error = _record_error(g_want[kept], den_want[kept], obs.eigenvalues)
    assert np.all(np.abs(g[kept] - g_want[kept]) <= error)
    assert np.all(np.abs(value[kept] - value_want[kept]) <= error @ np.abs(obs.eigenvalues))


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
@pytest.mark.parametrize("dim", (2, 3, 5, 8, 17))
def test_scan_rows_are_the_rotated_kernels_bits(monkeypatch, kind, dim):
    # diag(0..d-1) has V = I exactly, so the unrotated scan of the matrix and population kinds must
    # give the rotated route's bits, gathered across each block's chunks; at d = 17 numpy sums each
    # row in pairwise blocks. The pure kinds form no projectors: their rows hold to the rotated route
    # on the projectors within the record's error, and their l1 within rounding. The population rule
    # forms no l1, so each diagonal state's own record must read 0 to rounding. The wide band leaves
    # quiet rows in every kind.
    obs = wv.eigensystem(np.diag(np.arange(dim, dtype=float)))
    pure, populations = kind in (HAAR_PURE, REAL_PURE), kind == DIAGONAL
    contraction_name = ("_pure_contraction" if pure else "_population_contraction" if populations
                        else "_g_contraction")
    l1_name = "_pure_l1" if pure else "_l1_in_eigenbasis"
    contraction, l1 = getattr(explore, contraction_name), getattr(explore, l1_name)
    calls, l1_rows = [], []

    def recorded_contraction(*args):
        out = contraction(*args)
        calls.append((args[:2], out))
        return out

    def recorded_l1(stack):
        values = l1(stack)
        l1_rows.extend(zip(stack, values))
        return values

    monkeypatch.setattr(explore, contraction_name, recorded_contraction)
    monkeypatch.setattr(explore, l1_name, recorded_l1)
    spec_phi, spec_psi = SamplerSpec(dim, kind, 61), SamplerSpec(dim, kind, 62)
    blocks = [_block_size(dim), 40]
    scan_anomaly_rate(spec_phi, spec_psi, obs, sum(blocks), WIDE_BAND)
    # Row blocks are scored whole, matrix blocks a chunk at a time.
    chunk = _block_size(dim) if pure or populations else _chunk_size(dim)
    assert [len(out[-1]) for _, out in calls] == [min(chunk, m - at) for m in blocks for at in range(0, m, chunk)]
    first, second = (np.concatenate([args[k] for args, _ in calls]) for k in range(2))
    out = [np.concatenate([outs[k] for _, outs in calls]) for k in range(len(calls[0][1]))]
    stacks = [np.concatenate([_density_block(spec, b, m) for b, m in enumerate(blocks)])
              for spec in (spec_phi, spec_psi)]
    if pure:
        assert np.array_equal(_projectors(first), stacks[0]) and np.array_equal(_projectors(second), stacks[1])
        _assert_pure_rows_within_error(first, second, *out, obs)
        assert out[2].dtype == (np.float64 if kind == REAL_PURE else np.complex128)
    else:
        if populations:
            # diag(p) as p_i times the identity's rows: every off-diagonal entry is 1 * 0.
            assert np.array_equal(first[:, :, None] * np.eye(dim), stacks[0])
            assert np.array_equal(second[:, :, None] * np.eye(dim), stacks[1])
        else:
            # _g_contraction reads (rho_psi^T, rho_phi).
            assert np.array_equal(second, stacks[0]) and np.array_equal(first.transpose(0, 2, 1), stacks[1])
        # The population rule returns its overlaps, _g_contraction none.
        *den, g, value = out
        den_want, g_want, value_want = quasi_prob_stack(*stacks, obs)
        assert all(np.array_equal(got, den_want) for got in den)
        assert np.array_equal(g, g_want)
        # A real kind's weak values are float64, the real parts of the rotated route's bit for bit.
        if kind in (REAL_MIXED, DIAGONAL):
            assert value.dtype == np.float64 and np.all(value_want.imag == 0.0)
            value_want = value_want.real
        assert np.array_equal(_bits(value), _bits(value_want))
    if populations:
        assert not l1_rows
        for state in np.concatenate(stacks):
            assert wv.coherence_l1(wv.DensityOperator(state), obs) <= (dim + 4) ** 2 * EPS
        return
    assert l1_rows
    for state, value in l1_rows:
        want = wv.coherence_l1(wv.DensityOperator(_projectors(state[None])[0] if pure else state), obs)
        if pure:
            assert abs(value - want) <= _pure_rounding(dim, want)
        else:
            assert value == want


# Every pairing of kinds the library takes, so rows lifted to matrices are chunked too.
SCAN_PAIRINGS = [(kind, kind) for kind in SAMPLER_KINDS] + [(DIAGONAL, MIXED_FULL_RANK), (HAAR_PURE, DIAGONAL)]


@pytest.mark.parametrize("kinds", SCAN_PAIRINGS, ids="-".join)
@pytest.mark.parametrize("dim", (2, 3, 8, 17))
def test_scan_counts_do_not_depend_on_the_chunk_size(monkeypatch, kinds, dim):
    obs = wv.eigensystem(np.diag(np.arange(dim, dtype=float)))
    spec_phi, spec_psi = SamplerSpec(dim, kinds[0], 71), SamplerSpec(dim, kinds[1], 72)
    n = _block_size(dim) + 40
    bands = (wv.DEFAULT_TOL, WIDE_BAND)
    want = [scan_anomaly_rate(spec_phi, spec_psi, obs, n, tol) for tol in bands]
    for chunk in (1, 7, _block_size(dim)):
        monkeypatch.setattr(explore, "_chunk_size", lambda dim, chunk=chunk: chunk)
        assert [scan_anomaly_rate(spec_phi, spec_psi, obs, n, tol) for tol in bands] == want


@st.composite
def pure_rows(draw):
    """(phi, psi) as (n, d) unit amplitude rows at d = 2..64, real or complex, with
    |<phi|psi>| = t for t drawn down to 10^-5.5, so overlaps reach 1e-11."""
    d, n = draw(st.integers(2, 64)), draw(st.integers(1, 3))
    raw = draw(hnp.arrays(np.float64, (2, 2, n, d), elements=unit))
    psi, phi = raw[:, 0] + (0.0 if draw(st.booleans()) else 1j) * raw[:, 1]
    assume(np.all(np.linalg.norm(psi, axis=1) > 1e-3))
    psi = psi / np.linalg.norm(psi, axis=1)[:, None]
    phi = phi - np.einsum("ni,ni->n", psi.conj(), phi)[:, None] * psi
    assume(np.all(np.linalg.norm(phi, axis=1) > 1e-3))
    t = 10.0 ** draw(st.floats(-5.5, 0.0))
    phase = np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi))) if np.iscomplexobj(psi) else 1.0
    phi = np.sqrt(1.0 - t * t) * phi / np.linalg.norm(phi, axis=1)[:, None] + t * phase * psi
    return phi / np.linalg.norm(phi, axis=1)[:, None], psi


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pure_rows())
def test_pure_rule_is_the_projector_kernel_within_the_record_error(case):
    phi, psi = case
    d = phi.shape[1]
    obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
    _assert_pure_rows_within_error(phi, psi, *explore._pure_contraction(phi, psi, obs.eigenvalues), obs)
    want = _l1_in_eigenbasis(_projectors(phi))
    assert np.all(np.abs(explore._pure_l1(phi) - want) <= _pure_rounding(d, want))


# Rates that theory fixes, tested as rates rather than bits, so a change of sampler passes
# them unedited. A one-sample binomial bound at z = 6 over n = 90,000 pairs resolves +-1%.
EXACT_RATE_N = 90_000


@pytest.mark.parametrize("spectrum", ([0.0, 1.0], [3.5, -2.0]), ids=("diag01", "diag35-2"))
@pytest.mark.parametrize("seed", (2027, 77))
def test_real_pure_qubit_pairs_are_anomalous_half_the_time(spectrum, seed):
    # P(anomalous) = 1/2 exactly for any non-degenerate observable, by the Bloch-arc proof under
    # "exact scan rates" in the README. A_w is anomalous exactly when some g_i is, so both counts read it.
    obs = wv.eigensystem(np.diag(spectrum))
    summary = scan_anomaly_rate(SamplerSpec(2, REAL_PURE, seed), SamplerSpec(2, REAL_PURE, seed + 1), obs,
                                EXACT_RATE_N)
    for count in (summary.anomalous_g, summary.anomalous_aw):
        assert abs(count / EXACT_RATE_N - 0.5) <= 6.0 * np.sqrt(0.25 / EXACT_RATE_N)



def test_scan_is_repeatable_and_keyed_by_block(proj_zero):
    spec_phi = SamplerSpec(dim=2, kind=HAAR_PURE, seed=21)
    spec_psi = SamplerSpec(dim=2, kind=HAAR_PURE, seed=22)
    one = scan_anomaly_rate(spec_phi, spec_psi, proj_zero, 400)
    assert one == scan_anomaly_rate(spec_phi, spec_psi, proj_zero, 400)
    assert one.anomalous_g > 0
    # A scan's first pairs do not depend on how many pairs follow them.
    for kind in SAMPLER_KINDS:
        spec = SamplerSpec(dim=3, kind=kind, seed=23)
        assert np.array_equal(_density_block(spec, 1, 40), _density_block(spec, 1, 1000)[:40])


@st.composite
def scan_blocks(draw, kinds=st.sampled_from(SAMPLER_KINDS)):
    """(kind, dim, seed, block number, size m, size M) with 1 <= m <= M <= the block size at dim."""
    dim = draw(st.integers(2, 64))
    full = draw(st.integers(1, _block_size(dim)))
    return (draw(kinds), dim, draw(st.integers(0, 2 ** 64 - 1)), draw(st.integers(0, 1000)),
            draw(st.integers(1, full)), full)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scan_blocks())
def test_a_block_prefix_does_not_depend_on_the_block_size(case):
    kind, dim, seed, block, m, full = case
    spec = SamplerSpec(dim=dim, kind=kind, seed=seed)
    assert np.array_equal(_density_block(spec, block, m), _density_block(spec, block, full)[:m])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SAMPLER_KINDS), st.integers(2, 17), st.integers(0, 2 ** 64 - 1), st.integers(0, 1000),
       st.integers(1, 40), st.integers(1, 40))
def test_two_draws_in_a_row_are_one_draw_of_their_summed_size(kind, dim, seed, block, first, second):
    # The scan draws a matrix block chunk after chunk from one stream, and must get the whole block.
    rng = _task_rng(seed, block)
    got = np.concatenate([_draw(kind, dim, rng, first), _draw(kind, dim, rng, second)])
    assert np.array_equal(got, _draw(kind, dim, _task_rng(seed, block), first + second))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scan_blocks())
def test_draws_stay_within_rounding_of_the_reference_sampler(case):
    kind, dim, seed, block, _, size = case
    got = _draw(kind, dim, _task_rng(seed, block), size)
    want = reference_draw(kind, dim, _task_rng(seed, block), size)
    variates = _task_rng(seed, block).normal(size=(size, dim, 2 * dim)) if kind == REAL_MIXED else None
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= draw_rounding_bound(kind, variates, want))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scan_blocks(kinds=st.just(REAL_MIXED)))
def test_real_mixed_states_are_exactly_symmetric_and_real(case):
    _, dim, seed, block, _, size = case
    rho = _draw(REAL_MIXED, dim, _task_rng(seed, block), size)
    assert np.all(rho.imag == 0.0)
    assert np.array_equal(rho, rho.transpose(0, 2, 1))


# (anomalous_g, anomalous_aw, coherent_non_anomalous, skipped) of 4,000 pairs against
# diag(0, 1, ..., d - 1), post-selections at seed 2027 and pre-selections at 2026.
# Complex states give imaginary weak values, so haar and mixed count every pair.
PINNED_SCANS = {
    ("haar", 2): (4000, 4000, 0, 0),
    ("haar", 3): (4000, 4000, 0, 0),
    ("haar", 5): (4000, 4000, 0, 0),
    ("haar", 8): (4000, 4000, 0, 0),
    ("mixed", 2): (4000, 4000, 0, 0),
    ("mixed", 3): (4000, 4000, 0, 0),
    ("mixed", 5): (4000, 4000, 0, 0),
    ("mixed", 8): (4000, 4000, 0, 0),
    ("real-pure", 2): (2043, 2043, 1957, 0),
    ("real-pure", 3): (2961, 1570, 1039, 0),
    ("real-pure", 5): (3729, 1389, 271, 0),
    ("real-pure", 8): (3971, 1403, 29, 0),
    ("real-mixed", 2): (173, 173, 3827, 0),
    ("real-mixed", 3): (147, 3, 3853, 0),
    ("real-mixed", 5): (52, 0, 3948, 0),
    ("real-mixed", 8): (9, 0, 3991, 0),
    ("diagonal", 2): (0, 0, 0, 0),
    ("diagonal", 3): (0, 0, 0, 0),
    ("diagonal", 5): (0, 0, 0, 0),
    ("diagonal", 8): (0, 0, 0, 0),
}


@pytest.mark.parametrize("kind, dim", sorted(PINNED_SCANS))
def test_scan_counts_stay_pinned(kind, dim):
    obs = wv.eigensystem(np.diag(np.arange(dim, dtype=float)))
    summary = scan_anomaly_rate(SamplerSpec(dim, kind, 2027), SamplerSpec(dim, kind, 2026), obs, 4000)
    assert summary.n == 4000
    counts = (summary.anomalous_g, summary.anomalous_aw, summary.coherent_non_anomalous, summary.skipped)
    assert counts == PINNED_SCANS[kind, dim]


# The same scans of the complex kinds in the band 0.2, where their counts depend on the
# states' values, so a change to those samplers shows here.
WIDE_BAND = wv.Tolerances(anom=0.2)
PINNED_WIDE_BAND_SCANS = {
    ("haar", 2): (2237, 2237, 1763, 0),
    ("haar", 3): (3147, 2941, 618, 0),
    ("haar", 5): (3544, 3401, 192, 0),
    ("haar", 8): (3702, 3655, 64, 0),
    ("mixed", 2): (847, 847, 3153, 0),
    ("mixed", 3): (599, 1026, 2813, 0),
    ("mixed", 5): (57, 1147, 2837, 0),
    ("mixed", 8): (0, 1213, 2787, 0),
}


@pytest.mark.parametrize("kind, dim", sorted(PINNED_WIDE_BAND_SCANS))
def test_complex_kind_scans_stay_pinned_in_a_wide_band(kind, dim):
    obs = wv.eigensystem(np.diag(np.arange(dim, dtype=float)))
    summary = scan_anomaly_rate(SamplerSpec(dim, kind, 2027), SamplerSpec(dim, kind, 2026), obs, 4000, WIDE_BAND)
    counts = (summary.anomalous_g, summary.anomalous_aw, summary.coherent_non_anomalous, summary.skipped)
    assert counts == PINNED_WIDE_BAND_SCANS[kind, dim]


@pytest.mark.parametrize("kind", (HAAR_PURE, MIXED_FULL_RANK))
def test_wide_band_pins_match_the_pairwise_oracle(kind):
    for dim in (2, 3, 5, 8):
        obs = wv.eigensystem(np.diag(np.arange(dim, dtype=float)))
        counts = pairwise_counts(SamplerSpec(dim, kind, 2027), SamplerSpec(dim, kind, 2026), obs, 4000, WIDE_BAND)
        assert counts == PINNED_WIDE_BAND_SCANS[kind, dim]


@pytest.mark.parametrize("kind, dim", sorted(key for key in PINNED_SCANS if key[0] in (REAL_PURE, REAL_MIXED)))
def test_real_kind_pins_match_the_pairwise_oracle(kind, dim):
    # The counts of the real kinds depend on the drawn states at the default band, so a new
    # sampler re-pins them; the pair-by-pair recount is their second route.
    obs = wv.eigensystem(np.diag(np.arange(dim, dtype=float)))
    counts = pairwise_counts(SamplerSpec(dim, kind, 2027), SamplerSpec(dim, kind, 2026), obs, 4000)
    assert counts == PINNED_SCANS[kind, dim]


# SHA-256 of the bytes of _density_block(SamplerSpec(3, kind, 1), 0, 4), four states of each
# ensemble: any change to a stream, a variate layout or the arithmetic that builds the states
# fails here by name, where the count pins of haar and mixed at the default band cannot see it.
PINNED_SAMPLER_DIGESTS = {
    "haar": "8a8a8d413916c91794e517d0c4cb8f2ede5bc37dc49d74fd0e2521ef02b16764",
    "mixed": "3bfb76984eaeed384e69a79da260082aaacd7e91ec497298262b87b26453d385",
    "real-pure": "4907c90af0f5a2fa1107f42a01545a0f27161e89b62ec92655bff1e98968582c",
    "real-mixed": "2d596c1656946181ab9db531c27f92eb4d52c38bf1886474e2a94f70deb237da",
    "diagonal": "43089366d1c32dfbcbf066723fae788ae0334fa5512ab2f67fa07c4a6519f72b",
}


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_sampler_bits_stay_pinned(kind):
    block = _density_block(SamplerSpec(3, kind, 1), 0, 4)
    assert hashlib.sha256(block.tobytes()).hexdigest() == PINNED_SAMPLER_DIGESTS[kind]


def test_scan_block_stack_stays_within_one_mebibyte():
    for dim in (2, 3, 5, 8, 64, 300):
        assert _block_size(dim) >= _chunk_size(dim) >= 1
        if dim <= 256:
            assert _block_size(dim) * dim * dim * 16 <= 2 ** 20
        if dim <= 128:
            assert _chunk_size(dim) * dim * dim * 16 <= 2 ** 18


def test_scan_diagonal_pairs_never_anomalous(proj_zero):
    # Rate 0 by the theorem: incoherent selections give every g_i in [0, 1].
    for obs in (proj_zero, *(wv.eigensystem(np.diag(np.arange(d, dtype=float))) for d in (3, 5, 8))):
        spec_phi = SamplerSpec(dim=obs.dim, kind=DIAGONAL, seed=31)
        spec_psi = SamplerSpec(dim=obs.dim, kind=DIAGONAL, seed=32)
        summary = scan_anomaly_rate(spec_phi, spec_psi, obs, EXACT_RATE_N)
        assert summary.anomalous_g == 0
        assert summary.anomalous_aw == 0
        assert summary.coherent_non_anomalous == 0


def test_scan_real_mixed_finds_tame_coherence(proj_zero):
    spec_phi = SamplerSpec(dim=2, kind=REAL_MIXED, seed=41)
    spec_psi = SamplerSpec(dim=2, kind=REAL_MIXED, seed=42)
    summary = scan_anomaly_rate(spec_phi, spec_psi, proj_zero, 300)
    assert summary.coherent_non_anomalous > 0
    assert summary.n == 300
    assert summary.coherent_non_anomalous + summary.skipped <= 300


def test_scan_validation(proj_zero):
    spec = SamplerSpec(dim=3, kind=HAAR_PURE, seed=0)
    with pytest.raises(wv.ValidationError):
        scan_anomaly_rate(spec, spec, proj_zero, 10)
    spec2 = SamplerSpec(dim=2, kind=HAAR_PURE, seed=0)
    with pytest.raises(wv.ValidationError):
        scan_anomaly_rate(spec2, spec2, proj_zero, 0)
