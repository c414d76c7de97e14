"""Random-state ensembles, the negativity search, and the anomaly scan."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import weakvalues as wv
from weakvalues.cli import _SEARCH_OBSERVABLES
from weakvalues.explore import (
    DIAGONAL,
    HAAR_PURE,
    MIXED_FULL_RANK,
    REAL_MIXED,
    REAL_PURE,
    SAMPLER_KINDS,
    SEARCH_MIN_OVERLAP,
    SamplerSpec,
    sample,
    scan_anomaly_rate,
    search_max_negativity,
)
from weakvalues.explore import _block_size, _density_block, _draw, _task_rng
from oracles import draw_rounding_bound, reference_draw, scalar_search, trace_ratio_weak_value
from scan_oracle import pairwise_counts


def test_sampling_is_bit_reproducible():
    for kind in SAMPLER_KINDS:
        spec = SamplerSpec(dim=3, kind=kind, seed=123)
        a = sample(spec, index=7)
        b = sample(spec, index=7)
        mat_a = a.amps if hasattr(a, "amps") else a.matrix
        mat_b = b.amps if hasattr(b, "amps") else b.matrix
        assert np.array_equal(mat_a, mat_b)
        c = sample(spec, index=8)
        mat_c = c.amps if hasattr(c, "amps") else c.matrix
        assert not np.array_equal(mat_a, mat_c)


def test_all_kinds_yield_valid_states():
    for kind in SAMPLER_KINDS:
        for d in (2, 3, 5):
            spec = SamplerSpec(dim=d, kind=kind, seed=9)
            for i in range(20):
                state = sample(spec, i)
                if hasattr(state, "amps"):
                    wv.state_vector(state.amps)
                else:
                    wv.validate_density(state.matrix)


def test_purity_by_kind():
    pure = sample(SamplerSpec(dim=4, kind=HAAR_PURE, seed=1), 0)
    rho = wv.pure_to_density(pure)
    assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-12

    full = sample(SamplerSpec(dim=4, kind=MIXED_FULL_RANK, seed=1), 0)
    assert np.all(np.linalg.eigvalsh(full.matrix) > 1e-6)


def test_real_kinds_are_entrywise_real():
    for kind, attr in ((REAL_PURE, "amps"), (REAL_MIXED, "matrix")):
        spec = SamplerSpec(dim=3, kind=kind, seed=5)
        for i in range(30):
            arr = getattr(sample(spec, i), attr)
            assert np.max(np.abs(arr.imag)) == 0.0


def test_diagonal_kind_has_no_coherence():
    spec = SamplerSpec(dim=4, kind=DIAGONAL, seed=6)
    obs = wv.eigensystem(np.diag(np.arange(4.0)))
    for i in range(30):
        rho = sample(spec, i)
        off = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.max(np.abs(off)) == 0.0
        assert wv.coherence_l1(rho, obs) < 1e-14


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
    # seed 1.5 and dim 2.5 once passed and failed in numpy inside ``sample``, and seed True drew as seed 1
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


@pytest.mark.parametrize("index", [-1, 1.5, True, np.bool_(True), np.float64(1.0)],
                         ids=["negative", "float", "bool", "numpy-bool", "numpy-float"])
def test_sample_takes_a_non_negative_integer_index(index):
    # index -1 once failed in numpy with "expected non-negative integer", 1.5 with
    # a TypeError about the seed, and True drew index 1
    with pytest.raises(wv.ValidationError) as excinfo:
        sample(SamplerSpec(dim=2, kind=HAAR_PURE, seed=0), index)
    assert str(excinfo.value) == f"sample index must be an integer >= 0, got {index!r}"


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32, np.uint8], ids=lambda t: t.__name__)
def test_numpy_integers_act_as_plain_ints(proj_zero, integer):
    # each of these once failed: "sampler dimension must be an integer >= 2, got np.int64(3)" and the like
    spec = SamplerSpec(dim=integer(2), kind=HAAR_PURE, seed=integer(7))
    assert spec == SamplerSpec(dim=2, kind=HAAR_PURE, seed=7)
    assert type(spec.dim) is int and type(spec.seed) is int
    assert np.array_equal(sample(spec, integer(3)).amps, sample(spec, 3).amps)
    summary = scan_anomaly_rate(spec, spec, proj_zero, integer(50))
    assert summary == scan_anomaly_rate(spec, spec, proj_zero, 50)
    assert type(summary.n) is int
    matrix = np.diag([1.0, 0.0])
    _assert_same_search(search_max_negativity(matrix, integer(30), integer(7)), search_max_negativity(matrix, 30, 7))


def test_haar_overlap_distribution():
    # |<0|psi>|^2 under the d=2 Haar measure is uniform on [0, 1]
    spec = SamplerSpec(dim=2, kind=HAAR_PURE, seed=11)
    n = 100_000
    vals = np.empty(n)
    for i in range(n):
        vals[i] = abs(sample(spec, i).amps[0]) ** 2
    sorted_vals = np.sort(vals)
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
        assert abs(r - 0.25) < 1e-3


def test_search_identity_is_flat():
    # raw matrices are accepted; eigensystem() would reject the degeneracy
    res = search_max_negativity(np.eye(2), budget=500, seed=2)
    assert abs(res.best_value - (-1.0)) < 1e-12


def test_search_rejects_non_finite_matrices():
    for bad in (np.nan, np.inf):
        with pytest.raises(wv.ValidationError, match="finite"):
            search_max_negativity(np.array([[bad, 0.0], [0.0, 1.0]]), budget=100, seed=0)


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


@pytest.mark.parametrize("name", sorted(_SEARCH_OBSERVABLES))
def test_search_matches_scalar_oracle_on_cli_observables(name):
    matrix = _SEARCH_OBSERVABLES[name]
    for seed in (0, 1, 7, 8):
        _assert_same_search(search_max_negativity(matrix, 3000, seed), scalar_search(matrix, 3000, seed))


@pytest.mark.parametrize("budget", (0, 1, 7, 19, 20, 21, 3000))
def test_search_matches_scalar_oracle_across_budgets(budget):
    # Fewer evaluations than restarts, uneven shares, and one long restart.
    for name in ("proj0", "x", "identity"):
        matrix = _SEARCH_OBSERVABLES[name]
        _assert_same_search(search_max_negativity(matrix, budget, 4), scalar_search(matrix, budget, 4))


def test_search_restarts_that_stop_on_min_step_match_the_oracle():
    # The flat identity never moves, so its restarts halve h down to
    # SEARCH_MIN_STEP and retire well before their shares are spent.
    got = search_max_negativity(np.eye(2), 10000, 6)
    assert got.evaluations < 10000
    _assert_same_search(got, scalar_search(np.eye(2), 10000, 6))


def test_search_matches_scalar_oracle_on_random_hermitian_matrices():
    rng = np.random.default_rng(2026)
    for seed in range(10):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        matrix = g + g.conj().T
        _assert_same_search(search_max_negativity(matrix, 3000, seed), scalar_search(matrix, 3000, seed))


unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(diagonal=st.tuples(unit, unit), off=st.tuples(unit, unit), seed=st.integers(0, 2 ** 32),
       budget=st.integers(0, 300))
def test_search_value_is_the_weak_value_at_a_feasible_pair(diagonal, off, seed, budget):
    b = complex(*off)
    matrix = np.array([[diagonal[0], b], [b.conjugate(), diagonal[1]]])
    res = search_max_negativity(matrix, budget, seed)
    phi, psi = res.best_states
    assert res.weak_value.real == -res.best_value
    aw = trace_ratio_weak_value(matrix, wv.pure_to_density(psi), wv.pure_to_density(phi))
    assert abs(res.weak_value - aw.value) <= 1e-12
    assert abs(np.vdot(phi.amps, psi.amps)) ** 2 >= SEARCH_MIN_OVERLAP - 1e-12


flat = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False).map(lambda c: c * np.eye(2))


@st.composite
def hermitian(draw):
    diagonal, off = draw(st.tuples(unit, unit)), draw(st.tuples(unit, unit))
    b = complex(*off)
    return np.array([[diagonal[0], b], [b.conjugate(), diagonal[1]]])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix=st.one_of(flat, hermitian()), seed=st.integers(0, 2 ** 32), budget=st.integers(0, 400))
def test_search_matches_scalar_oracle_on_drawn_observables(matrix, seed, budget):
    # Flat multiples of the identity never move, so their restarts halve h each sweep.
    _assert_same_search(search_max_negativity(matrix, budget, seed), scalar_search(matrix, budget, seed))


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
@given(scan_blocks())
def test_draws_stay_within_rounding_of_the_reference_sampler(case):
    kind, dim, seed, block, _, size = case
    got = _draw(kind, dim, _task_rng(seed, block), size)
    want = reference_draw(kind, dim, _task_rng(seed, block), size)
    variates = _task_rng(seed, block).normal(size=(size, 2, dim, dim)) if kind == REAL_MIXED else None
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
    ("real-pure", 2): (1996, 1996, 2004, 0),
    ("real-pure", 3): (3005, 1623, 995, 0),
    ("real-pure", 5): (3745, 1420, 255, 0),
    ("real-pure", 8): (3974, 1318, 26, 0),
    ("real-mixed", 2): (168, 168, 3832, 0),
    ("real-mixed", 3): (135, 6, 3865, 0),
    ("real-mixed", 5): (56, 0, 3944, 0),
    ("real-mixed", 8): (10, 0, 3990, 0),
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
    ("haar", 2): (2345, 2345, 1655, 0),
    ("haar", 3): (3164, 2937, 601, 0),
    ("haar", 5): (3551, 3423, 178, 0),
    ("haar", 8): (3670, 3618, 97, 0),
    ("mixed", 2): (890, 890, 3110, 0),
    ("mixed", 3): (664, 1061, 2768, 0),
    ("mixed", 5): (51, 1121, 2865, 0),
    ("mixed", 8): (0, 1245, 2755, 0),
}


@pytest.mark.parametrize("kind, dim", sorted(PINNED_WIDE_BAND_SCANS))
def test_complex_kind_scans_stay_pinned_in_a_wide_band(kind, dim):
    obs = wv.eigensystem(np.diag(np.arange(dim, dtype=float)))
    summary = scan_anomaly_rate(SamplerSpec(dim, kind, 2027), SamplerSpec(dim, kind, 2026), obs, 4000, WIDE_BAND)
    counts = (summary.anomalous_g, summary.anomalous_aw, summary.coherent_non_anomalous, summary.skipped)
    assert counts == PINNED_WIDE_BAND_SCANS[kind, dim]


@pytest.mark.parametrize("kind", (HAAR_PURE, MIXED_FULL_RANK))
def test_wide_band_pins_match_the_pairwise_oracle(kind):
    obs = wv.eigensystem(np.diag(np.arange(3.0)))
    counts = pairwise_counts(SamplerSpec(3, kind, 2027), SamplerSpec(3, kind, 2026), obs, 4000, WIDE_BAND)
    assert counts == PINNED_WIDE_BAND_SCANS[kind, 3]


def test_scan_block_stack_stays_within_one_mebibyte():
    for dim in (2, 3, 5, 8, 64, 300):
        assert _block_size(dim) >= 1
        if dim <= 256:
            assert _block_size(dim) * dim * dim * 16 <= 2 ** 20


def test_scan_diagonal_pairs_never_anomalous(proj_zero):
    spec_phi = SamplerSpec(dim=2, kind=DIAGONAL, seed=31)
    spec_psi = SamplerSpec(dim=2, kind=DIAGONAL, seed=32)
    summary = scan_anomaly_rate(spec_phi, spec_psi, proj_zero, 300)
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
