"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

The verdict lines print outside pytest's capture, so any run (``pytest -v``
included) shows them. Every criterion states its tolerance inline; the
random checks use fixed seeds so failures reproduce exactly.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

import weakvalues as wv
from weakvalues import cli
from weakvalues.contextuality import all_three_cycles, qubit_fragment_graph
from weakvalues.explore import (
    DIAGONAL,
    HAAR_PURE,
    MIXED_FULL_RANK,
    SamplerSpec,
    search_max_negativity,
)
from weakvalues.pointer import extrapolate, simulate, PointerConfig

from oracles import antipodal, corollary_projector_weak_value, incoherent_quasi_prob
from scan_oracle import _density_block

HALF_SQRT3 = np.sqrt(3.0) / 2.0


def _verdict(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _great_circle():
    psi = wv.state_vector([0.5, HALF_SQRT3])
    phi = wv.state_vector([-0.5, HALF_SQRT3])
    return psi, phi


def test_criterion_1_projector_weak_values(capsys):
    psi, phi = _great_circle()
    proj_low = wv.eigensystem(np.diag([1.0, 0.0]))
    proj_high = wv.eigensystem(np.diag([0.0, 1.0]))
    rho_psi, rho_phi = wv.pure_to_density(psi), wv.pure_to_density(phi)

    start = time.perf_counter()
    aw = wv.weak_value_pure(proj_low, psi, phi)
    bw = wv.weak_value_pure(proj_high, psi, phi)
    iw = wv.quasi_prob(rho_phi, rho_psi, proj_low).weights.sum()  # the identity is sum_i P_i
    elapsed = time.perf_counter() - start

    worst = max(abs(aw.value - (-0.5)), abs(bw.value - 1.5), abs(iw - 1.0))
    ok = worst < 1e-12 and elapsed < 1e-3
    _verdict(capsys, ok, "criterion-1",
             f"120-degree projector weak values (-1/2, 3/2, 1), worst error "
             f"{worst:.2e} (tol 1e-12), runtime {elapsed * 1e3:.3f} ms (< 1 ms)")


def test_criterion_2_coherent_mixed_pair(capsys):
    c_psi = np.sqrt(3.0 / 32.0)
    c_phi = np.sqrt(3.0) / 8.0
    rho_psi = wv.validate_density([[0.75, c_psi], [c_psi, 0.25]])
    rho_phi = wv.validate_density([[0.75, c_phi], [c_phi, 0.25]])
    obs = wv.eigensystem(np.diag([0.0, 1.0]))

    dist = wv.quasi_prob(rho_phi, rho_psi, obs)
    err = max(abs(dist.weights[0] - 0.829997), abs(dist.weights[1] - 0.170003))
    commutator = wv.commutator_norm(rho_phi, rho_psi)
    anomalous = dist.anomalous_indices

    ok = err < 5e-6 and commutator > 0.0 and anomalous == ()
    _verdict(capsys, ok, "criterion-2",
             f"coherent mixed pair g = (0.829997, 0.170003) within {err:.2e} "
             f"(tol 5e-6), commutator norm {commutator:.4f} > 0, no anomaly")


def test_criterion_3_incoherent_states_never_anomalous(capsys):
    start = time.perf_counter()
    checked = 0
    worst_imag = 0.0
    per_scenario = 10_000 // 12 + 1  # 10k spread over 3 scenarios x 4 dims

    def block(spec, key):
        return [wv.DensityOperator(rho) for rho in _density_block(spec, key, per_scenario)]

    for d in (2, 3, 4, 5):
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        diag = SamplerSpec(dim=d, kind=DIAGONAL, seed=1000 + d)
        diag2 = SamplerSpec(dim=d, kind=DIAGONAL, seed=2000 + d)
        mixed = SamplerSpec(dim=d, kind=MIXED_FULL_RANK, seed=3000 + d)
        # scenario A: both states diagonal; B: one diagonal, one generic;
        # C: both dephased copies of coherent states
        scenarios = [zip(block(diag, 0), block(diag2, 0)),
                     zip(block(diag, 1), block(mixed, 0)),
                     zip((wv.dephase(rho, obs) for rho in block(mixed, 1)),
                         (wv.dephase(rho, obs) for rho in block(mixed, 2)))]
        for pairs in scenarios:
            for rho_phi, rho_psi in pairs:
                if wv.overlap(rho_phi, rho_psi) <= 1e-12:
                    continue
                dist = wv.quasi_prob(rho_phi, rho_psi, obs)
                aw = wv.weak_value(obs, rho_psi, rho_phi)
                assert dist.anomalous_indices == ()
                assert aw.classification == wv.NORMAL
                worst_imag = max(worst_imag, float(np.max(np.abs(dist.weights.imag))))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 10_000 and elapsed < 30.0
    _verdict(capsys, ok, "criterion-3",
             f"{checked} incoherent selection pairs over d in 2..5, zero anomalies "
             f"at tol 1e-9 (worst imag weight {worst_imag:.1e}), "
             f"runtime {elapsed:.1f} s (< 30 s)")


def test_criterion_4_factorized_route_agrees(capsys):
    worst = 0.0
    checked = 0
    for d in (2, 3, 4, 5):
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        rng = np.random.default_rng(77 + d)
        for _ in range(2500):
            p = rng.uniform(0.02, 1.0, size=d)
            q = rng.uniform(0.02, 1.0, size=d)
            rho_phi = wv.validate_density(np.diag(p / p.sum()))
            rho_psi = wv.validate_density(np.diag(q / q.sum()))
            g_fact = incoherent_quasi_prob(rho_phi, rho_psi, obs)
            g_full = wv.quasi_prob(rho_phi, rho_psi, obs).weights
            worst = max(worst, float(np.max(np.abs(g_fact - g_full))))
            checked += 1
    ok = checked == 10_000 and worst < 1e-11
    _verdict(capsys, ok, "criterion-4",
             f"factorized vs. general distribution on {checked} diagonal pairs, "
             f"worst entrywise gap {worst:.2e} (tol 1e-11)")


def test_criterion_5_distribution_properties(capsys):
    rng = np.random.default_rng(55)
    worst_norm = worst_conj = worst_scale = worst_recon = 0.0
    checked = 0
    while checked < 10_000:
        d = int(rng.integers(2, 6))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        if rng.uniform() < 0.5:
            z = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            m_phi = np.outer(z[0], z[0].conj())
            m_psi = np.outer(z[1], z[1].conj())
        else:
            g1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            g2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m_phi = g1 @ g1.conj().T
            m_phi /= np.trace(m_phi).real
            m_psi = g2 @ g2.conj().T
            m_psi /= np.trace(m_psi).real
        if np.trace(m_phi @ m_psi).real <= 1e-9:
            continue
        rho_phi = wv.DensityOperator(m_phi)
        rho_psi = wv.DensityOperator(m_psi)
        dist = wv.quasi_prob(rho_phi, rho_psi, obs)

        worst_norm = max(worst_norm, abs(np.sum(dist.weights) - 1.0))

        flipped = wv.quasi_prob(rho_psi, rho_phi, obs)
        worst_conj = max(worst_conj, float(np.max(np.abs(flipped.weights - np.conj(dist.weights)))))

        alpha = complex(rng.normal(), rng.normal())
        s_phi, s_psi = alpha * m_phi, alpha * m_psi
        den = np.trace(s_phi @ s_psi)
        v = obs.eigenvectors
        scaled = np.einsum("ji,jk,ki->i", v.conj(), s_phi @ np.eye(d), (s_psi @ v)) / den
        raw = np.array([np.trace(s_phi @ np.outer(v[:, i], v[:, i].conj()) @ s_psi) / den
                        for i in range(d)])
        worst_scale = max(worst_scale, float(np.max(np.abs(raw - dist.weights))))

        aw = wv.weak_value(obs, rho_psi, rho_phi)
        worst_recon = max(worst_recon, abs(np.sum(dist.weights * dist.labels) - aw.value))
        checked += 1

    ok = (worst_norm < 1e-10 and worst_conj < 1e-12
          and worst_scale < 1e-10 and worst_recon < 1e-12)
    _verdict(capsys, ok, "criterion-5",
             f"10^4 configurations: normalization {worst_norm:.1e} (tol 1e-10), "
             f"swap conjugation {worst_conj:.1e} (tol 1e-12), complex-scale "
             f"invariance {worst_scale:.1e} (tol 1e-10), reconstruction "
             f"{worst_recon:.1e} (tol 1e-12)")


def test_criterion_6_projector_route_matches_anomalies(capsys):
    rng = np.random.default_rng(66)
    confirmed = 0
    worst = 0.0
    attempts = 0
    while confirmed < 2000 and attempts < 200_000:
        attempts += 1
        d = int(rng.integers(2, 5))
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        z = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        if abs(np.vdot(z[0], z[1])) ** 2 <= 1e-9:
            continue
        rho_phi = wv.pure_to_density(wv.state_vector(z[0]))
        rho_psi = wv.pure_to_density(wv.state_vector(z[1]))
        dist = wv.quasi_prob(rho_phi, rho_psi, obs)
        bad = dist.anomalous_indices
        if not bad:
            continue
        for i in bad:
            res = corollary_projector_weak_value(rho_phi, rho_psi, obs, i)
            worst = max(worst, abs(res.value - dist.weights[i]))
            assert res.classification != wv.NORMAL
        confirmed += 1
    ok = confirmed == 2000 and worst < 1e-12
    _verdict(capsys, ok, "criterion-6",
             f"{confirmed} anomalous configurations: projector weak value equals "
             f"the distribution weight within {worst:.1e} (tol 1e-12) and is "
             f"classified anomalous")


def test_criterion_7_real_anomalies_imply_violated_cycles(capsys):
    rng = np.random.default_rng(42)
    obs = wv.eigensystem(np.diag([1.0, 0.0]))
    found = 0
    draws = 0
    while found < 10_000:
        draws += 1
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        psi = wv.state_vector([np.cos(t1), np.sin(t1)])
        phi = wv.state_vector([np.cos(t2), np.sin(t2)])
        if abs(np.vdot(phi.amps, psi.amps)) ** 2 < 1e-6:
            continue
        rho_psi, rho_phi = wv.pure_to_density(psi), wv.pure_to_density(phi)
        dist = wv.quasi_prob(rho_phi, rho_psi, obs)
        if not any(w.real > 1.0 + 1e-9 for w in dist.weights):
            continue
        graph = qubit_fragment_graph(rho_phi, rho_psi, obs)
        assert all_three_cycles(graph).violated.any()
        found += 1

    # the 120-degree configuration pins the largest cycle value at 5/4;
    # oracle = direct overlap arithmetic on the six rays
    psi, phi = _great_circle()
    graph = qubit_fragment_graph(wv.pure_to_density(phi), wv.pure_to_density(psi), obs)
    got = all_three_cycles(graph).values.max()
    amps = [phi.amps, psi.amps,
            obs.basis_state(0).amps, obs.basis_state(1).amps,
            antipodal(phi).amps, antipodal(psi).amps]
    oracle = 0.0
    for i, j, k in combinations(range(6), 3):
        r_ij = abs(np.vdot(amps[i], amps[j])) ** 2
        r_ik = abs(np.vdot(amps[i], amps[k])) ** 2
        r_jk = abs(np.vdot(amps[j], amps[k])) ** 2
        oracle = max(oracle, r_ij + r_ik - r_jk, r_ij + r_jk - r_ik, r_ik + r_jk - r_ij)
    gap = abs(got - 1.25)

    ok = found == 10_000 and abs(oracle - 1.25) < 1e-12 and gap < 1e-12
    _verdict(capsys, ok, "criterion-7",
             f"{found} real anomalous configurations (from {draws} draws) all "
             f"produce violated 3-cycles; 120-degree maximum {got:.12f} matches "
             f"5/4 within {gap:.1e} (tol 1e-12, oracle by direct overlap arithmetic)")


def test_criterion_8_pointer_extrapolation(capsys):
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    worst = 0.0
    ratios = []
    checked = 0
    while checked < 100:
        d = 2 + checked % 2
        z = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        if abs(np.vdot(z[0], z[1])) ** 2 < 0.01:
            continue
        obs = wv.eigensystem(np.diag(np.arange(d, dtype=float)))
        psi = wv.state_vector(z[1])
        phi = wv.state_vector(z[0])
        aw = wv.weak_value_pure(obs, psi, phi)
        res = extrapolate(obs, psi, phi)
        worst = max(worst, abs(res.value - aw.value))

        e_coarse = abs(simulate(obs, psi, phi, PointerConfig(coupling=1e-2)).mean_position / 1e-2
                       - aw.value.real)
        e_fine = abs(simulate(obs, psi, phi, PointerConfig(coupling=5e-3)).mean_position / 5e-3
                     - aw.value.real)
        if e_coarse > 1e-10:
            ratios.append(e_coarse / e_fine)
        checked += 1
    elapsed = time.perf_counter() - start

    ratio_lo, ratio_hi = min(ratios), max(ratios)
    ok = (worst < 1e-6 and elapsed < 10.0
          and all(3.2 <= r <= 4.8 for r in ratios))
    _verdict(capsys, ok, "criterion-8",
             f"100 pointer extrapolations (d in 2,3), worst |extrapolate - A_w| "
             f"{worst:.2e} (tol 1e-6); halving the coupling shrinks the raw error "
             f"by {ratio_lo:.3f}-{ratio_hi:.3f} (4 +/- 20%); runtime "
             f"{elapsed:.2f} s (< 10 s)")


def test_criterion_9_search_hits_constrained_optimum(capsys):
    proj = np.diag([1.0, 0.0])
    worst = np.inf
    for seed in range(10):
        res = search_max_negativity(proj, budget=10_000, seed=seed)
        worst = min(worst, res.best_value)
    ok = worst >= 0.5 - 1e-6
    _verdict(capsys, ok, "criterion-9",
             f"rank-1 projector search, budget 10^4, seeds 0-9: worst best-value "
             f"{worst:.12f} >= 0.5 - 1e-6")


def test_criterion_10_reports_are_byte_identical(capsys):
    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        return code, out

    search_argv = ["search", "--observable", "proj0", "--budget", "3000", "--seed", "12"]
    scan_argv = ["scan", "--kind", "real-mixed", "--n", "2000", "--seed", "7"]

    _, search_a = run(search_argv)
    _, search_b = run(search_argv)
    _, scan_a = run(scan_argv)
    _, scan_b = run(scan_argv)

    ok = search_a == search_b and scan_a == scan_b
    json.loads(search_a), json.loads(scan_a)  # reports stay machine-readable
    _verdict(capsys, ok, "criterion-10",
             "search and scan reports byte-identical across repeated runs at fixed seeds")
