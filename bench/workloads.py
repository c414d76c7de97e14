"""Workload generators: every request the benchmark sends, and how it is checked.

All inputs derive from the benchmark's ``--seed``; the program sees only the
generated command lines and problem files. A workload is run in whole
rounds. Within a run every round holds the same request types (``key``), so
per-type medians and the share of failed requests do not depend on how
many rounds fit into the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# Scan mix: all five kinds at d = 2, 3, 5 and 8. n spans 1500..15000 so a
# request still takes tens of milliseconds at twenty times today's rate; the
# sizes are fixed, not drawn, so the work per round does not depend on the seed.
# A round is kept near 10 s so that a 30 s run holds several rounds.
SCAN_MIX = tuple((kind, dim, 15000 if (kind, dim) == ("haar", 3) else 1500)
                 for kind in ("haar", "mixed", "real-pure", "real-mixed", "diagonal")
                 for dim in (2, 3, 5, 8))
SCAN_MC_PAIRS = 20000  # Monte Carlo pairs behind each (kind, dim) reference fraction

SEARCH_OBSERVABLES = ("proj0", "proj1", "z", "x", "identity")
SEARCH_BUDGET = 10000  # reaches the analytic optimum within 1e-6; 2000 does not


@dataclass
class Request:
    key: str                                  # request type; latencies are pooled per key
    argv: list[str]
    work: float                               # pairs (scan), searches, or deck requests
    check: Callable[[object, str], list[str]]  # (exit code, stdout) -> failure messages
    known_failing: bool = False
    dim: int = 0                              # scan dimension, for per-dimension rates


def _seeds(seed: int, stream: int, index: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, stream, index]).generate_state(count, dtype=np.uint64)
    # scan seeds its post-selection sampler with seed + 1 (mod 2**64); stay below that wrap.
    return [int(s) % (2 ** 63) for s in state]


class ScanReferences:
    """Monte Carlo reference fractions per (kind, dim), from the benchmark's own samplers."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.table: dict = {}

    def prepare(self, combos) -> None:
        for kind, dim in combos:
            if (kind, dim) not in self.table:
                rng = np.random.default_rng([self.seed, 99, dim, *kind.encode()])
                self.table[kind, dim] = oracle.scan_fractions(kind, dim, SCAN_MC_PAIRS, rng)

    def scan_request(self, kind: str, dim: int, n: int, seed: int) -> Request:
        reference = self.table[kind, dim]
        return Request(
            key=f"scan/{kind}/d{dim}/n{n}",
            argv=["scan", "--kind", kind, "--dim", str(dim), "--n", str(n), "--seed", str(seed)],
            work=n,
            dim=dim,
            check=lambda rc, out: oracle.check_scan(rc, out, kind, dim, n, reference, SCAN_MC_PAIRS),
        )


def search_request(observable: str, seed: int, budget: int = SEARCH_BUDGET) -> Request:
    return Request(
        key=f"search/{observable}",
        argv=["search", "--observable", observable, "--budget", str(budget), "--seed", str(seed)],
        work=1,
        check=lambda rc, out: oracle.check_search(rc, out, observable, budget),
    )


class ScanWorkload:
    name = "scan"
    calibration = "pairs"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.refs = ScanReferences(seed)
        self.refs.prepare((kind, dim) for kind, dim, _ in SCAN_MIX)

    def round(self, index: int) -> list[Request]:
        seeds = _seeds(self.seed, 1, index, len(SCAN_MIX))
        return [self.refs.scan_request(kind, dim, n, s) for (kind, dim, n), s in zip(SCAN_MIX, seeds)]


class SearchWorkload:
    name = "search"
    calibration = "dispatch"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def round(self, index: int) -> list[Request]:
        seeds = _seeds(self.seed, 2, index, len(SEARCH_OBSERVABLES))
        return [search_request(obs, s) for obs, s in zip(SEARCH_OBSERVABLES, seeds)]


# ---------------------------------------------------------------------------
# Report deck: problem files through the single-problem commands


def _c(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def _vec_pairs(v) -> list:
    return [_c(x) for x in v]


def _vec_real(v) -> list:
    return [float(x.real) for x in v]


def _mat_pairs(m) -> list:
    return [[_c(x) for x in row] for row in m]


def _mat_real(m) -> list:
    return [[float(x.real) for x in row] for row in m]


def _dm(v) -> np.ndarray:
    return np.outer(v, v.conj())


def _unitary(rng, d: int, real: bool) -> np.ndarray:
    z = rng.normal(size=(d, d)) if real else rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _observable(rng, d: int, real: bool = False):
    """Hermitian A = U diag(a) U^dagger; a within 0.3 * step of an even grid on [-1.5, 1.5].

    step = 3/(d-1), so the spectrum lies in [-2.4, 2.4] and gaps are at least 0.4 * step.
    """
    step = 3.0 / (d - 1)
    a = np.linspace(-1.5, 1.5, d) + rng.uniform(-0.3, 0.3, d) * step
    u = _unitary(rng, d, real)
    obs = (u * a) @ u.conj().T
    return (obs + obs.conj().T) / 2, u


def _pure(rng, d: int, real: bool = False) -> np.ndarray:
    z = rng.normal(size=d) if real else rng.normal(size=d) + 1j * rng.normal(size=d)
    return (z / np.linalg.norm(z)).astype(complex)


def _partner(rng, v: np.ndarray, real: bool = False) -> np.ndarray:
    """Pure state with |<v|w>|^2 drawn from [0.15, 0.85], away from orthogonality."""
    chi = _pure(rng, v.size, real)
    chi = chi - v * np.vdot(v, chi)
    chi /= np.linalg.norm(chi)
    c = math.sqrt(rng.uniform(0.15, 0.85))
    phase = 1.0 if real else np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    w = c * v + math.sqrt(1.0 - c * c) * phase * chi
    return w / np.linalg.norm(w)


def _mixed(rng, d: int, real: bool = False) -> np.ndarray:
    g = rng.normal(size=(d, d)) if real else rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return ((rho + rho.conj().T) / 2).astype(complex)


def _overlap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.trace(a @ b).real)


@dataclass
class Case:
    problem: dict
    ref: oracle.ProblemRef | None


def _case(obs, rho_psi, rho_phi, pre, post, diagonal=False) -> Case:
    obs_node = _mat_real(obs) if np.all(obs.imag == 0) else _mat_pairs(obs)
    return Case({"dimension": obs.shape[0], "observable": obs_node, "pre_state": pre, "post_state": post},
                oracle.ProblemRef(obs, rho_psi, rho_phi, diagonal=diagonal))


def _readme(rng, d):
    """The 120-degree problem of the README: A_w = -1/2 for the projector onto |0>."""
    pre = np.array([0.5, math.sqrt(3) / 2], dtype=complex)
    post = np.array([-0.5, math.sqrt(3) / 2], dtype=complex)
    return _case(np.diag([1.0, 0.0]).astype(complex), _dm(pre), _dm(post), _vec_real(pre), _vec_real(post))


def _pairs(rng, d):
    """Complex pure states as [re, im] pairs; at d = 2 the same text is a 2x2 grid of numbers."""
    obs, _ = _observable(rng, d)
    while True:
        psi = _pure(rng, d)
        # the matrix reading of the grid must fail, so the vector reading is the intended one
        if d != 2 or abs(psi[0].imag - psi[1].real) > 1e-3:
            break
    phi = _partner(rng, psi)
    if d == 2:
        while abs(phi[0].imag - phi[1].real) <= 1e-3:
            phi = _partner(rng, psi)
    return _case(obs, _dm(psi), _dm(phi), _vec_pairs(psi), _vec_pairs(phi))


def _real_anom(rng, d):
    """Real qubit pair and real observable with some g > 1: a violated fragment cycle must follow."""
    obs, u = _observable(rng, 2, real=True)
    while True:
        alpha, beta = rng.uniform(0.0, np.pi, size=2)
        psi = np.array([math.cos(alpha), math.sin(alpha)], dtype=complex)
        phi = np.array([math.cos(beta), math.sin(beta)], dtype=complex)
        inner = np.vdot(phi, psi)
        if abs(inner) ** 2 < 0.1:
            continue
        g = (u.conj().T @ phi).conj() * (u.conj().T @ psi) / inner
        if g.real.max() > 1.05:
            return _case(obs, _dm(psi), _dm(phi), _vec_real(psi), _vec_real(phi))


def _grid_density(rng, d):
    """Real mixed qubit state as a 2x2 grid of bare numbers: the matrix reading is valid."""
    obs, _ = _observable(rng, 2)
    while True:
        rho = _mixed(rng, 2, real=True)
        phi = _pure(rng, 2)
        if _overlap(rho, _dm(phi)) >= 0.05 and abs(phi[0].imag - phi[1].real) > 1e-3:
            return _case(obs, rho, _dm(phi), _mat_real(rho), _vec_pairs(phi))


def _complex_density(rng, d):
    obs, _ = _observable(rng, d)
    while True:
        rho_psi, rho_phi = _mixed(rng, d), _mixed(rng, d)
        if _overlap(rho_psi, rho_phi) >= 0.05:
            return _case(obs, rho_psi, rho_phi, _mat_pairs(rho_psi), _mat_pairs(rho_phi))


def _diag(rng, d):
    """Pre-selection diagonal in A's eigenbasis: no quasi-probability may be anomalous."""
    obs, u = _observable(rng, d)
    while True:
        p = rng.dirichlet(np.full(d, 2.0)) + 0.05
        rho = (u * (p / p.sum())) @ u.conj().T
        rho = (rho + rho.conj().T) / 2
        phi = _pure(rng, d)
        if _overlap(rho, _dm(phi)) >= 0.05 / d:
            return _case(obs, rho, _dm(phi), _mat_pairs(rho), _vec_pairs(phi), diagonal=True)


def _eigen(rng, d):
    """Pure pre-selection on an eigenvector of A: diagonal and pure, so no anomaly."""
    obs, u = _observable(rng, d)
    psi = u[:, int(rng.integers(d))].copy()
    phi = _partner(rng, psi)
    return _case(obs, _dm(psi), _dm(phi), _vec_pairs(psi), _vec_pairs(phi), diagonal=True)


def _orthogonal(rng, d):
    obs, _ = _observable(rng, d)
    psi = _pure(rng, d)
    phi = _pure(rng, d)
    phi = phi - psi * np.vdot(psi, phi)
    phi /= np.linalg.norm(phi)
    return Case({"dimension": d, "observable": _mat_pairs(obs), "pre_state": [_c(x) for x in psi],
                 "post_state": [_c(x) for x in phi]}, None)


def _nonpsd_grid(rng, d):
    """2x2 grid that is neither a density matrix (negative eigenvalue) nor a unit vector."""
    e = rng.uniform(0.1, 0.3)
    obs, _ = _observable(rng, 2)
    return Case({"dimension": 2, "observable": _mat_pairs(obs), "pre_state": [[1.0 + e, 0.0], [0.0, -e]],
                 "post_state": _vec_pairs(_pure(rng, 2))}, None)


def _nonhermitian(rng, d):
    obs, _ = _observable(rng, d)
    rho = _mixed(rng, d)
    rho[0, 1] += 0.05
    return Case({"dimension": d, "observable": _mat_pairs(obs), "pre_state": _mat_pairs(rho),
                 "post_state": _vec_pairs(_pure(rng, d))}, None)


def _degenerate(rng, d):
    u = _unitary(rng, d, real=False)
    a = np.array([0.3] * (d - 1) + [1.2])
    obs = (u * a) @ u.conj().T
    obs = (obs + obs.conj().T) / 2
    psi = _pure(rng, d)
    return Case({"dimension": d, "observable": _mat_pairs(obs), "pre_state": _vec_pairs(psi),
                 "post_state": _vec_pairs(_partner(rng, psi))}, None)


BUILDERS = {
    "readme": _readme, "pairs": _pairs, "real_anom": _real_anom, "grid_density": _grid_density,
    "complex_density": _complex_density, "diag": _diag, "eigen": _eigen, "orthogonal": _orthogonal,
    "nonpsd_grid": _nonpsd_grid, "nonhermitian": _nonhermitian, "degenerate": _degenerate,
}

# (command, format, builder, dimension, exit code of a refused input or None)
DECK = (
    ("compute", "json", "readme", 2, None),
    ("compute", "csv", "pairs", 2, None),
    ("compute", "json", "real_anom", 2, None),
    ("compute", "csv", "grid_density", 2, None),
    ("compute", "json", "diag", 2, None),
    ("gvals", "json", "pairs", 2, None),
    ("gvals", "csv", "complex_density", 2, None),
    ("gvals", "json", "real_anom", 2, None),
    ("gvals", "csv", "diag", 2, None),
    ("witness", "json", "grid_density", 2, None),
    ("witness", "csv", "pairs", 2, None),
    ("witness", "json", "diag", 2, None),
    ("witness", "csv", "real_anom", 2, None),
    ("contextuality", "json", "real_anom", 2, None),
    ("contextuality", "csv", "real_anom", 2, None),
    ("contextuality", "json", "pairs", 2, None),
    ("contextuality", "csv", "complex_density", 2, None),
    ("contextuality", "json", "diag", 2, None),
    ("pointer", "json", "pairs", 2, None),
    ("pointer", "csv", "real_anom", 2, None),
    ("pointer", "json", "eigen", 2, None),
    ("pointer", "csv", "pairs", 2, None),
    ("pointer", "json", "readme", 2, None),
    ("compute", "json", "pairs", 3, None),
    ("compute", "csv", "complex_density", 4, None),
    ("compute", "json", "diag", 4, None),
    ("compute", "csv", "eigen", 3, None),
    ("gvals", "json", "diag", 3, None),
    ("gvals", "csv", "pairs", 4, None),
    ("witness", "json", "complex_density", 3, None),
    ("witness", "csv", "diag", 4, None),
    ("contextuality", "json", "pairs", 3, None),
    ("contextuality", "csv", "complex_density", 4, None),
    ("pointer", "json", "pairs", 3, None),
    ("pointer", "csv", "eigen", 4, None),
    # wide problems: the O(d^3) cycle table and multi-megabyte reports
    ("compute", "csv", "pairs", 16, None),
    ("contextuality", "json", "pairs", 24, None),
    ("pointer", "json", "pairs", 32, None),
    ("witness", "csv", "pairs", 40, None),
    ("gvals", "json", "diag", 64, None),
    # refused by the gates: exit 1 for bad input, 2 for an orthogonal selection
    ("compute", "json", "nonpsd_grid", 2, 1),
    ("gvals", "csv", "nonhermitian", 3, 1),
    ("witness", "json", "degenerate", 3, 1),
    ("compute", "csv", "orthogonal", 2, 2),
    ("gvals", "json", "orthogonal", 4, 2),
    ("pointer", "json", "grid_density", 2, 1),  # pointer needs pure states
)


class ReportWorkload:
    name = "report"
    calibration = "dispatch"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.repeats = oracle.RepeatLog()
        deck_dir = workdir / f"deck-{seed}"
        deck_dir.mkdir(parents=True, exist_ok=True)
        self.requests: list[Request] = []
        rng = np.random.default_rng([seed, 3])
        for i, (cmd, fmt, builder, d, refused) in enumerate(DECK):
            case = BUILDERS[builder](rng, d)
            path = deck_dir / f"{i:02d}-{builder}-d{d}.json"
            path.write_text(json.dumps(case.problem))
            argv = [cmd, "--input", str(path), "--format", fmt]
            if refused is not None:
                check = self._refused_check(refused)
            else:
                check = self._report_check(cmd, fmt, case.ref, argv)
            self.requests.append(Request(f"report/{i:02d}-{cmd}-{fmt}-{builder}-d{d}", argv, 1, check))
        self.requests.append(Request("report/reproduce-paper", ["reproduce-paper"], 1,
                                     lambda rc, out: oracle.check_reproduce(rc, out)))
        # the first request again within the round: its stdout must repeat byte for byte
        first = self.requests[0]
        self.requests.append(Request("report/repeat-" + first.key.split("/")[1], first.argv, 1, first.check))
        # Known failure: a non-finite coupling must be refused (exit 1); the
        # pointer gate only checks > 0, so the run exits 3 with null moments.
        readme = _readme(rng, 2).problem
        path = deck_dir / "known-infinite-coupling.json"
        path.write_text(json.dumps({**readme, "pointer": {"coupling": math.inf}}))
        self.requests.append(Request("report/known-infinite-coupling", ["pointer", "--input", str(path)], 1,
                                     self._refused_check(1), known_failing=True))

    def _refused_check(self, expected_rc: int):
        return lambda rc, out: oracle.check_refused(rc, out, expected_rc)

    def _report_check(self, cmd, fmt, ref, argv):
        key = tuple(argv)

        def check(rc, out):
            return oracle.check_problem_report(cmd, fmt, rc, out, ref) + self.repeats.check(key, out)

        return check

    def round(self, index: int) -> list[Request]:
        return self.requests


WORKLOADS = {"scan": ScanWorkload, "search": SearchWorkload, "report": ReportWorkload}


def probe_round(seed: int, workdir: Path, refs: ScanReferences) -> list[Request]:
    """A fixed round that reaches every traced layer once, so each layer has a per-call cost
    on every workload: a qubit compute, contextuality and pointer, one search, and a
    small scan at each dimension of the scan mix."""
    path = workdir / "probe-readme.json"
    path.write_text(json.dumps(_readme(None, 2).problem))
    ref = _readme(None, 2).ref
    requests = [
        Request(f"probe/{cmd}", [cmd, "--input", str(path)], 1,
                lambda rc, out, cmd=cmd: oracle.check_problem_report(cmd, "json", rc, out, ref))
        for cmd in ("compute", "contextuality", "pointer")
    ]
    requests.append(search_request("proj0", _seeds(seed, 4, 0, 1)[0]))
    dims = (2, 3, 5, 8)
    refs.prepare(("haar", d) for d in dims)
    requests += [refs.scan_request("haar", d, 200, s) for d, s in zip(dims, _seeds(seed, 5, 0, len(dims)))]
    for r in requests[3:]:
        r.key = "probe/" + r.key
    return requests
