"""Independent checks of weakvalues' outputs, computed with plain numpy.

Nothing here imports weakvalues or compares against stored program output.
Each check returns a list of failure messages, each starting with the tag of
its check class (``report.aw``, ``scan.binomial``, ...), so the self-test can
tell that a perturbed output was caught by the class it targets.

Decision thresholds mirror the program's documented defaults: anomaly band
1e-9, selection threshold 1e-12, coherence threshold 1e-8. Verdicts are only
asserted when the benchmark's own value sits clearly off a decision boundary;
values within rounding (or, for the pointer, extrapolation) error of one are
left undecided rather than asserted either way.
"""

from __future__ import annotations

import csv
import hashlib
import json
from itertools import combinations

import numpy as np

ANOM_TOL = 1e-9
SELECTION_THRESHOLD = 1e-12
COHERENCE_TOL = 1e-8
AGREE = 1e-9          # report values against the benchmark's own, relative to max(1, |value|)
POINTER_AGREE = 1e-6  # extrapolated weak value against the exact one
CONSISTENT = "ConsistentWithTheorem"
NORMAL = "Normal"

SEARCH_MATRICES = {
    "proj0": np.diag([1.0, 0.0]),
    "proj1": np.diag([0.0, 1.0]),
    "z": np.diag([1.0, -1.0]),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "identity": np.eye(2),
}
# Analytic optimum of -Re(A_w) over pure qubit pairs with |<phi|psi>|^2 >= 1/4.
SEARCH_OPTIMUM = {"proj0": 0.5, "proj1": 0.5, "z": 2.0, "x": 2.0, "identity": -1.0}
SEARCH_MIN_OVERLAP = 0.25


# ---------------------------------------------------------------------------
# Verdicts with an explicit margin


def _close(got, want, tol: float = AGREE) -> bool:
    return got is not None and abs(got - want) <= tol * max(1.0, abs(want))


def anomalous(value: complex, lo: float, hi: float) -> bool:
    return abs(value.imag) > ANOM_TOL or value.real < lo - ANOM_TOL or value.real > hi + ANOM_TOL


def decided(value: complex, lo: float, hi: float) -> bool:
    """True when ``value`` is at least half the band away from every decision line.

    The lines are |Im| = band, Re = lo - band and Re = hi + band. A value
    exactly on the spectrum edge or exactly real is decided: rounding error
    (~1e-15 here) is far below half the band.
    """
    half = ANOM_TOL / 2
    lines = (abs(value.imag) - ANOM_TOL, value.real - (lo - ANOM_TOL), value.real - (hi + ANOM_TOL))
    return all(abs(x) > half for x in lines)


# ---------------------------------------------------------------------------
# Reference values of one problem


class ProblemRef:
    """The benchmark's own values for one selection problem (A, rho_psi, rho_phi)."""

    def __init__(self, observable, rho_psi, rho_phi, *, diagonal: bool = False) -> None:
        self.A = np.asarray(observable, dtype=complex)
        self.rho_psi = np.asarray(rho_psi, dtype=complex)
        self.rho_phi = np.asarray(rho_phi, dtype=complex)
        self.diagonal = diagonal
        self.dim = self.A.shape[0]
        self.real = all(np.max(np.abs(m.imag)) == 0.0 for m in (self.A, self.rho_psi, self.rho_phi))
        self.eigenvalues, self.basis = np.linalg.eigh(self.A)
        self.lo, self.hi = float(self.eigenvalues[0]), float(self.eigenvalues[-1])
        self.den = float(np.trace(self.rho_phi @ self.rho_psi).real)
        self.aw = complex(np.trace(self.rho_phi @ self.A @ self.rho_psi)) / self.den
        u = self.basis
        self.g = np.einsum("ji,jk,ki->i", u.conj(), self.rho_psi @ self.rho_phi, u) / self.den
        self.l1_pre = self._l1(self.rho_psi)
        self.l1_post = self._l1(self.rho_phi)
        self._cycles = None
        self._fragment = None

    def _l1(self, rho) -> float:
        m = self.basis.conj().T @ rho @ self.basis
        return float(np.sum(np.abs(m)) - np.sum(np.abs(np.diag(m))))

    def g_anomalous(self) -> list[int]:
        return [i for i, w in enumerate(self.g) if anomalous(complex(w), 0.0, 1.0)]

    def g_decided(self) -> bool:
        return all(decided(complex(w), 0.0, 1.0) for w in self.g)

    def aw_decided(self) -> bool:
        return decided(self.aw, self.lo, self.hi)

    @staticmethod
    def _table(gram: np.ndarray):
        n = gram.shape[0]
        idx = np.array(list(combinations(range(n), 3)))
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        e_ij, e_ik, e_jk = gram[i, j], gram[i, k], gram[j, k]
        values = np.concatenate([e_ij + e_ik - e_jk, e_ij + e_jk - e_ik, e_ik + e_jk - e_ij])
        line = 1.0 + ANOM_TOL
        return {
            "max_value": float(values.max()),
            "violated": int(np.sum(values > line)),
            "near_line": int(np.sum(np.abs(values - line) <= 1e-11)),
        }

    def cycles(self) -> dict:
        """3-cycle table over {phi, psi, eigenprojectors}, from overlap arithmetic."""
        if self._cycles is None:
            d = self.dim
            pops_phi = np.real(np.einsum("ji,jk,ki->i", self.basis.conj(), self.rho_phi, self.basis))
            pops_psi = np.real(np.einsum("ji,jk,ki->i", self.basis.conj(), self.rho_psi, self.basis))
            gram = np.zeros((d + 2, d + 2))
            gram[0, 1] = gram[1, 0] = self.den
            gram[0, 2:] = gram[2:, 0] = pops_phi
            gram[1, 2:] = gram[2:, 1] = pops_psi
            self._cycles = self._table(gram)
        return self._cycles

    def fragment(self) -> dict:
        """Six-vertex qubit fragment {phi, psi, a1, a2, 1 - phi, 1 - psi}."""
        if self._fragment is None:
            eye = np.eye(2)
            projectors = [np.outer(self.basis[:, i], self.basis[:, i].conj()) for i in range(2)]
            vertices = [self.rho_phi, self.rho_psi, *projectors, eye - self.rho_phi, eye - self.rho_psi]
            gram = np.array([[np.trace(x @ y).real for y in vertices] for x in vertices])
            self._fragment = self._table(gram)
        return self._fragment


# ---------------------------------------------------------------------------
# Report parsing (JSON, or the flat key,value CSV)


def _csv_value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _listify(node):
    if isinstance(node, dict):
        node = {k: _listify(v) for k, v in node.items()}
        if node and all(k.isdigit() for k in node):
            return [node[k] for k in sorted(node, key=int)]
    return node


def parse_report(text: str, fmt: str) -> dict:
    """Decode a report; CSV rows ``a.b.0,value`` become nested dicts and lists.

    Empty lists have no CSV rows, so checks read list fields with a default.
    """
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != ["key", "value"]:
        raise ValueError("CSV report without a key,value header")
    root: dict = {}
    for key, value in rows[1:]:
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = _csv_value(value)
    return _listify(root)


def _cplx(pair) -> complex:
    if not isinstance(pair, list) or len(pair) != 2 or any(x is None for x in pair):
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return complex(pair[0], pair[1])


def _idx(items) -> list[int]:
    return sorted(int(i) for i in (items or []))


# ---------------------------------------------------------------------------
# Report checks


def _check_weak_value(section: dict, ref: ProblemRef) -> list[str]:
    got = complex(section["re"], section["im"])
    if not _close(got.real, ref.aw.real) or not _close(got.imag, ref.aw.imag):
        return [f"report.aw: weak value {got} against {ref.aw}"]
    return []


def _check_quasiprob(section: dict, ref: ProblemRef) -> list[str]:
    fails = []
    labels = [float(a) for a in section["eigenvalues"]]
    weights = [_cplx(w) for w in section["weights"]]
    if len(weights) != ref.dim or any(not _close(a, b) for a, b in zip(labels, ref.eigenvalues)):
        fails.append("report.g: eigenvalues differ from the benchmark's own eigh of A")
    elif any(not (_close(w.real, g.real) and _close(w.imag, g.imag)) for w, g in zip(weights, ref.g)):
        fails.append("report.g: quasi-probabilities differ from Tr(rho_phi P_i rho_psi)/Tr(rho_phi rho_psi)")
    scale = max(1.0, sum(abs(w) for w in weights) * max(1.0, max(abs(a) for a in labels)))
    total = sum(weights)
    if abs(total - 1.0) > AGREE * scale:
        fails.append(f"report.sums: sum of g is {total}")
    aw_from_g = sum(a * w for a, w in zip(labels, weights))
    if abs(aw_from_g - ref.aw) > AGREE * scale:
        fails.append(f"report.sums: sum a_i g_i = {aw_from_g} against A_w = {ref.aw}")
    if ref.g_decided() and _idx(section.get("anomalous_indices")) != ref.g_anomalous():
        fails.append(f"report.g: anomalous indices {section.get('anomalous_indices')} "
                     f"against {ref.g_anomalous()}")
    if ref.diagonal and section.get("anomalous_indices"):
        fails.append("report.diagonal: anomalous index with a state diagonal in A's eigenbasis")
    return fails


def _check_witness(section: dict, ref: ProblemRef) -> list[str]:
    fails = []
    if section["verdict"] != CONSISTENT:
        fails.append(f"report.witness: verdict {section['verdict']}")
    if not (_close(section["l1_pre"], ref.l1_pre) and _close(section["l1_post"], ref.l1_post)):
        fails.append("report.witness: l1 coherences differ from the benchmark's own")
    if ref.diagonal and (section.get("anomalous_indices") or section["aw_classification"] != NORMAL):
        fails.append("report.diagonal: anomaly reported with a state diagonal in A's eigenbasis")
    return fails


def _check_cycles(section: dict, ref: ProblemRef) -> list[str]:
    fails = []
    table = ref.cycles()
    if not _close(section["max_value"], table["max_value"]):
        fails.append(f"report.cycles: max_value {section['max_value']} against {table['max_value']}")
    count = int(section["violated_count"])
    if abs(count - table["violated"]) > table["near_line"]:
        fails.append(f"report.cycles: violated_count {count} against {table['violated']}")
    if ref.dim == 2:
        fragment = section.get("fragment")
        if fragment is None:
            return fails + ["report.fragment: qubit report without a fragment section"]
        ftable = ref.fragment()
        if not _close(fragment["max_value"], ftable["max_value"]):
            fails.append(f"report.fragment: max_value {fragment['max_value']} against {ftable['max_value']}")
        violated = fragment.get("violated") or []
        if ftable["near_line"] == 0 and (len(violated) > 0) != (ftable["violated"] > 0):
            fails.append(f"report.fragment: {len(violated)} violated cycles against {ftable['violated']}")
        if ref.real and max(ref.g.real) > 1.0 + 1e-6 and not violated:
            fails.append("report.fragment: real-qubit anomaly g > 1 without a violated fragment cycle")
    return fails


def _check_pointer(section: dict, ref: ProblemRef) -> list[str]:
    value = _cplx(section["extrapolation"]["value"])
    if abs(value - ref.aw) > POINTER_AGREE:
        return [f"report.pointer: extrapolation {value} is {abs(value - ref.aw):.3e} from A_w = {ref.aw}"]
    return []


def _expected_exit(cmd: str, ref: ProblemRef, report: dict):
    """Exit code the benchmark's own values call for, or None when undecided.

    For ``pointer`` the decisive value is the extrapolated weak value in the
    report, which the pointer check ties to the benchmark's A_w within 1e-6.
    """
    if cmd in ("compute", "witness"):
        if not (ref.aw_decided() and ref.g_decided()):
            return None
        return 3 if anomalous(ref.aw, ref.lo, ref.hi) or ref.g_anomalous() else 0
    if cmd == "gvals":
        return (3 if ref.g_anomalous() else 0) if ref.g_decided() else None
    if cmd == "contextuality":
        tables = [ref.cycles()] + ([ref.fragment()] if ref.dim == 2 else [])
        if any(t["near_line"] for t in tables):
            return None
        return 3 if any(t["violated"] for t in tables) else 0
    if cmd == "pointer":
        value = _cplx(report["pointer"]["extrapolation"]["value"])
        if not decided(value, ref.lo, ref.hi):
            return None
        return 3 if anomalous(value, ref.lo, ref.hi) else 0
    raise ValueError(f"no exit rule for {cmd!r}")


def check_problem_report(cmd: str, fmt: str, rc, stdout: str, ref: ProblemRef) -> list[str]:
    """Checks of a compute / gvals / witness / contextuality / pointer report."""
    try:
        report = parse_report(stdout, fmt)
        fails = [] if report.get("command") == cmd else [f"report.shape: command {report.get('command')!r}"]
        expected = _expected_exit(cmd, ref, report)
        if rc not in (0, 3) or (expected is not None and rc != expected):
            fails.append(f"report.exit: exit code {rc}, expected "
                         f"{expected if expected is not None else '0 or 3'}")
        if cmd in ("compute", "witness"):
            fails += _check_weak_value(report["weak_value"], ref)
        if cmd in ("compute", "gvals"):
            fails += _check_quasiprob(report["quasiprob"], ref)
        if cmd in ("compute", "witness"):
            fails += _check_witness(report["witness"], ref)
        if cmd in ("compute", "contextuality"):
            fails += _check_cycles(report["cycles"], ref)
        if cmd == "pointer":
            fails += _check_pointer(report["pointer"], ref)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"report.shape: exit code {rc}, unreadable report ({type(exc).__name__}: {exc})"]
    return fails


def check_refused(rc, stdout: str, expected_rc: int) -> list[str]:
    if rc != expected_rc or stdout:
        return [f"report.refused: exit code {rc} with {len(stdout)} bytes of output, "
                f"expected {expected_rc} and no report"]
    return []


def check_reproduce(rc, stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines or any(line.startswith("FAIL") for line in lines):
        return [f"report.reproduce: reproduce-paper exit code {rc}"]
    done, _, total = lines[-1].split(" ")[0].partition("/")
    if not done or done != total:
        return [f"report.reproduce: summary line {lines[-1]!r}"]
    return []


class RepeatLog:
    """Byte-level repeat determinism: the same request must print the same bytes."""

    def __init__(self) -> None:
        self.digests: dict = {}

    def check(self, key, stdout: str) -> list[str]:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = self.digests.setdefault(key, digest)
        return [] if first == digest else [f"report.repeat: output of a repeated request changed ({key})"]


# ---------------------------------------------------------------------------
# Search checks


def check_search(rc, stdout: str, observable: str, budget: int) -> list[str]:
    if rc != 0:
        return [f"search.shape: exit code {rc}"]
    try:
        section = json.loads(stdout)["search"]
        phi = np.array([_cplx(a) for a in section["best_states"]["post_state"]])
        psi = np.array([_cplx(a) for a in section["best_states"]["pre_state"]])
        best = float(section["best_value"])
        evaluations = int(section["evaluations"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"search.shape: unreadable report ({type(exc).__name__}: {exc})"]
    fails = []
    matrix = SEARCH_MATRICES[observable]
    inner = np.vdot(phi, psi)
    value = -(np.vdot(phi, matrix @ psi) / inner).real
    if abs(value - best) > 1e-12 * max(1.0, abs(best)):
        fails.append(f"search.recompute: -Re(A_w) at best_states is {value!r}, report says {best!r}")
    if abs(inner) ** 2 < SEARCH_MIN_OVERLAP - 1e-12:
        fails.append(f"search.overlap: |<phi|psi>|^2 = {abs(inner) ** 2!r} below {SEARCH_MIN_OVERLAP}")
    if abs(best - SEARCH_OPTIMUM[observable]) > 1e-6:
        fails.append(f"search.optimum: best_value {best!r}, optimum {SEARCH_OPTIMUM[observable]}")
    if not 1 <= evaluations <= budget:
        fails.append(f"search.budget: {evaluations} evaluations for a budget of {budget}")
    return fails


# ---------------------------------------------------------------------------
# Scan: Monte Carlo reference from the benchmark's own samplers


def sample_densities(kind: str, dim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` draws of the program's documented state ensembles, as (m, d, d) matrices."""
    if kind in ("haar", "real-pure"):
        z = rng.normal(size=(m, dim))
        if kind == "haar":
            z = z + 1j * rng.normal(size=(m, dim))
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        return z[:, :, None] * z.conj()[:, None, :]
    if kind in ("mixed", "real-mixed"):
        g = rng.normal(size=(m, dim, dim)) + 1j * rng.normal(size=(m, dim, dim))
        rho = g @ np.conj(np.swapaxes(g, 1, 2))
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        return rho.real.astype(complex) if kind == "real-mixed" else rho
    if kind == "diagonal":
        p = rng.dirichlet(np.ones(dim), size=m)
        return np.einsum("mi,ij->mij", p, np.eye(dim)).astype(complex)
    raise ValueError(f"unknown scan kind {kind!r}")


SCAN_FIELDS = ("anomalous_g", "anomalous_aw", "coherent_non_anomalous", "skipped")


def scan_fractions(kind: str, dim: int, m: int, rng: np.random.Generator) -> dict:
    """Fractions of each scan tally against A = diag(0, ..., d-1), over ``m`` sampled pairs."""
    tally = dict.fromkeys(SCAN_FIELDS, 0)
    labels = np.arange(dim, dtype=float)
    for start in range(0, m, 4096):
        size = min(4096, m - start)
        psi = sample_densities(kind, dim, size, rng)
        phi = sample_densities(kind, dim, size, rng)
        den = np.einsum("mij,mji->m", phi, psi).real
        kept = den > SELECTION_THRESHOLD
        g = np.einsum("mij,mji->mi", psi, phi) / den[:, None]
        aw = g @ labels
        g_bad = np.any((np.abs(g.imag) > ANOM_TOL) | (g.real < -ANOM_TOL) | (g.real > 1 + ANOM_TOL), axis=1)
        aw_bad = (np.abs(aw.imag) > ANOM_TOL) | (aw.real < -ANOM_TOL) | (aw.real > dim - 1 + ANOM_TOL)

        def l1(rho):
            return np.sum(np.abs(rho), axis=(1, 2)) - np.sum(np.abs(np.diagonal(rho, axis1=1, axis2=2)), axis=1)

        coherent = (l1(phi) >= COHERENCE_TOL) & (l1(psi) >= COHERENCE_TOL)
        tally["anomalous_g"] += int(np.sum(kept & g_bad))
        tally["anomalous_aw"] += int(np.sum(kept & aw_bad))
        tally["coherent_non_anomalous"] += int(np.sum(kept & coherent & ~g_bad & ~aw_bad))
        tally["skipped"] += int(np.sum(~kept))
    return {field: count / m for field, count in tally.items()}


def _binomial_ok(k: int, n: int, p_ref: float, m: int, z: float = 6.0) -> bool:
    """Two-sample test of k/n against a Monte Carlo fraction from m draws, at z sigma."""
    pooled = (k + p_ref * m) / (n + m)
    sigma = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / m))
    return abs(k / n - p_ref) <= z * sigma + 1.0 / n + 1.0 / m


def check_scan(rc, stdout: str, kind: str, dim: int, n: int, reference: dict, m: int) -> list[str]:
    if rc != 0:
        return [f"scan.shape: exit code {rc}"]
    try:
        section = json.loads(stdout)["scan"]
        counts = {field: section["counts"][field] for field in SCAN_FIELDS}
        fractions = section["fractions"]
        reported_n = section["n"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"scan.shape: unreadable report ({type(exc).__name__}: {exc})"]
    fails = []
    if reported_n != n or section["kind"] != kind or section["dim"] != dim:
        fails.append(f"scan.shape: report is for {section['kind']} d={section['dim']} n={reported_n}")
    for field, count in counts.items():
        if not isinstance(count, int) or not 0 <= count <= n:
            fails.append(f"scan.range: {field} = {count!r} outside [0, {n}]")
    if fails:
        return fails
    for field in ("anomalous_g", "anomalous_aw", "coherent_non_anomalous"):
        if abs(fractions[field] - counts[field] / n) > 1e-12:
            fails.append(f"scan.range: fraction of {field} is not its count over n")
    if counts["anomalous_aw"] > counts["anomalous_g"]:
        fails.append(f"scan.aw_le_g: {counts['anomalous_aw']} anomalous A_w but only "
                     f"{counts['anomalous_g']} anomalous distributions")
    if kind == "diagonal" and (counts["anomalous_g"] or counts["anomalous_aw"]):
        fails.append(f"scan.diagonal: {counts['anomalous_g']} anomalies among incoherent pairs")
    for field in SCAN_FIELDS:
        if not _binomial_ok(counts[field], n, reference[field], m):
            fails.append(f"scan.binomial: {field} {counts[field]}/{n} against Monte Carlo "
                         f"fraction {reference[field]:.4f} over {m} pairs")
    return fails
