"""Command line interface.

Problem files are JSON with complex entries written as two-element
[re, im] arrays. Reports are deterministic: stable key order, floats with 17
significant digits, and no timestamps, so fixed seeds give byte-identical
output. A report holds dict, list, str, float, int, bool and None, and
``np.ndarray`` leaves of dtype float64, bool or str, written as the nested
lists of their ``tolist()``. One plain walk per format renders it and refuses
any other value, arrays of any other dtype (complex, integer, float32,
object) included.

A problem command reports what it found: the violated frame cycles and the SHA-256 of each input
matrix. ``--detail full`` prints every frame cycle and the matrices themselves instead; its
``inputs`` block is then a problem file that reproduces the run.

Exit codes: 0 success, 1 input error, 2 numerical failure (for example an
orthogonal selection pair), 3 success with an anomaly or violation detected,
4 reference-value reproduction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .contextuality import CycleTable, all_three_cycles, fragment_cycles, real_amplitude_failure
from .core import (
    DEFAULT_TOL,
    PSD_TOL,
    ComputationError,
    DensityOperator,
    Observable,
    StateVector,
    Tolerances,
    ValidationError,
    _fix_phases,
    commutator_norm,
    eigensystem,
    pure_to_density,
    state_vector,
    validate_density,
)
from .explore import (HAAR_PURE, SAMPLER_KINDS, SamplerSpec, ScanSummary, _is_seed, scan_anomaly_rate,
                      search_max_negativity)
from .invariants import bargmann, build_frame_graph, overlap
from .pointer import PointerConfig, extrapolate
from .quasiprob import ANOMALOUS_REAL, NORMAL, QuasiProbDist, classify, quasi_prob
from .witness import WitnessReport, check_theorem_coherence

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_ANOMALY = 3
EXIT_REPRODUCE = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left

_SEARCH_OBSERVABLES = {
    "proj0": np.diag([1.0, 0.0]),
    "proj1": np.diag([0.0, 1.0]),
    "z": np.diag([1.0, -1.0]),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "identity": np.eye(2),
}

_DIMENSIONS = range(2, 65)

class ProblemFileError(ValueError):
    """Parse failure annotated with the JSON path of the offending node."""

    def __init__(self, where: str, message: str) -> None:
        super().__init__(f"{where}: {message}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which this tool reserves for
    # numerical failures; bad flags are input errors instead.
    def error(self, message: str) -> None:
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Problem file parsing


@dataclass(frozen=True)
class Problem:
    obs: Observable
    rho_psi: DensityOperator
    rho_phi: DensityOperator
    tol: Tolerances
    pointer_cfg: PointerConfig | None
    seed: int | None


_FLOAT_BOUND = 2 ** 1024 - 2 ** 970  # the least integer that float() refuses


def _is_number(node) -> bool:
    return isinstance(node, float) or (isinstance(node, int) and not isinstance(node, bool)
                                       and -_FLOAT_BOUND < node < _FLOAT_BOUND)


def _expect_number(node, where: str) -> float:
    if not _is_number(node):
        raise ProblemFileError(where, "integer outside the float range" if type(node) is int
                               else f"expected a number, got {type(node).__name__}")
    return float(node)


def _entry(node, where: str, *index: int):
    """(re, im) of a real number or an [re, im] pair; any other entry raises, naming its JSON path."""
    if isinstance(node, list):
        if len(node) == 2 and _is_number(node[0]) and _is_number(node[1]):
            return node
    elif _is_number(node):
        return node, 0.0
    where += "".join(f"[{k}]" for k in index)  # formatted for a refused entry only
    if isinstance(node, list) and len(node) == 2:
        for k, part in enumerate(node):
            _expect_number(part, f"{where}[{k}]")
    elif type(node) is int:
        _expect_number(node, where)
    raise ProblemFileError(where, "expected a [re, im] pair or a real number")


def _complex_array(readings: list) -> np.ndarray:
    # Setting the parts keeps their bits, where re + 1j * im turns an imaginary -0.0 into 0.0.
    parts = np.array(readings, dtype=float)
    z = np.empty(parts.shape[:-1], dtype=complex)
    z.real, z.imag = parts[..., 0], parts[..., 1]
    return z


def _parse_matrix(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ProblemFileError(where, "expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            raise ProblemFileError(f"{where}[{i}]", "expected a non-empty row list")
        rows.append([_entry(entry, where, i, j) for j, entry in enumerate(row)])
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ProblemFileError(f"{where}[{i}]", f"ragged matrix: row has {len(row)} entries, expected {width}")
    return _complex_array(rows)


def _parse_state(node, where: str, dim: int) -> DensityOperator:
    """Amplitudes when every entry is a real number or an [re, im] pair, else a density matrix.

    At dim 2 two pairs are also a 2 x 2 grid of numbers, read as a matrix first and as amplitudes
    second. The order is safe: when both readings validate, the matrix is rank-1 and the same ray.
    """
    if not isinstance(node, list) or not node:
        raise ProblemFileError(where, "expected an amplitude vector or a density matrix")
    try:
        amplitudes = _complex_array([_entry(entry, where, i) for i, entry in enumerate(node)])
    except ProblemFileError:
        if not any(isinstance(entry, list) for entry in node):
            raise  # a state with no list entry has no matrix reading: name the refused amplitude
        amplitudes = None
    readings = []
    if amplitudes is None or (dim == len(node) == 2 and all(isinstance(entry, list) for entry in node)):
        matrix = _parse_matrix(node, where)
        if matrix.shape != (dim, dim):
            raise ProblemFileError(where, f"state has shape {matrix.shape}, expected ({dim}, {dim})")
        readings.append(lambda: validate_density(matrix))
    if amplitudes is not None:
        if len(amplitudes) != dim:
            raise ProblemFileError(where, f"state has {len(amplitudes)} amplitudes, expected {dim}")
        readings.append(lambda: pure_to_density(state_vector(amplitudes)))
    errors = []
    for read in readings:
        try:
            return read()
        except ValidationError as exc:
            errors.append(str(exc))
    raise ProblemFileError(where, errors[0] if len(errors) == 1 else
                           f"not a valid density matrix ({errors[0]}) and the amplitude-vector reading fails as well")


def _parse_settings(node, where: str, cls, noun: str, shape: str):
    """A ``cls`` from the keys present, read in field order: a list of numbers for a field whose
    default is a tuple, else a number. The dataclass keeps the other defaults."""
    if not isinstance(node, dict):
        raise ProblemFileError(where, f"expected an object {shape}")
    unknown = set(node) - {f.name for f in fields(cls)}
    if unknown:
        raise ProblemFileError(where, f"unknown {noun} keys {sorted(unknown)}")
    values = {}
    for field in fields(cls):
        if field.name in node:
            value, at = node[field.name], f"{where}.{field.name}"
            if not isinstance(field.default, tuple):
                values[field.name] = _expect_number(value, at)
            elif isinstance(value, list):
                values[field.name] = tuple(_expect_number(entry, f"{at}[{i}]") for i, entry in enumerate(value))
            else:
                raise ProblemFileError(at, "expected a list of couplings")
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ProblemFileError(where, str(exc)) from exc


def parse_problem(data) -> Problem:
    """Build validated problem inputs from a decoded JSON object."""
    if not isinstance(data, dict):
        raise ProblemFileError("problem", "top level must be a JSON object")
    required = {"dimension", "observable", "pre_state", "post_state"}
    missing = required - set(data)
    if missing:
        raise ProblemFileError("problem", f"missing required keys {sorted(missing)}")
    unknown = set(data) - required - {"tolerances", "pointer", "seed"}
    if unknown:
        raise ProblemFileError("problem", f"unknown keys {sorted(unknown)}")

    dim = data["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ProblemFileError("problem.dimension", "expected an integer")
    if dim not in _DIMENSIONS:
        raise ProblemFileError("problem.dimension", f"dimension {dim} outside supported range [2, 64]")

    tol = DEFAULT_TOL
    if "tolerances" in data:
        tol = _parse_settings(data["tolerances"], "problem.tolerances", Tolerances, "tolerance",
                              "of tolerance values")

    matrix = _parse_matrix(data["observable"], "problem.observable")
    if matrix.shape != (dim, dim):
        raise ProblemFileError("problem.observable", f"shape {matrix.shape}, expected ({dim}, {dim})")
    try:
        obs = eigensystem(matrix)
    except ValidationError as exc:
        raise ProblemFileError("problem.observable", str(exc)) from exc

    rho_psi = _parse_state(data["pre_state"], "problem.pre_state", dim)
    rho_phi = _parse_state(data["post_state"], "problem.post_state", dim)

    pointer_cfg = None
    if "pointer" in data:
        pointer_cfg = _parse_settings(data["pointer"], "problem.pointer", PointerConfig, "pointer",
                                      "with pointer settings")

    seed = data.get("seed")
    if "seed" in data and not _is_seed(seed):  # a null seed is refused too
        raise ProblemFileError("problem.seed", "expected an unsigned 64-bit integer")

    return Problem(obs=obs, rho_psi=rho_psi, rho_phi=rho_phi, tol=tol, pointer_cfg=pointer_cfg, seed=seed)


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise
    except OSError as exc:  # a directory, or a file without read permission
        raise ProblemFileError(path, f"cannot read the file: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProblemFileError(path, f"invalid JSON: {exc}") from exc
    return parse_problem(data)


def _extract_pure(rho: DensityOperator, where: str) -> StateVector:
    """Principal eigenvector of a rank-1 state, for commands that need amplitudes."""
    eigenvalues, eigenvectors = np.linalg.eigh(rho.matrix)
    if abs(float(eigenvalues[-1]) - 1.0) > 100.0 * PSD_TOL:
        raise ProblemFileError(where, f"state is mixed (largest eigenvalue {float(eigenvalues[-1]):.12g}), "
                                      "this command needs pure states")
    return StateVector(_fix_phases(eigenvectors[:, -1:])[:, 0])


# ---------------------------------------------------------------------------
# Deterministic report emission


def _fmt_float(x: float) -> str:
    # math.isfinite, not np.isfinite: the numpy scalar call cost more than the formatting.
    if not math.isfinite(x):
        return "null"
    text = f"{x:.17g}"
    # JSON readers load "-0" as the integer 0; "-0.0" keeps the sign when read back.
    return "-0.0" if text == "-0" else text


def _leaf(node) -> str:
    """Report text of a float, bool or int leaf, the same in both formats; other types are refused."""
    kind = type(node)
    if kind is float:
        return _fmt_float(node)
    if kind is bool:
        return "true" if node else "false"
    if kind is int:
        return str(node)
    raise TypeError(f"cannot serialize {kind.__name__}")


def _csv_quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def _cells(array: np.ndarray):
    """An array leaf as the nested lists (or, 0-d, the one value) it stands for; only float64, bool and
    str arrays are report leaves."""
    if array.dtype.char not in "d?U":
        raise TypeError(f"cannot serialize an array of {array.dtype}")
    return array.tolist()


def _json_text(node) -> str:
    kind = type(node)
    if kind is dict:
        return "{" + ",".join(f"{_quote(key)}:{_json_text(value)}" for key, value in node.items()) + "}"
    if kind is list:
        return "[" + ",".join(map(_json_text, node)) + "]"
    if kind is str:
        return _quote(node)
    if kind is np.ndarray:
        return _json_text(_cells(node))
    return "null" if node is None else _leaf(node)


def render_json(report: dict) -> str:
    """A report's JSON text. The walk recurses in ``_json_text``, so a wrapper on this name sees one call."""
    return _json_text(report)


def _csv_rows(node, path: str, rows: list[str]) -> None:
    kind = type(node)
    if kind is dict:
        for key, value in node.items():
            _csv_rows(value, f"{path}.{key}" if path else key, rows)
    elif kind is list:
        for i, value in enumerate(node):
            _csv_rows(value, f"{path}.{i}", rows)
    elif kind is str:
        rows.append(f"{path},{_csv_quote(node)}")
    elif kind is np.ndarray:
        _csv_rows(_cells(node), path, rows)
    else:
        rows.append(f"{path}," if node is None else f"{path},{_leaf(node)}")


def render_csv(report: dict) -> str:
    rows = ["key,value"]
    _csv_rows(report, "", rows)
    return "\n".join(rows)


def _print_report(report: dict, fmt: str) -> None:
    print(render_json(report) if fmt == "json" else render_csv(report))


# ---------------------------------------------------------------------------
# Report sections


def _pairs(z) -> np.ndarray:
    """[re, im] pairs of a complex scalar or array, as a float array with a last axis of two."""
    z = np.asarray(z)
    return np.stack((z.real, z.imag), axis=-1)


def _sha256(arrays: dict) -> dict:
    """The hex SHA-256 of each array's C-order, little-endian float64 bytes."""
    import hashlib  # here, not at the top: the import costs about 4 ms of start-up to every command
    return {key: hashlib.sha256(array.astype("<f8", copy=False).tobytes()).hexdigest()
            for key, array in arrays.items()}


def _canonical_inputs(problem: Problem, full: bool) -> dict:
    """The problem as read: the three matrices as [re, im] arrays when ``full``, else their digests."""
    matrices = {
        "observable": _pairs(problem.obs.matrix),
        "pre_state": _pairs(problem.rho_psi.matrix),
        "post_state": _pairs(problem.rho_phi.matrix),
    }
    echo = {
        "dimension": problem.obs.dim,
        **(matrices if full else {"sha256": _sha256(matrices)}),
        "tolerances": asdict(problem.tol),
    }
    if problem.pointer_cfg is not None:
        echo["pointer"] = {**asdict(problem.pointer_cfg),
                           "couplings_series": list(problem.pointer_cfg.couplings_series)}
    if problem.seed is not None:
        echo["seed"] = problem.seed
    return echo


def _report_head(command: str, seed: int | None) -> dict:
    return {"tool": {"name": "weakvalues", "version": __version__}, "command": command, "seed": seed}


def _weak_value_section(dist: QuasiProbDist) -> dict:
    return {
        "re": dist.value.real,
        "im": dist.value.imag,
        "denominator": dist.denominator,
        "spectrum": [dist.spectrum_lo, dist.spectrum_hi],
        "classification": dist.classification,
        "marginal": dist.marginal,
    }


def _quasiprob_section(dist: QuasiProbDist) -> dict:
    return {
        "eigenvalues": dist.labels,
        "weights": _pairs(dist.weights),
        "anomalous_indices": list(dist.anomalous_indices),
        "weak_value_from_weights": _pairs(dist.value),
        "marginal_indices": list(dist.marginal_indices),
    }


def _witness_section(problem: Problem, witness: WitnessReport) -> dict:
    return {
        "l1_pre": witness.l1_pre,
        "l1_post": witness.l1_post,
        "coherent_pre": witness.coherent_pre,
        "coherent_post": witness.coherent_post,
        "commutator_norm": commutator_norm(problem.rho_phi, problem.rho_psi),
        "anomalous_indices": list(witness.dist.anomalous_indices),
        "aw_classification": witness.dist.classification,
        "verdict": witness.verdict,
    }


def _cycle_rows(table: CycleTable, **columns: np.ndarray) -> list[dict]:
    """One ``{field: cell}`` dict per row of the table, its extra ``columns`` last."""
    names = np.array(table.labels)
    columns = {"triple": names[table.triples], "minus_edge": names[table.minus_edges], "value": table.values,
               **columns}
    return [dict(zip(columns, row)) for row in zip(*(column.tolist() for column in columns.values()))]


# ---------------------------------------------------------------------------
# Commands


def _compute_sections(problem: Problem, full: bool) -> tuple[dict, bool]:
    witness = check_theorem_coherence(problem.rho_phi, problem.rho_psi, problem.obs, problem.tol)
    return {
        "weak_value": _weak_value_section(witness.dist),
        "quasiprob": _quasiprob_section(witness.dist),
        "witness": _witness_section(problem, witness),
        **_contextuality_sections(problem, full)[0],
    }, witness.dist.anomalous


def _gvals_sections(problem: Problem, full: bool) -> tuple[dict, bool]:
    dist = quasi_prob(problem.rho_phi, problem.rho_psi, problem.obs, problem.tol)
    return {"quasiprob": _quasiprob_section(dist)}, bool(dist.anomalous_indices)


def _witness_sections(problem: Problem, full: bool) -> tuple[dict, bool]:
    witness = check_theorem_coherence(problem.rho_phi, problem.rho_psi, problem.obs, problem.tol)
    return {"weak_value": _weak_value_section(witness.dist),
            "witness": _witness_section(problem, witness)}, witness.dist.anomalous


def _contextuality_sections(problem: Problem, full: bool) -> tuple[dict, bool]:
    """The ``cycles`` section, and whether any frame or fragment cycle is violated.

    The section lists every frame cycle with its verdict when ``full``, else the violated ones
    and the number of cycles judged."""
    graph = build_frame_graph(problem.rho_phi, problem.rho_psi, problem.obs)
    cycles = all_three_cycles(graph, problem.tol.anom)
    section = {
        "graph": graph.adjacency_text(),
        **({"inequalities": _cycle_rows(cycles, violated=cycles.violated)} if full else
           {"violated": _cycle_rows(cycles[cycles.violated]), "inequality_count": len(cycles)}),
        "max_value": float(cycles.values.max()),
        "violated_count": int(np.count_nonzero(cycles.violated)),
    }
    violated = bool(cycles.violated.any())
    if problem.obs.dim != 2:
        section["fragment_note"] = (
            f"six-state fragment analysis is qubit-only; omitted for dimension {problem.obs.dim}"
        )
    else:
        fragment_graph, fragment_table = fragment_cycles(problem.rho_phi, problem.rho_psi, problem.obs,
                                                         problem.tol)
        section["fragment"] = {
            # The anomaly-implies-violation link is proven for real amplitudes.
            "claim_applies": real_amplitude_failure(problem.rho_phi, problem.rho_psi, problem.obs) is None,
            "graph": fragment_graph.adjacency_text(),
            "max_value": float(fragment_table.values.max()),
            "violated": _cycle_rows(fragment_table[fragment_table.violated]),
        }
        violated |= bool(fragment_table.violated.any())
    return {"cycles": section}, violated


def _pointer_sections(problem: Problem, full: bool) -> tuple[dict, bool]:
    psi = _extract_pure(problem.rho_psi, "problem.pre_state")
    phi = _extract_pure(problem.rho_phi, "problem.post_state")
    cfg = problem.pointer_cfg if problem.pointer_cfg is not None else PointerConfig()
    result = extrapolate(problem.obs, psi, phi, cfg)
    label = classify(result.value, float(problem.obs.eigenvalues[0]), float(problem.obs.eigenvalues[-1]),
                     problem.tol.anom)
    return {"pointer": {
        "coupling": cfg.coupling,
        "width": cfg.width,
        "outcome": asdict(result.outcome),
        "series": [{"coupling": g, "re_estimate": estimate.real, "im_estimate": estimate.imag,
                    "postselect_prob": step.postselect_prob}
                   for g, estimate, step in zip(cfg.couplings_series, result.estimates, result.outcomes)],
        "extrapolation": {
            "value": _pairs(result.value),
            "error": result.error,
            "classification": label,
        },
    }}, label != NORMAL


# Each problem command: its help text, and the builder of its report sections and anomaly flag from the
# problem and whether ``--detail full`` asks for every cycle (only the cycles section reads it).
_PROBLEM_COMMANDS = {
    "compute": ("full report: weak value, quasi-probabilities, witness, cycles", _compute_sections),
    "gvals": ("quasi-probability distribution only", _gvals_sections),
    "witness": ("coherence witness diagnosis", _witness_sections),
    "contextuality": ("3-cycle inequality table and frame graphs", _contextuality_sections),
    "pointer": ("pointer readout and extrapolated weak value", _pointer_sections),
}


def cmd_problem(args) -> int:
    """Load the problem file, print the command's report, and exit 3 when it shows an anomaly."""
    problem = load_problem(args.input)
    if args.tol_anom is not None:  # the flag's band replaces the file's, once the file is validated
        problem = replace(problem, tol=args.tol_anom)
    full = args.detail == "full"
    report = _report_head(args.command, problem.seed)
    report["inputs"] = _canonical_inputs(problem, full)
    sections, anomalous = _PROBLEM_COMMANDS[args.command][1](problem, full)
    report.update(sections)
    _print_report(report, args.format)
    return EXIT_ANOMALY if anomalous else EXIT_OK


def cmd_search(args) -> int:
    matrix = _SEARCH_OBSERVABLES[args.observable]
    result = search_max_negativity(matrix, args.budget, args.seed)
    phi, psi = result.best_states
    value = result.weak_value
    report = _report_head("search", args.seed)
    report["search"] = {
        "observable": args.observable,
        "budget": args.budget,
        "best_value": result.best_value,
        "evaluations": result.evaluations,
        "best_states": {
            "post_state": _pairs(phi.amps),
            "pre_state": _pairs(psi.amps),
        },
        "weak_value_at_best": {
            "re": value.real,
            "im": value.imag,
            "classification": classify(value, float(result.spectrum[0]), float(result.spectrum[-1]),
                                       args.tol_anom.anom),
        },
    }
    _print_report(report, args.format)
    return EXIT_OK


@cache  # an Observable is frozen, so one per dimension serves every scan of a process
def _scan_observable(dim: int) -> Observable:
    """diag(0, 1, ..., dim - 1), the observable every scan is judged against."""
    return eigensystem(np.diag(np.arange(dim, dtype=float)))


def cmd_scan(args) -> int:
    obs = _scan_observable(args.dim)
    spec_psi = SamplerSpec(dim=args.dim, kind=args.kind, seed=args.seed)
    spec_phi = SamplerSpec(dim=args.dim, kind=args.kind, seed=(args.seed + 1) % 2 ** 64)
    summary = scan_anomaly_rate(spec_phi, spec_psi, obs, args.n, tol=args.tol_anom)
    # Every field after n is a tally; each but skipped is also reported as a fraction of n.
    counts = {field.name: getattr(summary, field.name) for field in fields(ScanSummary)[1:]}
    report = _report_head("scan", args.seed)
    report["scan"] = {
        "kind": args.kind,
        "dim": args.dim,
        "n": summary.n,
        "counts": counts,
        "fractions": {name: count / summary.n for name, count in counts.items() if name != "skipped"},
    }
    _print_report(report, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in reference reproduction


def _reference_table() -> list[tuple]:
    """The bundled reference configurations as rows ``(name, expected, tolerance, computed)``, in report
    order: ``computed`` must lie within ``tolerance`` of the golden ``expected``, or, in a check (``expected``
    True, ``tolerance`` None), compute True."""
    half_sqrt3 = np.sqrt(3.0) / 2.0
    psi = state_vector([0.5, half_sqrt3])
    phi = state_vector([-0.5, half_sqrt3])
    rho_psi = pure_to_density(psi)
    rho_phi = pure_to_density(phi)
    proj_low = eigensystem(np.diag([1.0, 0.0]))

    dist_low = quasi_prob(rho_phi, rho_psi, proj_low)
    dist_high = quasi_prob(rho_phi, rho_psi, eigensystem(np.diag([0.0, 1.0])))
    basis_low = pure_to_density(proj_low.basis_state(1))  # eigenvalue 1 sits last

    coherent_psi = validate_density([[0.75, np.sqrt(3.0 / 32.0)], [np.sqrt(3.0 / 32.0), 0.25]])
    coherent_phi = validate_density([[0.75, np.sqrt(3.0) / 8.0], [np.sqrt(3.0) / 8.0, 0.25]])
    dist = quasi_prob(coherent_phi, coherent_psi, eigensystem(np.diag([0.0, 1.0])))

    pointer_result = extrapolate(proj_low, psi, phi)
    return [
        ("proj_low_weak_value", -0.5, 1e-12, dist_low.value.real),
        ("proj_high_weak_value", 1.5, 1e-12, dist_high.value.real),
        ("identity_weak_value", 1.0, 1e-12, dist_low.weights.sum().real),  # the identity is sum_i P_i
        ("pair_overlap", 0.25, 1e-12, overlap(rho_phi, rho_psi)),
        ("third_order_invariant", -0.125, 1e-12, bargmann((rho_phi, basis_low, rho_psi)).real),
        ("coherent_pair_g0", 0.829997, 5e-6, dist.weights[0].real),
        ("coherent_pair_g1", 0.170003, 5e-6, dist.weights[1].real),
        ("fragment_max_cycle", 1.25, 1e-12,
         float(fragment_cycles(rho_phi, rho_psi, proj_low, DEFAULT_TOL)[1].values.max())),
        ("pointer_extrapolation_re", -0.5, 1e-6, pointer_result.value.real),
        ("pointer_extrapolation_im", 0.0, 1e-6, pointer_result.value.imag),
        ("coherent_pair_commutator_positive", True, None, commutator_norm(coherent_phi, coherent_psi) > 0.0),
        ("coherent_pair_non_anomalous", True, None, not dist.anomalous_indices),
        ("proj_low_classified_anomalous", True, None, dist_low.classification == ANOMALOUS_REAL),
    ]


def cmd_reproduce(args) -> int:
    rows = _reference_table()
    passed = 0
    for name, expected, tolerance, computed in rows:
        if tolerance is None:
            ok = computed == expected
            detail = f"expected={_leaf(expected)} computed={_leaf(computed)}"
        else:
            ok = abs(computed - expected) <= tolerance
            detail = f"expected={_fmt_float(expected)} computed={_fmt_float(computed)} tol={tolerance:.1e}"
        passed += ok
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
    print(f"{passed}/{len(rows)} reference checks passed")
    return EXIT_OK if passed == len(rows) else EXIT_REPRODUCE


# ---------------------------------------------------------------------------
# Entry point


def _int_value(text: str) -> int:
    # A ValueError would make argparse name the type function; the message names int instead.
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _seed_type(text: str) -> int:
    value = _int_value(text)
    if not _is_seed(value):
        raise argparse.ArgumentTypeError(f"seed must fit in an unsigned 64-bit integer, got {text}")
    return value


def _dim_type(text: str) -> int:
    value = _int_value(text)
    if value not in _DIMENSIONS:
        raise argparse.ArgumentTypeError(f"dimension {value} outside supported range [2, 64]")
    return value


def _count_type(name: str):
    """The reader of a count flag: an integer from 1 to 2^63 - 1, named ``name`` when refused."""
    def count(text: str) -> int:
        value = _int_value(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1, got {value}")
        if value >= 2 ** 63:
            raise argparse.ArgumentTypeError(f"{name} must fit in a signed 64-bit integer, got {text}")
        return value
    return count


def _tol_anom_type(text: str) -> Tolerances:
    # Tolerances holds the only check, so a refused band never reaches a command.
    try:
        return Tolerances(anom=float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@cache  # parsing leaves the parser as it was, so one process builds it once
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weakvalues",
                     description="Weak values, quasi-probabilities, coherence witnesses, "
                                 "and contextuality checks.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
        p.add_argument("--tol-anom", type=_tol_anom_type, default=None, metavar="FLOAT",
                       help="override the anomaly decision tolerance")

    for name, (help_text, _) in _PROBLEM_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, metavar="FILE", help="problem file (JSON)")
        p.add_argument("--detail", choices=("found", "full"), default="found",
                       help="found (default): the violated cycles and the input matrices' SHA-256; "
                            "full: every cycle and the input matrices themselves")
        common(p)
        p.set_defaults(func=cmd_problem)

    p_search = sub.add_parser("search", help="search for maximally negative weak values")
    p_search.add_argument("--observable", choices=sorted(_SEARCH_OBSERVABLES), default="proj0",
                          help="built-in qubit observable (default proj0)")
    p_search.add_argument("--budget", type=_count_type("budget"), default=10000, metavar="N",
                          help="validated and echoed in the report as budget; limits nothing, as the "
                               "closed form scores one pair (default 10000)")
    p_search.add_argument("--seed", type=_seed_type, default=0, metavar="U64",
                          help="master seed (default 0)")
    common(p_search)
    p_search.set_defaults(func=cmd_search, tol_anom=DEFAULT_TOL)

    p_scan = sub.add_parser("scan", help="anomaly-rate scan over sampled selection pairs")
    p_scan.add_argument("--kind", choices=sorted(SAMPLER_KINDS), default=HAAR_PURE,
                        help="state ensemble for both selections (default haar)")
    p_scan.add_argument("--n", type=_count_type("n"), default=1000, metavar="N",
                        help="number of sampled pairs (default 1000)")
    p_scan.add_argument("--dim", type=_dim_type, default=2, metavar="D",
                        help="Hilbert space dimension (default 2)")
    p_scan.add_argument("--seed", type=_seed_type, default=0, metavar="U64",
                        help="master seed (default 0)")
    common(p_scan)
    p_scan.set_defaults(func=cmd_scan, tol_anom=DEFAULT_TOL)

    p_repro = sub.add_parser("reproduce-paper",
                             help="recompute the bundled reference values and compare")
    p_repro.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows up here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader of stdout has gone (``| head``). Point stdout at the null
        # device so that the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ProblemFileError, FileNotFoundError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
