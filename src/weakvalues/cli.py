"""Command line interface.

Problem files are JSON with complex entries written as two-element
[re, im] arrays. Reports are deterministic: stable key order, floats with 17
significant digits, and no timestamps, so fixed seeds give byte-identical
output. A report holds only dict, list, str, float, int, bool and None;
the renderers refuse any other value.

Exit codes: 0 success, 1 input error, 2 numerical failure (for example an
orthogonal selection pair), 3 success with an anomaly or violation detected,
4 reference-value reproduction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .contextuality import CycleInequality, all_three_cycles, fragment_cycles, real_amplitude_failure
from .core import (
    DEFAULT_TOL,
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
from .explore import SamplerSpec, scan_anomaly_rate, search_max_negativity
from .invariants import build_frame_graph
from .pointer import PointerConfig, extrapolate
from .quasiprob import (
    ANOMALOUS_REAL,
    NORMAL,
    QuasiProbDist,
    WeakValueResult,
    anomalous_indices,
    classify,
    is_marginal,
    quasi_prob,
    quasi_prob_and_weak_value,
    weak_value_hermitian,
    weak_value_pure,
)
from .witness import WitnessReport, check_theorem_coherence

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_ANOMALY = 3
EXIT_REPRODUCE = 4

_SEARCH_OBSERVABLES = {
    "proj0": np.diag([1.0, 0.0]),
    "proj1": np.diag([0.0, 1.0]),
    "z": np.diag([1.0, -1.0]),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "identity": np.eye(2),
}

_SCAN_KINDS = {
    "haar": "haar-pure",
    "mixed": "mixed-full-rank",
    "real-pure": "real-pure",
    "real-mixed": "real-mixed",
    "diagonal": "diagonal",
}


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
    dim: int
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


def _parse_state(node, where: str, dim: int, tol: Tolerances) -> DensityOperator:
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
        readings.append(lambda: validate_density(matrix, tol))
    if amplitudes is not None:
        if len(amplitudes) != dim:
            raise ProblemFileError(where, f"state has {len(amplitudes)} amplitudes, expected {dim}")
        readings.append(lambda: pure_to_density(state_vector(amplitudes, tol)))
    errors = []
    for read in readings:
        try:
            return read()
        except ValidationError as exc:
            errors.append(str(exc))
    raise ProblemFileError(where, errors[0] if len(errors) == 1 else
                           f"not a valid density matrix ({errors[0]}) and the amplitude-vector reading fails as well")


def _parse_settings(node, where: str, cls, noun: str, shape: str, read):
    """A ``cls`` from ``read(node, where)``, the keys present; the dataclass keeps the other defaults."""
    if not isinstance(node, dict):
        raise ProblemFileError(where, f"expected an object {shape}")
    unknown = set(node) - {f.name for f in fields(cls)}
    if unknown:
        raise ProblemFileError(where, f"unknown {noun} keys {sorted(unknown)}")
    values = read(node, where)
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ProblemFileError(where, str(exc)) from exc


def _pointer_values(node: dict, where: str) -> dict:
    values = {key: _expect_number(node[key], f"{where}.{key}") for key in ("coupling", "width") if key in node}
    if "couplings_series" in node:
        series = node["couplings_series"]
        if not isinstance(series, list):
            raise ProblemFileError(f"{where}.couplings_series", "expected a list of couplings")
        values["couplings_series"] = tuple(
            _expect_number(entry, f"{where}.couplings_series[{i}]") for i, entry in enumerate(series)
        )
    return values


def _with_tol_anom(tol: Tolerances, tol_anom: float | None) -> Tolerances:
    return tol if tol_anom is None else replace(tol, anom=tol_anom)


def parse_problem(data, tol_anom_override: float | None = None) -> Problem:
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

    dim_node = data["dimension"]
    if isinstance(dim_node, bool) or not isinstance(dim_node, int):
        raise ProblemFileError("problem.dimension", "expected an integer")
    dim = dim_node
    if not 2 <= dim <= 64:
        raise ProblemFileError("problem.dimension", f"dimension {dim} outside supported range [2, 64]")

    tol = DEFAULT_TOL
    if "tolerances" in data:
        tol = _parse_settings(data["tolerances"], "problem.tolerances", Tolerances, "tolerance",
                              "of tolerance values",
                              lambda node, where: {key: _expect_number(value, f"{where}.{key}")
                                                   for key, value in node.items()})
    tol = _with_tol_anom(tol, tol_anom_override)

    matrix = _parse_matrix(data["observable"], "problem.observable")
    if matrix.shape != (dim, dim):
        raise ProblemFileError("problem.observable", f"shape {matrix.shape}, expected ({dim}, {dim})")
    try:
        obs = eigensystem(matrix, tol)
    except ValidationError as exc:
        raise ProblemFileError("problem.observable", str(exc)) from exc

    rho_psi = _parse_state(data["pre_state"], "problem.pre_state", dim, tol)
    rho_phi = _parse_state(data["post_state"], "problem.post_state", dim, tol)

    pointer_cfg = None
    if "pointer" in data:
        pointer_cfg = _parse_settings(data["pointer"], "problem.pointer", PointerConfig, "pointer",
                                      "with pointer settings", _pointer_values)

    seed = None
    if "seed" in data:
        seed_node = data["seed"]
        if isinstance(seed_node, bool) or not isinstance(seed_node, int) or not 0 <= seed_node < 2 ** 64:
            raise ProblemFileError("problem.seed", "expected an unsigned 64-bit integer")
        seed = seed_node

    return Problem(dim=dim, obs=obs, rho_psi=rho_psi, rho_phi=rho_phi, tol=tol,
                   pointer_cfg=pointer_cfg, seed=seed)


def load_problem(path: str, tol_anom_override: float | None = None) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise
    except OSError as exc:  # a directory, or a file without read permission
        raise ProblemFileError(path, f"cannot read the file: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProblemFileError(path, f"invalid JSON: {exc}") from exc
    return parse_problem(data, tol_anom_override)


def _extract_pure(rho: DensityOperator, where: str, tol: Tolerances) -> StateVector:
    """Principal eigenvector of a rank-1 state, for commands that need amplitudes."""
    eigenvalues, eigenvectors = np.linalg.eigh(rho.matrix)
    if abs(float(eigenvalues[-1]) - 1.0) > 100.0 * tol.psd:
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


def _json_text(node) -> str:
    kind = type(node)
    if kind is dict:
        return "{" + ",".join(f"{_quote(key)}:{_json_text(value)}" for key, value in node.items()) + "}"
    if kind is list:
        return "[" + ",".join(map(_json_text, node)) + "]"
    if kind is str:
        return _quote(node)
    return "null" if node is None else _leaf(node)


def render_json(report: dict) -> str:
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
        if "," in node or '"' in node:
            node = '"' + node.replace('"', '""') + '"'
        rows.append(f"{path},{node}")
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


def _pairs(z) -> list:
    """[re, im] pairs of a complex scalar or array, as nested lists of floats."""
    z = np.asarray(z)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def _canonical_inputs(problem: Problem) -> dict:
    echo = {
        "dimension": problem.dim,
        "observable": _pairs(problem.obs.matrix),
        "pre_state": _pairs(problem.rho_psi.matrix),
        "post_state": _pairs(problem.rho_phi.matrix),
        "tolerances": asdict(problem.tol),
    }
    if problem.pointer_cfg is not None:
        echo["pointer"] = {**asdict(problem.pointer_cfg),
                           "couplings_series": list(problem.pointer_cfg.couplings_series)}
    if problem.seed is not None:
        echo["seed"] = problem.seed
    return echo


def _report_head(command: str, problem: Problem | None = None, seed: int | None = None) -> dict:
    report = {
        "tool": {"name": "weakvalues", "version": __version__},
        "command": command,
        "seed": seed if seed is not None else (problem.seed if problem else None),
    }
    if problem is not None:
        report["inputs"] = _canonical_inputs(problem)
    return report


def _weak_value_section(aw: WeakValueResult, tol: Tolerances) -> dict:
    return {
        "re": aw.value.real,
        "im": aw.value.imag,
        "denominator": aw.denominator,
        "spectrum": [aw.spectrum_lo, aw.spectrum_hi],
        "classification": aw.classification,
        "marginal": is_marginal(aw.value, aw.spectrum_lo, aw.spectrum_hi, tol.anom),
    }


def _quasiprob_section(dist: QuasiProbDist, aw: WeakValueResult, tol: Tolerances) -> dict:
    return {
        "eigenvalues": dist.labels.tolist(),
        "weights": _pairs(dist.weights),
        "anomalous_indices": list(anomalous_indices(dist, tol.anom)),
        "weak_value_from_weights": _pairs(aw.value),
        "marginal_indices": [
            i for i, w in enumerate(dist.weights)
            if is_marginal(complex(w), 0.0, 1.0, tol.anom)
        ],
    }


def _witness_section(problem: Problem, witness: WitnessReport) -> dict:
    return {
        "l1_pre": witness.l1_pre,
        "l1_post": witness.l1_post,
        "coherent_pre": witness.coherent_pre,
        "coherent_post": witness.coherent_post,
        "commutator_norm": commutator_norm(problem.rho_phi, problem.rho_psi),
        "anomalous_indices": list(witness.g_anomalous),
        "aw_classification": witness.aw_classification,
        "verdict": witness.verdict,
    }


def _cycle_row(cycle: CycleInequality) -> dict:
    return {"triple": list(cycle.triple), "minus_edge": list(cycle.minus_edge), "value": cycle.value}


def _cycles_section(problem: Problem) -> dict:
    graph = build_frame_graph(problem.rho_phi, problem.rho_psi, problem.obs, problem.tol)
    cycles = all_three_cycles(graph, problem.tol.anom)
    section = {
        "graph": graph.adjacency_text(),
        "inequalities": [{**_cycle_row(c), "violated": c.violated} for c in cycles],
        "max_value": max(c.value for c in cycles),
        "violated_count": sum(1 for c in cycles if c.violated),
    }
    if problem.dim != 2:
        section["fragment_note"] = (
            f"six-state fragment analysis is qubit-only; omitted for dimension {problem.dim}"
        )
    else:
        fragment_graph, fragment_table = fragment_cycles(problem.rho_phi, problem.rho_psi, problem.obs,
                                                         problem.tol)
        section["fragment"] = {
            # The anomaly-implies-violation link is proven for real amplitudes.
            "claim_applies": real_amplitude_failure(problem.rho_phi, problem.rho_psi, problem.obs,
                                                    problem.tol.eig) is None,
            "graph": fragment_graph.adjacency_text(),
            "max_value": max(c.value for c in fragment_table),
            "violated": [_cycle_row(c) for c in fragment_table if c.violated],
        }
    return section


def _pointer_section(problem: Problem, psi: StateVector, phi: StateVector) -> dict:
    cfg = problem.pointer_cfg if problem.pointer_cfg is not None else PointerConfig()
    result = extrapolate(problem.obs, psi, phi, cfg)
    series_rows = [
        {
            "coupling": g,
            "re_estimate": step.mean_position / g,
            "im_estimate": 2.0 * cfg.width ** 2 * step.mean_momentum / g,
            "postselect_prob": step.postselect_prob,
        }
        for g, step in zip(cfg.couplings_series, result.outcomes)
    ]
    lo = float(problem.obs.eigenvalues[0])
    hi = float(problem.obs.eigenvalues[-1])
    label = classify(result.value, lo, hi, problem.tol.anom)
    return {
        "coupling": cfg.coupling,
        "width": cfg.width,
        "outcome": asdict(result.outcome),
        "series": series_rows,
        "extrapolation": {
            "value": _pairs(result.value),
            "error": result.error,
            "classification": label,
        },
    }


# ---------------------------------------------------------------------------
# Commands


def _anomaly_exit(*flags: bool) -> int:
    return EXIT_ANOMALY if any(flags) else EXIT_OK


def cmd_compute(args) -> int:
    problem = load_problem(args.input, args.tol_anom)
    witness = check_theorem_coherence(problem.rho_phi, problem.rho_psi, problem.obs, problem.tol)
    report = _report_head("compute", problem)
    report["weak_value"] = _weak_value_section(witness.aw, problem.tol)
    report["quasiprob"] = _quasiprob_section(witness.dist, witness.aw, problem.tol)
    report["witness"] = _witness_section(problem, witness)
    report["cycles"] = _cycles_section(problem)
    _print_report(report, args.format)
    return _anomaly_exit(report["weak_value"]["classification"] != NORMAL,
                         bool(report["quasiprob"]["anomalous_indices"]))


def cmd_gvals(args) -> int:
    problem = load_problem(args.input, args.tol_anom)
    dist, aw = quasi_prob_and_weak_value(problem.rho_phi, problem.rho_psi, problem.obs, problem.tol)
    report = _report_head("gvals", problem)
    report["quasiprob"] = _quasiprob_section(dist, aw, problem.tol)
    _print_report(report, args.format)
    return _anomaly_exit(bool(report["quasiprob"]["anomalous_indices"]))


def cmd_witness(args) -> int:
    problem = load_problem(args.input, args.tol_anom)
    witness = check_theorem_coherence(problem.rho_phi, problem.rho_psi, problem.obs, problem.tol)
    report = _report_head("witness", problem)
    report["weak_value"] = _weak_value_section(witness.aw, problem.tol)
    report["witness"] = _witness_section(problem, witness)
    _print_report(report, args.format)
    return _anomaly_exit(report["weak_value"]["classification"] != NORMAL,
                         bool(report["witness"]["anomalous_indices"]))


def cmd_contextuality(args) -> int:
    problem = load_problem(args.input, args.tol_anom)
    report = _report_head("contextuality", problem)
    report["cycles"] = _cycles_section(problem)
    _print_report(report, args.format)
    violated = report["cycles"]["violated_count"] > 0
    fragment = report["cycles"].get("fragment")
    if fragment is not None:
        violated = violated or bool(fragment["violated"])
    return _anomaly_exit(violated)


def cmd_pointer(args) -> int:
    problem = load_problem(args.input, args.tol_anom)
    psi = _extract_pure(problem.rho_psi, "problem.pre_state", problem.tol)
    phi = _extract_pure(problem.rho_phi, "problem.post_state", problem.tol)
    report = _report_head("pointer", problem)
    report["pointer"] = _pointer_section(problem, psi, phi)
    _print_report(report, args.format)
    return _anomaly_exit(report["pointer"]["extrapolation"]["classification"] != NORMAL)


def cmd_search(args) -> int:
    matrix = _SEARCH_OBSERVABLES[args.observable]
    result = search_max_negativity(matrix, args.budget, args.seed)
    phi, psi = result.best_states
    tol = _with_tol_anom(DEFAULT_TOL, args.tol_anom)
    check = weak_value_hermitian(matrix, pure_to_density(psi), pure_to_density(phi), tol=tol)
    report = _report_head("search", seed=args.seed)
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
            "re": check.value.real,
            "im": check.value.imag,
            "classification": check.classification,
        },
    }
    _print_report(report, args.format)
    return EXIT_OK


def cmd_scan(args) -> int:
    kind = _SCAN_KINDS[args.kind]
    obs = eigensystem(np.diag(np.arange(args.dim, dtype=float)))
    tol = _with_tol_anom(DEFAULT_TOL, args.tol_anom)
    spec_psi = SamplerSpec(dim=args.dim, kind=kind, seed=args.seed)
    spec_phi = SamplerSpec(dim=args.dim, kind=kind, seed=(args.seed + 1) % 2 ** 64)
    summary = scan_anomaly_rate(spec_phi, spec_psi, obs, args.n, tol=tol)
    report = _report_head("scan", seed=args.seed)
    report["scan"] = {
        "kind": args.kind,
        "dim": args.dim,
        "n": summary.n,
        "counts": {
            "anomalous_g": summary.anomalous_g,
            "anomalous_aw": summary.anomalous_aw,
            "coherent_non_anomalous": summary.coherent_non_anomalous,
            "skipped": summary.skipped,
        },
        "fractions": {
            "anomalous_g": summary.anomalous_g_fraction,
            "anomalous_aw": summary.anomalous_aw_fraction,
            "coherent_non_anomalous": summary.coherent_non_anomalous_fraction,
        },
    }
    _print_report(report, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in reference reproduction

# Golden values for the bundled reference configurations; the reproduce
# command recomputes each one and compares at the stated tolerance.
REFERENCE_VALUES = {
    "proj_low_weak_value": (-0.5, 1e-12),
    "proj_high_weak_value": (1.5, 1e-12),
    "identity_weak_value": (1.0, 1e-12),
    "pair_overlap": (0.25, 1e-12),
    "third_order_invariant": (-0.125, 1e-12),
    "coherent_pair_g0": (0.829997, 5e-6),
    "coherent_pair_g1": (0.170003, 5e-6),
    "fragment_max_cycle": (1.25, 1e-12),
    "pointer_extrapolation_re": (-0.5, 1e-6),
    "pointer_extrapolation_im": (0.0, 1e-6),
}


def _reference_computations() -> dict:
    from .invariants import bargmann, overlap

    half_sqrt3 = np.sqrt(3.0) / 2.0
    psi = state_vector([0.5, half_sqrt3])
    phi = state_vector([-0.5, half_sqrt3])
    rho_psi = pure_to_density(psi)
    rho_phi = pure_to_density(phi)
    proj_low = eigensystem(np.diag([1.0, 0.0]))

    aw_low = weak_value_pure(proj_low, psi, phi)
    aw_high = weak_value_pure(eigensystem(np.diag([0.0, 1.0])), psi, phi)
    identity = weak_value_hermitian(np.eye(2), rho_psi, rho_phi)

    basis_low = pure_to_density(proj_low.basis_state(1))  # eigenvalue 1 sits last
    values = {
        "proj_low_weak_value": aw_low.value.real,
        "proj_high_weak_value": aw_high.value.real,
        "identity_weak_value": identity.value.real,
        "pair_overlap": overlap(rho_phi, rho_psi),
        "third_order_invariant": bargmann((rho_phi, basis_low, rho_psi)).real,
    }

    coherent_psi = validate_density([[0.75, np.sqrt(3.0 / 32.0)], [np.sqrt(3.0 / 32.0), 0.25]])
    coherent_phi = validate_density([[0.75, np.sqrt(3.0) / 8.0], [np.sqrt(3.0) / 8.0, 0.25]])
    number_obs = eigensystem(np.diag([0.0, 1.0]))
    dist = quasi_prob(coherent_phi, coherent_psi, number_obs)
    values["coherent_pair_g0"] = dist.weights[0].real
    values["coherent_pair_g1"] = dist.weights[1].real

    _, fragment_table = fragment_cycles(rho_phi, rho_psi, proj_low, DEFAULT_TOL)
    values["fragment_max_cycle"] = max(c.value for c in fragment_table)

    pointer_result = extrapolate(proj_low, psi, phi)
    values["pointer_extrapolation_re"] = pointer_result.value.real
    values["pointer_extrapolation_im"] = pointer_result.value.imag

    checks = {
        "coherent_pair_commutator_positive": commutator_norm(coherent_phi, coherent_psi) > 0.0,
        "coherent_pair_non_anomalous": not anomalous_indices(dist),
        "proj_low_classified_anomalous": aw_low.classification == ANOMALOUS_REAL,
    }
    return {"values": values, "checks": checks}


def cmd_reproduce(args) -> int:
    computed = _reference_computations()
    values = computed["values"]
    results = [(name, abs(values[name] - expected) <= tolerance,
                f"expected={_fmt_float(expected)} computed={_fmt_float(values[name])} tol={tolerance:.1e}")
               for name, (expected, tolerance) in REFERENCE_VALUES.items()]
    results += [(name, ok, f"expected=true computed={'true' if ok else 'false'}")
                for name, ok in computed["checks"].items()]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} reference checks passed")
    return EXIT_OK if passed == len(results) else EXIT_REPRODUCE


# ---------------------------------------------------------------------------
# Entry point


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed must fit in an unsigned 64-bit integer, got {text}")
    return value


def _tol_anom_type(text: str) -> float:
    # Tolerances holds the only check, so a refused band never reaches a command.
    try:
        return Tolerances(anom=float(text)).anom
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

    def with_input(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, metavar="FILE", help="problem file (JSON)")
        common(p)
        return p

    with_input("compute", "full report: weak value, quasi-probabilities, witness, cycles"
               ).set_defaults(func=cmd_compute)
    with_input("gvals", "quasi-probability distribution only").set_defaults(func=cmd_gvals)
    with_input("witness", "coherence witness diagnosis").set_defaults(func=cmd_witness)
    with_input("contextuality", "3-cycle inequality table and frame graphs"
               ).set_defaults(func=cmd_contextuality)
    with_input("pointer", "pointer readout and extrapolated weak value"
               ).set_defaults(func=cmd_pointer)

    p_search = sub.add_parser("search", help="search for maximally negative weak values")
    p_search.add_argument("--observable", choices=sorted(_SEARCH_OBSERVABLES), default="proj0",
                          help="built-in qubit observable (default proj0)")
    p_search.add_argument("--budget", type=int, default=10000, metavar="N",
                          help="objective evaluation budget (default 10000)")
    p_search.add_argument("--seed", type=_seed_type, default=0, metavar="U64",
                          help="master seed (default 0)")
    common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_scan = sub.add_parser("scan", help="anomaly-rate scan over sampled selection pairs")
    p_scan.add_argument("--kind", choices=sorted(_SCAN_KINDS), default="haar",
                        help="state ensemble for both selections (default haar)")
    p_scan.add_argument("--n", type=int, default=1000, metavar="N",
                        help="number of sampled pairs (default 1000)")
    p_scan.add_argument("--dim", type=int, default=2, metavar="D",
                        help="Hilbert space dimension (default 2)")
    p_scan.add_argument("--seed", type=_seed_type, default=0, metavar="U64",
                        help="master seed (default 0)")
    common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

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
        return args.func(args)
    except (ProblemFileError, FileNotFoundError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
