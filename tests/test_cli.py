"""End-to-end coverage of the command-line surface: parsing, reports,
exit codes, and determinism."""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import weakvalues as wv
from weakvalues import cli, pointer, quasiprob
from conftest import random_mixed, random_pure
from oracles import (as_lists, looped_fragment_cycles, looped_render_csv, looped_render_json, looped_three_cycles,
                     nodewise_matrix, nodewise_state, pointer_estimate)

HALF_SQRT3 = np.sqrt(3.0) / 2.0
SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(argv):
    """``python -m weakvalues`` in a child process that imports the package from src/, installed or not."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "weakvalues", *argv], env=env, capture_output=True, text=True)


def _write_problem(path, data):
    path.write_text(json.dumps(data))
    return str(path)


GREAT_CIRCLE = {
    "dimension": 2,
    "observable": [[1.0, 0.0], [0.0, 0.0]],
    "pre_state": [0.5, HALF_SQRT3],
    "post_state": [-0.5, HALF_SQRT3],
}


@pytest.fixture()
def great_circle_file(tmp_path):
    return _write_problem(tmp_path / "great_circle.json", GREAT_CIRCLE)


@pytest.fixture()
def coherent_mixed_file(tmp_path):
    c_psi = float(np.sqrt(3.0 / 32.0))
    c_phi = float(np.sqrt(3.0) / 8.0)
    return _write_problem(tmp_path / "coherent_mixed.json", {
        "dimension": 2,
        "observable": [[0.0, 0.0], [0.0, 1.0]],
        "pre_state": [[0.75, c_psi], [c_psi, 0.25]],
        "post_state": [[0.75, c_phi], [c_phi, 0.25]],
    })


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_flags_anomaly(capsys, great_circle_file):
    code, out, err = _run(capsys, ["compute", "--input", great_circle_file])
    assert code == 3
    report = json.loads(out)
    assert abs(report["weak_value"]["re"] - (-0.5)) < 1e-12
    assert report["weak_value"]["im"] == 0.0
    assert report["weak_value"]["classification"] == "AnomalousReal"
    assert report["weak_value"]["marginal"] is False
    assert report["quasiprob"]["anomalous_indices"] == [0, 1]
    assert report["witness"]["verdict"] == "ConsistentWithTheorem"
    assert report["cycles"]["fragment"]["claim_applies"] is True
    assert abs(report["cycles"]["fragment"]["max_value"] - 1.25) < 1e-12
    assert report["tool"]["name"] == "weakvalues"


def test_compute_tame_case(capsys, coherent_mixed_file):
    code, out, err = _run(capsys, ["compute", "--input", coherent_mixed_file])
    assert code == 0
    report = json.loads(out)
    g = report["quasiprob"]["weights"]
    assert abs(g[0][0] - 0.829997) < 5e-6
    assert abs(g[1][0] - 0.170003) < 5e-6
    assert report["quasiprob"]["anomalous_indices"] == []
    assert report["witness"]["commutator_norm"] > 0.0


def test_compute_reads_the_hermitian_part_of_an_accepted_state(capsys, tmp_path):
    # The pre-state's Hermiticity defect of 1.0e-10 is what the gate accepts. Its anti-Hermitian part
    # once reached the kernel: g = (0.5 + 2.5e-8 i, 0.5 + 2.5e-8 i), AnomalousImaginary, exit 3.
    path = _write_problem(tmp_path / "defect.json", {
        "dimension": 2, "observable": [[0, 0], [0, 1]],
        "pre_state": [[0.999999, [0, 5e-11]], [[0, 5e-11], 1e-6]],
        "post_state": [[1e-6, 0.0009999995], [0.0009999995, 0.999999]],
    })
    code, out, _ = _run(capsys, ["compute", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["quasiprob"]["weights"] == [[0.5, 0.0], [0.5, 0.0]]
    assert report["weak_value"]["im"] == 0.0
    assert report["weak_value"]["classification"] == "Normal"


def test_tol_anom_override_suppresses_anomaly(capsys, great_circle_file):
    code, out, _ = _run(capsys, ["compute", "--input", great_circle_file,
                                 "--tol-anom", "10"])
    assert code == 0
    report = json.loads(out)
    assert report["weak_value"]["classification"] == "Normal"
    assert report["inputs"]["tolerances"]["anom"] == 10.0


@pytest.mark.parametrize("command", ["compute", "gvals", "witness", "contextuality", "pointer"])
def test_tol_anom_flag_overrides_the_file_band(capsys, tmp_path, command):
    path = _write_problem(tmp_path / "p.json", {**GREAT_CIRCLE, "tolerances": {"anom": 1e-6}})
    code, out, _ = _run(capsys, [command, "--input", path])
    assert code == 3
    assert json.loads(out)["inputs"]["tolerances"]["anom"] == 1e-6
    code, out, err = _run(capsys, [command, "--input", path, "--tol-anom", "10"])
    assert (code, err) == (0, "")  # every verdict is judged with the flag's band
    assert json.loads(out)["inputs"]["tolerances"]["anom"] == 10.0


@pytest.mark.parametrize("tolerances, message", [
    ({"anom": "x"}, "problem.tolerances.anom: expected a number, got str"),
    ([1e-9], "problem.tolerances: expected an object of tolerance values"),
    ({"norm": 1e-9}, "problem.tolerances: unknown tolerance keys ['norm']"),
    ({"anom": -1.0}, "problem.tolerances: tolerance anom must be positive and finite, got -1.0"),
], ids=["anom-str", "list", "unknown-key", "negative-anom"])
def test_tol_anom_flag_does_not_excuse_a_bad_file_band(capsys, tmp_path, tolerances, message):
    path = _write_problem(tmp_path / "p.json", {**GREAT_CIRCLE, "tolerances": tolerances})
    code, out, err = _run(capsys, ["gvals", "--input", path, "--tol-anom", "10"])
    assert (code, out, err) == (1, "", f"input error: {message}\n")


def test_gvals_and_witness_subcommands(capsys, great_circle_file):
    code, out, _ = _run(capsys, ["gvals", "--input", great_circle_file])
    assert code == 3
    report = json.loads(out)
    assert abs(report["quasiprob"]["weights"][0][0] - 1.5) < 1e-12
    assert "weak_value" not in report

    code, out, _ = _run(capsys, ["witness", "--input", great_circle_file])
    assert code == 3
    report = json.loads(out)
    assert report["witness"]["coherent_pre"] is True
    assert report["witness"]["coherent_post"] is True


def test_contextuality_qutrit_omits_fragment(capsys, tmp_path):
    path = _write_problem(tmp_path / "qutrit.json", {
        "dimension": 3,
        "observable": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
        "pre_state": [0.6, 0.0, 0.8],
        "post_state": [0.8, 0.0, 0.6],
    })
    code, out, _ = _run(capsys, ["contextuality", "--input", path, "--detail", "full"])
    report = json.loads(out)
    assert "fragment" not in report["cycles"]
    assert "dimension 3" in report["cycles"]["fragment_note"]
    assert len(report["cycles"]["inequalities"]) == 30  # C(5,3) * 3


_TILT = 0.7 + np.pi / 2.0
# Tr(rho_phi rho_psi) = 1.0e-10 and a_0 = psi-perp: g_0 = -3.8e-7 carries a rounding of order eps / Tr.
NEAR_ORTHOGONAL_ROUNDING = {
    "dimension": 2,
    "observable": [[np.sin(_TILT) ** 2, -np.sin(_TILT) * np.cos(_TILT)],
                   [-np.sin(_TILT) * np.cos(_TILT), np.cos(_TILT) ** 2]],
    "pre_state": [np.cos(0.7), np.sin(0.7)],
    "post_state": [-np.sin(0.70001), np.cos(0.70001)],
}
# Diagonal states that the gates accept; the eigenvalue -5e-11 alone gives g = (-1, 2) at Tr = 5e-11.
ACCEPTED_NEGATIVITY = {
    "dimension": 2,
    "observable": [[0.0, 0.0], [0.0, 1.0]],
    "pre_state": [[-5e-11, 0.0], [0.0, 1.00000000005]],
    "post_state": [[0.9999999999, 0.0], [0.0, 1e-10]],
}


@pytest.mark.parametrize("problem", [NEAR_ORTHOGONAL_ROUNDING, ACCEPTED_NEGATIVITY],
                         ids=["near-orthogonal-rounding", "accepted-negativity"])
def test_a_verdict_its_error_can_flip_is_flagged(capsys, tmp_path, problem):
    # The anomaly still counts (exit 3), but every verdict is flagged, and the witness does not
    # read a broken theorem into what rounding or an accepted negative eigenvalue can do.
    path = _write_problem(tmp_path / "p.json", problem)
    code, out, _ = _run(capsys, ["compute", "--input", path])
    report = json.loads(out)
    assert code == 3
    assert report["quasiprob"]["anomalous_indices"] == [0, 1]
    assert report["quasiprob"]["marginal_indices"] == [0, 1]
    assert report["weak_value"]["marginal"] is True
    assert report["witness"]["verdict"] == "ConsistentWithTheorem"


def test_pointer_subcommand(capsys, great_circle_file):
    code, out, _ = _run(capsys, ["pointer", "--input", great_circle_file])
    assert code == 3
    report = json.loads(out)
    extra = report["pointer"]["extrapolation"]
    assert abs(extra["value"][0] - (-0.5)) < 1e-6
    assert extra["classification"] == "AnomalousReal"
    rows = report["pointer"]["series"]
    assert len(rows) == 4
    assert all("postselect_prob" in row for row in rows)


def test_pointer_rejects_mixed_states(capsys, coherent_mixed_file):
    code, _, err = _run(capsys, ["pointer", "--input", coherent_mixed_file])
    assert code == 1
    assert "needs pure states" in err


def test_exit_two_on_orthogonal_selection(capsys, tmp_path):
    # the pointer once read the plus-minus pair out at every coupling and reported an extrapolated value
    for pre_state, post_state in (([1.0, 0.0], [0.0, 1.0]),
                                  ([np.sqrt(0.5), np.sqrt(0.5)], [np.sqrt(0.5), -np.sqrt(0.5)])):
        path = _write_problem(tmp_path / "orthogonal.json", {
            "dimension": 2,
            "observable": [[1.0, 0.0], [0.0, 0.0]],
            "pre_state": pre_state,
            "post_state": post_state,
        })
        for command in ("compute", "gvals", "pointer"):
            code, out, err = _run(capsys, [command, "--input", path])
            assert (code, out, err) == (2, "", "numerical failure: post-selection overlap at or below threshold "
                                               "1.0e-12\n"), (pre_state, command)


def test_input_error_paths(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, _, err = _run(capsys, ["compute", "--input", str(missing)])
    assert (code, err) == (1, f"input error: [Errno 2] No such file or directory: '{missing}'\n")

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, _, err = _run(capsys, ["compute", "--input", str(bad_json)])
    assert code == 1
    assert "invalid JSON" in err

    bad_norm = _write_problem(tmp_path / "badnorm.json", {
        "dimension": 2,
        "observable": [[1.0, 0.0], [0.0, 0.0]],
        "pre_state": [1.0, 1.0],
        "post_state": [1.0, 0.0],
    })
    code, _, err = _run(capsys, ["compute", "--input", bad_norm])
    assert code == 1
    assert "problem.pre_state" in err

    code, _, err = _run(capsys, ["compute", "--no-such-flag"])
    assert code == 1
    code, _, err = _run(capsys, ["no-such-command"])
    assert code == 1


def test_unknown_problem_keys_rejected(capsys, tmp_path):
    path = _write_problem(tmp_path / "extra.json", {
        "dimension": 2,
        "observable": [[1.0, 0.0], [0.0, 0.0]],
        "pre_state": [1.0, 0.0],
        "post_state": [1.0, 0.0],
        "surprise": 1,
    })
    code, _, err = _run(capsys, ["compute", "--input", path])
    assert code == 1
    assert "surprise" in err
    # orth was read by nothing; the gate thresholds are module constants, not problem settings
    for key in ("orth", "norm", "herm", "psd", "eig", "degen"):
        path = _write_problem(tmp_path / f"{key}.json", {**GREAT_CIRCLE, "tolerances": {key: 1e-9}})
        assert _run(capsys, ["compute", "--input", path]) == (
            1, "", f"input error: problem.tolerances: unknown tolerance keys ['{key}']\n")


def test_complex_entries_and_seed(capsys, tmp_path):
    inv = 1.0 / np.sqrt(2.0)
    path = _write_problem(tmp_path / "complex.json", {
        "dimension": 2,
        "observable": [[1.0, 0.0], [0.0, 0.0]],
        "pre_state": [[inv, 0.0], [0.0, inv]],
        "post_state": [[inv, 0.0], [inv, 0.0]],
        "seed": 77,
    })
    code, out, _ = _run(capsys, ["compute", "--input", path])
    report = json.loads(out)
    assert report["seed"] == 77
    # A_w = (1/2) / ((1 + i)/2) picks up an imaginary part
    assert report["weak_value"]["classification"] == "AnomalousImaginary"
    assert abs(report["weak_value"]["im"] - (-0.5)) < 1e-12
    assert code == 3


def test_grid_of_bare_numbers_prefers_matrix_reading(capsys, tmp_path):
    # [[a, b], [b, c]] at dimension 2 could be a matrix or a vector of
    # [re, im] pairs; the matrix reading wins, the vector reading is the
    # fallback when validation rejects the matrix
    as_matrix = _write_problem(tmp_path / "m.json", {
        "dimension": 2,
        "observable": [[0.0, 0.0], [0.0, 1.0]],
        "pre_state": [[0.75, 0.25], [0.25, 0.25]],
        "post_state": [[1.0, 0.0], [0.0, 0.0]],
    })
    code, out, _ = _run(capsys, ["gvals", "--input", as_matrix, "--detail", "full"])
    report = json.loads(out)
    assert report["inputs"]["pre_state"][0][0] == [0.75, 0.0]

    inv = 1.0 / np.sqrt(2.0)
    as_vector = _write_problem(tmp_path / "v.json", {
        "dimension": 2,
        "observable": [[0.0, 0.0], [0.0, 1.0]],
        # trace 2/sqrt(2) != 1, so this only parses as (1, i)/sqrt(2)
        "pre_state": [[inv, 0.0], [0.0, inv]],
        "post_state": [1.0, 0.0],
    })
    code, out, _ = _run(capsys, ["gvals", "--input", as_vector, "--detail", "full"])
    report = json.loads(out)
    pre = np.array([[complex(re, im) for re, im in row]
                    for row in report["inputs"]["pre_state"]])
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.max(np.abs(pre - expected)) < 1e-12

    neither = _write_problem(tmp_path / "n.json", {
        "dimension": 2,
        "observable": [[0.0, 0.0], [0.0, 1.0]],
        "pre_state": [[0.9, 0.3], [0.3, 0.4]],
        "post_state": [1.0, 0.0],
    })
    code, _, err = _run(capsys, ["gvals", "--input", neither])
    assert code == 1
    assert "amplitude-vector reading fails as well" in err


# A fresh copy per draw: the mutations below edit the lists they insert, and an edited
# shared constant would change later draws (hypothesis then reports a flaky strategy).
_ODD_ENTRIES = st.sampled_from(["x", None, True, False, [], [0.5, 0.5, 0.5], [[0.5]], [0.5, "y"],
                                [True, 0.0]]).map(copy.deepcopy)
_NUMBERS = (st.floats() | st.integers(-2 ** 70, 2 ** 70)
            | st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")]))


@st.composite
def reader_cases(draw):
    """(node, dim): a state or matrix node as a problem file writes it, often mutated."""
    dim = draw(st.integers(2, 4))
    real = draw(st.booleans())
    raw = draw(hnp.arrays(np.float64, (2, dim, dim), elements=st.floats(-0.5, 0.5, allow_subnormal=False)))
    g = raw[0] + (0.0 if real else 1j) * raw[1] + np.eye(dim)
    if draw(st.booleans()):
        values = g[0] / np.linalg.norm(g[0])
    else:
        rho = g @ g.conj().T
        values = rho / np.trace(rho).real
    bare = draw(st.booleans())
    zero = draw(st.sampled_from([0.0, -0.0]))  # the imaginary part written for a real entry
    node = [value.real if bare and value.imag == 0.0 else [value.real, value.imag or zero]
            for value in values.ravel().tolist()]
    if values.ndim == 2:
        node = [node[i * dim:(i + 1) * dim] for i in range(dim)]
    if dim == 2 and draw(st.booleans()):
        # two pairs of bare numbers: a grid that validates, or amplitudes behind a grid that does not
        node = (values.real.tolist() if values.ndim == 2 and real
                else [[value.real, value.imag] for value in (g[0] / np.linalg.norm(g[0])).tolist()])
    for _ in range(draw(st.integers(0, 3))):
        rows = [entry for entry in node if isinstance(entry, list) and entry]
        lists = [node] + rows + [entry for row in rows for entry in row if isinstance(entry, list) and entry]
        target = draw(st.sampled_from(lists))
        i = draw(st.integers(0, len(target) - 1))
        op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if op == "replace":
            target[i] = draw(_NUMBERS | _ODD_ENTRIES | st.lists(_NUMBERS, min_size=2, max_size=2))
        elif op == "delete" and len(target) > 1:
            del target[i]
        elif op == "duplicate":
            target.insert(i, json.loads(json.dumps(target[i])))
    return node, dim


def _reader_outcome(read, *args):
    try:
        value = read(*args)
    except cli.ProblemFileError as exc:
        return str(exc)
    array = value if isinstance(value, np.ndarray) else value.matrix
    return array.shape, array.tobytes()


@settings(max_examples=400, deadline=None)
@given(case=reader_cases())
@example(case=([[1.0, 0.0], [0.0], [0.0, "x"]], 3))  # a refused entry is named before a ragged row
@example(case=([[[1.0, -0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -0.0]]], 2))
def test_reader_matches_the_nodewise_oracle(case):
    # the same arrays to the bit, signed zeros included, or the same error text
    node, dim = case
    assert (_reader_outcome(cli._parse_state, node, "problem.pre_state", dim)
            == _reader_outcome(nodewise_state, node, "problem.pre_state", dim))
    assert (_reader_outcome(cli._parse_matrix, node, "problem.observable")
            == _reader_outcome(nodewise_matrix, node, "problem.observable"))


_HUGE = 10 ** 400


@pytest.mark.parametrize("write, message", [
    (lambda path: path.mkdir(), "cannot read the file: Is a directory"),
    (lambda path: path.write_bytes(b'{"dimension": 2, "seed": "\xff"}'),
     "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 26: invalid start byte"),
    (lambda path: path.write_text("[" * 100_000), "invalid JSON: maximum recursion depth exceeded"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "observable": [[_HUGE, "x"], [0, 0]]})),
     "problem.observable[0][0]: integer outside the float range"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "observable": [[1, "x"], [0, _HUGE]]})),
     "problem.observable[0][1]: expected a [re, im] pair or a real number"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "pre_state": [[0.5, -_HUGE], [0.5, 0]]})),
     "problem.pre_state[0][1]: integer outside the float range"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "tolerances": {"anom": _HUGE}})),
     "problem.tolerances.anom: integer outside the float range"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "pointer": {"couplings_series": [0.1, _HUGE]}})),
     "problem.pointer.couplings_series[1]: integer outside the float range"),
    # a state without a list entry can only be amplitudes, so the refused amplitude is named
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "pre_state": ["x", 0.0]})),
     "problem.pre_state[0]: expected a [re, im] pair or a real number"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "pre_state": [_HUGE, 0.0]})),
     "problem.pre_state[0]: integer outside the float range"),
    (lambda path: path.write_text(json.dumps({
        "dimension": 3, "observable": np.diag([0.0, 1.0, 2.0]).tolist(),
        "pre_state": [0.6, None, 0.8], "post_state": [1.0, 0.0, 0.0]})),
     "problem.pre_state[1]: expected a [re, im] pair or a real number"),
    (lambda path: path.write_text(json.dumps([GREAT_CIRCLE])), "problem: top level must be a JSON object"),
    (lambda path: path.write_text(json.dumps({"dimension": 2, "observable": GREAT_CIRCLE["observable"]})),
     "problem: missing required keys ['post_state', 'pre_state']"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "dimension": True})),
     "problem.dimension: expected an integer"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "dimension": 2.0})),
     "problem.dimension: expected an integer"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "dimension": 1})),
     "problem.dimension: dimension 1 outside supported range [2, 64]"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "dimension": 65})),
     "problem.dimension: dimension 65 outside supported range [2, 64]"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "observable": np.eye(3).tolist()})),
     "problem.observable: shape (3, 3), expected (2, 2)"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "seed": 2 ** 64})),
     "problem.seed: expected an unsigned 64-bit integer"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "seed": -1})),
     "problem.seed: expected an unsigned 64-bit integer"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "seed": True})),
     "problem.seed: expected an unsigned 64-bit integer"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "tolerances": [1e-9]})),
     "problem.tolerances: expected an object of tolerance values"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "pointer": 0.05})),
     "problem.pointer: expected an object with pointer settings"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "pointer": {"couplings_series": 0.1}})),
     "problem.pointer.couplings_series: expected a list of couplings"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "observable": []})),
     "problem.observable: expected a non-empty list of rows"),
    (lambda path: path.write_text(json.dumps({**GREAT_CIRCLE, "pre_state": []})),
     "problem.pre_state: expected an amplitude vector or a density matrix"),
], ids=["directory", "not-utf8", "deep-nesting", "huge-matrix-entry", "refusal-in-file-order",
        "huge-amplitude", "huge-tolerance", "huge-pointer-setting", "bare-string-amplitude",
        "bare-huge-amplitude", "null-amplitude", "top-level-list", "missing-keys", "bool-dimension",
        "float-dimension", "dimension-below-2", "dimension-above-64", "observable-shape", "seed-past-64-bits",
        "negative-seed", "bool-seed", "tolerances-list", "pointer-number", "couplings-series-number",
        "empty-observable", "empty-state"])
def test_unreadable_problem_files_are_input_errors(capsys, tmp_path, write, message):
    path = tmp_path / "p.json"
    write(path)
    code, out, err = _run(capsys, ["compute", "--input", str(path)])
    located = message if message.startswith(("problem.", "problem:")) else f"{path}: {message}"
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith(f"input error: {located}")


def test_an_overflowing_norm_prints_only_its_input_error(tmp_path):
    path = _write_problem(tmp_path / "p.json", {**GREAT_CIRCLE, "pre_state": [1e300, 1e300]})
    proc = _run_module(["compute", "--input", path])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("input error: problem.pre_state: squared norm deviates from 1 by inf "
                           "(tolerance 1.0e-10)\n")


_HERMITICITY_INF = "Hermiticity defect inf exceeds tolerance 1.0e-10"
_WIDTH_INF = "problem.observable: spectrum width a_max - a_min = inf is not a finite float"
_NEITHER = "problem.pre_state: not a valid density matrix ({}) and the amplitude-vector reading fails as well"


@pytest.mark.parametrize("key, value, message", [
    ("observable", [[1e308, 1e308], [1e308, 1e308]], _WIDTH_INF),
    ("observable", [[1e308, 0.0], [0.0, -1e308]], _WIDTH_INF),
    ("observable", [[0.0, 1e308], [-1e308, 0.0]], f"problem.observable: {_HERMITICITY_INF}"),
    ("pre_state", [[0.5, 1e308], [-1e308, 0.5]], _NEITHER.format(_HERMITICITY_INF)),
    ("pre_state", [[1e308, 1e308], [1e308, 1e308]],
     _NEITHER.format("trace deviates from 1 by inf (tolerance 1.0e-10)")),
], ids=["observable-infinite-eigenvalue", "observable-infinite-width", "observable-overflowing-defect",
        "state-overflowing-defect", "state-overflowing-trace"])
def test_overflowing_inputs_print_only_their_input_error(tmp_path, key, value, message):
    path = _write_problem(tmp_path / "p.json", {**GREAT_CIRCLE, key: value})
    proc = _run_module(["compute", "--input", path])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"input error: {message}\n")


@pytest.mark.parametrize("dim, message", [
    (dim, f"dimension {dim} outside supported range [2, 64]") for dim in ("0", "-3", "1", "65")
] + [("two", "invalid int value: 'two'")], ids=["0", "-3", "1", "65", "two"])
def test_scan_refuses_an_empty_dimension(capsys, dim, message):
    # the flag refuses every dimension outside [2, 64], as a problem file's "dimension" does
    code, out, err = _run(capsys, ["scan", "--dim", dim, "--n", "10"])
    assert (code, out, err) == (1, "", f"error: argument --dim: {message}\n")


@pytest.mark.parametrize("budget, message", [
    ("-3", "budget must be at least 1, got -3"),
    ("0", "budget must be at least 1, got 0"),
    # the search splits the budget into 64-bit shares, so a larger one overflowed there
    ("9223372036854775808", "budget must fit in a signed 64-bit integer, got 9223372036854775808"),
    ("1000000000000000000000", "budget must fit in a signed 64-bit integer, got 1000000000000000000000"),
], ids=["-3", "0", "2**63", "1e21"])
def test_search_refuses_a_budget_below_one(capsys, budget, message):
    code, out, err = _run(capsys, ["search", "--budget", budget])
    assert (code, out, err) == (1, "", f"error: argument --budget: {message}\n")


@pytest.mark.parametrize("n, message", [
    ("0", "n must be at least 1, got 0"),
    ("-3", "n must be at least 1, got -3"),
    ("9223372036854775808", "n must fit in a signed 64-bit integer, got 9223372036854775808"),
    # once accepted, and then sampled for 30 s and more without a line of output
    ("100000000000000000000000", "n must fit in a signed 64-bit integer, got 100000000000000000000000"),
], ids=["0", "-3", "2**63", "1e23"])
def test_scan_refuses_a_count_outside_the_signed_64_bit_range(capsys, n, message):
    code, out, err = _run(capsys, ["scan", "--n", n])
    assert (code, out, err) == (1, "", f"error: argument --n: {message}\n")


def test_search_accepts_a_budget_of_one(capsys):
    code, out, err = _run(capsys, ["search", "--budget", "1", "--seed", "5"])
    assert (code, err) == (0, "")
    assert json.loads(out)["search"]["evaluations"] == 1


def test_search_accepts_the_largest_signed_64_bit_budget(capsys):
    code, out, err = _run(capsys, ["search", "--budget", str(2 ** 63 - 1), "--seed", "5"])
    assert (code, err) == (0, "")
    assert json.loads(out)["search"]["budget"] == 2 ** 63 - 1


@pytest.mark.parametrize("command", ["search", "scan"])
def test_a_seed_past_64_bits_is_refused(capsys, command):
    code, out, err = _run(capsys, [command, "--seed", "18446744073709551616"])
    assert (code, out, err) == (1, "", "error: argument --seed: seed must fit in an unsigned 64-bit integer, "
                                       "got 18446744073709551616\n")


@pytest.mark.parametrize("argv, flag", [
    (["search", "--seed", "abc"], "--seed"),
    (["scan", "--seed", "abc"], "--seed"),
    (["scan", "--dim", "abc"], "--dim"),
    (["search", "--budget", "abc"], "--budget"),
    (["scan", "--n", "abc"], "--n"),
], ids=["search-seed", "scan-seed", "dim", "budget", "n"])
def test_integer_flags_refuse_a_non_integer_by_name(capsys, argv, flag):
    # one reader for every integer flag: the message names the flag, never a function
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: argument {flag}: invalid int value: 'abc'\n")


def test_round_trip_echo(capsys, great_circle_file, tmp_path):
    # a full report's inputs block reproduces the whole report byte for byte, in
    # both formats; the 120-degree post-selection state echoes a negative zero
    for command in ("compute", "gvals", "witness", "contextuality", "pointer"):
        code, out, _ = _run(capsys, [command, "--input", great_circle_file, "--detail", "full"])
        assert "-0.0" in out
        echoed = _write_problem(tmp_path / f"{command}-echo.json", json.loads(out)["inputs"])
        for fmt in ("json", "csv"):
            first = _run(capsys, [command, "--input", great_circle_file, "--format", fmt, "--detail", "full"])
            again = _run(capsys, [command, "--input", echoed, "--format", fmt, "--detail", "full"])
            assert again == first, (command, fmt)


def _pairs(array):
    """Complex entries as the [re, im] pairs a problem file accepts."""
    return np.stack([array.real, array.imag], axis=-1).tolist()


@st.composite
def problems(draw, max_dim=4):
    """Problem files at d = 2..max_dim: a non-degenerate observable in a generated basis,
    pure or mixed selection states, real or complex amplitudes, optional band and seed."""
    d = draw(st.integers(2, max_dim))
    real = draw(st.booleans())
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)

    def complex_array(shape):
        raw = draw(hnp.arrays(np.float64, (2, *shape), elements=entries))
        return raw[0] + (0.0 if real else 1j) * raw[1]

    q, _ = np.linalg.qr(complex_array((d, d)) + 3.0 * np.eye(d))
    spectrum = np.cumsum(draw(hnp.arrays(np.float64, d, elements=st.floats(0.1, 2.0))))
    problem = {"dimension": d, "observable": _pairs((q * spectrum) @ q.conj().T)}
    for key in ("pre_state", "post_state"):
        # A first entry of -1 cancels the shift, so a draw can be the zero vector or matrix,
        # whose norm or trace is 0 (or underflows to it); such draws are rejected.
        if draw(st.booleans()):
            amps = complex_array((d,)) + np.eye(d)[0]
            norm = np.linalg.norm(amps)
            assume(norm > 1e-6)
            problem[key] = _pairs(amps / norm)
        else:
            g = complex_array((d, d)) + np.eye(d)
            rho = g @ g.conj().T
            trace = np.trace(rho).real
            assume(trace > 1e-12)
            problem[key] = _pairs(rho / trace)
    anom = draw(st.sampled_from([None, 1e-9, 1e-6, 1e-2]))
    if anom is not None:
        problem["tolerances"] = {"anom": anom}
    if draw(st.booleans()):
        problem["seed"] = draw(st.integers(0, 2 ** 64 - 1))
    return problem


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(problem=problems())
def test_inputs_block_reproduces_generated_reports(capsys, tmp_path, problem):
    # over generated problems, the echoed inputs of a full report give its exact
    # stdout and exit code in both formats, the cycle tables included
    path = _write_problem(tmp_path / "generated.json", problem)
    for command in ("compute", "contextuality"):
        code, out, _ = _run(capsys, [command, "--input", path, "--detail", "full"])
        assert code in (0, 2, 3), (command, code)
        if code == 2:  # a selection too close to orthogonal has no report to echo
            assert out == ""
            continue
        echoed = _write_problem(tmp_path / f"{command}-echo.json", json.loads(out)["inputs"])
        for fmt in ("json", "csv"):
            first = _run(capsys, [command, "--input", path, "--format", fmt, "--detail", "full"])[:2]
            again = _run(capsys, [command, "--input", echoed, "--format", fmt, "--detail", "full"])[:2]
            assert again == first, (command, fmt)


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every weakvalues module that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "weakvalues" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_command_evaluates_once(capsys, monkeypatch, great_circle_file, tmp_path):
    kernel = _count_calls(monkeypatch, quasiprob, "quasi_prob_stack")
    readouts = _count_calls(monkeypatch, pointer, "_readouts")
    for command in ("compute", "witness", "gvals"):
        kernel.clear()
        code, _, _ = _run(capsys, [command, "--input", great_circle_file])
        assert code == 3
        assert len(kernel) == 1, command

    # one stacked readout per request: the series and the configured coupling
    # (1e-2 by default), inside the series or outside it
    code, _, _ = _run(capsys, ["pointer", "--input", great_circle_file])
    assert code == 3
    assert len(readouts) == 1
    series = [2e-2, 1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4]
    path = _write_problem(tmp_path / "series.json", {**GREAT_CIRCLE, "pointer": {"couplings_series": series}})
    readouts.clear()
    code, out, _ = _run(capsys, ["pointer", "--input", path])
    assert code == 3
    assert len(readouts) == 1
    assert [row["coupling"] for row in json.loads(out)["pointer"]["series"]] == series
    path = _write_problem(tmp_path / "outside.json",
                          {**GREAT_CIRCLE, "pointer": {"coupling": 3e-3, "couplings_series": series}})
    readouts.clear()
    code, out, _ = _run(capsys, ["pointer", "--input", path])
    assert code == 3
    assert len(readouts) == 1
    assert json.loads(out)["pointer"]["coupling"] == 3e-3


def test_pointer_outcome_is_the_series_readout_at_the_coupling(capsys, great_circle_file):
    code, out, _ = _run(capsys, ["pointer", "--input", great_circle_file])
    assert code == 3
    section = json.loads(out)["pointer"]
    row = section["series"][0]
    assert row["coupling"] == section["coupling"]
    assert section["outcome"]["postselect_prob"] == row["postselect_prob"]
    assert section["outcome"]["mean_position"] / section["coupling"] == row["re_estimate"]


def test_pointer_refuses_couplings_outside_the_weak_regime(capsys, tmp_path):
    # At g = 10..1000 the branches separate and the readout (0.1) has
    # nothing to do with the weak value (-0.5), yet the Neville gap is 9e-7.
    path = _write_problem(tmp_path / "strong.json",
                          {**GREAT_CIRCLE, "pointer": {"couplings_series": [1000, 100, 10]}})
    code, out, err = _run(capsys, ["pointer", "--input", path])
    assert code == 1
    assert out == ""
    assert "weak regime" in err
    assert "= 1000," in err


def test_pointer_refuses_a_weak_value_amplified_past_the_weak_regime(capsys, tmp_path):
    # diag(1, 0), psi = |+>, phi = sqrt(1e-9)|+> + sqrt(1 - 1e-9)|->: A_w = 15,811.9, where the
    # readout once extrapolated to 213.2 with a stated error of 159.7. The spread gate passes
    # (0.01), but g = 0.01 puts the branches 158 widths from g A_w.
    small, large = np.sqrt(1e-9), np.sqrt(1.0 - 1e-9)
    path = _write_problem(tmp_path / "amplified.json", {
        **GREAT_CIRCLE,
        "pre_state": [np.sqrt(0.5), np.sqrt(0.5)],
        "post_state": [(small + large) * np.sqrt(0.5), (small - large) * np.sqrt(0.5)],
    })
    assert _run(capsys, ["pointer", "--input", path]) == (
        1, "", "input error: couplings_series leaves the weak regime: max coupling x max_i |a_i - A_w| / width"
               " = 158.119, must be at most 1\n")


@pytest.mark.parametrize("width", [1.2e154, 1e200, 1e-200])
def test_pointer_width_past_the_float_range_is_an_input_error(capsys, tmp_path, width):
    # 4 width^2 overflows (at 1.2e154 the series once read null and exited 0, at 1e200
    # ``width ** 2`` raised OverflowError) or underflows to 0 (the moments read NaN)
    path = _write_problem(tmp_path / "wide.json", {**GREAT_CIRCLE, "pointer": {"width": width}})
    code, out, err = _run(capsys, ["pointer", "--input", path])
    assert (code, out) == (1, "")
    assert err == f"input error: problem.pointer: pointer width {width!r} puts 4 width^2 outside the normal " \
                  "finite floats\n"


def test_pointer_width_inside_the_float_range_still_flags_the_anomaly(capsys, tmp_path):
    path = _write_problem(tmp_path / "wide.json", {**GREAT_CIRCLE, "pointer": {"width": 1e153}})
    code, out, _ = _run(capsys, ["pointer", "--input", path])
    assert code == 3
    assert json.loads(out)["pointer"]["extrapolation"]["classification"] == "AnomalousReal"


_PART = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def pointer_problems(draw):
    """A pure selection pair at d = 2..4 with a pointer block: width 0.1..10, 3-6 couplings in the weak regime."""
    d = draw(st.integers(2, 4))
    amplitudes = st.lists(st.lists(_PART, min_size=2, max_size=2), min_size=d, max_size=d).filter(
        lambda amps: sum(re * re + im * im for re, im in amps) > 1e-2).map(
        lambda amps: (np.array(amps) / np.linalg.norm(amps)).tolist())  # keeps signed zeros
    spectrum = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d, unique=True))
    width = draw(st.floats(0.1, 10.0))
    span = float(max(spectrum) - min(spectrum))
    largest = draw(st.floats(1e-4, 1.0)) * width / span
    # at u = 1.0 the spread gate's max(series) * (a_max - a_min) / width, in its operand order, can round to 1 + 2^-52
    while largest * span / width > 1.0:
        largest = float(np.nextafter(largest, 0.0))
    steps = draw(st.lists(st.floats(0.1, 0.9), min_size=2, max_size=5))
    series = [largest]
    for step in steps:
        series.append(series[-1] * step)
    return {"dimension": d, "observable": np.diag(np.array(spectrum, dtype=float)).tolist(),
            "pre_state": draw(amplitudes), "post_state": draw(amplitudes),
            "pointer": {"width": width, "couplings_series": series}}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=pointer_problems())
@example(data={**GREAT_CIRCLE, "pointer": {"width": 0.5, "couplings_series": [0.4, 0.2, 0.1]}})
@example(data={"dimension": 2, "observable": [[-1.0, 0.0], [0.0, 1.0]], "pre_state": [[0.6, -0.0], [0.8, 0.0]],
               "post_state": [[0.6, 0.0], [0.8, -0.0]], "pointer": {"width": 3.0, "couplings_series": [1.0, 0.5, 0.3]}})
def test_pointer_series_rows_are_the_estimates_bit_for_bit(data):
    # the rows print the extrapolation's own estimates, whose parts are the readout
    # formulas x/g and 2 sigma^2 p/g with every bit kept, signed zeros included
    problem = cli.parse_problem(data)
    cfg = problem.pointer_cfg
    psi = cli._extract_pure(problem.rho_psi, "problem.pre_state")
    phi = cli._extract_pure(problem.rho_phi, "problem.post_state")
    try:
        result = pointer.extrapolate(problem.obs, psi, phi, cfg)
    except wv.OrthogonalSelectionError:
        assume(False)
    except wv.ValidationError as exc:  # the series stays within the spread gate, not always within A_w's
        assume("A_w" not in str(exc))
        raise
    rows = cli._pointer_sections(problem, False)[0]["pointer"]["series"]
    assert len(rows) == len(result.estimates) == len(cfg.couplings_series)
    for g, row, estimate, outcome in zip(cfg.couplings_series, rows, result.estimates, result.outcomes):
        re, im = pointer_estimate(outcome, g, cfg.width)
        assert (row["re_estimate"].hex(), row["im_estimate"].hex()) == (re.hex(), im.hex())
        assert (estimate.real.hex(), estimate.imag.hex()) == (re.hex(), im.hex())


def test_csv_format(capsys, great_circle_file):
    code, out, _ = _run(capsys, ["compute", "--input", great_circle_file,
                                 "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "weak_value.re" in keys
    assert "quasiprob.weights.0.0" in keys
    assert "cycles.max_value" in keys


def _tilted_number_problem(angle, pre_state):
    """diag(0, 1) rotated by ``angle``, post-selection |1><1|: g_0 = angle * psi_0 / psi_1 to first order."""
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return {
        "dimension": 2,
        "observable": ((rotation * np.array([0.0, 1.0])) @ rotation.T).tolist(),
        "pre_state": pre_state,
        "post_state": [[0.0, 0.0], [0.0, 1.0]],
    }


# g_0 = -2e-9 at Tr(rho_phi rho_psi) = 0.2: the largest fragment cycle is 1 + 2 * 0.2 * 2e-9.
SMALL_ANOMALY_LOW_OVERLAP = _tilted_number_problem(1e-9, [[0.8, -0.4], [-0.4, 0.2]])
# g_0 = -8e-10, inside the band, at Tr = 0.9: the same cycles reach 1 + 1.44e-9.
NO_ANOMALY_HIGH_OVERLAP = _tilted_number_problem(2.4e-9, [[0.1, -0.3], [-0.3, 0.9]])


def test_contextuality_certifies_a_small_anomaly_at_low_overlap(capsys, tmp_path):
    path = _write_problem(tmp_path / "p.json", SMALL_ANOMALY_LOW_OVERLAP)
    code, out, _ = _run(capsys, ["contextuality", "--input", path])
    fragment = json.loads(out)["cycles"]["fragment"]
    assert code == 3
    assert fragment["claim_applies"]
    assert fragment["violated"]
    assert abs(fragment["max_value"] - (1.0 + 8e-10)) < 1e-15


def test_contextuality_flags_no_cycle_for_an_accepted_input_defect(capsys, tmp_path):
    # The pre-selection norm is 2e-11 above 1, which validation accepts; g = (1, 0).
    path = _write_problem(tmp_path / "p.json", {
        "dimension": 2,
        "observable": [[0.0, 0.0], [0.0, 1.0]],
        "pre_state": [1.00000000001, 0.0],
        "post_state": [0.001, 0.9999995],
    })
    code, out, _ = _run(capsys, ["contextuality", "--input", path])
    cycles = json.loads(out)["cycles"]
    assert code == 0
    assert cycles["fragment"]["claim_applies"]
    assert cycles["fragment"]["max_value"] > 1.0 + 1e-11
    assert cycles["fragment"]["violated"] == []
    assert cycles["violated_count"] == 0


@pytest.mark.parametrize("problem", [SMALL_ANOMALY_LOW_OVERLAP, NO_ANOMALY_HIGH_OVERLAP, GREAT_CIRCLE],
                         ids=["small-anomaly-low-overlap", "no-anomaly-high-overlap", "great-circle"])
def test_a_cycle_in_both_tables_gets_one_verdict(capsys, tmp_path, problem):
    # At d = 2 every cycle of the full table (phi, psi, a1, a2) is also a fragment cycle.
    path = _write_problem(tmp_path / "p.json", problem)
    _, out, _ = _run(capsys, ["contextuality", "--input", path, "--detail", "full"])
    cycles = json.loads(out)["cycles"]
    full = {(tuple(c["triple"]), tuple(c["minus_edge"])): c["violated"] for c in cycles["inequalities"]}
    fragment_violated = {(tuple(c["triple"]), tuple(c["minus_edge"])) for c in cycles["fragment"]["violated"]}
    assert {key for key, violated in full.items() if violated} == fragment_violated & set(full)
    assert len(full) == 12


def _random_problem(d):
    rng = np.random.default_rng(2000 + d)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return cli.Problem(obs=wv.eigensystem(h + h.conj().T),
                       rho_psi=wv.pure_to_density(wv.state_vector(random_pure(rng, d))),
                       rho_phi=wv.validate_density(random_mixed(rng, d)),
                       tol=wv.DEFAULT_TOL, pointer_cfg=None, seed=None)


def _looped_rows(rows, with_verdict):
    return [{"triple": list(triple), "minus_edge": list(minus), "value": value,
             **({"violated": bad} if with_verdict else {})} for triple, minus, value, bad in rows]


@pytest.mark.parametrize("make", [lambda: cli.parse_problem(GREAT_CIRCLE),
                                  lambda: cli.parse_problem(SMALL_ANOMALY_LOW_OVERLAP),
                                  lambda: _random_problem(2), lambda: _random_problem(3),
                                  lambda: _random_problem(24)],
                         ids=["great-circle", "small-anomaly-low-overlap", "d2", "d3", "d24"])
def test_cycles_section_renders_as_the_looped_oracle(make):
    # the rows built from the cycle table render to the same text as rows built
    # one cycle at a time, on whatever numpy and BLAS run the suite
    problem = make()
    section = cli._contextuality_sections(problem, True)[0]["cycles"]
    rows = looped_three_cycles(wv.build_frame_graph(problem.rho_phi, problem.rho_psi, problem.obs),
                               problem.tol.anom)
    expected = {**section, "inequalities": _looped_rows(rows, True),
                "max_value": max(value for _, _, value, _ in rows),
                "violated_count": sum(bad for *_, bad in rows)}
    if problem.obs.dim == 2:
        graph = wv.qubit_fragment_graph(problem.rho_phi, problem.rho_psi, problem.obs)
        fragment_rows = looped_fragment_cycles(graph, problem.rho_phi, problem.rho_psi, problem.tol)
        expected["fragment"] = {**section["fragment"],
                                "max_value": max(value for _, _, value, _ in fragment_rows),
                                "violated": _looped_rows([row for row in fragment_rows if row[3]], False)}
    for render in (cli.render_json, cli.render_csv):
        assert render({"cycles": section}) == render({"cycles": expected})


_MATRICES = ("observable", "pre_state", "post_state")


def _digest(array) -> str:
    return hashlib.sha256(np.array(array, dtype="<f8").tobytes()).hexdigest()


def _found_report(full: dict) -> dict:
    """The default report that a ``--detail full`` report implies: the matrices' digests in place of the
    matrices, and the violated rows (without their verdict) and the row count in place of the cycle table."""
    inputs = full["inputs"]
    report = {**full, "inputs": {"dimension": inputs["dimension"],
                                 "sha256": {key: _digest(inputs[key]) for key in _MATRICES},
                                 **{key: value for key, value in inputs.items()
                                    if key not in ("dimension", *_MATRICES)}}}
    if "cycles" in full:
        report["cycles"] = {}
        for key, value in full["cycles"].items():
            if key == "inequalities":
                report["cycles"]["violated"] = [{name: cell for name, cell in row.items() if name != "violated"}
                                                for row in value if row["violated"]]
                report["cycles"]["inequality_count"] = len(value)
            else:
                report["cycles"][key] = value
    return report


def _violating_problem(d):
    """The 120-degree real pair in the first two of d eigenvectors, tilted a little into the others."""
    rng = np.random.default_rng(3000 + d)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    psi, phi = np.zeros(d), np.zeros(d)
    psi[:2], phi[:2] = (HALF_SQRT3, -0.5), (HALF_SQRT3, 0.5)
    psi[2:], phi[2:] = 0.05 * rng.normal(size=(2, d - 2))
    return {"dimension": d, "observable": _pairs((q * np.arange(d)) @ q.T),
            "pre_state": (q @ psi / np.linalg.norm(psi)).tolist(),
            "post_state": (q @ phi / np.linalg.norm(phi)).tolist()}


@pytest.mark.parametrize("command", ["compute", "contextuality"])
@pytest.mark.parametrize("problem, violated", [(GREAT_CIRCLE, 1), (SMALL_ANOMALY_LOW_OVERLAP, 0),
                                               (_violating_problem(3), 1), (_violating_problem(24), 1)],
                         ids=["great-circle", "small-anomaly-low-overlap", "d3", "d24"])
def test_default_report_lists_the_violated_rows_of_the_full_table(capsys, tmp_path, command, problem, violated):
    # in both formats the default report is the full one with the cycle table cut to its violated
    # rows, in table order, and the input matrices replaced by their digests
    path = _write_problem(tmp_path / "p.json", problem)
    code, out, _ = _run(capsys, [command, "--input", path, "--detail", "full"])
    expected = _found_report(json.loads(out))
    cycles = expected["cycles"]
    d = problem["dimension"]
    assert cycles["inequality_count"] == 3 * math.comb(d + 2, 3)
    assert len(cycles["violated"]) == cycles["violated_count"] == violated
    for fmt, render in (("json", cli.render_json), ("csv", cli.render_csv)):
        assert _run(capsys, [command, "--input", path, "--format", fmt]) == (code, render(expected) + "\n", "")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(problem=problems(max_dim=8))
@example(problem=GREAT_CIRCLE)  # its post-selection state holds a -0.0
def test_digests_hash_the_full_arrays_as_little_endian_doubles(capsys, tmp_path, problem):
    path = _write_problem(tmp_path / "generated.json", problem)
    code, out, _ = _run(capsys, ["gvals", "--input", path, "--detail", "full"])
    assume(code != 2)  # a selection too close to orthogonal has no report
    arrays = {key: np.array(json.loads(out)["inputs"][key], dtype="<f8") for key in _MATRICES}
    digests = {key: _digest(array) for key, array in arrays.items()}
    _, out, _ = _run(capsys, ["gvals", "--input", path])
    assert json.loads(out)["inputs"]["sha256"] == digests
    _, out, _ = _run(capsys, ["gvals", "--input", path, "--format", "csv"])
    assert [line for line in out.splitlines() if line.startswith("inputs.sha256.")] == [
        f"inputs.sha256.{key},{digest}" for key, digest in digests.items()]
    for key, array in arrays.items():  # the sign of a zero is part of the bytes hashed
        if np.signbit(array[array == 0.0]).any():
            assert _digest(array + 0.0) != digests[key]


def test_importing_the_cli_leaves_hashlib_unimported():
    # only a default report hashes, so the import stays out of every command's start-up
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = "import sys, weakvalues.cli; sys.exit('hashlib' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_both_details_give_one_exit_code_on_the_benchmark_deck(capsys, monkeypatch, tmp_path):
    # each problem request of the benchmark's report deck exits alike, with the same stderr, at either
    # detail, and a JSON report at the default detail is the one its full report implies
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no bytecode cache under bench/
    import workloads
    argvs = [request.argv for request in workloads.ReportWorkload(1, tmp_path).requests
             if request.argv[0] in cli._PROBLEM_COMMANDS]
    assert len(argvs) >= len(workloads.DECK)
    for argv in argvs:
        found = _run(capsys, argv)
        full = _run(capsys, [*argv, "--detail", "full"])
        assert (found[0], found[2]) == (full[0], full[2]), argv
        if found[0] in (0, 3) and "json" in argv:
            assert found[1] == cli.render_json(_found_report(json.loads(full[1]))) + "\n", argv


@pytest.mark.parametrize("render", [cli.render_json, cli.render_csv])
@pytest.mark.parametrize("leaf", [np.float64(0.5), np.int64(3), np.bool_(True), (0.5, 1.0), 0.5 + 1j,
                                  np.array([0.5 + 1j]), np.arange(3), np.zeros(2, dtype=np.float32),
                                  np.array([1, "a"], dtype=object)],
                         ids=["numpy-float", "numpy-int", "numpy-bool", "tuple", "complex", "complex128-array",
                              "int64-array", "float32-array", "object-array"])
def test_renderers_refuse_leaves_outside_the_report_types(render, leaf):
    with pytest.raises(TypeError):
        render({"section": {"value": leaf}})


_EDGE_FLOATS = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1.7976931348623157e308, 1e16, 0.1]
_CELLS = {
    np.float64: st.sampled_from(_EDGE_FLOATS) | st.floats(),
    np.bool_: st.booleans(),
    np.dtype("U3"): st.text(alphabet=',"%a\\\u00e9', max_size=3),  # CSV quoting, JSON escapes, format marks
}
_KEYS = st.text(alphabet="ab%,.", min_size=1, max_size=3)


def _cell_arrays(dtype, shapes):
    return shapes.flatmap(lambda shape: hnp.arrays(dtype, shape, elements=_CELLS[dtype]))


_FLOAT_SHAPES = (st.sampled_from([(0,), (1,)]) | st.integers(0, 5).map(lambda n: (n, 2))
                 | st.integers(1, 4).map(lambda d: (d, d, 2)))
_ANY_SHAPE = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)


_REPORT_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(alphabet=',"a', max_size=3)
                  | _cell_arrays(np.float64, _FLOAT_SHAPES) | _cell_arrays(np.bool_, _ANY_SHAPE)
                  | _cell_arrays(np.dtype("U3"), _ANY_SHAPE))
_REPORTS = st.dictionaries(_KEYS, st.recursive(_REPORT_LEAVES, lambda inner: st.lists(inner, max_size=3)
                                               | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=8),
                           max_size=4)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(report=_REPORTS)
@example(report={"line": np.array(_EDGE_FLOATS), "grid": np.array(_EDGE_FLOATS).reshape(2, 2, 2),
                 "flags": np.array([True, False]), "labels": np.array(["a,b", 'say "x"']),
                 "rows": [{"label": "p,q", "value": -0.0, "ok": True},
                          {"label": '"r"', "value": float("nan"), "ok": False}]})
def test_renderers_match_the_looped_oracle(report):
    # arrays render as the plain lists they stand for, leaf by leaf
    plain = as_lists(report)
    assert cli.render_json(report) == looped_render_json(plain)
    assert cli.render_csv(report) == looped_render_csv(plain)


def test_one_process_answers_as_separate_runs_do(capsys, great_circle_file):
    requests = [["compute", "--input", great_circle_file],
                ["compute", "--input", great_circle_file, "--format", "yaml"],
                ["scan", "--n", "50", "--seed", "4", "--format", "csv"]]
    in_process = [_run(capsys, argv) for argv in requests]
    separate = []
    for argv in requests:
        proc = _run_module(argv)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [3, 1, 0]
    assert cli.build_parser() is cli.build_parser()


def test_search_reports_are_byte_identical(capsys):
    argv = ["search", "--observable", "proj0", "--budget", "1500", "--seed", "3"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    report = json.loads(out1)
    assert report["search"]["best_value"] >= 0.4
    check = report["search"]["weak_value_at_best"]
    assert check["re"] == -report["search"]["best_value"]
    assert check["classification"] != "Normal"


@pytest.mark.parametrize("observable", sorted(cli._SEARCH_OBSERVABLES))
def test_search_reports_the_weak_value_it_scored(capsys, observable):
    for seed in (0, 3):
        code, out, _ = _run(capsys, ["search", "--observable", observable, "--budget", "300",
                                     "--seed", str(seed)])
        assert code == 0
        section = json.loads(out)["search"]
        assert section["weak_value_at_best"]["re"] == -section["best_value"]
        if observable == "identity":  # degenerate: classified against its spectrum edges alone
            assert section["weak_value_at_best"]["classification"] == "Normal"


def test_scan_reports_are_byte_identical(capsys):
    argv = ["scan", "--kind", "haar", "--n", "300", "--seed", "9"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    report = json.loads(out1)
    counts = report["scan"]["counts"]
    fractions = report["scan"]["fractions"]
    assert counts["anomalous_g"] > 0
    assert abs(fractions["anomalous_g"] - counts["anomalous_g"] / 300) < 1e-15
    assert "workers" not in json.dumps(report)


def test_scan_kinds_are_the_sampler_kinds(capsys):
    with pytest.raises(SystemExit):
        cli.main(["scan", "--help"])
    assert "--kind {" + ",".join(sorted(wv.SAMPLER_KINDS)) + "}" in capsys.readouterr().out
    for kind in wv.SAMPLER_KINDS:
        code, out, _ = _run(capsys, ["scan", "--kind", kind, "--n", "5"])
        assert code == 0 and json.loads(out)["scan"]["kind"] == kind


def test_workers_flag_is_gone(capsys):
    for argv in (["scan", "--n", "10", "--workers", "2"],
                 ["search", "--budget", "10", "--workers", "2"]):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "--workers" in err


@pytest.mark.parametrize("pointer", [
    {"coupling": float("inf")},
    {"width": float("inf")},
    {"width": float("nan")},
    {"couplings_series": [float("inf"), 1e-2, 5e-3]},
])
def test_non_finite_pointer_settings_are_input_errors(capsys, tmp_path, pointer):
    path = _write_problem(tmp_path / "p.json", {
        "dimension": 2,
        "observable": [[1.0, 0.0], [0.0, 0.0]],
        "pre_state": [0.5, HALF_SQRT3],
        "post_state": [-0.5, HALF_SQRT3],
        "pointer": pointer,
    })
    code, out, err = _run(capsys, ["pointer", "--input", path])
    assert code == 1
    assert out == ""
    assert "problem.pointer" in err


@pytest.mark.parametrize("settings, message", [
    # pointer entries are read coupling, width, then the series, whatever the file order
    ({"pointer": {"width": "x", "coupling": "y"}}, "problem.pointer.coupling: expected a number, got str"),
    ({"pointer": {"couplings_series": [1, "a"], "width": "x"}}, "problem.pointer.width: expected a number, got str"),
    ({"pointer": {"couplings_series": "x", "coupling": "y"}}, "problem.pointer.coupling: expected a number, got str"),
    # unknown keys are refused before any value is read
    pytest.param({"tolerances": {"norm": "x", "anom": "y"}}, "problem.tolerances: unknown tolerance keys ['norm']",
                 id="tolerances-unknown-key"),
])
def test_a_settings_object_with_two_bad_entries_names_one(capsys, tmp_path, settings, message):
    path = _write_problem(tmp_path / "p.json", {**GREAT_CIRCLE, **settings})
    code, out, err = _run(capsys, ["pointer", "--input", path])
    assert (code, out, err) == (1, "", f"input error: {message}\n")


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_tolerances_are_input_errors(capsys, tmp_path, value):
    path = _write_problem(tmp_path / "p.json", {
        "dimension": 2,
        "observable": [[1.0, 0.0], [0.0, 0.0]],
        "pre_state": [0.5, HALF_SQRT3],
        "post_state": [-0.5, HALF_SQRT3],
        "tolerances": {"anom": value},
    })
    code, out, err = _run(capsys, ["compute", "--input", path])
    assert code == 1
    assert out == ""
    assert "problem.tolerances" in err


def test_non_finite_tol_anom_flag_is_an_input_error(capsys, great_circle_file):
    for argv in (["compute", "--input", great_circle_file],
                 ["scan", "--n", "10"],
                 ["search", "--budget", "10"]):
        code, out, _ = _run(capsys, argv + ["--tol-anom", "inf"])
        assert code == 1
        assert out == ""
    # a wide finite band below 1/DEFAULT_SELECTION_THRESHOLD stays legal
    code, _, _ = _run(capsys, ["compute", "--input", great_circle_file, "--tol-anom", "1e11"])
    assert code == 0


@pytest.mark.parametrize("value", ["1e12", "1e300"])
def test_an_anomaly_band_no_quasi_probability_can_leave_is_an_input_error(capsys, tmp_path, great_circle_file,
                                                                          value):
    # |g_i| <= 1 / Tr(rho_phi rho_psi) < 1e12 past the selection gate, so such a band decides nothing
    path = _write_problem(tmp_path / "p.json", {**GREAT_CIRCLE, "tolerances": {"anom": float(value)}})
    for argv in (["compute", "--input", path],
                 ["compute", "--input", great_circle_file, "--tol-anom", value],
                 ["scan", "--n", "10", "--tol-anom", value],
                 ["search", "--budget", "10", "--tol-anom", value]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert "no quasi-probability could leave the band" in err


def test_refused_tol_anom_never_reaches_the_search(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the search ran before --tol-anom was checked")

    monkeypatch.setattr(cli, "search_max_negativity", unreachable)
    for value in ("inf", "nan", "0", "-1"):
        code, out, err = _run(capsys, ["search", "--budget", "10", "--tol-anom", value])
        assert (code, out) == (1, "")
        assert "--tol-anom" in err


def test_scan_diagonal_is_anomaly_free(capsys):
    _, out, _ = _run(capsys, ["scan", "--kind", "diagonal", "--n", "200", "--seed", "4"])
    report = json.loads(out)
    assert report["scan"]["counts"]["anomalous_g"] == 0
    assert report["scan"]["counts"]["anomalous_aw"] == 0


def test_reproduce_all_pass(capsys):
    code, out, _ = _run(capsys, ["reproduce-paper"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "13/13 reference checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert len(lines) == 14


def test_reproduce_detects_drift(capsys, monkeypatch):
    table = cli._reference_table
    monkeypatch.setattr(cli, "_reference_table", lambda: [
        (name, 0.26 if name == "pair_overlap" else expected, tolerance, computed)
        for name, expected, tolerance, computed in table()])
    code, out, _ = _run(capsys, ["reproduce-paper"])
    assert code == 4
    assert "FAIL pair_overlap" in out
    assert "12/13 reference checks passed" in out


def test_module_entry_point(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "dimension": 2,
        "observable": [[1.0, 0.0], [0.0, 0.0]],
        "pre_state": [0.5, HALF_SQRT3],
        "post_state": [-0.5, HALF_SQRT3],
    }))
    proc = _run_module(["compute", "--input", str(problem)])
    assert proc.returncode == 3
    assert abs(json.loads(proc.stdout)["weak_value"]["re"] - (-0.5)) < 1e-12

    proc = _run_module(["reproduce-paper"])
    assert proc.returncode == 0
    assert "13/13" in proc.stdout


def test_a_reader_that_leaves_early_ends_the_run_quietly(tmp_path):
    # A d = 24 contextuality report at --detail full runs to about 0.9 MB, well
    # past a 64 KiB pipe buffer, so the writer is still writing when the reader closes.
    rng = np.random.default_rng(24)
    g = rng.normal(size=(24, 24))
    problem = _write_problem(tmp_path / "d24.json", {
        "dimension": 24,
        "observable": ((g + g.T) / 2.0).tolist(),
        "pre_state": [[z.real, z.imag] for z in random_pure(rng, 24)],
        "post_state": [[z.real, z.imag] for z in random_pure(rng, 24)],
    })
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "weakvalues", "contextuality", "--input", problem,
                                 "--detail", "full"], env=env, stdout=subprocess.PIPE, stderr=err)
        head = proc.stdout.read(10)
        proc.stdout.close()
        status = proc.wait(timeout=120)
    assert head == b'{"tool":{"'
    assert status == cli.EXIT_BROKEN_PIPE == 141
    assert (tmp_path / "stderr").read_bytes() == b""
