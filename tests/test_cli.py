"""End-to-end coverage of the command-line surface: parsing, reports,
exit codes, and determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakvalues import cli, pointer, quasiprob
from oracles import nodewise_matrix, nodewise_state

HALF_SQRT3 = np.sqrt(3.0) / 2.0


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


def test_tol_anom_override_suppresses_anomaly(capsys, great_circle_file):
    code, out, _ = _run(capsys, ["compute", "--input", great_circle_file,
                                 "--tol-anom", "10"])
    assert code == 0
    report = json.loads(out)
    assert report["weak_value"]["classification"] == "Normal"
    assert report["inputs"]["tolerances"]["anom"] == 10.0


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
    code, out, _ = _run(capsys, ["contextuality", "--input", path])
    report = json.loads(out)
    assert "fragment" not in report["cycles"]
    assert "dimension 3" in report["cycles"]["fragment_note"]
    assert len(report["cycles"]["inequalities"]) == 30  # C(5,3) * 3


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
    path = _write_problem(tmp_path / "orthogonal.json", {
        "dimension": 2,
        "observable": [[1.0, 0.0], [0.0, 0.0]],
        "pre_state": [1.0, 0.0],
        "post_state": [0.0, 1.0],
    })
    code, _, err = _run(capsys, ["compute", "--input", path])
    assert code == 2
    assert "overlap" in err


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
    code, out, _ = _run(capsys, ["gvals", "--input", as_matrix])
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
    code, out, _ = _run(capsys, ["gvals", "--input", as_vector])
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


_ODD_ENTRIES = st.sampled_from(["x", None, True, False, [], [0.5, 0.5, 0.5], [[0.5]], [0.5, "y"], [True, 0.0]])
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
    assert (_reader_outcome(cli._parse_state, node, "problem.pre_state", dim, cli.DEFAULT_TOL)
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
], ids=["directory", "not-utf8", "deep-nesting", "huge-matrix-entry", "refusal-in-file-order",
        "huge-amplitude", "huge-tolerance", "huge-pointer-setting", "bare-string-amplitude",
        "bare-huge-amplitude", "null-amplitude"])
def test_unreadable_problem_files_are_input_errors(capsys, tmp_path, write, message):
    path = tmp_path / "p.json"
    write(path)
    code, out, err = _run(capsys, ["compute", "--input", str(path)])
    located = message if message.startswith("problem.") else f"{path}: {message}"
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith(f"input error: {located}")


def test_an_overflowing_norm_prints_only_its_input_error(tmp_path):
    path = _write_problem(tmp_path / "p.json", {**GREAT_CIRCLE, "pre_state": [1e300, 1e300]})
    proc = subprocess.run([sys.executable, "-m", "weakvalues", "compute", "--input", path],
                          capture_output=True, text=True)
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
    proc = subprocess.run([sys.executable, "-m", "weakvalues", "compute", "--input", path],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"input error: {message}\n")


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_scan_refuses_an_empty_dimension(capsys, dim):
    code, out, err = _run(capsys, ["scan", "--dim", dim, "--n", "10"])
    assert (code, out) == (1, "")
    assert err == "input error: observable must be square and non-empty, got shape (0, 0)\n"


def test_round_trip_echo(capsys, great_circle_file, tmp_path):
    # a report's inputs block reproduces the whole report byte for byte, in
    # both formats; the 120-degree post-selection state echoes a negative zero
    for command in ("compute", "gvals", "witness", "contextuality", "pointer"):
        code, out, _ = _run(capsys, [command, "--input", great_circle_file])
        assert "-0.0" in out
        echoed = _write_problem(tmp_path / f"{command}-echo.json", json.loads(out)["inputs"])
        for fmt in ("json", "csv"):
            first = _run(capsys, [command, "--input", great_circle_file, "--format", fmt])
            again = _run(capsys, [command, "--input", echoed, "--format", fmt])
            assert again == first, (command, fmt)


def _pairs(array):
    """Complex entries as the [re, im] pairs a problem file accepts."""
    return np.stack([array.real, array.imag], axis=-1).tolist()


@st.composite
def problems(draw):
    """Problem files at d = 2..4: a non-degenerate observable in a generated basis,
    pure or mixed selection states, real or complex amplitudes, optional band and seed."""
    d = draw(st.integers(2, 4))
    real = draw(st.booleans())
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)

    def complex_array(shape):
        raw = draw(hnp.arrays(np.float64, (2, *shape), elements=entries))
        return raw[0] + (0.0 if real else 1j) * raw[1]

    q, _ = np.linalg.qr(complex_array((d, d)) + 3.0 * np.eye(d))
    spectrum = np.cumsum(draw(hnp.arrays(np.float64, d, elements=st.floats(0.1, 2.0))))
    problem = {"dimension": d, "observable": _pairs((q * spectrum) @ q.conj().T)}
    for key in ("pre_state", "post_state"):
        if draw(st.booleans()):
            amps = complex_array((d,)) + np.eye(d)[0]
            problem[key] = _pairs(amps / np.linalg.norm(amps))
        else:
            g = complex_array((d, d)) + np.eye(d)
            rho = g @ g.conj().T
            problem[key] = _pairs(rho / np.trace(rho).real)
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
    # over generated problems, the echoed inputs give the report's exact
    # stdout and exit code in both formats, the cycle tables included
    path = _write_problem(tmp_path / "generated.json", problem)
    for command in ("compute", "contextuality"):
        code, out, _ = _run(capsys, [command, "--input", path])
        assert code in (0, 2, 3), (command, code)
        if code == 2:  # a selection too close to orthogonal has no report to echo
            assert out == ""
            continue
        echoed = _write_problem(tmp_path / f"{command}-echo.json", json.loads(out)["inputs"])
        for fmt in ("json", "csv"):
            first = _run(capsys, [command, "--input", path, "--format", fmt])[:2]
            again = _run(capsys, [command, "--input", echoed, "--format", fmt])[:2]
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
    _, out, _ = _run(capsys, ["contextuality", "--input", path])
    cycles = json.loads(out)["cycles"]
    full = {(tuple(c["triple"]), tuple(c["minus_edge"])): c["violated"] for c in cycles["inequalities"]}
    fragment_violated = {(tuple(c["triple"]), tuple(c["minus_edge"])) for c in cycles["fragment"]["violated"]}
    assert {key for key, violated in full.items() if violated} == fragment_violated & set(full)
    assert len(full) == 12


@pytest.mark.parametrize("render", [cli.render_json, cli.render_csv])
@pytest.mark.parametrize("leaf", [np.float64(0.5), np.int64(3), np.bool_(True), (0.5, 1.0), 0.5 + 1j],
                         ids=["numpy-float", "numpy-int", "numpy-bool", "tuple", "complex"])
def test_renderers_refuse_leaves_outside_the_report_types(render, leaf):
    with pytest.raises(TypeError):
        render({"section": {"value": leaf}})


def test_one_process_answers_as_separate_runs_do(capsys, great_circle_file):
    requests = [["compute", "--input", great_circle_file],
                ["compute", "--input", great_circle_file, "--format", "yaml"],
                ["scan", "--n", "50", "--seed", "4", "--format", "csv"]]
    in_process = [_run(capsys, argv) for argv in requests]
    separate = []
    for argv in requests:
        proc = subprocess.run([sys.executable, "-m", "weakvalues", *argv], capture_output=True, text=True)
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
    assert abs(check["re"] + report["search"]["best_value"]) < 1e-12
    assert check["classification"] != "Normal"


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
    # tolerances are read in file order
    ({"tolerances": {"norm": "x", "anom": "y"}}, "problem.tolerances.norm: expected a number, got str"),
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
    # a large finite band stays legal
    code, _, _ = _run(capsys, ["compute", "--input", great_circle_file, "--tol-anom", "1e300"])
    assert code == 0


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
    broken = dict(cli.REFERENCE_VALUES)
    broken["pair_overlap"] = (0.26, 1e-12)
    monkeypatch.setattr(cli, "REFERENCE_VALUES", broken)
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
    proc = subprocess.run([sys.executable, "-m", "weakvalues", "compute",
                           "--input", str(problem)],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert abs(json.loads(proc.stdout)["weak_value"]["re"] - (-0.5)) < 1e-12

    proc = subprocess.run([sys.executable, "-m", "weakvalues", "reproduce-paper"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "13/13" in proc.stdout
