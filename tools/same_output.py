"""Compare what two checkouts of weakvalues print for one fixed set of requests.

    python3 tools/same_output.py [--detail-full] OTHER_TREE

OTHER_TREE is the root of another checkout (for example a ``git archive`` of
the parent commit unpacked into a directory). Every request calls
``weakvalues.cli.main(argv)`` in one Python process per tree, importing
``weakvalues`` from that tree's ``src/``. The request set is fixed:

- the problem files of the benchmark's ``report`` deck (``bench/workloads.py``)
  at seeds 1, 2 and 3, each through ``compute``, ``gvals``, ``witness``,
  ``contextuality`` and ``pointer`` in JSON and in CSV, and through each of
  the five in JSON with ``--tol-anom 1e-3``;
- copies of those files that carry a setting no deck file does: each block of
  ``POINTER_BLOCKS`` (through ``pointer`` in both formats), ``tolerances``
  with ``anom`` 1e-6 (through the five commands in JSON) and a ``seed`` key
  (through ``gvals`` in both formats);
- the three problems of ``EDGE_PROBLEMS``, each through the five problem
  commands in both formats;
- ``reproduce-paper``;
- ``scan`` over every ensemble at each d in ``SCAN_DIMS`` (2, 3, 4, 5, 8
  and 9) with each n in ``SCAN_SIZES``, and ``search`` on every built-in
  observable at the budgets in ``SEARCH_BUDGETS``, at fixed seeds in both
  formats;
- ``scan`` over every ensemble at each d in ``SCAN_DIMS`` with n = 20,000 at
  each seed in ``WIDE_SCAN_SEEDS``, in JSON;
- ``scan --tol-anom 0.2`` over the complex ensembles (``WIDE_BAND_KINDS``) at
  each d in ``SCAN_DIMS`` with each n in ``SCAN_SIZES``, in both formats: at the
  default band every pair of theirs counts as anomalous, whatever its states;
- ``scan`` over every ensemble at d = 16, 17, 33 and 64 (``LARGE_SCAN_DIMS``)
  with n = ``LARGE_SCAN_N``, in JSON: several scan blocks at each, two
  dimensions where a block of density matrices splits into chunks with a
  remainder, and the largest a scan takes (4,365 requests in all).

With ``--detail-full`` this tree's problem-command requests carry ``--detail
full``, and so do the other tree's when it is at report schema 0.2 or later (a
tree before 0.2 refuses the flag). This tree's version head (``"version":"X"``
in JSON, ``tool.version,X`` in CSV) is read as the other tree's
``__version__`` before the outputs are compared, so against a tree before
schema 0.2 every request should be identical.

The script prints how many requests gave the same stdout, stderr and exit code
in both trees, one ``timing:`` line with each tree's wall time over its
requests (its worker process from start to exit), one line per request that
differs, and one tally line per command with a differing request (per
ensemble and band for ``scan``, so a sampler change shows which ensembles
moved): how many differ, and in how many of them the exit code, the stdout
and the stderr differ. It exits 1 when any request differs. The deck files
and their copies are written to a temporary directory; nothing under
``bench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

DECK_SEEDS = (1, 2, 3)
# Less than one scan block, and more than one at every d here, the last of them short.
SCAN_SIZES = (300, 20_000)
SCAN_KINDS = ("haar", "mixed", "real-pure", "real-mixed", "diagonal")
# The benchmark's dimensions, and two more row widths for the column sum of A_w (quasiprob._row_sum):
# d = 4 between the benchmark's and d = 9 past them.
SCAN_DIMS = (2, 3, 4, 5, 8, 9)
# Several scan blocks at each d; 64 is the largest --dim. At 17 and 33 a block of density matrices is scored
# in chunks that do not divide it: 226 = 4 * 56 + 2 pairs at d = 17, and at d = 33 the last block, 20 = 15 + 5.
LARGE_SCAN_DIMS = (16, 17, 33, 64)
LARGE_SCAN_N = 2000
# Twelve more seeds for the sampled states, whose last bits a change to the sampler or kernel may move.
WIDE_SCAN_SEEDS = range(100, 112)
# The ensembles whose scan counts depend on their states only in a band wider than the default.
WIDE_BAND_KINDS = ("haar", "mixed")
PROBLEM_COMMANDS = ("compute", "gvals", "witness", "contextuality", "pointer")
FORMATS = ("json", "csv")
# Fewer evaluations than restarts (1, 7, 19), uneven shares (7, 19, 21), and the
# benchmark's budget, at which the flat identity's restarts retire on the minimum step.
SEARCH_BUDGETS = (1, 7, 19, 21, 1500, workloads.SEARCH_BUDGET)
# Widths 0.5 and 3, series of 3 and of 6 couplings, each with a coupling off its series.
# The largest spectrum spread in the deck is 4.8, so both series stay in the weak regime.
POINTER_BLOCKS = (
    {"width": 0.5, "coupling": 3e-3, "couplings_series": [0.05, 0.025, 0.0125]},
    {"width": 3.0, "coupling": 0.2, "couplings_series": [0.3, 0.15, 0.075, 0.0375, 0.01875, 0.009375]},
)
# Three verdicts near their edges. A small-coherence anomaly: g_0 = -1.31e-9 leaves the band
# while C_psi = 9.8e-9 sits below the coherence threshold, at Tr(rho_phi rho_psi) = 0.75.
# A near-orthogonal real qubit pair, Tr(rho_phi rho_psi) = 1.0e-10, whose observable has
# psi-perp as its eigenvector a_0: g_0 is +1.6e-11 in exact arithmetic on the state vectors.
# Two diagonal states that the gates accept, the pre-selection with an eigenvalue of -5e-11:
# at Tr(rho_phi rho_psi) = 5e-11 that negativity alone gives g = (-1, 2).
_TILT = 0.7 + math.pi / 2.0
EDGE_PROBLEMS = {
    "small-coherence-anomaly": {
        "dimension": 2, "observable": [[0.0, 0.0], [0.0, 1.0]],
        "pre_state": [[3.92e-9, 4.9e-9], [4.9e-9, 1.0 - 3.92e-9]],
        "post_state": [[0.25, -0.4], [-0.4, 0.75]],
    },
    "near-orthogonal-rounding": {
        "dimension": 2,
        "observable": [[math.sin(_TILT) ** 2, -math.sin(_TILT) * math.cos(_TILT)],
                       [-math.sin(_TILT) * math.cos(_TILT), math.cos(_TILT) ** 2]],
        "pre_state": [math.cos(0.7), math.sin(0.7)],
        "post_state": [-math.sin(0.70001), math.cos(0.70001)],
    },
    "accepted-negativity": {
        "dimension": 2, "observable": [[0.0, 0.0], [0.0, 1.0]],
        "pre_state": [[-5e-11, 0.0], [0.0, 1.00000000005]],
        "post_state": [[0.9999999999, 0.0], [0.0, 1e-10]],
    },
}

# Runs in a fresh interpreter with the tree's src/ as argv[1]: reads a JSON list of
# argv lists on stdin and writes one JSON line per request: exit code and the sha256
# and size of stdout and stderr (a wide contextuality report runs to megabytes). With
# a version as argv[2], the report's version head is first rewritten to read it.
_WORKER = r"""
import contextlib, hashlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from weakvalues import __version__, cli

heads = []
if len(sys.argv) > 2:
    heads = [(f'"version":"{__version__}"', f'"version":"{sys.argv[2]}"'),
             (f"tool.version,{__version__}\n", f"tool.version,{sys.argv[2]}\n")]

def digest(text):
    for own, other in heads:
        text = text.replace(own, other, 1)
    data = text.encode("utf-8", "surrogateescape")
    return [hashlib.sha256(data).hexdigest(), len(data)]

for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            rc = "raised"
            traceback.print_exc(limit=1, file=err)
    print(json.dumps({"rc": rc, "out": digest(out.getvalue()), "err": digest(err.getvalue())}), flush=True)
"""


def _write_copy(path: str, suffix: str, problem: dict) -> str:
    """Write ``problem`` next to the deck file ``path``, named after it and ``suffix``."""
    copy = Path(path).with_name(f"{Path(path).stem}-{suffix}.json")
    copy.write_text(json.dumps(problem))
    return str(copy)


def requests(workdir: Path) -> list[list[str]]:
    """The fixed request set, as argv lists for ``cli.main``."""
    inputs = []
    for seed in DECK_SEEDS:
        deck = workloads.ReportWorkload(seed, workdir)
        for request in deck.requests:
            path = request.argv[request.argv.index("--input") + 1] if "--input" in request.argv else None
            if path is not None and path not in inputs:
                inputs.append(path)
    argvs = [[command, "--input", path, "--format", fmt]
             for path in inputs for command in PROBLEM_COMMANDS for fmt in FORMATS]
    argvs += [[command, "--input", path, "--tol-anom", "1e-3"] for path in inputs for command in PROBLEM_COMMANDS]
    for path in inputs:
        problem = json.loads(Path(path).read_text())
        for k, block in enumerate(POINTER_BLOCKS):
            copy = _write_copy(path, f"pointer{k}", {**problem, "pointer": block})
            argvs += [["pointer", "--input", copy, "--format", fmt] for fmt in FORMATS]
        copy = _write_copy(path, "tolerances", {**problem, "tolerances": {"anom": 1e-6}})
        argvs += [[command, "--input", copy] for command in PROBLEM_COMMANDS]
        copy = _write_copy(path, "seed", {**problem, "seed": 2 ** 64 - 1})
        argvs += [["gvals", "--input", copy, "--format", fmt] for fmt in FORMATS]
    for name, problem in EDGE_PROBLEMS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(problem))
        argvs += [[command, "--input", str(path), "--format", fmt] for command in PROBLEM_COMMANDS for fmt in FORMATS]
    argvs.append(["reproduce-paper"])
    for fmt in FORMATS:
        argvs += [["scan", "--kind", kind, "--dim", str(dim), "--n", str(n), "--seed", str(11 + dim),
                   "--format", fmt]
                  for n in SCAN_SIZES for kind in SCAN_KINDS for dim in SCAN_DIMS]
        argvs += [["search", "--observable", observable, "--budget", str(budget), "--seed", str(seed),
                   "--format", fmt]
                  for budget in SEARCH_BUDGETS for observable in workloads.SEARCH_OBSERVABLES for seed in (0, 7)]
        argvs += [["scan", "--kind", kind, "--dim", str(dim), "--n", str(n), "--seed", str(11 + dim),
                   "--tol-anom", "0.2", "--format", fmt]
                  for n in SCAN_SIZES for kind in WIDE_BAND_KINDS for dim in SCAN_DIMS]
    argvs += [["scan", "--kind", kind, "--dim", str(dim), "--n", "20000", "--seed", str(seed)]
              for seed in WIDE_SCAN_SEEDS for kind in SCAN_KINDS for dim in SCAN_DIMS]
    argvs += [["scan", "--kind", kind, "--dim", str(dim), "--n", str(LARGE_SCAN_N), "--seed", str(11 + dim)]
              for kind in SCAN_KINDS for dim in LARGE_SCAN_DIMS]
    return argvs


def _tally_key(argv: list[str]) -> str:
    """The tally line a request counts on: its command, and for ``scan`` its ``--kind`` and band."""
    if argv[0] != "scan":
        return argv[0]
    band = argv[argv.index("--tol-anom") + 1] if "--tol-anom" in argv else "default"
    return f"scan --kind {argv[argv.index('--kind') + 1]}, band {band}"


def run_tree(tree: Path, argvs: list[list[str]], as_version: str | None = None) -> tuple[list[dict], float]:
    """Each request's answer from ``tree``, and the wall time its worker took over them all."""
    extra = [] if as_version is None else [as_version]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _WORKER, str(tree / "src"), *extra], input=json.dumps(argvs),
                          capture_output=True, text=True, check=False)
    seconds = time.perf_counter() - start
    answers = [json.loads(line) for line in proc.stdout.splitlines()]
    if proc.returncode != 0 or len(answers) != len(argvs):
        raise SystemExit(f"{tree}: the worker stopped after {len(answers)} of {len(argvs)} requests "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return answers, seconds


def _version(tree: Path) -> str:
    """The ``__version__`` a tree's package declares."""
    text = (tree / "src" / "weakvalues" / "__init__.py").read_text()
    return re.search(r'^__version__ = "([^"]*)"', text, re.MULTILINE).group(1)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="same_output.py", usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("--detail-full", action="store_true")
    parser.add_argument("other")
    args = parser.parse_args(argv)
    other = Path(args.other).resolve()
    if not (other / "src" / "weakvalues" / "cli.py").is_file():
        print(f"{other} holds no src/weakvalues/cli.py", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        argvs = requests(Path(workdir))
        here_argvs = there_argvs = argvs
        as_version = None
        if args.detail_full:
            as_version = _version(other)
            here_argvs = [[*argv, "--detail", "full"] if argv[0] in PROBLEM_COMMANDS else argv for argv in argvs]
            if tuple(map(int, as_version.split(".")[:2])) >= (0, 2):
                there_argvs = here_argvs
        (here, here_s), (there, there_s) = run_tree(ROOT, here_argvs, as_version), run_tree(other, there_argvs)
        differing = [(request, a, b) for request, a, b in zip(argvs, here, there) if a != b]
        print(f"{len(argvs) - len(differing)} of {len(argvs)} requests gave the same stdout, stderr "
              f"and exit code in {ROOT} and {other}")
        print(f"timing: this tree {here_s:.1f} s, other tree {there_s:.1f} s")
        tally: dict[str, Counter] = {}
        for request, a, b in differing:
            moved = [name for name in ("rc", "out", "err") if a[name] != b[name]]
            tally.setdefault(_tally_key(request), Counter()).update(["requests", *moved])
            parts = [f"{name} {a[name]} vs {b[name]}" for name in moved]
            shown = " ".join(word.removeprefix(workdir + "/") for word in request)
            print(f"differs: {shown}: {'; '.join(parts)}")
        for key, counts in tally.items():
            print(f"tally: {key}: {counts['requests']} differ (rc {counts['rc']}, out {counts['out']}, "
                  f"err {counts['err']})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
