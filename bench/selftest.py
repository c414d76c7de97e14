"""Self-test of the benchmark's output checks: each class must catch a perturbed output.

    python3 bench/selftest.py

Runs one real request per check class through ``weakvalues.cli.main`` (in
this process, imported from ``src/``), confirms the untouched output passes,
then feeds the check a perturbed copy and confirms a failure tagged with the
targeted class comes back. Exits 1 if any class misses its perturbation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np

import oracle
import workloads

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import weakvalues.cli as cli  # noqa: E402


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def edit_json(text: str, mutate) -> str:
    report = json.loads(text)
    mutate(report)
    return json.dumps(report)


def edit_csv(text: str, key: str, change) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        name, _, value = line.partition(",")
        if name == key:
            lines[i] = f"{name},{change(value)}"
    return "\n".join(lines)


def deck_request(deck, cmd: str, fmt: str, builder: str, dim: int = 2) -> workloads.Request:
    suffix = f"-{cmd}-{fmt}-{builder}-d{dim}"
    return next(r for r in deck.requests if r.key.endswith(suffix))


def main() -> int:
    out_dir = BENCH_DIR / "out" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    deck = workloads.ReportWorkload(0, out_dir)
    refs = workloads.ScanReferences(0)
    refs.prepare([("real-pure", 3), ("diagonal", 2)])

    def bump(path, amount):
        def mutate(report):
            node = report
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] += amount
        return mutate

    def setter(path, value):
        def mutate(report):
            node = report
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = value
        return mutate

    def scan_counts(**changes):
        def mutate(report):
            section = report["scan"]
            for field, value in changes.items():
                count = value(section["counts"][field], section["n"])
                section["counts"][field] = count
                if field in section["fractions"]:
                    section["fractions"][field] = count / section["n"]
        return mutate

    def aw_above_g(report):
        section = report["scan"]
        section["counts"]["anomalous_aw"] = section["counts"]["anomalous_g"] + 1
        section["fractions"]["anomalous_aw"] = section["counts"]["anomalous_aw"] / section["n"]

    def overlap_below_floor(report):
        # a pair at |<phi|psi>|^2 = 0.2 with best_value recomputed to match it
        theta = 2 * np.arccos(np.sqrt(0.2))
        psi = np.array([1.0, 0.0])
        phi = np.array([np.cos(theta / 2), np.sin(theta / 2)])
        section = report["search"]
        section["best_states"] = {"post_state": [[x, 0.0] for x in phi], "pre_state": [[x, 0.0] for x in psi]}
        value = -(phi @ oracle.SEARCH_MATRICES["proj0"] @ psi / (phi @ psi))
        section["best_value"] = float(value)

    compute = deck_request(deck, "compute", "json", "readme")
    compute_csv = deck_request(deck, "compute", "csv", "pairs")
    gvals_diag = deck_request(deck, "gvals", "csv", "diag")
    witness = deck_request(deck, "witness", "json", "diag")
    ctx = deck_request(deck, "contextuality", "json", "real_anom")
    pointer = deck_request(deck, "pointer", "json", "pairs")
    refused = deck_request(deck, "compute", "csv", "orthogonal")
    reproduce = next(r for r in deck.requests if r.key == "report/reproduce-paper")
    scan_real = refs.scan_request("real-pure", 3, 1500, 11)
    scan_diag = refs.scan_request("diagonal", 2, 200, 12)
    search = workloads.search_request("proj0", 13)

    # (class tag, request, perturbation of (exit code, stdout))
    cases = [
        ("report.aw", compute, lambda rc, out: (rc, edit_json(out, bump(["weak_value", "re"], 1e-6)))),
        ("report.aw", compute_csv, lambda rc, out: (rc, edit_csv(out, "weak_value.im", lambda v: float(v) + 1e-6))),
        ("report.g", compute, lambda rc, out: (rc, edit_json(out, bump(["quasiprob", "weights", 0, 1], 1e-6)))),
        ("report.sums", compute, lambda rc, out: (rc, edit_json(out, bump(["quasiprob", "weights", 1, 0], 1e-6)))),
        ("report.exit", compute, lambda rc, out: (0, out)),
        ("report.witness", compute, lambda rc, out: (rc, edit_json(out, setter(["witness", "verdict"], "TheoremViolated")))),
        ("report.diagonal", witness, lambda rc, out: (rc, edit_json(out, setter(["witness", "anomalous_indices"], [0])))),
        ("report.diagonal", gvals_diag, lambda rc, out: (rc, out.rstrip() + "\nquasiprob.anomalous_indices.0,1")),
        ("report.cycles", compute, lambda rc, out: (rc, edit_json(out, bump(["cycles", "max_value"], 1e-3)))),
        ("report.cycles", ctx, lambda rc, out: (rc, edit_json(out, bump(["cycles", "violated_count"], 1)))),
        ("report.fragment", ctx, lambda rc, out: (rc, edit_json(out, setter(["cycles", "fragment", "violated"], [])))),
        ("report.pointer", pointer, lambda rc, out: (rc, edit_json(out, bump(["pointer", "extrapolation", "value", 0], 1e-5)))),
        ("report.reproduce", reproduce, lambda rc, out: (rc, out.replace("PASS", "FAIL", 1))),
        ("report.refused", refused, lambda rc, out: (0, "{}")),
        ("report.repeat", compute, lambda rc, out: (rc, out.replace("}", " }", 1))),
        ("scan.range", scan_real, lambda rc, out: (rc, edit_json(out, scan_counts(anomalous_g=lambda c, n: n + 1)))),
        ("scan.aw_le_g", scan_real, lambda rc, out: (rc, edit_json(out, aw_above_g))),
        ("scan.diagonal", scan_diag, lambda rc, out: (rc, edit_json(out, scan_counts(anomalous_g=lambda c, n: 1)))),
        ("scan.binomial", scan_real, lambda rc, out: (rc, edit_json(out, scan_counts(coherent_non_anomalous=lambda c, n: c + n // 10)))),
        ("search.optimum", search, lambda rc, out: (rc, edit_json(out, bump(["search", "best_value"], 1e-5)))),
        ("search.recompute", search, lambda rc, out: (rc, edit_json(out, bump(["search", "best_value"], 1e-10)))),
        ("search.overlap", search, lambda rc, out: (rc, edit_json(out, overlap_below_floor))),
        ("search.budget", search, lambda rc, out: (rc, edit_json(out, setter(["search", "evaluations"], 10001)))),
    ]
    outputs = {}
    missed = 0
    for tag, request, perturb in cases:
        if request.key not in outputs:
            rc, out = call(request.argv)
            clean = request.check(rc, out)
            if clean:
                print(f"UNPERTURBED FAIL {request.key}: {clean}")
                missed += 1
            outputs[request.key] = (rc, out)
        rc, out = perturb(*copy.deepcopy(outputs[request.key]))
        failures = request.check(rc, out)
        caught = any(f.startswith(tag + ":") for f in failures)
        missed += 0 if caught else 1
        print(f"{'caught' if caught else 'MISSED'} {tag:18s} {request.key}")
    print(f"{len(cases) - missed}/{len(cases)} perturbations caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
