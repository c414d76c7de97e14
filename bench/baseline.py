"""Reference figures: import time, microseconds per call of each layer, scan pairs/s.

    python3 bench/baseline.py

Times the public functions of each layer on the README's 120-degree qubit
problem, in this process (weakvalues imported from ``src/``), and whole
command-line calls in fresh interpreters. Per-call figures are the median
over seven repeats of the mean CPU time per call; command-line figures are
the best wall time of three. Prints a Markdown table and writes
``bench/out/baseline.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import weakvalues as wv  # noqa: E402

ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}


def per_call_us(fn, repeats: int = 7, budget_s: float = 0.2) -> float:
    calls = 1
    while True:  # size the batch so one repeat takes about budget_s
        started = time.process_time()
        for _ in range(calls):
            fn()
        if time.process_time() - started >= budget_s / 4 or calls >= 1 << 20:
            break
        calls *= 4
    samples = []
    for _ in range(repeats):
        started = time.process_time()
        for _ in range(calls):
            fn()
        samples.append((time.process_time() - started) / calls)
    return statistics.median(samples) * 1e6


def cli_wall_s(args: list[str], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-m", "weakvalues", *args], cwd=ROOT, env=ENV,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - started)
    return best


def main() -> int:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    half_sqrt3 = np.sqrt(3.0) / 2.0
    psi = wv.state_vector([0.5, half_sqrt3])
    phi = wv.state_vector([-0.5, half_sqrt3])
    rho_psi, rho_phi = wv.pure_to_density(psi), wv.pure_to_density(phi)
    proj = wv.eigensystem(np.diag([1.0, 0.0]))
    raw = [[0.75, 0.4330127018922193], [0.4330127018922193, 0.25]]

    figures = {}
    import_code = "import time; t = time.perf_counter(); import weakvalues; print(time.perf_counter() - t)"
    imports = [float(subprocess.run([sys.executable, "-c", import_code], env=ENV, capture_output=True,
                                    text=True, check=True).stdout) for _ in range(7)]
    figures["import weakvalues (s)"] = statistics.median(imports)
    bare = [0.0] * 5
    for i in range(5):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare[i] = time.perf_counter() - started
    figures["bare interpreter start (s)"] = min(bare)

    layer_calls = {
        "weak_value_pure (us)": lambda: wv.weak_value_pure(proj, psi, phi),
        "weak_value (us)": lambda: wv.weak_value(proj, rho_psi, rho_phi),
        "quasi_prob (us)": lambda: wv.quasi_prob(rho_phi, rho_psi, proj),
        "check_theorem_coherence (us)": lambda: wv.check_theorem_coherence(rho_phi, rho_psi, proj),
        "anomaly_implies_violation, qubit (us)": lambda: wv.anomaly_implies_violation(rho_phi, rho_psi, proj),
        "extrapolate, 4 couplings (us)": lambda: wv.extrapolate(proj, psi, phi),
        "eigensystem, 2x2 (us)": lambda: wv.eigensystem(np.diag([1.0, 0.0])),
        "validate_density, 2x2 (us)": lambda: wv.validate_density(raw),
        "overlap (us)": lambda: wv.overlap(rho_phi, rho_psi),
        "all_three_cycles, qubit fragment (us)": lambda: wv.all_three_cycles(
            wv.qubit_fragment_graph(rho_phi, rho_psi, proj)),
    }
    for name, fn in layer_calls.items():
        figures[name] = per_call_us(fn)

    for dim in (2, 3, 5, 8):
        obs = wv.eigensystem(np.diag(np.arange(dim, dtype=float)))
        spec_psi = wv.SamplerSpec(dim=dim, kind=wv.HAAR_PURE, seed=7)
        spec_phi = wv.SamplerSpec(dim=dim, kind=wv.HAAR_PURE, seed=8)
        started = time.process_time()
        wv.scan_anomaly_rate(spec_phi, spec_psi, obs, 2000)
        figures[f"scan_anomaly_rate haar d={dim} (pairs/s)"] = 2000 / (time.process_time() - started)

    problem = out_dir / "baseline-readme.json"
    problem.write_text(json.dumps({"dimension": 2, "observable": [[1.0, 0.0], [0.0, 0.0]],
                                   "pre_state": [0.5, half_sqrt3], "post_state": [-0.5, half_sqrt3]}))
    figures["CLI compute (s)"] = cli_wall_s(["compute", "--input", str(problem)])
    figures["CLI reproduce-paper (s)"] = cli_wall_s(["reproduce-paper"])
    figures["CLI scan --kind haar --n 10000 --dim 3 (s)"] = cli_wall_s(
        ["scan", "--kind", "haar", "--n", "10000", "--dim", "3"], repeats=1)
    figures["CLI search --budget 10000 (s)"] = cli_wall_s(["search", "--budget", "10000"])

    env = {"python": sys.version.split()[0], "numpy": np.__version__, "cores": os.cpu_count()}
    (out_dir / "baseline.json").write_text(json.dumps({"environment": env, "figures": figures}, indent=1) + "\n")
    print(f"Python {env['python']}, numpy {env['numpy']}, {env['cores']} cores\n")
    print("| what | value |\n| --- | --- |")
    for name, value in figures.items():
        print(f"| {name} | {value:.3g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
