"""Benchmark of the weakvalues command line, end to end and per layer.

    python3 bench/run.py --workload {scan,search,report} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``weakvalues`` from ``src/``
of that checkout and nothing else. Requests go to one server process
(``server.py``) that calls ``weakvalues.cli.main(argv)`` with stdout
captured: a closed loop with one client, no threads, never ``--workers``.
Every output is checked against the benchmark's own computations
(``oracle.py``). Latencies are the server's CPU time per request, scaled
to a reference machine speed (``calibrate.py``). The last line of stdout
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced passes and reports per-layer self
time and calls per traced pass. Details of each run, and the spans of a
traced run, are written under ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# The client leaves no bytecode of its own next to the benchmark's modules: a
# stray cache there moved the server's peak RSS by 4% (heap layout), so every
# run starts from the same files whatever the environment says.
sys.dont_write_bytecode = True

import calibrate  # noqa: E402
import workloads  # noqa: E402
from server import COUNT_NAMES, LAYERS, MAIN_LAYER  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 11         # fresh interpreters timed for setup_s, after one warm-up import
HARD_LIMIT_S = 170.0       # the server is killed past this, and the run fails
SCAN_DIMS = (2, 3, 5, 8)

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s", "p50_ms": "ms"}
# One BLAS thread: the server stays single-threaded, so its CPU time per request
# is the request's latency on an idle core. Bytecode caching on, as for an
# installed package: the warm-up import writes src/**/__pycache__, so every
# timed import reads it whatever PYTHONDONTWRITEBYTECODE says outside.
CHILD_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
             "OPENBLAS_NUM_THREADS": "1"}


class Server:
    """The process that serves the requests; its peak RSS is the memory metric."""

    def __init__(self, kernel: str) -> None:
        self.reference_s = calibrate.REFERENCE_S[kernel]
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"), str(SRC), kernel],
            cwd=ROOT, env=CHILD_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.watchdog = threading.Timer(HARD_LIMIT_S, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        hello = self._read_header()
        module = Path(hello["module"]).resolve()
        if SRC.resolve() not in module.parents:
            raise RuntimeError(f"weakvalues imported from {module}, not from {SRC}")
        self.rid = 0
        self.last_cal = self.call(op="calibrate")["cal_s"]

    def _read_header(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited (code {self.proc.poll()})")
        return json.loads(line)

    def _read_bytes(self, n: int) -> bytes:
        data = self.proc.stdout.read(n)
        if len(data) != n:
            raise RuntimeError("server closed its output mid-response")
        return data

    def call(self, **msg) -> dict:
        self.proc.stdin.write(json.dumps(msg).encode() + b"\n")
        self.proc.stdin.flush()
        return self._read_header()

    def run(self, argv: list[str]) -> tuple[object, float, float, float, str]:
        """(exit code, CPU seconds, scale to reference speed, wall seconds, stdout) of one call.

        The scale uses the calibration kernels run just before and just after the call.
        """
        self.rid += 1
        header = self.call(op="run", argv=argv, rid=self.rid)
        out = self._read_bytes(header["out"]).decode()
        self._read_bytes(header["err"])
        scale = self.reference_s / ((self.last_cal + header["cal_s"]) / 2)
        self.last_cal = header["cal_s"]
        return header["rc"], header["cpu_s"], scale, header["elapsed_s"], out

    def close(self) -> None:
        self.watchdog.cancel()
        try:
            if self.proc.poll() is None:
                self.call(op="quit")
        except (OSError, RuntimeError, ValueError):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()


class Tally:
    """Latencies per request type, plus attempted and failed requests.

    A request's latency is the server's CPU time for it, scaled to the
    reference machine speed (``calibrate.py``). On an idle core CPU time is
    the wall time; on this shared host wall time also holds waits for a core
    held by other tenants, and CPU time itself moves with the host's speed,
    by up to 30% over tens of seconds. Raw CPU and wall times are kept for the
    result file.
    """

    def __init__(self) -> None:
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.raw_cpu: dict[str, list[float]] = defaultdict(list)
        self.work: dict[str, float] = {}
        self.dim_pairs: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, request: workloads.Request, cpu: float, scale: float, wall: float,
            failures: list[str]) -> float:
        latency = cpu * scale
        self.latency[request.key].append(latency)
        self.raw_cpu[request.key].append(cpu)
        self.wall[request.key].append(wall)
        self.work[request.key] = request.work
        if request.dim:
            self.dim_pairs[request.dim][0] += request.work
            self.dim_pairs[request.dim][1] += latency
        self.attempted += 1
        if failures:
            self.failed += 1
            if not request.known_failing:
                self.unexpected.append(f"{request.key}: " + "; ".join(failures))
        return latency

    def work_per_s(self, latency=None) -> float:
        """Work of one round over the sum of per-type median latencies."""
        latency = latency or self.latency
        return sum(self.work.values()) / sum(statistics.median(v) for v in latency.values())

    def p50_ms(self, latency=None) -> float:
        return statistics.median(t for v in (latency or self.latency).values() for t in v) * 1e3


def run_pass(server: Server, requests, tally: Tally) -> float:
    """Send each request, check its output; return the summed server-side latency."""
    busy = 0.0
    for request in requests:
        rc, cpu, scale, wall, out = server.run(request.argv)
        busy += tally.add(request, cpu, scale, wall, request.check(rc, out))
    return busy


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it; the median below 40 samples."""
    n = len(latencies)
    if n >= 40:
        for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
            if n * (100.0 - pct) / 100.0 >= 10:
                cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
                return cuts[int(round(pct * 10)) - 1], f"p{pct:g}"
    return statistics.median(latencies), "p50"


SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import weakvalues.cli
startup = time.process_time()
import calibrate
calibrate.measure("dispatch")  # the first run also pays one-time numpy set-up
print(startup, sorted(calibrate.measure("dispatch") for _ in range(3))[1])
"""


def measure_setup() -> tuple[float, float]:
    """Median CPU time of a fresh interpreter that starts and imports weakvalues.cli.

    Each interpreter also times the ``dispatch`` calibration kernel (median of
    three runs) after the import; returns (median scaled to reference speed,
    median raw).
    """
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)], cwd=ROOT,
                              env=CHILD_ENV, check=True, capture_output=True, text=True, timeout=60)
        startup, cal = map(float, done.stdout.split())
        if i:  # the first import also writes the bytecode cache
            scaled.append(startup * calibrate.REFERENCE_S["dispatch"] / cal)
            raw.append(startup)
    return statistics.median(scaled), statistics.median(raw)


def run_end_to_end(workload, seconds: float, detail: dict) -> tuple[Tally, dict]:
    setup_s, detail["raw_setup_s"] = measure_setup()
    tally = Tally()
    server = Server(workload.calibration)
    try:
        started = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - started < seconds:
            run_pass(server, workload.round(rounds), tally)
            rounds += 1
        peak_rss_mb = server.call(op="rss")["peak_rss_mb"]
    finally:
        server.close()
    detail["rounds"] = rounds
    for kind, latency in (("raw_cpu", tally.raw_cpu), ("wall", tally.wall)):
        detail[f"{kind}_work_per_s"] = tally.work_per_s(latency)
        detail[f"{kind}_p50_ms"] = tally.p50_ms(latency)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": tally.work_per_s(),
        "p50_ms": tally.p50_ms(),
    }
    return tally, metrics


def run_traced(workload, seed: int, seconds: float, detail: dict) -> tuple[Tally, dict]:
    """Alternate untraced and traced passes of (round + probe round) until ``seconds`` pass."""
    tally = Tally()
    untraced = Tally()
    refs = getattr(workload, "refs", None) or workloads.ScanReferences(seed)
    probe = workloads.probe_round(seed, OUT, refs)
    busy = {False: [], True: []}
    server = Server(workload.calibration)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.npz"
    try:
        started = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - started < seconds:
            for traced in (False, True):
                server.call(op="trace", on=traced)
                round_requests = workload.round(index)
                target = tally if traced else untraced
                busy[traced].append(run_pass(server, round_requests, target) + run_pass(server, probe, target))
                index += 1
        server.call(op="trace", on=False)
        layers = server.call(op="layers", spans_path=str(spans_path))
    finally:
        server.close()
    passes = len(busy[True])
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.unexpected += untraced.unexpected
    round_keys = {r.key for r in workload.round(0)}
    round_latencies = [t for key, v in untraced.latency.items() if key in round_keys for t in v]
    tail_s, tail_label = tail(round_latencies)
    metrics = {}
    for name, stats in layers["layers"].items():
        metrics[f"{name}.self_s"] = stats["self_s"] / passes
        metrics[f"{name}.calls"] = stats["calls"] / passes
    for name, count in layers["counts"].items():
        metrics[name] = count / passes
    for dim in SCAN_DIMS:
        pairs, seconds_at_dim = untraced.dim_pairs[dim]
        metrics[f"explore.scan.pairs_per_s.d{dim}"] = pairs / seconds_at_dim if seconds_at_dim else 0.0
    metrics["cli.main.tail_ms"] = tail_s * 1e3
    metrics["trace.overhead_s"] = statistics.median(busy[True]) - statistics.median(busy[False])
    detail.update(passes=passes, spans=layers["spans"], absent_layers=layers["absent"],
                  tail_percentile=tail_label, tail_samples=len(round_latencies), spans_file=str(spans_path),
                  untraced_pass_s=busy[False], traced_pass_s=busy[True])
    if layers["absent"]:
        print(f"layers absent from this version: {', '.join(layers['absent'])}", file=sys.stderr)
    return tally, metrics


def per_layer_units() -> dict:
    units = {}
    for layer in list(LAYERS) + [MAIN_LAYER]:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for name in COUNT_NAMES:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    for dim in SCAN_DIMS:
        units[f"explore.scan.pairs_per_s.d{dim}"] = "1/s"
    units["cli.main.tail_ms"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weakvalues" / "cli.py").is_file():
        print(f"no weakvalues sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        tally, values = run_traced(workload, args.seed, args.seconds, detail)
        units = per_layer_units()
    else:
        tally, values = run_end_to_end(workload, args.seconds, detail)
        units = END_TO_END_UNITS
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail["unexpected_failures"] = tally.unexpected
    detail["median_scaled_s"] = {k: statistics.median(v) for k, v in sorted(tally.latency.items())}
    detail["median_cpu_s"] = {k: statistics.median(v) for k, v in sorted(tally.raw_cpu.items())}
    detail["median_wall_s"] = {k: statistics.median(v) for k, v in sorted(tally.wall.items())}
    detail["samples"] = {k: len(v) for k, v in sorted(tally.latency.items())}
    detail["result"] = result
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")
    for failure in tally.unexpected[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
