"""Request server: one process that serves command-line calls of weakvalues.

``run.py`` starts it as ``python3 bench/server.py SRC_DIR KERNEL``. It imports
``weakvalues.cli`` from SRC_DIR, then reads one JSON request per line on
stdin and answers each with one JSON line on stdout, followed for ``run``
requests by the raw bytes of the call's captured stdout and stderr. Each
``run`` request calls ``weakvalues.cli.main(argv)`` in this process, so it
pays what a command-line call pays after the import and nothing else.

Requests:
  {"op": "run", "argv": [...], "rid": 7}  -> {"rc", "elapsed_s", "cpu_s", "cal_s", "out", "err"} + bytes
  {"op": "calibrate"}                     -> {"cal_s"}
  {"op": "trace", "on": true}             -> {"absent": [...]}  (wrap / unwrap layers)
  {"op": "layers", "spans_path": "..."}   -> per-layer totals since the last "layers"
  {"op": "rss"}                           -> {"peak_rss_mb"}
  {"op": "quit"}

Tracing wraps the public functions of each layer in every weakvalues module
that holds a reference to them, which is where the CLI and the other
modules look them up, so nothing under src/ is edited. Each call records a
span (name, start, end, parent span, request id) in memory.

After every call the server runs the calibration kernel named KERNEL
(``calibrate.py``) and returns its CPU time, so the client can scale the
call's CPU time to the reference machine speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from array import array

import calibrate

# layer name -> (defining module, public functions wrapped)
LAYERS = {
    "cli.args": ("weakvalues.cli", ("build_parser",)),
    "cli.parse": ("weakvalues.cli", ("load_problem", "parse_problem")),
    "cli.render": ("weakvalues.cli", ("render_json", "render_csv")),
    "core.gates": ("weakvalues.core", ("state_vector", "validate_density", "eigensystem")),
    "core.ops": ("weakvalues.core", ("pure_to_density", "coherence_l1", "commutator_norm", "dephase")),
    "invariants": ("weakvalues.invariants",
                   ("overlap", "bargmann", "build_frame_graph", "frame_graph_from_matrices")),
    "quasiprob": ("weakvalues.quasiprob",
                  ("quasi_prob", "weak_value", "weak_value_hermitian", "weak_value_pure",
                   "anomalous_indices")),
    "witness": ("weakvalues.witness", ("check_theorem_coherence",)),
    "contextuality": ("weakvalues.contextuality", ("all_three_cycles", "qubit_fragment_graph")),
    "pointer": ("weakvalues.pointer", ("simulate", "extrapolate")),
    "explore.scan": ("weakvalues.explore", ("scan_anomaly_rate",)),
    "explore.search": ("weakvalues.explore", ("search_max_negativity",)),
}
# The server's own span around each cli.main call; its self time is what
# main does outside the wrapped layers (argument dispatch, report assembly).
MAIN_LAYER = "cli.main"

# Counts taken from a wrapped function's return value: (function, count name, getter).
COUNTS = (
    ("render_json", "cli.render.bytes", len),
    ("render_csv", "cli.render.bytes", len),
    ("all_three_cycles", "contextuality.inequalities", len),
    ("scan_anomaly_rate", "explore.scan.pairs", lambda r: getattr(r, "n", 0)),
    ("scan_anomaly_rate", "explore.scan.skipped", lambda r: getattr(r, "skipped", 0)),
    ("search_max_negativity", "explore.search.evaluations", lambda r: getattr(r, "evaluations", 0)),
)
COUNT_NAMES = tuple(dict.fromkeys(name for _, name, _ in COUNTS))


class Tracer:
    """Span recorder plus the wrappers it installs into weakvalues modules."""

    def __init__(self) -> None:
        self.layer_names = list(LAYERS) + [MAIN_LAYER]
        self.main_index = len(self.layer_names) - 1
        self.installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.rid = -1
        self._reset()

    def _reset(self) -> None:
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def open_span(self, layer: int) -> int:
        index = len(self.start)
        self.layer.append(layer)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.rid)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close_span(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, layer: int, counters):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open_span(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(span)
            for name, getter in counters:
                tracer.counts[name] += int(getter(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "weakvalues" or name.startswith("weakvalues."))]
        self.absent = []
        for layer_index, (layer, (module_name, functions)) in enumerate(LAYERS.items()):
            found = 0
            for fn_name in functions:
                original = getattr(sys.modules.get(module_name), fn_name, None)
                if not callable(original):
                    continue
                found += 1
                counters = [(name, getter) for f, name, getter in COUNTS if f == fn_name]
                wrapper = self._wrap(original, layer_index, counters)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self.installed.append((module, attr, original))
            if not found:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        self.installed = []

    def collect(self, spans_path: str | None) -> dict:
        """Per-layer self time and calls since the last collect; optionally dump spans."""
        import numpy as np

        layer = np.frombuffer(self.layer, dtype=np.int32) if len(self.layer) else np.zeros(0, np.int32)
        start = np.frombuffer(self.start, dtype=float) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=float) if len(self.end) else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.zeros(0, np.int64)
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        n_layers = len(self.layer_names)
        self_s = np.bincount(layer, weights=self_time, minlength=n_layers)
        calls = np.bincount(layer, minlength=n_layers)
        if spans_path:
            request = np.frombuffer(self.request, dtype=np.int64) if len(self.request) else np.zeros(0, np.int64)
            np.savez(spans_path, names=np.array(self.layer_names), layer=layer, start=start,
                     end=end, parent=parent, request=request)
        out = {
            "layers": {name: {"self_s": float(self_s[i]), "calls": int(calls[i])}
                       for i, name in enumerate(self.layer_names)},
            "counts": dict(self.counts),
            "spans": int(len(start)),
            "absent": list(self.absent),
        }
        self._reset()
        return out


def serve(src_dir: str, kernel: str) -> int:
    wire_in = sys.stdin.buffer
    wire_out = sys.stdout.buffer
    sys.path.insert(0, src_dir)
    import weakvalues.cli as cli
    calibrate.measure(kernel)  # the first run also pays one-time numpy set-up

    def send(header: dict, *payloads: bytes) -> None:
        wire_out.write(json.dumps(header).encode() + b"\n")
        for payload in payloads:
            wire_out.write(payload)
        wire_out.flush()

    send({"ready": True, "module": cli.__file__})
    tracer = Tracer()
    tracing = False
    for line in wire_in:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            out, err = io.StringIO(), io.StringIO()
            tracer.rid = msg.get("rid", -1)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                span = tracer.open_span(tracer.main_index) if tracing else -1
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    rc = cli.main(msg["argv"])
                except SystemExit as exc:  # a CLI that exits instead of returning
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed request, not a dead server
                    rc = None
                    traceback.print_exc()
                elapsed = time.perf_counter() - t0
                cpu = time.process_time() - c0
                if tracing:
                    tracer.close_span(span)
            cal = calibrate.measure(kernel)
            out_b, err_b = out.getvalue().encode(), err.getvalue().encode()
            send({"rc": rc, "elapsed_s": elapsed, "cpu_s": cpu, "cal_s": cal, "out": len(out_b),
                  "err": len(err_b)}, out_b, err_b)
        elif op == "calibrate":
            send({"cal_s": calibrate.measure(kernel)})
        elif op == "trace":
            if msg["on"] and not tracing:
                tracer.install()
            elif not msg["on"] and tracing:
                tracer.uninstall()
            tracing = bool(msg["on"])
            send({"absent": tracer.absent})
        elif op == "layers":
            send(tracer.collect(msg.get("spans_path")))
        elif op == "rss":
            send({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
        elif op == "quit":
            send({"bye": True})
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1], sys.argv[2]))
