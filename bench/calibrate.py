"""Machine-speed calibration: CPU time of a fixed piece of work.

The benchmark's host runs other tenants' processes on sibling hardware
threads, and its speed for the same instruction stream moves by 20-45% over
tens of seconds, in CPU time as well as in wall time. A calibration kernel
runs next to every measured request, in the same process, and the request's
CPU time is scaled by REFERENCE_S[kind] / (kernel CPU time): the result is
the time the request would take at the speed the kernel calls reference.
The kernels use none of weakvalues' code, so a change to weakvalues moves
the scaled time but not the scale.

There are two kernels, because the host's speed swings hit different work
differently and a kernel tracks best the work it resembles:

- ``dispatch``: interpreter dispatch around small complex numpy products,
  RNG draws and float formatting, like the search loop and single-problem
  reports;
- ``pairs``: the same, plus a keyed generator built and drawn from on every
  other round, like the per-pair sampling of a scan.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Kernel CPU time at the reference speed: about its median on the 2-core
# sandbox where the benchmark was set up, so scaled times read close to raw ones.
REFERENCE_S = {"dispatch": 0.0018, "pairs": 0.0023}
ROUNDS = {"dispatch": 80, "pairs": 50}


def kernel(kind: str) -> str:
    rng = np.random.Generator(np.random.Philox(7))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    m = np.outer(v, v.conj())
    labels = np.diag(np.arange(3.0)).astype(complex)
    acc = 0.0
    parts = []
    for i in range(ROUNDS[kind]):
        if kind == "pairs" and i % 2 == 0:
            pair_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=7, spawn_key=(i,))))
            z = pair_rng.normal(size=3) + 1j * pair_rng.normal(size=3)
            rho = np.outer(z, z.conj()) / np.vdot(z, z).real
            acc += float(np.einsum("ji,jk,ki->i", labels, rho, labels).real.sum())
        w = rng.normal(size=3)
        acc += float(np.trace(m @ m).real) + float(np.vdot(v, w).real)
        x = [acc, i * 0.5]
        for j in range(30):
            x[1] = max(x[1], j * 0.1) / 1.0001
        parts.append(json.dumps({"a": acc, "b": [x[1], i]}))
    return "".join(parts)


def measure(kind: str) -> float:
    """CPU seconds of one run of the named kernel."""
    started = time.process_time()
    kernel(kind)
    return time.process_time() - started
