"""Coherence of BOTH selection states is necessary for anomalies, but not
sufficient.

Part 1 dephases the anomalous pair from demo 01 in the measurement basis and
watches the anomaly disappear. Part 2 builds a pair of mixed states that are
plainly coherent (they do not commute with each other) yet produce a perfectly
ordinary distribution.
"""

import numpy as np

import weakvalues as wv
from weakvalues.witness import check_theorem_coherence

obs = wv.eigensystem(np.diag([0.0, 1.0]))

half_sqrt3 = np.sqrt(3.0) / 2.0
rho_psi = wv.pure_to_density(wv.state_vector([0.5, half_sqrt3]))
rho_phi = wv.pure_to_density(wv.state_vector([-0.5, half_sqrt3]))

print("-- part 1: dephasing kills the anomaly --")
for label, pair in (
    ("original pair", (rho_phi, rho_psi)),
    ("dephased pair", (wv.dephase(rho_phi, obs), wv.dephase(rho_psi, obs))),
):
    report = check_theorem_coherence(pair[0], pair[1], obs)
    print(f"{label}:")
    print(f"  l1 coherence (post, pre) = ({report.l1_post:.4f}, {report.l1_pre:.4f})")
    print(f"  anomalous weight indices = {report.dist.anomalous_indices}")
    print(f"  weak value classification = {report.dist.classification}")
    print(f"  verdict = {report.verdict}")

print()
print("-- part 2: coherence without any anomaly --")

# mixed states with off-diagonal structure chosen so nothing goes negative
c_psi = np.sqrt(3.0 / 32.0)
c_phi = np.sqrt(3.0) / 8.0
mixed_psi = wv.validate_density([[0.75, c_psi], [c_psi, 0.25]])
mixed_phi = wv.validate_density([[0.75, c_phi], [c_phi, 0.25]])

print(f"commutator norm ||[rho_phi, rho_psi]|| = "
      f"{wv.commutator_norm(mixed_phi, mixed_psi):.6f}  (> 0, so genuinely coherent)")

dist = wv.quasi_prob(mixed_phi, mixed_psi, obs)
for a, g in zip(dist.labels, dist.weights):
    print(f"  eigenvalue {a:g}: g = {g.real:+.6f}  (imag {g.imag:+.1e})")
print(f"anomalous indices: {dist.anomalous_indices}  (none)")
