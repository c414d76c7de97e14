"""Anomalous weak values certify contextuality through overlap inequalities.

For any three states, classical models obey r12 + r13 - r23 <= 1 where the
r's are pairwise Born overlaps. Anomalous quasi-probabilities on a real
qubit configuration force at least one violated 3-cycle on the six-state
fragment built from the selection pair, the measurement basis, and their
antipodes.
"""

import numpy as np

import weakvalues as wv
from weakvalues.contextuality import all_three_cycles, anomaly_implies_violation, qubit_fragment_graph

half_sqrt3 = np.sqrt(3.0) / 2.0
rho_psi = wv.pure_to_density(wv.state_vector([0.5, half_sqrt3]))
rho_phi = wv.pure_to_density(wv.state_vector([-0.5, half_sqrt3]))
obs = wv.eigensystem(np.diag([1.0, 0.0]))

dist, violated = anomaly_implies_violation(rho_phi, rho_psi, obs)

print("quasi-probabilities:", [f"{g.real:+.3f}" for g in dist.weights])
print(f"violated 3-cycles on the fragment graph: {len(violated)}")
print()

graph = qubit_fragment_graph(rho_phi, rho_psi, obs)
print("fragment overlap graph (vertices: selection pair, basis, antipodes):")
for line in graph.adjacency_text():
    u, v, w = line.split()
    print(f"  {u:9s} {v:9s} {float(w):.4f}")
print()

print("the six violated inequalities:")
names = np.array(violated.labels, dtype=object)
for row in np.argsort(-violated.values, kind="stable"):
    a, b, d = names[violated.triples[row]]
    m1, m2 = names[violated.minus_edges[row]]
    print(f"  r({a},{b},{d}) with minus edge {m1}-{m2}: value = {violated.values[row]:.4f} > 1")

worst = all_three_cycles(graph).values.max()
print()
print(f"largest cycle value = {worst:.12f}  (the 120-degree geometry pins it at 5/4)")
