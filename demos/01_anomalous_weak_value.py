"""A weak value escaping the spectrum of its observable.

Two pure qubit states 120 degrees apart on a great circle of the Bloch
sphere, probed with the projector onto |0>, give a weak value of -1/2:
below the smallest eigenvalue of the projector, which is 0. The same pair
pushes the complementary projector's weak value to 3/2, above its largest
eigenvalue, while the identity stays pinned at 1.
"""

import numpy as np

import weakvalues as wv

psi = wv.state_vector([0.5, np.sqrt(3.0) / 2.0])          # pre-selection
phi = wv.state_vector([-0.5, np.sqrt(3.0) / 2.0])         # post-selection
proj_low = wv.eigensystem(np.diag([1.0, 0.0]))            # |0><0|
proj_high = wv.eigensystem(np.diag([0.0, 1.0]))           # |1><1|

overlap = abs(np.vdot(phi.amps, psi.amps)) ** 2
print(f"post-selection probability |<phi|psi>|^2 = {overlap:.6f}")
print()

for name, obs in (("P0 = |0><0|", proj_low), ("P1 = |1><1|", proj_high)):
    res = wv.weak_value_pure(obs, psi, phi)
    print(f"{name}: weak value = {res.value.real:+.6f}, spectrum "
          f"[{res.spectrum_lo:g}, {res.spectrum_hi:g}], {res.classification}")

# One record holds P0's quasi-probabilities and its weak value. The identity is
# P0 + P1, so its weak value is the sum of those quasi-probabilities.
dist = wv.quasi_prob(wv.pure_to_density(phi), wv.pure_to_density(psi), proj_low)
identity = complex(np.sum(dist.weights))
label = wv.classify(identity, 1.0, 1.0, wv.DEFAULT_TOL.anom)
print(f"identity : weak value = {identity.real:+.6f} ({label})")
print()

# The quasi-probability decomposition shows where the excursion comes from:
# the weights are real, sum to one, and one of them is negative.
print("quasi-probability weights over the eigenvalues of P0:")
for a, g in zip(dist.labels, dist.weights):
    print(f"  eigenvalue {a:g}: g = {g.real:+.6f}")
print(f"  sum = {np.sum(dist.weights).real:+.6f}")
print(f"  sum of a_i g_i = {np.sum(dist.labels * dist.weights).real:+.6f}"
      f"  (the weak value the same record carries: {dist.value.real:+.6f})")
