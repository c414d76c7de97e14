"""Pair-by-pair recount of a scan through the scalar API.

``scan_anomaly_rate`` classifies whole blocks of pairs at once and reads every
drawn matrix as coordinates in the eigenbasis of its observable. This oracle
reads the same drawn blocks, writes each pair in the computational basis as
V rho V^dagger over the observable's eigenvectors V, and walks the pairs one
at a time through ``quasi_prob`` and ``coherence_l1`` on ``DensityOperator``
objects, with the selection gate raising as it does for single problems. So
it checks the eigenbasis contract for any V. One record per pair gives both
the g_i verdicts and the A_w classification. ``_density_block`` forms a
block's draws as density matrices whatever their kind, the stacks the other
scan tests read.
"""

import weakvalues as wv
from weakvalues.core import DEFAULT_COHERENCE_TOL
from weakvalues.explore import _as_matrices, _block_size, _draw, _task_rng


def _density_block(spec, block, size):
    """Block ``block`` of a scan as a (size, d, d) stack of density matrices, of the sampler's dtype."""
    return _as_matrices(spec.kind, _draw(spec.kind, spec.dim, _task_rng(spec.seed, block), size))


def pairwise_counts(spec_phi, spec_psi, obs, n, tol=wv.DEFAULT_TOL):
    """(anomalous_g, anomalous_aw, coherent_non_anomalous, skipped) over n pairs."""
    counts = [0, 0, 0, 0]
    v = obs.eigenvectors
    block = _block_size(obs.dim)
    for b, start in enumerate(range(0, n, block)):
        size = min(block, n - start)
        stack_phi = _density_block(spec_phi, b, size)
        stack_psi = _density_block(spec_psi, b, size)
        for k in range(size):
            rho_phi = wv.DensityOperator(v @ stack_phi[k] @ v.conj().T)
            rho_psi = wv.DensityOperator(v @ stack_psi[k] @ v.conj().T)
            try:
                dist = wv.quasi_prob(rho_phi, rho_psi, obs, tol)
            except wv.OrthogonalSelectionError:
                counts[3] += 1
                continue
            g_bad = bool(dist.anomalous_indices)
            aw_bad = dist.classification != wv.NORMAL
            counts[0] += g_bad
            counts[1] += aw_bad
            counts[2] += (not g_bad and not aw_bad
                          and wv.coherence_l1(rho_phi, obs) >= DEFAULT_COHERENCE_TOL
                          and wv.coherence_l1(rho_psi, obs) >= DEFAULT_COHERENCE_TOL)
    return tuple(counts)
