"""Pair-by-pair recount of a scan through the scalar API.

``scan_anomaly_rate`` classifies whole blocks of pairs at once. This oracle
reads the same drawn blocks and walks them one pair at a time through
``quasi_prob`` and ``coherence_l1`` on ``DensityOperator`` objects, with the
selection gate raising as it does for single problems. One record per pair
gives both the g_i verdicts and the A_w classification.
"""

import weakvalues as wv
from weakvalues.core import DEFAULT_COHERENCE_TOL
from weakvalues.explore import _block_size, _density_block


def pairwise_counts(spec_phi, spec_psi, obs, n, tol=wv.DEFAULT_TOL):
    """(anomalous_g, anomalous_aw, coherent_non_anomalous, skipped) over n pairs."""
    counts = [0, 0, 0, 0]
    block = _block_size(obs.dim)
    for b, start in enumerate(range(0, n, block)):
        size = min(block, n - start)
        stack_phi = _density_block(spec_phi, b, size)
        stack_psi = _density_block(spec_psi, b, size)
        for k in range(size):
            rho_phi = wv.DensityOperator(stack_phi[k])
            rho_psi = wv.DensityOperator(stack_psi[k])
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
