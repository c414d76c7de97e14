"""Second routes to quantities the package computes one way, kept as test oracles.

``incoherent_quasi_prob`` is the factorized distribution the coherence
theorem predicts for incoherent selections (criterion 4),
``corollary_projector_weak_value`` is the three-operator trace ratio of an
eigenprojector (criterion 6), and ``antipodal`` builds the orthogonal qubit
ray for direct overlap arithmetic on the six-state fragment (criterion 7).
None of them goes through the quasi-probability kernel.
"""

import numpy as np

import weakvalues as wv
from weakvalues.quasiprob import selection_overlap
from weakvalues.witness import DEFAULT_COHERENCE_TOL


class NotIncoherentError(wv.ValidationError):
    pass


def incoherent_quasi_prob(rho_phi, rho_psi, obs, threshold=wv.DEFAULT_SELECTION_THRESHOLD,
                          coherence_tol=DEFAULT_COHERENCE_TOL, tol=wv.DEFAULT_TOL):
    """Factorized distribution for selections diagonal in the eigenbasis.

    When both states are incoherent the quasi-probability collapses to
    g_i = <a_i|rho_phi|a_i> <a_i|rho_psi|a_i> / Tr(rho_phi rho_psi),
    a genuine probability distribution.
    """
    for name, rho in (("post-selection", rho_phi), ("pre-selection", rho_psi)):
        l1 = wv.coherence_l1(rho, obs)
        if l1 >= coherence_tol:
            raise NotIncoherentError(
                f"{name} state has l1 coherence {l1:.3e} (threshold {coherence_tol:.1e})"
            )
    den = selection_overlap(rho_phi, rho_psi, threshold, tol)
    v = obs.eigenvectors
    pops_phi = np.real(np.einsum("ji,jk,ki->i", v.conj(), rho_phi.matrix, v))
    pops_psi = np.real(np.einsum("ji,jk,ki->i", v.conj(), rho_psi.matrix, v))
    return pops_phi * pops_psi / den


def corollary_projector_weak_value(rho_phi, rho_psi, obs, i, threshold=wv.DEFAULT_SELECTION_THRESHOLD,
                                   tol=wv.DEFAULT_TOL):
    """Weak value of the i-th eigenprojector, classified against spectrum {0, 1}.

    Evaluated by the direct three-operator trace ratio, so it provides an
    independent route to g_i: an anomalous quasi-probability is itself the
    anomalous weak value of the matching projector.
    """
    if not 0 <= i < obs.dim:
        raise wv.ValidationError(f"eigenvector index {i} out of range for dim {obs.dim}")
    den = selection_overlap(rho_phi, rho_psi, threshold, tol)
    proj = obs.projector(i)
    value = complex(np.trace(rho_phi.matrix @ proj.matrix @ rho_psi.matrix)) / den
    return wv.WeakValueResult(value=value, denominator=den, spectrum_lo=0.0, spectrum_hi=1.0,
                              classification=wv.classify(value, 0.0, 1.0, tol.anom))


def antipodal(psi):
    """Orthogonal qubit state, its largest-modulus component made real positive."""
    if psi.dim != 2:
        raise wv.NotQubitError(f"antipodal state is defined for dim 2, got dim {psi.dim}")
    perp = np.array([np.conj(psi.amps[1]), -np.conj(psi.amps[0])])
    pivot = perp[int(np.argmax(np.abs(perp)))]
    return wv.StateVector(perp * (np.abs(pivot) / pivot))
