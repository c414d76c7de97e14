"""Von Neumann pointer readout of weak values, in closed form.

The interaction exp(-i g A x p) shifts a real Gaussian pointer (position
spread sigma, hbar = 1) by g a_i on each eigenbranch. After post-selecting
the system on phi, the unnormalized pointer state is

    Phi(x) = sum_i c_i G(x - g a_i),    c_i = <phi|a_i><a_i|psi>

and every moment reduces to Gaussian overlap integrals

    integral G(x-u) G(x-v) dx = exp(-(u - v)^2 / (8 sigma^2)),

so no spatial grid is involved. To leading order the readouts recover the
weak value: mean position -> g Re(A_w) and mean momentum
-> g Im(A_w) / (2 sigma^2), each with O(g^2) relative corrections that a
polynomial extrapolation in g^2 removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ComputationError, Observable, StateVector, ValidationError, require_dims
from .quasiprob import weak_value_pure

__all__ = [
    "PointerConfig",
    "PointerOutcome",
    "ExtrapolationResult",
    "simulate",
    "extrapolate",
]

# Post-selection norms below this leave no pointer state to read out.
ZERO_POSTSELECTION_FLOOR = 1e-300

DEFAULT_COUPLINGS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


@dataclass(frozen=True)
class PointerConfig:
    """Coupling strength, pointer width, and the series used for extrapolation."""

    coupling: float = 1e-2
    width: float = 1.0
    couplings_series: tuple[float, ...] = DEFAULT_COUPLINGS

    def __post_init__(self) -> None:
        if not 0.0 < self.coupling < np.inf:
            raise ValidationError(f"coupling must be positive and finite, got {self.coupling!r}")
        if not 0.0 < self.width < np.inf:
            raise ValidationError(f"pointer width must be positive and finite, got {self.width!r}")
        # The readouts divide by 4 width^2: it must neither overflow nor underflow past the normal floats.
        if not np.finfo(float).tiny <= 4.0 * (self.width * self.width) < np.inf:
            raise ValidationError(f"pointer width {self.width!r} puts 4 width^2 outside the normal finite floats")
        series = tuple(float(g) for g in self.couplings_series)
        if len(series) < 3:
            raise ValidationError(f"extrapolation needs at least 3 couplings, got {len(series)}")
        if any(not 0.0 < g < np.inf for g in series):
            raise ValidationError("couplings must all be positive and finite")
        if any(b >= a for a, b in zip(series, series[1:])):
            raise ValidationError("couplings must be strictly decreasing")
        object.__setattr__(self, "couplings_series", series)


@dataclass(frozen=True)
class PointerOutcome:
    """First moments of the post-selected pointer at one coupling."""

    mean_position: float
    mean_momentum: float
    postselect_prob: float


@dataclass(frozen=True)
class ExtrapolationResult:
    """Weak value recovered from the coupling series, with an error estimate.

    ``outcomes[k]`` is the pointer readout at ``couplings_series[k]``,
    ``estimates[k]`` the weak value read from it (x/g + i 2 sigma^2 p/g), and
    ``outcome`` the readout at the configured ``coupling``.
    """

    value: complex
    error: float
    outcomes: tuple[PointerOutcome, ...]
    estimates: tuple[complex, ...]
    outcome: PointerOutcome


def _readouts(obs: Observable, psi: StateVector, phi: StateVector, couplings: tuple[float, ...],
              width: float) -> list[PointerOutcome]:
    """Exact pointer moments at each coupling from one stacked (k, d, d) evaluation.

    The first coupling, in order, left without a post-selected pointer raises ComputationError.
    """
    require_dims(obs.dim, phi, psi)
    v = obs.eigenvectors
    c = (v.conj().T @ phi.amps).conj() * (v.conj().T @ psi.amps)  # the branch amplitudes c_i
    a = obs.eigenvalues
    g = np.asarray(couplings, dtype=float)[:, None, None]
    var4 = 4.0 * width ** 2

    diff = a[:, None] - a[None, :]
    pair_weight = np.outer(c.conj(), c) * np.exp(-(g * diff) ** 2 / (2.0 * var4))
    terms = np.stack([pair_weight, pair_weight * (g * (a[:, None] + a[None, :]) / 2.0),
                      pair_weight * (1j * g * diff / var4)])
    # One flat sum per coupling sums in the same order as np.sum over a (d, d) array.
    probs, xs, ps = terms.reshape(3, len(couplings), -1).sum(axis=2).real.tolist()
    for prob in probs:
        if prob < ZERO_POSTSELECTION_FLOOR:
            raise ComputationError(
                f"post-selection probability {prob:.3e} below {ZERO_POSTSELECTION_FLOOR:.0e}"
            )
    return [PointerOutcome(mean_position=x / prob, mean_momentum=p / prob, postselect_prob=prob)
            for x, p, prob in zip(xs, ps, probs)]


def simulate(obs: Observable, psi: StateVector, phi: StateVector,
             cfg: PointerConfig = PointerConfig()) -> PointerOutcome:
    """Exact pointer moments at the configured coupling."""
    return _readouts(obs, psi, phi, (cfg.coupling,), cfg.width)[0]


def _above_one(ratio: float) -> str:
    """A ratio above 1 as ``:g`` prints it, with every digit where ``:g`` would round it to 1."""
    text = f"{ratio:g}"
    return repr(float(ratio)) if text == "1" else text


def extrapolate(obs: Observable, psi: StateVector, phi: StateVector,
                cfg: PointerConfig = PointerConfig()) -> ExtrapolationResult:
    """Recover the weak value by polynomial extrapolation of the readouts to g = 0.

    The series, then the configured coupling, are read out in one stacked
    evaluation. The per-coupling estimate x/g + i 2 sigma^2 p/g has only even
    powers of g in its error, so Neville extrapolation on the nodes g^2 knocks
    out one order per series entry. The error estimate is the last correction
    the table applied.

    That gap bounds the error only in the weak regime, where every branch
    shift g a_i stays within the pointer width: a series whose largest
    coupling spreads the branches over more than one width,
    max(g) (a_max - a_min) / width > 1, raises a ``ValidationError``, and so
    does one that puts a branch more than one width from the shift g A_w,
    max(g) max_i |a_i - A_w| / width > 1, as a small post-selection overlap
    amplifies A_w. The one-pair kernel gives A_w and refuses an orthogonal pair.
    """
    series = cfg.couplings_series
    a = obs.eigenvalues
    spread = max(series) * (a[-1] - a[0]) / cfg.width
    if spread > 1.0:
        raise ValidationError(
            f"couplings_series leaves the weak regime: max coupling x (a_max - a_min) / width"
            f" = {_above_one(spread)}, must be at most 1"
        )
    aw = weak_value_pure(obs, psi, phi).value
    amplification = max(series) * float(np.max(np.abs(a - aw))) / cfg.width
    if amplification > 1.0:
        raise ValidationError(
            f"couplings_series leaves the weak regime: max coupling x max_i |a_i - A_w| / width"
            f" = {_above_one(amplification)}, must be at most 1"
        )
    two_var = 2.0 * cfg.width ** 2
    *outcomes, outcome = _readouts(obs, psi, phi, series + (cfg.coupling,), cfg.width)
    # complex(re, im) keeps the bits of both parts, signed zeros included.
    estimates = [complex(step.mean_position / g, two_var * step.mean_momentum / g)
                 for g, step in zip(series, outcomes)]

    nodes = np.asarray([g * g for g in series], dtype=float)
    table = list(estimates)
    for level in range(1, len(table)):
        for i in range(len(table) - 1, level - 1, -1):
            num = nodes[i - level] * table[i] - nodes[i] * table[i - 1]
            table[i] = num / (nodes[i - level] - nodes[i])
    # table[-2] ends as the same extrapolation without the finest coupling, so
    # the gap to it bounds the residual of the even-power error series.
    value = table[-1]
    error = abs(value - table[-2])
    return ExtrapolationResult(value=complex(value), error=float(error), outcomes=tuple(outcomes),
                               estimates=tuple(estimates), outcome=outcome)
