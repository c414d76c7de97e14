"""Weak values, quasi-probabilities, coherence witnesses, and contextuality checks."""

from .core import (
    DEFAULT_COHERENCE_TOL,
    DEFAULT_SELECTION_THRESHOLD,
    DEFAULT_TOL,
    ComputationError,
    DensityOperator,
    Observable,
    OrthogonalSelectionError,
    StateVector,
    Tolerances,
    ValidationError,
    coherence_l1,
    commutator_norm,
    dephase,
    eigensystem,
    pure_to_density,
    state_vector,
    validate_density,
)
from .invariants import (
    FrameGraph,
    bargmann,
    build_frame_graph,
    overlap,
)
from .quasiprob import (
    ANOMALOUS_IMAGINARY,
    ANOMALOUS_REAL,
    NORMAL,
    QuasiProbDist,
    classify,
    quasi_prob,
    weak_value,
    weak_value_pure,
)
from .witness import (
    CONSISTENT,
    VIOLATED,
    WitnessReport,
    check_theorem_coherence,
)
from .contextuality import (
    CycleTable,
    all_three_cycles,
    anomaly_implies_violation,
    qubit_fragment_graph,
)
from .pointer import (
    ExtrapolationResult,
    PointerConfig,
    PointerOutcome,
    extrapolate,
    simulate,
)
from .explore import (
    DIAGONAL,
    HAAR_PURE,
    MIXED_FULL_RANK,
    REAL_MIXED,
    REAL_PURE,
    SAMPLER_KINDS,
    SamplerSpec,
    ScanSummary,
    SearchResult,
    scan_anomaly_rate,
    search_max_negativity,
)

__version__ = "0.1.0"
