"""Exact correlators of entangled field-particle operators, their
weak-coupling stochastic limit, and the free master-field algebra."""

from .correlator import (
    FOCK,
    GAUSSIAN,
    LimitStructureError,
    StateSpec,
    apply_state,
    finite_lambda_correlator,
    limit_correlator,
    take_limit,
    temperature,
)
from .diagrams import (
    Diagram,
    Edge,
    count_fock_surviving,
    count_non_crossing,
    enumerate_pairings,
    fock_pairings,
    is_non_crossing,
    non_crossing_pairings,
)
from .masterfield import (
    EquivalenceReport,
    check_free_equivalence,
    free_correlator,
)
from .oracle import (
    Assignment,
    BogoliubovCoeffs,
    UnassignedSymbolError,
    bosonic_double_check,
    doubled_normal_order,
    numeric_eval,
    qdef_normal_order,
    random_assignment,
    reorder_annihilators,
)
from .quadrature import (
    DEFAULT_SWEEP,
    QuadratureError,
    QuadratureResult,
    oscillation_quadrature,
    quadrature_sweep,
)
from .scalars import (
    DeltaK,
    EnergyDelta,
    MFactor,
    Monomial,
    OscExp,
    ScalarSum,
    TimeDelta,
    q_factor,
)
from .symbols import (
    EnergyComb,
    TimeComb,
    TimeLabel,
    WaveLabel,
    dot,
    dot_p,
    omega,
    shift_p,
)
from .words import (
    Letter,
    MasterLetter,
    OperatorWord,
    PatternError,
    balanced_patterns,
    parse_pattern,
    word_from_pattern,
)

__version__ = "0.1.0"
