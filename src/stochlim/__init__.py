"""Exact correlators of entangled field-particle operators, their
weak-coupling stochastic limit, and the free master-field algebra."""

from .correlator import (
    FOCK,
    GAUSSIAN,
    LimitStructureError,
    StateSpec,
    finite_lambda_correlator,
    limit_correlator,
    take_limit,
    temperature,
)
from .diagrams import (
    Edge,
    count_fock_surviving,
    count_non_crossing,
    enumerate_pairings,
    is_non_crossing,
)
from .masterfield import (
    EquivalenceReport,
    check_free_equivalence,
    free_correlator,
)
from .oracle import (
    Assignment,
    UnassignedSymbolError,
    doubled_normal_order,
    numeric_eval,
    qdef_normal_order,
    random_assignment,
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
