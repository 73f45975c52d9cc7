"""Constructive certificates for operators with circles in their spectra.

Windowed vectors and operator models (vectors, operators), the essential
circle of each model and approximate eigenvectors on it (spectra), numerical
range boundaries and membership witnesses (nrange), exact moment measures
(moments), orbit / tower / zeroing constructions (witness), flat subspaces
(flatten), verification suites (harness), and a command line (cli).
"""

from .certify import Check
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    NumericalError,
    OrbitForgeError,
    PreconditionError,
    REFUSAL_ERRORS,
    ResolutionError,
    UnsupportedModelError,
    WindowBudgetError,
)
from .flatten import (
    DecayProfile,
    FlatSchedule,
    flat_report_csv,
    flat_subspace,
    sidon_set,
    weak_decay_probe,
)
from .harness import (
    CHECK_IDS,
    VerificationCheck,
    build_model,
    emit_report,
    run_all,
    run_check,
)
from .moments import (
    AtomicMeasure,
    admissible_radius,
    admissible_radius_exact,
    circle_moment_match,
    poisson_atoms,
    power_profile_measure,
)
from .nrange import (
    diagonal_compression_subspace,
    nr_boundary,
    numerical_radius,
    radius_norm_bounds,
    we_membership_witness,
)
from .operators import (
    BilateralShift,
    ConstantWeights,
    DenseOperator,
    DiagonalUnitary,
    MultiplicationGrid,
    OperatorPower,
    QuadraticIrrationalRotation,
    Subspace,
    UnilateralShift,
    apply_power,
    compress,
    operator_from_json,
    power_tuple,
)
from .spectra import (
    ApproxEigenpair,
    approx_eigenvector_family,
    orbit_to_approx_eigenvector,
)
from .vectors import BudgetMeter, WindowVector, inner, window_budget
from .witness import (
    OrbitCertificate,
    Tower,
    almost_orthogonal_orbit,
    rokhlin_tower,
    rotation_tower,
    zero_iteration_step,
    zero_tuple_vector,
)

__version__ = "0.1.0"
