"""Second-order vector fields on tangent bundles, Dirac-type pairings,
and conserved-quantity checks.

The layering is strict: expr (symbolic kernel) < geometry (sprays,
connection, curvature) < forms (differential forms) < dirac (pairing,
bracket, structures) < motion (residuals, certificates, integration)
< ansatz (linear candidate search) < problemfile/cli (batch front-end).
"""

from .errors import (
    AnnihilatorMismatchError, DistributionMembershipError, EvalDomainError,
    ParseError, RankDeficientError, SingularLocusError,
    SprayDiracError, UnboundParameterError, ValidationError,
)
from .expr import (
    Context, Expr, Point, SampleConfig, Tri, diff, evaluate, format_expr,
    is_zero, parse, sample_points, simplify,
)
from .geometry import (
    BerwaldFrame, CurvatureTensor, OneForm, SemiSpray, VectorField,
    berwald_frame, connection_coefficients, curvature, decompose,
    euler_residuals, is_flat, is_semispray, is_spray, lie_bracket,
    span_membership,
)
from .forms import (
    BERWALD, COORD, ThreeForm, TwoForm, d_scalar, exterior_derivative_1,
    exterior_derivative_2, interior_product, lie_derivative, wedge,
)
from .dirac import (
    AlmostDirac, Section, courant_bracket, from_distribution,
    gauge_transform, involutivity_residual, is_isotropic_at, is_maximal_at,
    jacobi_anomaly, kernel_at, pairing,
)
from .motion import (
    MotionReport, Trajectory, conservation_drift, hamiltonian_certificate,
    integrate_sode, is_constant_of_motion, residual,
)
from .ansatz import (
    Ansatz, CandidateSolution, SearchResult, assemble,
    constant_two_form_dictionary, monomial_dictionary, search, solve,
)
from .problemfile import (
    AnsatzSettings, IntegrateSettings, ProblemFile, load_problem_file,
    parse_problem_file,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
