"""Excursion probabilities and mean Euler characteristics on rectangles.

Analytic machinery (Kac-Rice face sums, Laplace asymptotics) plus an exact
Monte Carlo oracle for smooth Gaussian fields with stationary increments.
"""

from .errors import (
    AmbiguousMaximizerError,
    CapabilityError,
    ClassificationError,
    ConfigError,
    DegenerateModelError,
    DegeneracyError,
    DomainError,
    ExcursionError,
    ModelInconsistencyError,
    NumericError,
    QuadratureError,
    QuadratureWarning,
)
from .geometry import (
    Face,
    OutwardCone,
    RectDomain,
    enumerate_faces,
    face_label,
    face_of_point,
    outward_cone,
)
from .gauss import (
    MvnProblem,
    MvnResult,
    gauss_tail,
    hermite,
    mvn_prob,
    std_normal_pdf,
)
from .quad import (
    QuadResult,
    QuadSpec,
    integrate_box,
    integrate_cone,
    integrate_face,
)
from .field import (
    CosineField,
    FieldModel,
    GaussianIncrementField,
    SpectralSumField,
    check_h2,
    derivative_consistency,
    field_from_dict,
    max_variance,
)
from .mec import (
    ConditionReport,
    LaplaceInputs,
    MecResult,
    condition_check,
    excursion_prob_mu,
    laplace_mec_result,
    mean_euler_characteristic,
    prepare_laplace_inputs,
    tau_hessian,
)
from .mc import (
    EcCount,
    GridSpec,
    empirical_ec,
    empirical_sup_prob,
    mc_estimates,
    mc_mean_ec,
)

__version__ = "0.1.0"
