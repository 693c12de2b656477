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
    ExcursionError,
    ModelInconsistencyError,
    NumericError,
    QuadratureError,
    QuadratureWarning,
)
from .geometry import (
    DomainError,
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
    TailMap,
    integrate_box,
    integrate_cone,
    integrate_face,
    integrate_tail,
)
from .field import (
    CosineField,
    FaultInjectedField,
    FieldModel,
    GaussianIncrementField,
    SpectralSumField,
    check_h2,
    derivative_consistency,
    field_from_dict,
    field_to_dict,
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
    Realization,
    ec_oracle_2d,
    empirical_ec,
    empirical_sup_prob,
    load_realization,
    mc_mean_ec,
    sample_field,
    save_realization,
)

__version__ = "0.1.0"
