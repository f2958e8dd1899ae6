"""Stochastic energy minimization for 1D semilinear elliptic PDEs.

Solves PDEs with random diffusivity by minimizing the expected energy over
a finite-element (x) polynomial-chaos subspace with preconditioned
mini-batch stochastic gradient descent and optional control-variates
variance reduction.  The configuration-driven experiment runner is
`pcsgd.experiments`, imported by name, so a solve never loads it.
"""

from ._version import __version__
from .evaluation import (
    CdfEstimate,
    EnergyEstimate,
    empirical_cdf,
    estimate_energy,
    exact_energy_mc,
    pointwise_l2_error,
)
from .estimators import (
    ControlVariateState,
    Kernel,
    estimate_cv_lambda,
    kernel_for,
)
from .fem1d import Mesh1D, QuadratureRule, quadrature_points
from .pc_basis import (
    PcBasisSet,
    eval_all,
    generate_basis,
)
from .problem import (
    Nonlinearity,
    ProblemInstance,
    builtin_linear_homogeneous,
    builtin_linear_nonhomogeneous,
    builtin_semilinear_homogeneous_field,
    builtin_semilinear_nonhomogeneous_field,
)
from .random_field import (
    GermSampler,
    HomogeneousLogNormalField,
    TrigLogNormalField,
)
from .sgd import (
    LearningRateSchedule,
    SgdConfig,
    SgdDivergenceError,
    Trajectory,
    precondition_solve,
    run,
)
