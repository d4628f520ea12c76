"""rlflab: a numerical laboratory for ODE flows under Osgood-Sobolev
continuity conditions.

The package constructs ensembles of trajectories for bounded vector fields
whose continuity is certified by an integrable witness against an Osgood
modulus, and measures both sides of the quantitative stability, regularity
and compactness estimates that govern such flows.
"""

from .numerics import (
    PointGrid,
    QuadratureResult,
    ball_average,
    ball_measure,
    grid_integral,
    integrate_1d,
    invert_monotone,
    make_grid,
)
from .modulus import (
    ModulusOfContinuity,
    OsgoodTable,
    PsiFunctional,
    check_osgood,
    eval_rho,
    make_modulus,
)
from .fields import (
    CATALOG,
    MollifierKernel,
    VectorField,
    WitnessFunction,
    calibrate_witness_constant,
    catalog_field,
    compressibility_constant,
    divergence_negative_part,
    maximal_function,
    measure_osgood_constant,
    mollify,
)
from .flow import (
    CompressibilityEstimate,
    TrajectoryEnsemble,
    compressibility,
    integrate_ensemble,
    subsample_times,
    sup_distance,
)
from .estimates import (
    RegularitySet,
    TranslationConstants,
    cauchy_diagnostic,
    compactness_a,
    field_l1_distance,
    lens_constant,
    regularity_Q,
    regularity_set,
    stability_report,
    translation_constants,
    translation_functional,
    weak_type_check,
)
from .reporting import EstimateReport, make_report

__version__ = "0.1.0"
