"""Distribution-free center-outward rank tests.

Multivariate observations have no canonical ordering; this package
ranks them through measure transportation instead.  A sample is matched
one-to-one onto a regular grid over the unit ball by exact optimal
assignment, the matched gridpoint's radius index becomes the
observation's rank and its direction the observation's sign, and linear
statistics of those ranks and signs yield location, MANOVA, and
regression tests whose null distributions do not depend on the
(absolutely continuous) error law.  Classical competitors and a Monte
Carlo harness ship alongside.
"""

from .assignment import squared_cost
from .baselines import (
    ScatterEstimate,
    elliptical_rank_test,
    elliptical_ranks_signs,
    hotelling_two_sample,
    pillai_manova,
    sample_covariance,
    sphericize,
    sphericized_center_outward_test,
    tyler_scatter,
)
from .center_outward import (
    CenterOutwardMap,
    RanksSigns,
    empirical_map,
    ranks_signs,
)
from .distributions import make_law, sample, shift
from .errors import (
    CorankError,
    DataError,
    DegenerateDesignError,
    DegenerateInputError,
    InvalidInputError,
    InvalidScoreError,
    InvalidSpecError,
    NumericalError,
    SimulationError,
)
from .rank_tests import (
    CovariateDesign,
    TestResult,
    lambda_tilde,
    manova_test,
    q_general,
    q_spherical,
    regression_test,
    residuals,
    standardize_design,
    two_sample_test,
)
from .scores import (
    ScoreFunction,
    VectorScore,
    chi_sq_quantile,
    chi_sq_sf,
    custom_score,
    estimate_score_cov,
    get_score,
    sign_score,
    van_der_waerden_score,
    wilcoxon_score,
)
from .simulation import PowerCurve, SimConfig, run_null_distribution, run_power_study
from .sphere_grid import (
    Grid,
    GridSpec,
    build_grid,
    factorize,
    grid_to_csv,
    make_spec,
    unit_directions,
)

__version__ = "0.1.0"

__all__ = [
    "CenterOutwardMap",
    "CorankError",
    "CovariateDesign",
    "DataError",
    "DegenerateDesignError",
    "DegenerateInputError",
    "Grid",
    "GridSpec",
    "InvalidInputError",
    "InvalidScoreError",
    "InvalidSpecError",
    "NumericalError",
    "PowerCurve",
    "RanksSigns",
    "ScatterEstimate",
    "ScoreFunction",
    "SimConfig",
    "SimulationError",
    "TestResult",
    "VectorScore",
    "build_grid",
    "chi_sq_quantile",
    "chi_sq_sf",
    "custom_score",
    "elliptical_rank_test",
    "elliptical_ranks_signs",
    "empirical_map",
    "estimate_score_cov",
    "factorize",
    "get_score",
    "grid_to_csv",
    "hotelling_two_sample",
    "lambda_tilde",
    "make_law",
    "make_spec",
    "manova_test",
    "pillai_manova",
    "q_general",
    "q_spherical",
    "ranks_signs",
    "regression_test",
    "residuals",
    "run_null_distribution",
    "run_power_study",
    "sample",
    "sample_covariance",
    "shift",
    "sign_score",
    "sphericize",
    "sphericized_center_outward_test",
    "squared_cost",
    "standardize_design",
    "tyler_scatter",
    "two_sample_test",
    "unit_directions",
    "van_der_waerden_score",
    "wilcoxon_score",
]
