"""State estimation with metrology-grade uncertainty propagation.

Linear and extended Kalman filters, analytic and Monte Carlo propagation of
state-of-knowledge PDFs through the estimation equations, a bootstrap
particle filter, and the sloshing water-tank benchmark tying them together.
"""

__version__ = "0.1.0"

from .core import (
    CapacityError,
    ConfigError,
    DimensionError,
    GaussianBelief,
    LinearModel,
    NonlinearModel,
    NumericError,
    ParameterKnowledge,
    RngStreamPlan,
    assert_psd,
    finite_difference_jacobian,
    psd_sqrt,
    symmetrize,
)
from .ekf import (
    AugmentedModel,
    SplitStep,
    SplitUpdate,
    augment,
    ekf_correct,
    ekf_predict,
    propagate_nonlinear_gum_linearized,
    split_update,
)
from .gum_mc import (
    McEnsemble,
    McRunResult,
    RunningMoments,
    mc_batch,
    mc_sequential,
    mc_step,
)
from .kalman import (
    KalmanStep,
    joseph_update,
    kf_correct,
    kf_gain,
    kf_predict,
    propagate_linear_gum,
)
from .particle import (
    ParticleSet,
    PfRunResult,
    marginal_histogram,
    pf_ess,
    pf_propagate,
    pf_resample,
    pf_run,
    pf_weight,
    weighted_moments,
)
from .watertank import (
    EstimationReport,
    SimulationRecord,
    TankConfig,
    augmented_model,
    frequency_knowledge,
    linear_model,
    scenario,
    simulate,
    state_prior,
)

__all__ = [name for name in dir() if not name.startswith("_")]
