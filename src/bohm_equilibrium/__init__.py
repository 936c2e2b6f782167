"""Pilot-wave trajectory ensembles for an entangled two-particle Gaussian state.

An ensemble sampled from |psi|^2 and transported by the guidance velocity
stays |psi|^2-distributed for any finite packet width, while trajectories
started exactly on the narrow-combination surface stay on it forever; this
package computes both behaviors from closed forms and checks them against
each other numerically.
"""

__version__ = "0.1.0"

from .analysis import (
    ConstraintReport,
    EquivarianceReport,
    ObservableStats,
    SweepResult,
    SweepRow,
    constraint_surface_experiment,
    equivariance_check,
    ks_statistic,
    normal_cdf,
    regularization_sweep,
)
from .dynamics import (
    Ensemble,
    EnsembleFailureError,
    IntegratorConfig,
    StepUnderflowError,
    Trajectory,
    integrate_trajectory,
    propagate_ensemble,
    sample_constraint_surface,
    sample_equilibrium,
    substream_normals,
    substream_uniforms,
)
from .guidance import (
    ContinuityResidual,
    ResidualGrid,
    VelocityPair,
    continuity_residual,
    grid_for_state,
    velocity,
)
from .model import (
    Correlation,
    EvolvedMode,
    GaussianMode,
    PhysicalParams,
    TwoParticleState,
    constraint_width,
    eval_density,
    evolve_mode,
    mode_coordinates,
    mode_density,
    observable_normal,
    particle_coordinates,
)
