"""Capacity regions and beamforming for Gaussian MIMO broadcast channels
under multiple linear (and convex nonlinear) transmit covariance constraints,
computed through equivalent dual multiple-access problems."""

from .errors import (
    BcMacError,
    DegenerateTransform,
    GridBudgetExceeded,
    InfeasibleTargets,
    InvalidInput,
    MaxItersExceeded,
    NotPositiveDefinite,
    SingularConstraintMatrix,
)
from .model import (
    BeamformingSolution,
    ChannelSet,
    CovarianceSet,
    LinearConstraint,
    SinrTargets,
    bc_mmse_receivers,
    bc_rates_dpc,
    bc_sinr,
    constraint_value,
    mac_eigenbeams,
    mac_rates,
    mac_sinr,
)
from .macsolver import (
    MacSolution,
    SolverSettings,
    solve_power_min_mac,
    solve_sinr_balance_mac,
    solve_wsr_mac,
)
from .transforms import (
    TransformReport,
    bc_to_mac_capacity,
    mac_to_bc_capacity,
    mac_to_bc_sinr,
    verify_capacity_transform,
    verify_sinr_transform,
)

__version__ = "0.1.0"
