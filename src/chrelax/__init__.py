"""Relaxed Cahn-Hilliard tumour-growth solver and verification harness.

A phase field phi, chemical potential mu and nutrient sigma evolve under a
weakly damped (inertial) relaxation of the chemical potential equation; as
the inertia coefficient alpha vanishes the dynamics degenerate to the
parabolic limit system.  The package provides the double-well potential
toolbox (regular, logarithmic and double-obstacle wells handled through
their Yosida regularisation), a cell-centred no-flux discretisation, the
implicit splitting stepper, discrete space-time norms, and the studies
that verify the qualitative theory numerically: vanishing-inertia rates,
regularisation self-consistency, continuous dependence on the controls
and strict phase separation.
"""

from .config import (
    Config,
    Scenario,
    build_scenario,
    default_config,
    parse_config,
)
from .errors import (
    CgNoConvergence,
    ChRelaxError,
    ConfigError,
    DegenerateFit,
    GridMismatch,
    InvalidParams,
    NewtonDivergence,
    NonFiniteState,
    OutsideSubdifferentialDomain,
    ScheduleMismatch,
    SchemeUnstable,
)
from .grid import Grid
from .model import (
    Controls,
    ControlSpec,
    FieldSpec,
    InitialData,
    ModelParams,
    ProliferationSpec,
    State,
    TruncationSpec,
    initial_state,
    validate,
)
from .norms import (
    AlphaErrorTerms,
    RateFit,
    SeriesNorms,
    alpha_error,
    contdep_lhs,
    contdep_rhs,
    fit_rate,
)
from .potentials import SplitPotential, YosidaParams
from .stepper import (
    SchemeConfig,
    Trajectory,
    run,
    step_mu,
    step_phi,
    step_sigma,
)

__version__ = "0.1.0"
