"""Relaxed Cahn-Hilliard tumour-growth solver and verification harness.

A phase field phi, chemical potential mu and nutrient sigma evolve under an
inertial relaxation of the chemical potential equation, which degenerates
to the parabolic limit system as the inertia alpha vanishes.  The modules:
``potentials`` (double wells through their Yosida regularisation),
``grid`` (the no-flux discretisation and its solves), ``model``,
``stepper``, ``norms`` (space-time norms), ``experiments`` (the
verification studies), ``config`` and ``cli``.
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
)
from .norms import (
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
