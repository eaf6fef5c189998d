"""invarlab: a two-body invariance laboratory.

Value types for bodies and relative states, the group of observer
choices, pairwise force laws in the canonical three-channel
decomposition, fixed-step integrators with conservation audits, and a
bounded velocity-addition group with proper time. The CLI runs scenario
files and emits trajectories plus machine-readable audit reports.
"""

from .core import Body, NonFiniteError, PairState, Vec3, ZERO, cross, pair_state
from .dynamics import (
    DivergenceError,
    Trajectory,
    integrate,
    momentum_rate,
    observables,
)
from .forces import (
    ForceLaw,
    ForceOverflowError,
    PRESETS,
    SingularityError,
    bind,
    charge_squared,
    check_property_additivity,
    coulomb,
    force_on_a,
    force_pair,
    free,
    gravity,
    linear_drag,
    make_preset,
    merge_laws,
    perp_demo,
    soften,
    spring,
    superpose,
)
from .frames import (
    FrameTransform,
    apply,
    check_objectivity,
    compose,
    identity,
    inverse,
    pure_boost,
    pure_translation,
    random_rotation,
    random_transform,
    transform_residual,
)
from .report import AuditReport, AuditResult, ERROR, FAIL, PASS
from .rootfind import ConvergenceError, solve_increasing
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .velocity_addition import (
    BoundedVelocity,
    GFUNCTIONS,
    GFunction,
    check_invariance_theorem,
    classical_g,
    classical_light_quotient,
    light_quotient,
    lorentz_g,
    oplus,
    proper_time,
    rational_g,
    zero_velocity,
)

__version__ = "0.1.0"
