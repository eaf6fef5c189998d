"""invarlab: a two-body invariance laboratory.

Value types for bodies and relative states, the group of observer
choices, pairwise force laws in the canonical three-channel
decomposition, fixed-step integrators with conservation audits, and a
bounded velocity-addition group with proper time. The CLI runs scenario
files and emits trajectories plus machine-readable audit reports.

An exported name is imported from its module when it is first read (PEP
562), so that ``import invarlab`` loads no submodule (setup_s).
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "core": ("Body", "NonFiniteError", "PairState", "Vec3", "ZERO", "cross", "pair_state"),
    "dynamics": ("DivergenceError", "Trajectory", "integrate", "momentum_rate", "observables"),
    "forces": (
        "ForceLaw", "ForceOverflowError", "PRESETS", "SingularityError", "bind", "charge_squared",
        "check_property_additivity", "coulomb", "force_on_a", "force_pair", "free", "gravity",
        "linear_drag", "make_preset", "merge_laws", "perp_demo", "soften", "spring", "superpose",
    ),
    "frames": (
        "FrameTransform", "apply", "check_objectivity", "compose", "identity", "inverse",
        "pure_boost", "pure_translation", "random_rotation", "random_transform",
        "transform_residual",
    ),
    "report": ("AuditReport", "AuditResult", "ERROR", "FAIL", "PASS"),
    "rootfind": ("ConvergenceError", "solve_increasing"),
    "scenario": ("Scenario", "ScenarioError", "load_scenario", "parse_scenario"),
    "velocity_addition": (
        "BoundedVelocity", "GFUNCTIONS", "GFunction", "check_invariance_theorem", "classical_g",
        "classical_light_quotient", "light_quotient", "lorentz_g", "oplus", "proper_time",
        "rational_g", "zero_velocity",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
