"""Scenario files: one JSON document drives a whole run.

Schema (version "v1"):

    {
      "schema": "v1",
      "name": "kepler",
      "bodies": [
        {"id": "A", "mass": 1.0, "position": [x, y, z],
         "velocity": [x, y, z], "properties": {"charge": 0.0}},
        { ... exactly two ... }
      ],
      "laws": [{"preset": "gravity", "params": {"g": 1.0}}],
      "softening": 0.0,
      "integrator": {"method": "rk4", "step": 0.01, "t_end": 10.0},
      "frames": {"count": 50, "translation": 5.0, "boost": 2.0,
                 "time_offset": 1.0, "reflections": true},
      "velocity_addition": {"g": "lorentz", "c": 1.0, "samples": 200,
                            "max_speed": 0.95, "baseline": 1.0},
      "audits": ["momentum", "energy"],
      "tolerances": {"momentum": 1e-9},
      "audit_params": {"boost-covariance": {"count": 10}}
    }

Everything after "bodies" is optional. "frames" may instead be a non-empty
list of explicit transforms ({"rotation": 3x3, "translation": [..], "boost":
[..], "time_offset": s}). Validation reports the offending field by path before
any computation runs. The audit fields ("audits", "tolerances",
"audit_params") are checked against the catalog that ``invarlab audits``
lists, with each audit's params, types and defaults: numeric params must
be finite and positive, and no run, the audits' own integrations
included, may take more than ``MAX_STEPS`` steps. A body's mass may not
be below the smallest normal float, nor a softening that a singular law
takes below its cube root; a positive softening needs a singular law to
take it. c must square to a finite normal float (the classical profile,
which has no bound, takes no c), and the light time baseline / c and
baseline * c to a normal one. Each section's module is imported where
that section is parsed: forces for "laws", frames for an explicit "frames"
list, velocity_addition (with rootfind) for "velocity_addition".
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, NamedTuple

from .core import Body, Vec3, _Value

# Each section's module is imported in the branch that parses it, so that a
# document loads only what it needs (setup_s: import invarlab + load_scenario).
if TYPE_CHECKING:
    from .forces import ForceLaw
    from .frames import FrameTransform
    from .velocity_addition import GFunction

__all__ = [
    "ScenarioError",
    "MAX_STEPS",
    "check_steps",
    "IntegratorConfig",
    "FrameSweepConfig",
    "AdditionConfig",
    "Scenario",
    "parse_scenario",
    "load_scenario",
]


class ScenarioError(ValueError):
    """Invalid scenario document; the message names the field."""


# Measured with tracemalloc on Python 3.11 (a 100k-step spring.json run):
# a trajectory holds about 0.11 kB per sample (13 doubles: 12 state floats
# and the time, each in an array('d')), and the whole run with its bundled
# audits peaks at about 0.14 kB per sample, so a run at the cap needs about
# 0.14 GB, and a rate audit's extra half-step trajectory (twice the
# samples) about 0.21 GB more.
MAX_STEPS = 1_000_000


def check_steps(path: str, steps: float, ratio: bool = False) -> None:
    """Reject a run of more than ``MAX_STEPS`` steps (``ratio``: the count
    is ``t_end / step``).

    Raises:
        ScenarioError: naming ``path``.
    """
    if not steps <= MAX_STEPS:
        what = "t_end / step = " if ratio else ""
        raise ScenarioError(f"{path}: {what}{steps:.4g} steps, above the limit of {MAX_STEPS}")


class IntegratorConfig(_Value):
    """Integration settings, checked at construction: at most
    ``MAX_STEPS`` steps of length ``step`` up to ``t_end``.

    Raises:
        ScenarioError: the run asks for more than ``MAX_STEPS`` steps.
    """

    __slots__ = ("method", "step", "t_end")

    def __init__(self, method: str, step: float, t_end: float) -> None:
        check_steps("integrator.step", t_end / step, ratio=True)
        _set_method(self, method)
        _set_step(self, step)
        _set_t_end(self, t_end)

    def meta(self) -> dict:
        return {"method": self.method, "step": self.step, "t_end": self.t_end}


_set_method, _set_step, _set_t_end = (
    IntegratorConfig.__dict__[name].__set__ for name in IntegratorConfig.__slots__
)


class FrameSweepConfig(NamedTuple):
    """Objectivity sweep: explicit transforms, or scales for random ones."""

    count: int = 50
    translation: float = 1.0
    boost: float = 1.0
    time_offset: float = 1.0
    reflections: bool = True
    explicit: tuple[FrameTransform, ...] = ()


class AdditionConfig(NamedTuple):
    g_name: str = "lorentz"
    c: float = 1.0
    samples: int = 200
    max_speed: float = 0.9
    baseline: float = 1.0

    def gfunction(self) -> GFunction:
        from .velocity_addition import GFUNCTIONS
        factory = GFUNCTIONS[self.g_name]
        return factory() if self.g_name == "classical" else factory(self.c)


class Scenario(NamedTuple):
    name: str
    bodies: tuple[Body, Body]
    laws: tuple[ForceLaw, ...]
    audits: tuple[str, ...] = ()
    integrator: IntegratorConfig | None = None
    frames: FrameSweepConfig = FrameSweepConfig()
    addition: AdditionConfig | None = None
    # Read-only empty defaults: a default is shared by every instance.
    tolerances: Mapping[str, float] = MappingProxyType({})
    audit_params: Mapping[str, dict] = MappingProxyType({})


# The largest random frame scale s whose span 2 s is a finite float, the
# bounds on a speed or length x that keep x * x a finite normal float, and
# the smallest normal float, below which a mass is refused.
_MAX_SCALE = sys.float_info.max / 2.0
_MIN_NORMAL = sys.float_info.min
_MIN_C = math.sqrt(sys.float_info.min)
_MAX_C = math.sqrt(sys.float_info.max)


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _mapping(doc: Any, path: str) -> dict:
    if not isinstance(doc, dict):
        raise _fail(path, f"expected an object, got {type(doc).__name__}")
    return doc


def _number(value: Any, path: str, *, positive: bool = False, nonnegative: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise _fail(path, "must be finite")
    if positive and not out > 0.0:
        raise _fail(path, f"must be positive, got {out}")
    if nonnegative and out < 0.0:
        raise _fail(path, f"must be nonnegative, got {out}")
    return out


def _vector(value: Any, path: str) -> Vec3:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise _fail(path, f"expected a 3-component list, got {value!r}")
    return Vec3(*(_number(v, f"{path}[{i}]") for i, v in enumerate(value)))


def _body(doc: Any, path: str) -> Body:
    doc = _mapping(doc, path)
    for key in ("id", "mass", "position", "velocity"):
        if key not in doc:
            raise _fail(f"{path}.{key}", "missing required field")
    if not isinstance(doc["id"], str) or not doc["id"]:
        raise _fail(f"{path}.id", "must be a nonempty string")
    props_doc = doc.get("properties", {})
    props_doc = _mapping(props_doc, f"{path}.properties")
    properties = {
        str(k): _number(v, f"{path}.properties.{k}") for k, v in props_doc.items()
    }
    mass = _number(doc["mass"], f"{path}.mass", positive=True)
    # The additivity audit splits a mass into parts, which must stay positive.
    if mass < _MIN_NORMAL:
        raise _fail(f"{path}.mass", f"must be at least {_MIN_NORMAL:.5g}, got {mass}")
    return Body(
        id=doc["id"],
        mass=mass,
        position=_vector(doc["position"], f"{path}.position"),
        velocity=_vector(doc["velocity"], f"{path}.velocity"),
        properties=properties,
    )


def _law(doc: Any, path: str) -> ForceLaw:
    from .forces import make_preset
    doc = _mapping(doc, path)
    preset = doc.get("preset")
    if not isinstance(preset, str):
        raise _fail(f"{path}.preset", "missing or not a string")
    params = _mapping(doc.get("params", {}), f"{path}.params")
    for key, value in params.items():
        _number(value, f"{path}.params.{key}")
    try:
        return make_preset(preset, **{str(k): float(v) for k, v in params.items()})
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _frames(doc: Any, path: str) -> FrameSweepConfig:
    if isinstance(doc, list):
        from .frames import IDENTITY_ROTATION, FrameTransform
        if not doc:
            raise _fail(path, "expected at least one transform")
        explicit = []
        for i, item in enumerate(doc):
            item = _mapping(item, f"{path}[{i}]")
            rotation = item.get("rotation")
            if rotation is None:
                rot = IDENTITY_ROTATION
            else:
                if not isinstance(rotation, list) or len(rotation) != 3:
                    raise _fail(f"{path}[{i}].rotation", "expected a 3x3 matrix")
                for r, row in enumerate(rotation):
                    if not isinstance(row, list) or len(row) != 3:
                        raise _fail(
                            f"{path}[{i}].rotation[{r}]", f"expected a 3-element list, got {row!r}"
                        )
                rot = tuple(
                    tuple(
                        _number(x, f"{path}[{i}].rotation[{r}][{c}]")
                        for c, x in enumerate(row)
                    )
                    for r, row in enumerate(rotation)
                )
            try:
                transform = FrameTransform(
                    rotation=rot,  # type: ignore[arg-type]
                    translation=_vector(item.get("translation", [0, 0, 0]), f"{path}[{i}].translation"),
                    boost=_vector(item.get("boost", [0, 0, 0]), f"{path}[{i}].boost"),
                    time_offset=_number(item.get("time_offset", 0.0), f"{path}[{i}].time_offset"),
                )
            except ValueError as exc:
                raise _fail(f"{path}[{i}]", str(exc)) from None
            explicit.append(transform)
        return FrameSweepConfig(count=len(explicit), explicit=tuple(explicit))
    doc = _mapping(doc, path)
    count = doc.get("count", 50)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise _fail(f"{path}.count", f"expected a positive integer, got {count!r}")
    reflections = doc.get("reflections", True)
    if not isinstance(reflections, bool):
        raise _fail(f"{path}.reflections", f"expected true or false, got {reflections!r}")
    scales = {}
    for key in ("translation", "boost", "time_offset"):
        scale = _number(doc.get(key, 1.0), f"{path}.{key}", nonnegative=True)
        # A random component is drawn from [-scale, scale], which spans 2 scale.
        if not math.isfinite(2.0 * scale):
            raise _fail(f"{path}.{key}", f"must be at most {_MAX_SCALE:.5g}, got {scale}")
        scales[key] = scale
    return FrameSweepConfig(count=count, reflections=reflections, **scales)


def parse_scenario(doc: Any, default_name: str = "scenario") -> Scenario:
    doc = _mapping(doc, "scenario")
    schema = doc.get("schema")
    if schema != "v1":
        raise _fail("schema", f'expected "v1", got {schema!r}')

    name = doc.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise _fail("name", "must be a nonempty string")

    bodies_doc = doc.get("bodies")
    if not isinstance(bodies_doc, list) or len(bodies_doc) != 2:
        raise _fail("bodies", "exactly two bodies are required")
    bodies = tuple(_body(b, f"bodies[{i}]") for i, b in enumerate(bodies_doc))
    if bodies[0].id == bodies[1].id:
        raise _fail("bodies", "body ids must differ")

    softening = _number(doc.get("softening", 0.0), "softening", nonnegative=True)

    laws_doc = doc.get("laws", [])
    if not isinstance(laws_doc, list):
        raise _fail("laws", "expected a list")
    laws = tuple(_law(l, f"laws[{i}]") for i, l in enumerate(laws_doc))
    if softening > 0.0:
        if not any(law.singular for law in laws):
            raise _fail("softening", "no law in laws is singular, so none reads it; drop softening")
        from .forces import soften
        try:
            laws = tuple(soften(law, softening) if law.singular else law for law in laws)
        except ValueError as exc:
            raise _fail("softening", str(exc)) from None

    integrator = None
    if "integrator" in doc:
        idoc = _mapping(doc["integrator"], "integrator")
        method = idoc.get("method", "rk4")
        if method not in ("rk4", "verlet"):
            raise _fail("integrator.method", f'expected "rk4" or "verlet", got {method!r}')
        integrator = IntegratorConfig(
            method=method,
            step=_number(idoc.get("step"), "integrator.step", positive=True),
            t_end=_number(idoc.get("t_end"), "integrator.t_end", positive=True),
        )

    frames = _frames(doc["frames"], "frames") if "frames" in doc else FrameSweepConfig()

    addition = None
    if "velocity_addition" in doc:
        from .velocity_addition import GFUNCTIONS
        adoc = _mapping(doc["velocity_addition"], "velocity_addition")
        g_name = adoc.get("g", "lorentz")
        if not isinstance(g_name, str) or g_name not in GFUNCTIONS:
            known = ", ".join(sorted(GFUNCTIONS))
            raise _fail("velocity_addition.g", f"unknown profile {g_name!r} (known: {known})")
        if g_name == "classical" and "c" in adoc:
            raise _fail("velocity_addition.c", "the classical profile has no speed bound; drop c")
        samples = adoc.get("samples", 200)
        if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
            raise _fail("velocity_addition.samples", "expected a positive integer")
        max_speed = _number(adoc.get("max_speed", 0.9), "velocity_addition.max_speed", positive=True)
        if max_speed >= 1.0:
            raise _fail("velocity_addition.max_speed", "must be a fraction of c below 1")
        c = _number(adoc.get("c", 1.0), "velocity_addition.c", positive=True)
        # The echo audit works with c^2, which must be a finite normal float.
        if not _MIN_C <= c <= _MAX_C:
            raise _fail("velocity_addition.c", f"must be in [{_MIN_C:.5g}, {_MAX_C:.5g}], got {c}")
        baseline = _number(adoc.get("baseline", 1.0), "velocity_addition.baseline", positive=True)
        # The echo audit divides by the light time baseline / c, and its plain
        # half squares baseline * c and baseline, whose square is the product
        # of the two: below these bounds a square is not a normal float, and
        # an echo leg underflows.
        for what, value in (("baseline / c", baseline / c), ("baseline * c", baseline * c)):
            if value < _MIN_C:
                raise _fail(
                    "velocity_addition.baseline", f"{what} must be at least {_MIN_C:.5g}, got {value}"
                )
        addition = AdditionConfig(
            g_name=g_name, c=c, samples=samples, max_speed=max_speed, baseline=baseline
        )

    audits_doc = doc.get("audits", [])
    if not isinstance(audits_doc, list) or not all(isinstance(a, str) for a in audits_doc):
        raise _fail("audits", "expected a list of audit names")

    tol_doc = _mapping(doc.get("tolerances", {}), "tolerances")
    tolerances = {
        str(k): _number(v, f"tolerances.{k}", positive=True) for k, v in tol_doc.items()
    }

    params_doc = _mapping(doc.get("audit_params", {}), "audit_params")
    audit_params = {str(k): _mapping(v, f"audit_params.{k}") for k, v in params_doc.items()}

    return Scenario(
        name=name,
        bodies=bodies,  # type: ignore[arg-type]
        laws=laws,
        audits=tuple(audits_doc),
        integrator=integrator,
        frames=frames,
        addition=addition,
        tolerances=tolerances,
        audit_params=audit_params,
    )


def _unique_names(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a name given twice in it is an input error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        twice = next(name for i, (name, _) in enumerate(pairs) if name in dict(pairs[:i]))
        raise ScenarioError(f"{twice}: name given twice in one JSON object")
    return obj


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Raises:
        ScenarioError: unreadable or non-UTF-8 file, malformed JSON (with
            line/column), JSON the parser refuses, a name given twice in
            one object, or a schema violation (with the field path).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")  # the encoding JSON requires (RFC 8259)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_unique_names)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from None
    except ScenarioError:
        raise
    except (RecursionError, ValueError) as exc:
        # Well-formed JSON beyond Python's limits: nesting deeper than the
        # recursion limit, or an integer literal over the digit limit.
        raise ScenarioError(f"{path}: cannot parse JSON: {exc}") from None
    return parse_scenario(doc, default_name=path.stem)
