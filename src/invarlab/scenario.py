"""Scenario files: one JSON document drives a whole run.

Each object of a document is read by its section's field table in
``SECTIONS``, each field with a kind and a default or required (*); a key
that is not in its table is an input error naming its path and the
nearest known key. ``bodies[i]`` is each of the two bodies, ``laws[i]``
each law, ``frames[i]`` each transform of an explicit ``frames`` list:

    (document)         schema* ("v1"), name, bodies*, laws, softening, integrator,
                       frames, velocity_addition, audits, tolerances, audit_params
    bodies[i]          id*, mass*, position*, velocity*, properties
    laws[i]            preset*, params
    integrator         method ("rk4" or "verlet"), step*, t_end*
    frames             count, translation, boost, time_offset, reflections
    frames[i]          rotation, translation, boost, time_offset
    velocity_addition  g, c, samples, max_speed, baseline

Each audit's ``audit_params`` are read by its own table in the catalog
(``invarlab audits``). The rules that tie fields together (README's
"Scenario files" gives their reasons) follow the tables; ``MAX_STEPS``
caps every run. A section's module is imported where it is read: forces
for a law, frames for an explicit transform, velocity_addition for "g".
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .core import Body, Vec3, _Value

# Each section's module is imported in the reader of that section, so that
# a document loads only what it needs (setup_s: import invarlab + load_scenario).
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
    "Field", "read_section", "SECTIONS", "COUNT", "POSITIVE", "TEXT",
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


# Slot classes: building a NamedTuple class would add about 90 us to setup_s.
class Kind:
    """A JSON kind: its name in listings, and ``read(value, path)``, which
    checks a value found at ``path`` and returns what the program reads."""

    __slots__ = ("name", "read")

    def __init__(self, name: str, read: Callable[[Any, str], Any]) -> None:
        self.name, self.read = name, read


REQUIRED: Any = object()  # the default of a field that must be given
_OMITTED: Any = object()  # the default of a field left to the built value's own default


class Field:
    """A key of a document object or an audit's ``audit_params``: name, kind, and
    value when absent (``REQUIRED`` if it must be given; may be a function of the scenario)."""

    __slots__ = ("name", "kind", "default", "shown")

    def __init__(self, name: str, kind: Kind, default: Any = REQUIRED, shown: str = "") -> None:
        self.name, self.kind, self.default, self.shown = name, kind, default, shown


def read_section(doc: Any, path: str, table: tuple[Field, ...]) -> dict[str, Any]:
    """The values of the object ``doc`` at ``path`` ("" for the document)
    by ``table``: each field read by its kind, or its default when absent.

    Raises:
        ScenarioError: ``doc`` is not an object, a required field is
            missing or a value not of its kind, or a key is not in ``table``.
    """
    doc = _mapping(doc, path or "scenario")
    prefix = f"{path}." if path else ""
    values = {}
    for field in table:
        if field.name in doc:
            values[field.name] = field.kind.read(doc[field.name], prefix + field.name)
        elif field.default is REQUIRED:
            raise _fail(prefix + field.name, "missing required field")
        elif field.default is not _OMITTED:
            values[field.name] = field.default
    # Every key of the table that the document gives now has a value.
    for key in doc:
        if key not in values:
            import difflib  # only on this error path: a valid document does not load it
            names = [field.name for field in table]
            nearest = difflib.get_close_matches(str(key), names, n=1, cutoff=0.0)
            hint = f"the nearest known key is {nearest[0]!r}; " if nearest else ""
            raise _fail(f"{prefix}{key}", f"unknown key; {hint}known: {', '.join(names) or 'none'}")
    return values


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


def _kind(name: str, test: Callable[[Any], bool]) -> Kind:
    """The kind of the values that pass ``test``, read as they are."""

    def read(value: Any, path: str) -> Any:
        if not test(value):
            raise _fail(path, f"expected {name}, got {value!r}")
        return value

    return Kind(name, read)


def _map_of(kind: Kind) -> Kind:
    def read(value: Any, path: str) -> dict[str, Any]:
        return {str(k): kind.read(v, f"{path}.{k}") for k, v in _mapping(value, path).items()}

    return Kind("an object", read)


def _list_of(read: Callable[[Any, str], Any], value: Any, path: str, length: int = 0) -> tuple:
    """The items of list ``value`` (``length`` of them if given), each read by ``read``."""
    if not isinstance(value, (list, tuple)) or length and len(value) != length:
        raise _fail(path, f"expected a list{f' of {length}' if length else ''}, got {value!r}")
    return tuple([read(item, f"{path}[{i}]") for i, item in enumerate(value)])


NUMBER = Kind("a number", _number)
POSITIVE = Kind("a positive number", partial(_number, positive=True))
NONNEGATIVE = Kind("a nonnegative number", partial(_number, nonnegative=True))
# A count is at most the largest float, so that it converts to one.
COUNT = _kind("a positive integer", lambda value: isinstance(value, int)
              and not isinstance(value, bool) and 1 <= value <= sys.float_info.max)
FLAG = _kind("true or false", lambda value: isinstance(value, bool))
TEXT = _kind("a nonempty string", lambda value: isinstance(value, str) and value != "")
VECTOR = Kind("a 3-vector", lambda value, path: Vec3(*_list_of(_number, value, path, 3)))
_ROW = partial(_list_of, _number, length=3)
MATRIX = Kind("a 3x3 matrix", lambda value, path: _list_of(_ROW, value, path, 3))


def _profile(value: Any, path: str) -> str:
    from .velocity_addition import GFUNCTIONS
    if not isinstance(value, str) or value not in GFUNCTIONS:
        raise _fail(path, f"unknown profile {value!r} (known: {', '.join(sorted(GFUNCTIONS))})")
    return value


# The field tables; the rules that tie a section's fields together are in its reader.
_SWEPT, _ADDED, _SCENARIO = (
    cls._field_defaults for cls in (FrameSweepConfig, AdditionConfig, Scenario)
)
_SCALES = ("translation", "boost", "time_offset")

_BODY = (
    Field("id", TEXT), Field("mass", POSITIVE), Field("position", VECTOR),
    Field("velocity", VECTOR), Field("properties", _map_of(NUMBER), _OMITTED),
)
_LAW = (Field("preset", _kind("a string", lambda value: isinstance(value, str))),
        Field("params", _map_of(NUMBER), {}))
_INTEGRATOR = (
    Field("method", _kind('"rk4" or "verlet"', lambda value: value in ("rk4", "verlet")), "rk4"),
    Field("step", POSITIVE), Field("t_end", POSITIVE),
)
_SWEEP = (
    Field("count", COUNT, _SWEPT["count"]),
    *(Field(name, NONNEGATIVE, _SWEPT[name]) for name in _SCALES),
    Field("reflections", FLAG, _SWEPT["reflections"]),
)
_TRANSFORM = (
    Field("rotation", MATRIX, _OMITTED), Field("translation", VECTOR, _OMITTED),
    Field("boost", VECTOR, _OMITTED), Field("time_offset", NUMBER, _OMITTED),
)
_ADDITION = (
    Field("g", Kind("a profile name", _profile), _ADDED["g_name"]),
    Field("samples", COUNT, _ADDED["samples"]),
    Field("max_speed", POSITIVE, _ADDED["max_speed"]),
    Field("c", POSITIVE, _ADDED["c"]),
    Field("baseline", POSITIVE, _ADDED["baseline"]),
)


def _bodies(value: Any, path: str) -> tuple[Body, Body]:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail(path, "exactly two bodies are required")
    bodies = tuple(_body(doc, f"{path}[{i}]") for i, doc in enumerate(value))
    if bodies[0].id == bodies[1].id:
        raise _fail(path, "body ids must differ")
    return bodies  # type: ignore[return-value]


def _body(doc: Any, path: str) -> Body:
    values = read_section(doc, path, _BODY)
    # The additivity audit splits a mass into parts, which must stay positive.
    if values["mass"] < _MIN_NORMAL:
        raise _fail(f"{path}.mass", f"must be at least {_MIN_NORMAL:.5g}, got {values['mass']}")
    return Body(**values)


def _law(doc: Any, path: str) -> ForceLaw:
    from .forces import make_preset
    values = read_section(doc, path, _LAW)
    try:
        return make_preset(values["preset"], **values["params"])
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _frames(value: Any, path: str) -> FrameSweepConfig:
    if not isinstance(value, list):
        values = read_section(value, path, _SWEEP)
        for key in _SCALES:
            # A random component is drawn from [-scale, scale], which spans 2 scale.
            if not math.isfinite(2.0 * values[key]):
                raise _fail(f"{path}.{key}", f"must be at most {_MAX_SCALE:.5g}, got {values[key]}")
        return FrameSweepConfig(**values)
    if not value:
        raise _fail(path, "expected at least one transform")
    explicit = _list_of(_transform, value, path)
    return FrameSweepConfig(count=len(explicit), explicit=explicit)


def _transform(doc: Any, path: str) -> FrameTransform:
    from .frames import FrameTransform
    values = read_section(doc, path, _TRANSFORM)
    try:
        return FrameTransform(**values)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _addition(doc: Any, path: str) -> AdditionConfig:
    values = read_section(doc, path, _ADDITION)
    c, baseline = values["c"], values["baseline"]
    if values["g"] == "classical" and "c" in doc:
        raise _fail(f"{path}.c", "the classical profile has no speed bound; drop c")
    if values["max_speed"] >= 1.0:
        raise _fail(f"{path}.max_speed", "must be a fraction of c below 1")
    # The echo audit works with c^2, which must be a finite normal float.
    if not _MIN_C <= c <= _MAX_C:
        raise _fail(f"{path}.c", f"must be in [{_MIN_C:.5g}, {_MAX_C:.5g}], got {c}")
    # The echo audit divides by the light time baseline / c, and its plain
    # half squares baseline * c and baseline, whose square is the product
    # of the two: below these bounds a square is not a normal float, and
    # an echo leg underflows.
    for what, value in (("baseline / c", baseline / c), ("baseline * c", baseline * c)):
        if value < _MIN_C:
            raise _fail(f"{path}.baseline", f"{what} must be at least {_MIN_C:.5g}, got {value}")
    return AdditionConfig(g_name=values.pop("g"), **values)


_DOCUMENT = (
    Field("schema", _kind('"v1"', lambda value: value == "v1")),
    Field("name", TEXT, _OMITTED),
    Field("bodies", Kind("two bodies", _bodies)),
    Field("softening", NONNEGATIVE, 0.0),
    Field("laws", Kind("a list of laws", partial(_list_of, _law)), ()),
    Field("integrator", Kind("an object", lambda doc, path: IntegratorConfig(
        **read_section(doc, path, _INTEGRATOR))), _SCENARIO["integrator"]),
    Field("frames", Kind("an object or a list", _frames), _SCENARIO["frames"]),
    Field("velocity_addition", Kind("an object", _addition), _SCENARIO["addition"]),
    Field("audits", _kind("a list of audit names", lambda value: isinstance(value, list) and all(
        isinstance(name, str) for name in value)), _SCENARIO["audits"]),
    Field("tolerances", _map_of(POSITIVE), _SCENARIO["tolerances"]),
    Field("audit_params", _map_of(Kind("an object", _mapping)), _SCENARIO["audit_params"]),
)

# The field table of each section, by its path ("" is the document).
SECTIONS: Mapping[str, tuple[Field, ...]] = MappingProxyType({
    "": _DOCUMENT, "bodies[i]": _BODY, "laws[i]": _LAW, "integrator": _INTEGRATOR,
    "frames": _SWEEP, "frames[i]": _TRANSFORM, "velocity_addition": _ADDITION,
})


def parse_scenario(doc: Any, default_name: str = "scenario") -> Scenario:
    values = read_section(doc, "", _DOCUMENT)
    del values["schema"]
    laws, softening = values.pop("laws"), values.pop("softening")
    if softening > 0.0:
        if not any(law.singular for law in laws):
            raise _fail("softening", "no law in laws is singular, so none reads it; drop softening")
        from .forces import soften
        try:
            laws = tuple(soften(law, softening) if law.singular else law for law in laws)
        except ValueError as exc:
            raise _fail("softening", str(exc)) from None
    # The other values are the scenario's fields, by the same names.
    return Scenario(name=values.pop("name", default_name), audits=tuple(values.pop("audits")),
                    laws=laws, addition=values.pop("velocity_addition"), **values)


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
