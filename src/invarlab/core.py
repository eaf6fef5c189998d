"""Shared value types: 3-vectors, point bodies, and relative pair states.

Everything here is an immutable value; instances can be shared freely
between threads.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "NonFiniteError", "Vec3", "ZERO", "Body", "PairState", "Check", "cross", "distance", "pair_state",
]


class NonFiniteError(ValueError):
    """A vector component is not finite: an input or a result left the
    float range. The audits turn it into an ERROR verdict."""


class _Value:
    """Base of an immutable value class whose fields are its ``__slots__``.

    Every package value and record built while parsing a document builds
    on it: a class costs far less to create than a NamedTuple class, which
    is compiled from source. The subclass's hand-written constructor checks
    its arguments, if it has any checks, and stores them through the slot
    descriptors; after that a field can be neither set nor deleted.
    Each slot is named as the constructor parameter that declares its
    type. Equality and hashing work on the tuple of field values, and
    ``repr`` names each field.
    Pickling and ``copy`` rebuild through the constructor, by keyword, so
    an instance that skipped the checks does not unpickle.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return _rebuild, (self.__class__, self._values())


def _rebuild(cls: type, values: tuple) -> Any:
    """Unpickle through the constructor, by keyword: a positional call
    could not pass a keyword-only field."""
    return cls(**dict(zip(cls.__slots__, values)))


class Vec3(_Value):
    """3-component real vector; components must be finite.

    The constructor is written by hand: it checks the components, then
    stores them through the slot descriptors.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        # One test of the sum covers the common case; a sum that is not
        # finite (an inf, a nan, or finite components that overflow) is
        # then decided component by component.
        if not _isfinite(x + y + z) and not (_isfinite(x) and _isfinite(y) and _isfinite(z)):
            raise NonFiniteError(f"non-finite vector component in ({x}, {y}, {z})")
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        return Vec3(self.x / s, self.y / s, self.z / s)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


_isfinite = math.isfinite
_set_x, _set_y, _set_z = (Vec3.__dict__[name].__set__ for name in ("x", "y", "z"))

ZERO = Vec3(0.0, 0.0, 0.0)


def distance(u: tuple[float, float, float], v: tuple[float, float, float]) -> float:
    """|u - v| of two float triples, without building the difference."""
    (ux, uy, uz), (vx, vy, vz) = u, v
    dx, dy, dz = ux - vx, uy - vy, uz - vz
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def cross(u: Vec3, v: Vec3) -> Vec3:
    """Right-handed vector product; perpendicular to both arguments,
    zero whenever they are collinear."""
    return Vec3(
        u.y * v.z - u.z * v.y,
        u.z * v.x - u.x * v.z,
        u.x * v.y - u.y * v.x,
    )


class Body(_Value):
    """Point body: positive mass, kinematic state, named scalar properties.

    Property lookup is total: a property the body does not carry reads as
    zero, so e.g. an uncharged body is just the zero-charge case. ``mass``
    is reachable through the same lookup. Each body holds its own copy of
    the properties.
    """

    __slots__ = ("id", "mass", "position", "velocity", "properties")

    def __init__(
        self,
        id: str,
        mass: float,
        position: Vec3,
        velocity: Vec3,
        properties: dict[str, float] | None = None,
    ) -> None:
        if not (math.isfinite(mass) and mass > 0.0):
            raise ValueError(f"body {id!r}: mass must be positive and finite, got {mass}")
        _set_id(self, id)
        _set_mass(self, mass)
        _set_position(self, position)
        _set_velocity(self, velocity)
        _set_properties(self, {} if properties is None else dict(properties))

    def prop(self, name: str) -> float:
        if name == "mass":
            return self.mass
        return self.properties.get(name, 0.0)

    def with_state(self, position: Vec3, velocity: Vec3) -> "Body":
        """Copy with a new kinematic state; identity, mass and properties kept."""
        return Body(self.id, self.mass, position, velocity, self.properties)


_set_id, _set_mass, _set_position, _set_velocity, _set_properties = (
    Body.__dict__[name].__set__ for name in Body.__slots__
)


class PairState(_Value):
    """Relative state of an ordered body pair; both fields negate under
    body exchange."""

    __slots__ = ("x_ab", "v_ab")

    def __init__(self, x_ab: Vec3, v_ab: Vec3) -> None:
        _set_x_ab(self, x_ab)
        _set_v_ab(self, v_ab)


_set_x_ab, _set_v_ab = (PairState.__dict__[name].__set__ for name in PairState.__slots__)


class Check(_Value):
    """A library check's residual, whether it passed (its tolerance and any
    further condition) and a note; the audits turn it into a verdict."""

    __slots__ = ("residual", "passed", "detail")

    def __init__(self, residual: float, passed: bool, detail: str = "") -> None:
        _set_residual(self, residual)
        _set_passed(self, passed)
        _set_detail(self, detail)


_set_residual, _set_passed, _set_detail = (
    Check.__dict__[name].__set__ for name in Check.__slots__
)


def pair_state(a: Body, b: Body) -> PairState:
    """Relative position and velocity of ``a`` with respect to ``b``.

    Both bodies must be expressed in the same frame; the result no longer
    depends on that frame's origin or rest state.
    """
    return PairState(a.position - b.position, a.velocity - b.velocity)
