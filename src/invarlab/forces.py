"""Pairwise force laws in the canonical three-channel decomposition.

A law is a triple of scalar coefficient functions (phi_e, phi_s, phi_perp)
of rotation-invariant pair data only: the two bodies' property maps, the
separation |x_ab|, the relative speed |v_ab|, and the alignment
x_ab . v_ab. The force on body A and the reaction on body B are

    f =  x_ab phi_e + v_ab phi_s + (x_ab x v_ab) phi_perp
    k = -x_ab phi_e - v_ab phi_s + (x_ab x v_ab) phi_perp

so the radial and along-velocity channels cancel pairwise while the
normal channel adds: f + k = 2 (x_ab x v_ab) phi_perp. Restricting the
coefficients to invariant arguments is what makes every law built here
rotationally covariant by construction.

Coefficient functions of the built-in presets are symmetric under
exchange of the two property maps; the deliberately nonlinear
``charge_squared`` demo is not, and exists to fail the additivity audit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .core import Body, Check, Vec3, pair_state

__all__ = [
    "PhiFn",
    "PotentialFn",
    "SingularityError",
    "ForceOverflowError",
    "PropertyView",
    "ForceLaw",
    "force_on_a",
    "force_on_b",
    "force_pair",
    "superpose",
    "merge_laws",
    "soften",
    "check_property_additivity",
    "free",
    "gravity",
    "coulomb",
    "spring",
    "linear_drag",
    "perp_demo",
    "charge_squared",
    "PRESETS",
    "make_preset",
]

# (props_a, props_b, separation, relative speed, x_ab . v_ab) -> coefficient
PhiFn = Callable[[Mapping[str, float], Mapping[str, float], float, float, float], float]
# (props_a, props_b, separation) -> potential energy
PotentialFn = Callable[[Mapping[str, float], Mapping[str, float], float], float]


class SingularityError(ValueError):
    """Bodies closer than a singular law can be evaluated at."""


class ForceOverflowError(ArithmeticError):
    """A force, or a sum of forces, left the floating-point range. Raised by
    ``force_pair`` (so by ``force_on_a``, ``force_on_b`` and the additivity
    check) and by ``superpose``."""


def _force(name: str, x: float, y: float, z: float) -> Vec3:
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ForceOverflowError(f"law {name!r}: force ({x}, {y}, {z}) is not finite")
    return Vec3(x, y, z)


class PropertyView(Mapping):
    """Read-only, total view of a body's scalar properties including mass.

    Lookups never fail; absent properties read as 0.0.
    """

    __slots__ = ("_mass", "_props")

    def __init__(self, body: Body) -> None:
        self._mass = body.mass
        self._props = body.properties

    def __getitem__(self, name: str) -> float:
        if name == "mass":
            return self._mass
        return self._props.get(name, 0.0)

    def __iter__(self) -> Iterator[str]:
        yield "mass"
        yield from self._props

    def __len__(self) -> int:
        return 1 + len(self._props)


@dataclass(frozen=True)
class ForceLaw:
    """Named triple of coefficient functions; ``None`` means identically zero.

    ``radial_only`` asserts that phi_e, if present, reads only the property
    maps and the separation. Together with absent phi_s and phi_perp this
    makes the law central: velocity independent, with a scalar potential
    (registered in ``potential``, or recovered by quadrature).

    ``singular`` laws refuse evaluation below ``min_separation``.
    """

    name: str
    phi_e: PhiFn | None = None
    phi_s: PhiFn | None = None
    phi_perp: PhiFn | None = None
    potential: PotentialFn | None = None
    singular: bool = False
    min_separation: float = 1e-9
    radial_only: bool = True

    # Read once per trajectory sample; ``dataclasses.replace`` builds a new
    # instance, so the cached value never outlives the fields it reads.
    @cached_property
    def central(self) -> bool:
        return self.phi_s is None and self.phi_perp is None and self.radial_only


def raw_force_pair(
    law: ForceLaw,
    qa: Mapping[str, float],
    qb: Mapping[str, float],
    rx: float,
    ry: float,
    rz: float,
    wx: float,
    wy: float,
    wz: float,
) -> tuple[float, float, float, float, float, float]:
    """Force pair (f on A, k on B) from raw relative components.

    Shared by the body-level wrappers and the integrator inner loop.
    """
    r = math.sqrt(rx * rx + ry * ry + rz * rz)
    if law.singular and r < law.min_separation:
        raise SingularityError(
            f"law {law.name!r}: separation {r:.3e} below minimum {law.min_separation:.3e}"
        )
    speed = math.sqrt(wx * wx + wy * wy + wz * wz)
    radial = rx * wx + ry * wy + rz * wz

    fx = fy = fz = 0.0
    if law.phi_e is not None:
        c = law.phi_e(qa, qb, r, speed, radial)
        fx += rx * c
        fy += ry * c
        fz += rz * c
    if law.phi_s is not None:
        c = law.phi_s(qa, qb, r, speed, radial)
        fx += wx * c
        fy += wy * c
        fz += wz * c
    px = py = pz = 0.0
    if law.phi_perp is not None:
        c = law.phi_perp(qa, qb, r, speed, radial)
        px = (ry * wz - rz * wy) * c
        py = (rz * wx - rx * wz) * c
        pz = (rx * wy - ry * wx) * c
    return (fx + px, fy + py, fz + pz, -fx + px, -fy + py, -fz + pz)


def force_pair(law: ForceLaw, a: Body, b: Body) -> tuple[Vec3, Vec3]:
    """Forces (on A, on B) for the pair in its current state."""
    ps = pair_state(a, b)
    fx, fy, fz, kx, ky, kz = raw_force_pair(
        law,
        PropertyView(a),
        PropertyView(b),
        ps.x_ab.x,
        ps.x_ab.y,
        ps.x_ab.z,
        ps.v_ab.x,
        ps.v_ab.y,
        ps.v_ab.z,
    )
    return _force(law.name, fx, fy, fz), _force(law.name, kx, ky, kz)


def force_on_a(law: ForceLaw, a: Body, b: Body) -> Vec3:
    return force_pair(law, a, b)[0]


def force_on_b(law: ForceLaw, a: Body, b: Body) -> Vec3:
    return force_pair(law, a, b)[1]


def superpose(laws: Sequence[ForceLaw], a: Body, b: Body) -> Vec3:
    """Sum of the forces on A over a list of laws; empty list gives zero."""
    x = y = z = 0.0
    for law in laws:
        f = force_on_a(law, a, b)
        x, y, z = x + f.x, y + f.y, z + f.z
    return _force("+".join(law.name for law in laws), x, y, z)


def merge_laws(laws: Sequence[ForceLaw], name: str | None = None) -> ForceLaw:
    """Single law whose coefficients are the channel-wise sums.

    The sums add left to right from 0.0, not with ``sum()``: from Python
    3.12 on ``sum()`` adds floats with compensation, which would make the
    outputs of a multi-law run depend on the Python version.
    """
    laws = tuple(laws)
    if not laws:
        return free()
    if len(laws) == 1:
        return laws[0]

    def channel(fns: Sequence[PhiFn]) -> PhiFn | None:
        if not fns:
            return None
        if len(fns) == 1:
            return fns[0]

        def summed(qa, qb, r, speed, radial, _fns=tuple(fns)):
            total = 0.0
            for fn in _fns:
                total += fn(qa, qb, r, speed, radial)
            return total

        return summed

    radial_laws = [law for law in laws if law.phi_e is not None]
    potential: PotentialFn | None = None
    if radial_laws and all(law.potential is not None for law in radial_laws):
        pots = tuple(law.potential for law in radial_laws)

        def potential(qa, qb, r, _pots=pots):  # noqa: F811
            total = 0.0
            for p in _pots:
                total += p(qa, qb, r)
            return total

    singular_laws = [law for law in laws if law.singular]
    return ForceLaw(
        name=name or "+".join(law.name for law in laws),
        phi_e=channel([law.phi_e for law in laws if law.phi_e is not None]),
        phi_s=channel([law.phi_s for law in laws if law.phi_s is not None]),
        phi_perp=channel([law.phi_perp for law in laws if law.phi_perp is not None]),
        potential=potential,
        singular=bool(singular_laws),
        min_separation=max((law.min_separation for law in singular_laws), default=1e-9),
        radial_only=all(law.radial_only for law in laws),
    )


def soften(law: ForceLaw, epsilon: float) -> ForceLaw:
    """Plummer-style regularization: every coefficient and the potential see
    sqrt(r^2 + epsilon^2) instead of r. The result is no longer singular."""
    if epsilon <= 0.0:
        raise ValueError("softening length must be positive")
    eps2 = epsilon * epsilon

    def wrap(fn: PhiFn | None) -> PhiFn | None:
        if fn is None:
            return None

        def softened(qa, qb, r, speed, radial, _fn=fn):
            return _fn(qa, qb, math.sqrt(r * r + eps2), speed, radial)

        return softened

    potential = None
    if law.potential is not None:

        def potential(qa, qb, r, _pot=law.potential):  # noqa: F811
            return _pot(qa, qb, math.sqrt(r * r + eps2))

    return ForceLaw(
        name=f"{law.name}(eps={epsilon:g})",
        phi_e=wrap(law.phi_e),
        phi_s=wrap(law.phi_s),
        phi_perp=wrap(law.phi_perp),
        potential=potential,
        singular=False,
        radial_only=law.radial_only,
    )


def check_property_additivity(
    law: ForceLaw,
    property_name: str,
    a1: Body,
    a2: Body,
    b: Body,
    *,
    tolerance: float = 1e-9,
) -> Check:
    """Does merging the named property add the forces?

    a1 and a2 must be identical except in the named property. The merged
    body carries the summed property; the check compares its force
    against the sum of the split forces.
    """
    if a1.position != a2.position or a1.velocity != a2.velocity:
        raise ValueError("split bodies must share the same kinematic state")
    if property_name != "mass" and a1.mass != a2.mass:
        raise ValueError("split bodies must share the same mass")
    others = (set(a1.properties) | set(a2.properties)) - {property_name}
    for key in others:
        if a1.prop(key) != a2.prop(key):
            raise ValueError(f"split bodies differ in unrelated property {key!r}")

    merged_value = a1.prop(property_name) + a2.prop(property_name)
    if property_name == "mass":
        merged = Body("merged", merged_value, a1.position, a1.velocity, a1.properties)
    else:
        props = dict(a1.properties)
        props[property_name] = merged_value
        merged = Body("merged", a1.mass, a1.position, a1.velocity, props)

    f_merged = force_on_a(law, merged, b)
    f_sum = force_on_a(law, a1, b) + force_on_a(law, a2, b)
    residual = (f_merged - f_sum).norm()
    return Check(residual, residual <= tolerance, f"law {law.name!r}")


# --- Built-in law presets ---


def free() -> ForceLaw:
    """No interaction at all: the isolated pair."""
    return ForceLaw("free")


def gravity(g: float = 1.0) -> ForceLaw:
    """Attractive inverse-square law with mass as the coupling property."""

    def phi_e(qa, qb, r, speed, radial):
        return -g * qa["mass"] * qb["mass"] / (r * r * r)

    def potential(qa, qb, r):
        return -g * qa["mass"] * qb["mass"] / r

    return ForceLaw("gravity", phi_e=phi_e, potential=potential, singular=True)


def coulomb(k: float = 1.0) -> ForceLaw:
    """Inverse-square law with charge as the coupling property; repulsive
    for like charges."""

    def phi_e(qa, qb, r, speed, radial):
        return k * qa["charge"] * qb["charge"] / (r * r * r)

    def potential(qa, qb, r):
        return k * qa["charge"] * qb["charge"] / r

    return ForceLaw("coulomb", phi_e=phi_e, potential=potential, singular=True)


def spring(kappa: float = 1.0) -> ForceLaw:
    """Linear restoring force toward zero separation."""

    def phi_e(qa, qb, r, speed, radial):
        return -kappa

    def potential(qa, qb, r):
        return 0.5 * kappa * r * r

    return ForceLaw("spring", phi_e=phi_e, potential=potential)


def linear_drag(gamma: float = 1.0) -> ForceLaw:
    """Force against the relative velocity; damps relative motion."""

    def phi_s(qa, qb, r, speed, radial):
        return -gamma

    return ForceLaw("linear-drag", phi_s=phi_s)


def perp_demo(strength: float = 1.0) -> ForceLaw:
    """Constant normal-channel coefficient. The one channel that breaks
    total-momentum conservation; exists to exercise exactly that."""

    def phi_perp(qa, qb, r, speed, radial):
        return strength

    return ForceLaw("perp-demo", phi_perp=phi_perp)


def charge_squared(k: float = 1.0) -> ForceLaw:
    """Coupling quadratic in A's charge: deliberately violates additivity
    (and exchange symmetry). Demo law for the failing audit path."""

    def phi_e(qa, qb, r, speed, radial):
        q = qa["charge"]
        return k * q * q * qb["charge"] / (r * r * r)

    return ForceLaw("charge-squared", phi_e=phi_e, singular=True)


PRESETS: dict[str, Callable[..., ForceLaw]] = {
    "free": free,
    "gravity": gravity,
    "coulomb": coulomb,
    "spring": spring,
    "linear-drag": linear_drag,
    "perp-demo": perp_demo,
    "charge-squared": charge_squared,
}


def make_preset(name: str, **params: float) -> ForceLaw:
    """Instantiate a preset by name; unknown names and parameters raise."""
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown force-law preset {name!r} (known: {known})") from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for preset {name!r}: {exc}") from None
