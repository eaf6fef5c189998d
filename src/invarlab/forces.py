"""Pairwise force laws in the canonical three-channel decomposition.

A law's coefficients (phi_e, phi_s, phi_perp) are scalar functions of
rotation-invariant pair data only: the two bodies' properties, the
separation |x_ab|, the relative speed |v_ab|, and the alignment
x_ab . v_ab. The force on body A and the reaction on body B are

    f =  x_ab phi_e + v_ab phi_s + (x_ab x v_ab) phi_perp
    k = -x_ab phi_e - v_ab phi_s + (x_ab x v_ab) phi_perp

so the radial and along-velocity channels cancel pairwise while the
normal channel adds: f + k = 2 (x_ab x v_ab) phi_perp. Restricting the
coefficients to invariant arguments is what makes every law built here
rotationally covariant by construction.

A ``ForceLaw`` is its name, its pair form and its exclusion radius. The
form takes the two bodies' property views, which never change along a
motion, and returns the law's ``PairTerms`` for that pair, with the
property products folded in once. A radial coefficient that reads the
separation alone is given as ``phi_r``. A law whose only term is
``phi_r``, or that has none, is central: velocity independent, with a
scalar potential V, V'(r) = -phi_r(r) r, which its form registers in
closed form.
``bind(law, a, b)`` calls the form once and ``raw_force_pair`` evaluates
the result; ``merge_laws`` and ``soften`` compose the terms.

Coefficients of the built-in presets are symmetric under exchange of the
two bodies' properties; the deliberately nonlinear ``charge_squared``
demo is not, and exists to fail the additivity audit.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from typing import Callable, Iterator, NamedTuple, Sequence

from .core import Body, Check, Vec3, pair_state

__all__ = [
    "SingularityError",
    "ForceOverflowError",
    "PropertyView",
    "PairTerms",
    "ForceLaw",
    "PairLaw",
    "bind",
    "raw_force_pair",
    "force_on_a",
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

# A term bound to one pair, of the separation alone: separation -> value
RadialFn = Callable[[float], float]
# A coefficient bound to one pair: (separation, relative speed, x_ab . v_ab) -> value
BoundFn = Callable[[float, float, float], float]


class SingularityError(ValueError):
    """Bodies closer than a singular law can be evaluated at."""


class ForceOverflowError(ArithmeticError):
    """A force, or a sum of forces, left the floating-point range. Raised by
    ``force_pair`` (so by ``force_on_a`` and the additivity check) and by
    ``superpose``."""


def _force(name: str, x: float, y: float, z: float) -> Vec3:
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ForceOverflowError(f"law {name!r}: force ({x}, {y}, {z}) is not finite")
    return Vec3(x, y, z)


class PropertyView(Mapping):
    """Read-only, total view of a body's scalar properties including mass,
    read through ``Body.prop``: lookups never fail, and absent properties
    read as 0.0. It gives a pair form no position or velocity.
    """

    __slots__ = ("_body",)

    def __init__(self, body: Body) -> None:
        self._body = body

    def __getitem__(self, name: str) -> float:
        return self._body.prop(name)

    def __iter__(self) -> Iterator[str]:
        yield "mass"
        yield from self._body.properties

    def __len__(self) -> int:
        return 1 + len(self._body.properties)


class PairTerms(NamedTuple):
    """A law's terms closed over one pair's properties; None where the law
    has no such term.

    ``phi_e``, ``phi_s`` and ``phi_perp`` take (separation, relative speed,
    x_ab . v_ab). ``phi_r`` is the radial coefficient as a function of the
    separation alone, given instead of ``phi_e``. The terms are central
    when ``phi_r`` is the only coefficient, or there is none; then
    ``potential`` gives V(separation), and otherwise it is not read.
    """

    phi_r: RadialFn | None = None
    potential: RadialFn | None = None
    phi_e: BoundFn | None = None
    phi_s: BoundFn | None = None
    phi_perp: BoundFn | None = None

    @property
    def central(self) -> bool:
        return self.phi_e is None and self.phi_s is None and self.phi_perp is None

    @property
    def radial_channel(self) -> BoundFn | None:
        """The radial coefficient as a function of the state.

        Raises:
            ValueError: both ``phi_r`` and ``phi_e`` are given.
        """
        if self.phi_r is None:
            return self.phi_e
        if self.phi_e is not None:
            raise ValueError("phi_r and phi_e are one channel; give one of them")
        return _of_state(self.phi_r)


# (property view of a, property view of b) -> the law's terms for that pair
PairForm = Callable[[Mapping[str, float], Mapping[str, float]], PairTerms]


class ForceLaw(NamedTuple):
    """A named pair form and its exclusion radius; whether the law is
    central is read from the terms the form returns.

    The law refuses evaluation below ``min_separation``; a law with a
    positive radius is ``singular``.
    """

    name: str
    pair_form: PairForm
    min_separation: float = 0.0

    @property
    def singular(self) -> bool:
        return self.min_separation > 0.0


class PairLaw:
    """A law bound to one pair by ``bind``: the masses, the reduced mass
    ``mu = ma * mb / (ma + mb)``, the law's exclusion radius, and its terms
    closed over the pair's properties.

    ``phi_e``, ``phi_s`` and ``phi_perp`` take (separation, relative speed,
    x_ab . v_ab), or are None where the law has no such channel; a
    ``phi_r`` term is ``phi_e`` of the separation alone. When the law is
    ``central``, ``phi_r`` is kept, so that its force is evaluated from
    the separation alone, and ``potential`` is V(separation); both are
    None otherwise.
    """

    __slots__ = (
        "name", "ma", "mb", "mu", "min_separation", "central", "forceless",
        "phi_e", "phi_s", "phi_perp", "phi_r", "potential",
    )

    def __init__(self, law: ForceLaw, ma: float, mb: float, terms: PairTerms) -> None:
        self.name = law.name
        self.ma, self.mb = ma, mb
        self.mu = ma * mb / (ma + mb)
        self.min_separation = law.min_separation
        self.central = terms.central
        self.phi_e, self.phi_s, self.phi_perp = terms.radial_channel, terms.phi_s, terms.phi_perp
        self.forceless = self.central and terms.phi_r is None
        self.phi_r = terms.phi_r if self.central else None
        self.potential = terms.potential if self.central else None


def _of_state(fn: RadialFn) -> BoundFn:
    """A coefficient of the separation alone, called with the full state."""
    return lambda r, speed, radial: fn(r)


def bind(law: ForceLaw, a: Body, b: Body) -> PairLaw:
    """``law`` bound to the pair (a, b): its pair form called once with the
    bodies' property views. Their properties never change along a motion,
    so only the states remain to be given.

    Raises:
        ValueError: the form gives both ``phi_r`` and ``phi_e``, or its
            terms are central and give no potential.
    """
    terms = law.pair_form(PropertyView(a), PropertyView(b))
    if terms.central and terms.potential is None:
        raise ValueError(f"central law {law.name!r} registers no potential")
    return PairLaw(law, a.mass, b.mass, terms)


# The force pair of a law with no channel, whatever the state.
_NO_FORCE = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def raw_force_pair(
    pair: PairLaw,
    rx: float,
    ry: float,
    rz: float,
    wx: float,
    wy: float,
    wz: float,
) -> tuple[float, float, float, float, float, float]:
    """Force pair (f on A, k on B) from raw relative components, under the
    law bound to the pair.

    Shared by ``force_pair`` and the integrator inner loop. Each channel's
    sum starts from 0.0 and the normal channel is added to both forces, so
    no component comes out as -0.0 unless phi_perp makes it so.

    Raises:
        SingularityError: the separation is below the law's minimum; no
            coefficient has been evaluated.
    """
    r = math.sqrt(rx * rx + ry * ry + rz * rz)
    if r < pair.min_separation:
        raise SingularityError(
            f"law {pair.name!r}: separation {r:.3e} below minimum {pair.min_separation:.3e}"
        )
    phi_r = pair.phi_r
    if phi_r is not None:
        c = phi_r(r)
        fx, fy, fz = 0.0 + rx * c, 0.0 + ry * c, 0.0 + rz * c
        return (fx, fy, fz, -fx + 0.0, -fy + 0.0, -fz + 0.0)
    if pair.forceless:
        return _NO_FORCE
    speed = math.sqrt(wx * wx + wy * wy + wz * wz)
    radial = rx * wx + ry * wy + rz * wz

    fx = fy = fz = 0.0
    phi = pair.phi_e
    if phi is not None:
        c = phi(r, speed, radial)
        fx += rx * c
        fy += ry * c
        fz += rz * c
    phi = pair.phi_s
    if phi is not None:
        c = phi(r, speed, radial)
        fx += wx * c
        fy += wy * c
        fz += wz * c
    px = py = pz = 0.0
    phi = pair.phi_perp
    if phi is not None:
        c = phi(r, speed, radial)
        px = (ry * wz - rz * wy) * c
        py = (rz * wx - rx * wz) * c
        pz = (rx * wy - ry * wx) * c
    return (fx + px, fy + py, fz + pz, -fx + px, -fy + py, -fz + pz)


def force_pair(law: ForceLaw, a: Body, b: Body) -> tuple[Vec3, Vec3]:
    """Forces (on A, on B) for the pair in its current state."""
    ps = pair_state(a, b)
    fx, fy, fz, kx, ky, kz = raw_force_pair(
        bind(law, a, b),
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


def superpose(laws: Sequence[ForceLaw], a: Body, b: Body) -> Vec3:
    """Sum of the forces on A over a list of laws; empty list gives zero."""
    x = y = z = 0.0
    for law in laws:
        f = force_on_a(law, a, b)
        x, y, z = x + f.x, y + f.y, z + f.z
    return _force("+".join(law.name for law in laws), x, y, z)


def _summed(fns: Sequence[Callable]) -> Callable:
    """The sum of ``fns`` at the same arguments, added left to right from
    0.0."""

    def summed(*args, _fns=tuple(fns)):
        total = 0.0
        for fn in _fns:
            total += fn(*args)
        return total

    return summed


def _channel(fns: Sequence[Callable | None]) -> Callable | None:
    """The sum of the terms that are given; a lone term unsummed."""
    fns = [fn for fn in fns if fn is not None]
    if not fns:
        return None
    return fns[0] if len(fns) == 1 else _summed(fns)


def merge_laws(laws: Sequence[ForceLaw]) -> ForceLaw:
    """Single law whose terms are the channel-wise sums of the laws' terms.

    The sums add left to right from 0.0, not with ``sum()``: from Python
    3.12 on ``sum()`` adds floats with compensation, which would make the
    outputs of a multi-law run depend on the Python version. A channel
    that one law alone has is that law's term, unsummed. If every law's
    terms are central, ``phi_r`` and the potential are summed; otherwise
    each ``phi_r`` joins the ``phi_e`` sum as a function of the state. The
    exclusion radius is the largest of the laws' radii.
    """
    laws = tuple(laws)
    if not laws:
        return free()
    if len(laws) == 1:
        return laws[0]
    forms = [law.pair_form for law in laws]

    def pair_form(qa, qb):
        terms = [form(qa, qb) for form in forms]
        if all(t.central for t in terms):
            potentials = [t.potential for t in terms]
            return PairTerms(phi_r=_channel([t.phi_r for t in terms]),
                             potential=None if None in potentials else _summed(potentials))
        return PairTerms(phi_e=_channel([t.radial_channel for t in terms]),
                         phi_s=_channel([t.phi_s for t in terms]),
                         phi_perp=_channel([t.phi_perp for t in terms]))

    return ForceLaw("+".join(law.name for law in laws), pair_form,
                    max(law.min_separation for law in laws))


# The least softening length: at or above it epsilon^2, and so the cube of
# every softened radius, is a normal float; below it an inverse-cube law
# can divide by zero.
_MIN_SOFTENING = sys.float_info.min ** (1.0 / 3.0)


def soften(law: ForceLaw, epsilon: float) -> ForceLaw:
    """Plummer-style regularization: every term sees sqrt(r^2 + epsilon^2)
    instead of r. The result is no longer singular."""
    if not epsilon >= _MIN_SOFTENING:
        raise ValueError(f"softening length must be at least {_MIN_SOFTENING:.5g}, got {epsilon}")
    eps2 = epsilon * epsilon
    form = law.pair_form

    def of_r(fn: RadialFn | None) -> RadialFn | None:
        return None if fn is None else (lambda r: fn(math.sqrt(r * r + eps2)))

    def of_state(fn: BoundFn | None) -> BoundFn | None:
        return None if fn is None else (lambda r, v, x: fn(math.sqrt(r * r + eps2), v, x))

    def pair_form(qa, qb):
        t = form(qa, qb)
        return PairTerms(of_r(t.phi_r), of_r(t.potential), *map(of_state, t[2:]))

    return ForceLaw(f"{law.name}(eps={epsilon:g})", pair_form)


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
#
# Each pair form folds its property products once per pair: gravity's
# -g * m_a * m_b / (r * r * r) is k / (r * r * r) with k = -g * m_a * m_b.


def free() -> ForceLaw:
    """No interaction at all: the isolated pair."""
    return ForceLaw("free", lambda qa, qb: PairTerms(potential=lambda r: 0.0))


def gravity(g: float = 1.0) -> ForceLaw:
    """Attractive inverse-square law with mass as the coupling property."""

    def pair_form(qa, qb):
        k = -g * qa["mass"] * qb["mass"]
        return PairTerms(phi_r=lambda r: k / (r * r * r), potential=lambda r: k / r)

    return ForceLaw("gravity", pair_form, min_separation=1e-9)


def coulomb(k: float = 1.0) -> ForceLaw:
    """Inverse-square law with charge as the coupling property; repulsive
    for like charges."""

    def pair_form(qa, qb):
        kq = k * qa["charge"] * qb["charge"]
        return PairTerms(phi_r=lambda r: kq / (r * r * r), potential=lambda r: kq / r)

    return ForceLaw("coulomb", pair_form, min_separation=1e-9)


def spring(kappa: float = 1.0) -> ForceLaw:
    """Linear restoring force toward zero separation."""
    c, half = -kappa, 0.5 * kappa
    terms = PairTerms(phi_r=lambda r: c, potential=lambda r: half * r * r)
    return ForceLaw("spring", lambda qa, qb: terms)


def linear_drag(gamma: float = 1.0) -> ForceLaw:
    """Force against the relative velocity; damps relative motion."""
    c = -gamma
    return ForceLaw("linear-drag", lambda qa, qb: PairTerms(phi_s=lambda r, v, x: c))


def perp_demo(strength: float = 1.0) -> ForceLaw:
    """Constant normal-channel coefficient. The one channel that breaks
    total-momentum conservation; exists to exercise exactly that."""
    return ForceLaw("perp-demo", lambda qa, qb: PairTerms(phi_perp=lambda r, v, x: strength))


def charge_squared(k: float = 1.0) -> ForceLaw:
    """Coupling quadratic in A's charge: deliberately violates additivity
    (and exchange symmetry). Demo law for the failing audit path. Its
    potential is k q_a^2 q_b / r."""

    def pair_form(qa, qb):
        q = qa["charge"]
        kq = k * q * q * qb["charge"]
        return PairTerms(phi_r=lambda r: kq / (r * r * r), potential=lambda r: kq / r)

    return ForceLaw("charge-squared", pair_form, min_separation=1e-9)


PRESETS: dict[str, Callable[..., ForceLaw]] = {
    "free": free,
    "gravity": gravity,
    "coulomb": coulomb,
    "spring": spring,
    "linear-drag": linear_drag,
    "perp-demo": perp_demo,
    "charge-squared": charge_squared,
}


def make_preset(name: str, /, **params: float) -> ForceLaw:
    """Instantiate a preset by name; unknown names and parameters (a
    parameter called ``name`` too) raise."""
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown force-law preset {name!r} (known: {known})") from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for preset {name!r}: {exc}") from None
