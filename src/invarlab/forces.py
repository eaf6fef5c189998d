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

A ``ForceLaw`` declares its coefficients as ``PhiFn``s of the property
maps and the three invariants. It is evaluated through its pair-bound
form: ``bind(law, a, b)`` closes the law over one pair's properties, which
never change along a motion, and ``raw_force_pair`` evaluates the result.
Each preset folds its property products once per pair, in the order its
``PhiFn`` multiplies them, so the bound form gives the same floats; its
bound coefficients read the separation alone, and a central preset needs
neither the speed nor the alignment. ``merge_laws`` and ``soften`` compose
the bound forms; a law built from ``PhiFn``s alone binds through a thin
adapter that calls them with the property views and all three invariants.

Coefficient functions of the built-in presets are symmetric under
exchange of the two property maps; the deliberately nonlinear
``charge_squared`` demo is not, and exists to fail the additivity audit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple, Sequence

from .core import Body, Check, Vec3, pair_state

__all__ = [
    "PhiFn",
    "PotentialFn",
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

# (props_a, props_b, separation, relative speed, x_ab . v_ab) -> coefficient
PhiFn = Callable[[Mapping[str, float], Mapping[str, float], float, float, float], float]
# (props_a, props_b, separation) -> potential energy
PotentialFn = Callable[[Mapping[str, float], Mapping[str, float], float], float]
# A coefficient or potential bound to one pair: separation -> value
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


class PairTerms(NamedTuple):
    """A preset's coefficients and potential closed over one pair's
    properties, each a function of the separation alone; None where the
    law has no such term."""

    phi_e: RadialFn | None = None
    phi_s: RadialFn | None = None
    phi_perp: RadialFn | None = None
    potential: RadialFn | None = None


# (props_a, props_b) -> the law's terms for that pair
PairForm = Callable[[Mapping[str, float], Mapping[str, float]], PairTerms]


@dataclass(frozen=True)
class ForceLaw:
    """Named triple of coefficient functions; ``None`` means identically zero.

    ``radial_only`` asserts that phi_e, if present, reads only the property
    maps and the separation. Together with absent phi_s and phi_perp this
    makes the law central: velocity independent, with a scalar potential
    (registered in ``potential``, or recovered by quadrature).

    ``singular`` laws refuse evaluation below ``min_separation``.

    ``pair_form``, given by the presets, ``merge_laws`` and ``soften``,
    builds the law's ``PairTerms`` for a pair; it must give the same floats
    as the coefficient functions. ``dataclasses.replace`` drops it, so a
    law with replaced coefficients binds through them.
    """

    name: str
    phi_e: PhiFn | None = None
    phi_s: PhiFn | None = None
    phi_perp: PhiFn | None = None
    potential: PotentialFn | None = None
    singular: bool = False
    min_separation: float = 1e-9
    radial_only: bool = True
    pair_form: InitVar[PairForm | None] = None

    def __post_init__(self, pair_form: PairForm | None) -> None:
        object.__setattr__(self, "_pair_form", pair_form)

    # Read once per trajectory sample; ``dataclasses.replace`` builds a new
    # instance, so the cached value never outlives the fields it reads.
    @cached_property
    def central(self) -> bool:
        return self.phi_s is None and self.phi_perp is None and self.radial_only


class PairLaw:
    """A law bound to one pair by ``bind``: the masses, the reduced mass
    ``mu = ma * mb / (ma + mb)``, the law's flags, and its coefficients and
    potential closed over the pair's properties.

    ``phi_e``, ``phi_s`` and ``phi_perp`` take (separation, relative speed,
    x_ab . v_ab), or are None where the law has no such channel.
    ``phi_r`` is phi_e as a function of the separation alone, set only for
    a central law whose bound form reads nothing else. ``potential`` is
    V(separation), set exactly when the law is central.
    """

    __slots__ = (
        "name", "ma", "mb", "mu", "singular", "min_separation", "central", "floor",
        "forceless", "phi_e", "phi_s", "phi_perp", "phi_r", "potential",
    )

    def __init__(
        self,
        law: ForceLaw,
        ma: float,
        mb: float,
        channels: tuple[BoundFn | None, BoundFn | None, BoundFn | None],
        phi_r: RadialFn | None,
        potential: RadialFn | None,
    ) -> None:
        self.name = law.name
        self.ma, self.mb = ma, mb
        self.mu = ma * mb / (ma + mb)
        self.singular, self.min_separation = law.singular, law.min_separation
        self.central = law.central
        # A separation is refused below ``floor``; none is below 0.0.
        self.floor = law.min_separation if law.singular else 0.0
        self.phi_e, self.phi_s, self.phi_perp = channels
        self.forceless = channels == (None, None, None)
        self.phi_r = phi_r
        self.potential = potential


def _of_state(fn: RadialFn) -> BoundFn:
    """A coefficient of the separation alone, called with the full state."""
    return lambda r, speed, radial: fn(r)


def _zero_potential(r: float) -> float:
    return 0.0


def _quadrature_potential(phi_e: BoundFn) -> RadialFn:
    """V(r) from V'(rho) = -phi_e(rho) rho, gauged to zero at rho = 1. The
    gauge constant cancels in every drift check."""

    def integrand(rho: float) -> float:
        return -phi_e(rho, 0.0, 0.0) * rho

    return lambda r: _adaptive_simpson(integrand, 1.0, r, 1e-12)


def bind(law: ForceLaw, a: Body, b: Body) -> PairLaw:
    """``law`` bound to the pair (a, b): their properties never change along
    a motion, so only the states remain to be given.

    A law with a pair form binds to its terms. Any other law binds through
    its ``PhiFn``s and ``PotentialFn``, called with the bodies' property
    views. A central law without a registered potential gets one by
    quadrature of its radial coefficient.
    """
    qa, qb = PropertyView(a), PropertyView(b)
    form: PairForm | None = law._pair_form
    phi_r: RadialFn | None = None
    if form is not None:
        terms = form(qa, qb)
        channels = tuple(None if fn is None else _of_state(fn) for fn in terms[:3])
        if law.central:
            phi_r = terms.phi_e
        potential = terms.potential
    else:
        channels = tuple(
            None if fn is None else partial(fn, qa, qb)
            for fn in (law.phi_e, law.phi_s, law.phi_perp)
        )
        potential = None if law.potential is None else partial(law.potential, qa, qb)
    phi_e = channels[0]
    if not law.central:
        potential = None
    elif potential is None:
        potential = _zero_potential if phi_e is None else _quadrature_potential(phi_e)
    return PairLaw(law, a.mass, b.mass, channels, phi_r, potential)


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
        SingularityError: the separation is below a singular law's minimum;
            no coefficient has been evaluated.
    """
    r = math.sqrt(rx * rx + ry * ry + rz * rz)
    if r < pair.floor:
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


def merge_laws(laws: Sequence[ForceLaw], name: str | None = None) -> ForceLaw:
    """Single law whose coefficients are the channel-wise sums.

    The sums add left to right from 0.0, not with ``sum()``: from Python
    3.12 on ``sum()`` adds floats with compensation, which would make the
    outputs of a multi-law run depend on the Python version. A channel
    that one law alone has is that law's coefficient, unsummed. The pair
    form sums the laws' terms in the same way, if every law has one.
    """
    laws = tuple(laws)
    if not laws:
        return free()
    if len(laws) == 1:
        return laws[0]

    def channel(fns: Sequence[Callable | None]) -> Callable | None:
        fns = [fn for fn in fns if fn is not None]
        if not fns:
            return None
        return fns[0] if len(fns) == 1 else _summed(fns)

    # Each law's potential joins the sum if the law has a radial channel.
    radial = [law.phi_e is not None for law in laws]

    def merged(terms: Sequence[tuple]) -> tuple:
        """Channels and potential of the merged law from each law's four
        terms, declared or bound."""
        pots = [t[3] for t, has_radial in zip(terms, radial) if has_radial]
        potential = _summed(pots) if pots and None not in pots else None
        return (*(channel(t[i] for t in terms) for i in range(3)), potential)

    forms = [law._pair_form for law in laws]
    pair_form = None
    if None not in forms:

        def pair_form(qa, qb):
            return PairTerms(*merged([form(qa, qb) for form in forms]))

    phi_e, phi_s, phi_perp, potential = merged(
        [(law.phi_e, law.phi_s, law.phi_perp, law.potential) for law in laws]
    )
    singular_laws = [law for law in laws if law.singular]
    return ForceLaw(
        name=name or "+".join(law.name for law in laws),
        phi_e=phi_e,
        phi_s=phi_s,
        phi_perp=phi_perp,
        potential=potential,
        singular=bool(singular_laws),
        min_separation=max((law.min_separation for law in singular_laws), default=1e-9),
        radial_only=all(law.radial_only for law in laws),
        pair_form=pair_form,
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

    def wrap_bound(fn: RadialFn | None) -> RadialFn | None:
        return None if fn is None else (lambda r: fn(math.sqrt(r * r + eps2)))

    form = law._pair_form
    pair_form = None
    if form is not None:

        def pair_form(qa, qb):
            return PairTerms(*map(wrap_bound, form(qa, qb)))

    return ForceLaw(
        name=f"{law.name}(eps={epsilon:g})",
        phi_e=wrap(law.phi_e),
        phi_s=wrap(law.phi_s),
        phi_perp=wrap(law.phi_perp),
        potential=potential,
        singular=False,
        radial_only=law.radial_only,
        pair_form=pair_form,
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
#
# Each preset declares its coefficients as PhiFns and gives a pair form
# that folds the property products once, in the order the PhiFns multiply
# them: gravity's -g * m_a * m_b / (r * r * r) is k / (r * r * r) with
# k = -g * m_a * m_b.


def free() -> ForceLaw:
    """No interaction at all: the isolated pair."""
    return ForceLaw("free", pair_form=lambda qa, qb: PairTerms())


def gravity(g: float = 1.0) -> ForceLaw:
    """Attractive inverse-square law with mass as the coupling property."""

    def phi_e(qa, qb, r, speed, radial):
        return -g * qa["mass"] * qb["mass"] / (r * r * r)

    def potential(qa, qb, r):
        return -g * qa["mass"] * qb["mass"] / r

    def pair_form(qa, qb):
        k = -g * qa["mass"] * qb["mass"]
        return PairTerms(phi_e=lambda r: k / (r * r * r), potential=lambda r: k / r)

    return ForceLaw("gravity", phi_e=phi_e, potential=potential, singular=True,
                    pair_form=pair_form)


def coulomb(k: float = 1.0) -> ForceLaw:
    """Inverse-square law with charge as the coupling property; repulsive
    for like charges."""

    def phi_e(qa, qb, r, speed, radial):
        return k * qa["charge"] * qb["charge"] / (r * r * r)

    def potential(qa, qb, r):
        return k * qa["charge"] * qb["charge"] / r

    def pair_form(qa, qb):
        kq = k * qa["charge"] * qb["charge"]
        return PairTerms(phi_e=lambda r: kq / (r * r * r), potential=lambda r: kq / r)

    return ForceLaw("coulomb", phi_e=phi_e, potential=potential, singular=True,
                    pair_form=pair_form)


def spring(kappa: float = 1.0) -> ForceLaw:
    """Linear restoring force toward zero separation."""

    def phi_e(qa, qb, r, speed, radial):
        return -kappa

    def potential(qa, qb, r):
        return 0.5 * kappa * r * r

    def pair_form(qa, qb):
        c, half = -kappa, 0.5 * kappa
        return PairTerms(phi_e=lambda r: c, potential=lambda r: half * r * r)

    return ForceLaw("spring", phi_e=phi_e, potential=potential, pair_form=pair_form)


def linear_drag(gamma: float = 1.0) -> ForceLaw:
    """Force against the relative velocity; damps relative motion."""

    def phi_s(qa, qb, r, speed, radial):
        return -gamma

    def pair_form(qa, qb):
        c = -gamma
        return PairTerms(phi_s=lambda r: c)

    return ForceLaw("linear-drag", phi_s=phi_s, pair_form=pair_form)


def perp_demo(strength: float = 1.0) -> ForceLaw:
    """Constant normal-channel coefficient. The one channel that breaks
    total-momentum conservation; exists to exercise exactly that."""

    def phi_perp(qa, qb, r, speed, radial):
        return strength

    def pair_form(qa, qb):
        return PairTerms(phi_perp=lambda r: strength)

    return ForceLaw("perp-demo", phi_perp=phi_perp, pair_form=pair_form)


def charge_squared(k: float = 1.0) -> ForceLaw:
    """Coupling quadratic in A's charge: deliberately violates additivity
    (and exchange symmetry). Demo law for the failing audit path."""

    def phi_e(qa, qb, r, speed, radial):
        q = qa["charge"]
        return k * q * q * qb["charge"] / (r * r * r)

    def pair_form(qa, qb):
        q = qa["charge"]
        kq = k * q * q * qb["charge"]
        return PairTerms(phi_e=lambda r: kq / (r * r * r))

    return ForceLaw("charge-squared", phi_e=phi_e, singular=True, pair_form=pair_form)


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


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Recursive Simpson quadrature with interval-halving error control."""
    if a == b:
        return 0.0

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl, fr = f(lmid), f(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, fl, fmid, left, 0.5 * eps, depth - 1) + recurse(
            mid, hi, fmid, fr, fhi, right, 0.5 * eps, depth - 1
        )

    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return sign * recurse(a, b, fa, fm, fb, whole, tol, 48)
