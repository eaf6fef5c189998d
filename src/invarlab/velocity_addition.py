"""Velocity composition with a hard speed bound.

Velocities live strictly inside a ball of radius c. Each velocity u gets
a weight g(u) = G(|u|), where G is continuous, strictly increasing, 1 at
rest, and divergent at the bound. Composition is defined through the
weighted vectors:

    u (+) v = w   such that   g(w) w = g(u) u + g(v) v.

Because the weighted vectors simply add, the operation is a commutative
group: 0 is neutral, -u is the inverse of u, and associativity holds.
Since a |a| G(|a|) maps [0, c) bijectively onto [0, inf), the result
always exists and |w| < c: the bound cannot be crossed. Recovering |w|
from the weighted norm inverts a -> a G(a): the shipped profiles do it in
closed form, a user-supplied profile without an inverse by bisection
(``rootfind``).

Proper time divides a subjective interval by the weight of the moving
object, T = t / g(v). For any split v1 = v2 (+) v3 the weighted-vector
identity makes displacements computed leg by leg agree exactly if and
only if all three proper intervals agree: distances are invariant
precisely when proper time is.

With G identically 1 on an unbounded domain the whole construction
degenerates to ordinary vector addition with a single universal time;
``classical_g`` ships that limit for contrast experiments.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from .core import Check, Vec3, _Value
from .rootfind import ConvergenceError, solve_increasing

__all__ = [
    "GFunction",
    "BoundedVelocity",
    "lorentz_g",
    "rational_g",
    "classical_g",
    "GFUNCTIONS",
    "zero_velocity",
    "oplus",
    "proper_time",
    "check_invariance_theorem",
    "light_quotient",
    "classical_light_quotient",
]

_VALIDATION_GRID = 64


class GFunction(_Value):
    """Weight profile G: [0, c) -> [1, inf): continuous, strictly
    increasing, G(0) = 1, divergent at c.

    Construction spot-checks G(0) and monotonicity on a grid. ``c`` may be
    infinite only for the degenerate classical profile, where strict
    growth is not required. ``inverse``, keyword-only, is the closed-form
    solution a of a G(a) = w for w >= 0; without it ``solve_speed`` finds
    the root by bisection.
    """

    __slots__ = ("name", "c", "g", "inverse")

    def __init__(
        self,
        name: str,
        c: float,
        g: Callable[[float], float],
        *,
        inverse: Callable[[float], float] | None = None,
    ) -> None:
        if not c > 0.0:
            raise ValueError("limiting speed c must be positive")
        if abs(g(0.0) - 1.0) > 1e-12:
            raise ValueError(f"G(0) must be 1, got {g(0.0)}")
        if math.isfinite(c):
            grid = [c * (k / _VALIDATION_GRID) for k in range(_VALIDATION_GRID)]
            grid.append(c * (1.0 - 1e-9))
            values = [g(a) for a in grid]
            for a, (v1, v2) in zip(grid, zip(values, values[1:])):
                if not v2 > v1:
                    raise ValueError(f"G must be strictly increasing; violated near {a:.6g}")
        _set_name(self, name)
        _set_c(self, c)
        _set_g(self, g)
        _set_inverse(self, inverse)

    def __call__(self, speed: float) -> float:
        if speed < 0.0 or speed >= self.c:
            raise ValueError(f"speed {speed} outside [0, {self.c})")
        return self.g(speed)

    def solve_speed(self, weighted: float) -> float:
        """Invert a |a| G(|a|) = weighted; unique root in [0, c)."""
        if weighted < 0.0:
            raise ValueError("weighted norm must be nonnegative")
        if weighted == 0.0:
            return 0.0
        # G >= 1 puts the root at or below `weighted`; cap just under c.
        hi = min(weighted, self.c * (1.0 - 1e-15))
        g = self.g
        if hi * g(hi) - weighted < 0.0:
            raise ConvergenceError(
                f"{self.name}: weighted norm {weighted:.6g} not reachable below the bound"
            )
        if self.inverse is not None:
            return min(self.inverse(weighted), hi)
        ftol = 1e-14 * (1.0 + weighted)
        return solve_increasing(lambda a: a * g(a) - weighted, 0.0, hi, ftol=ftol)

    def compatible(self, other: "GFunction") -> bool:
        return self is other or (self.name == other.name and self.c == other.c)


_set_name, _set_c, _set_g, _set_inverse = (
    GFunction.__dict__[name].__set__ for name in GFunction.__slots__
)


# The shipped profiles' G and inverses are module functions, bound to c
# with partial, so that a profile pickles (see core._Value).
def _lorentz(c: float, a: float) -> float:
    u = a / c
    return 1.0 / math.sqrt(1.0 - u * u)


def _lorentz_inverse(c: float, w: float) -> float:
    u = w / c
    return c * u / math.hypot(1.0, u)


def _rational(c: float, a: float) -> float:
    u = a / c
    return 1.0 / (1.0 - u * u)


def _rational_inverse(c: float, w: float) -> float:
    return 2.0 * w / (1.0 + math.hypot(1.0, 2.0 * w / c))


def _unit(a: float) -> float:
    return 1.0


def _same(w: float) -> float:
    return w


def lorentz_g(c: float = 1.0) -> GFunction:
    """G(a) = 1 / sqrt(1 - (a/c)^2); a G(a) = w inverts to
    a = c u / sqrt(1 + u^2) with u = w/c."""
    return GFunction("lorentz", c, partial(_lorentz, c), inverse=partial(_lorentz_inverse, c))


def rational_g(c: float = 1.0) -> GFunction:
    """G(a) = 1 / (1 - (a/c)^2); a G(a) = w is the quadratic
    w a^2 / c^2 + a - w = 0, whose root in [0, c) is taken in the
    cancellation-free form a = 2w / (1 + sqrt(1 + (2w/c)^2))."""
    return GFunction("rational", c, partial(_rational, c), inverse=partial(_rational_inverse, c))


def classical_g() -> GFunction:
    """Degenerate unbounded profile G = 1: plain vector addition, inverted by a = w."""
    return GFunction("classical", math.inf, _unit, inverse=_same)


GFUNCTIONS: dict[str, Callable[..., GFunction]] = {
    "lorentz": lorentz_g,
    "rational": rational_g,
    "classical": classical_g,
}


class _Derived(_Value):
    """What ``BoundedVelocity`` derives from its fields, in slots kept out of
    its own ``__slots__``, which name only the fields (see ``core._Value``)."""

    __slots__ = ("speed", "_weight")


class BoundedVelocity(_Derived):
    """Velocity vector strictly inside the bound of its weight profile.

    Its fields are ``v`` and ``gfun``. It also stores ``speed``, |v| (by
    ``_wide_norm`` where the sum of squares overflows), and the weight
    G(speed) that ``weight()`` returns. Every build path ends in one store,
    ``_store``: the constructor once the speed is checked below the bound,
    and negation, which copies both values, as |-v| = |v| bit for bit.
    """

    __slots__ = ("v", "gfun")

    def __init__(self, v: Vec3, gfun: GFunction) -> None:
        x, y, z = v.x, v.y, v.z
        s = math.sqrt(x * x + y * y + z * z)
        if not s < math.inf:
            s = _wide_norm(x, y, z)
        if not s < gfun.c:
            raise ValueError(f"speed {s} must be strictly below the bound {gfun.c}")
        _store(self, v, gfun, s, gfun.g(s))

    def weight(self) -> float:
        return self._weight

    def __neg__(self) -> "BoundedVelocity":
        return _store(_new(BoundedVelocity), -self.v, self.gfun, self.speed, self._weight)


_set_v, _set_gfun = (BoundedVelocity.__dict__[name].__set__ for name in BoundedVelocity.__slots__)
_set_speed, _set_weight = (_Derived.__dict__[name].__set__ for name in _Derived.__slots__)
_new = object.__new__


def _store(u: BoundedVelocity, v: Vec3, g: GFunction, s: float, w: float) -> BoundedVelocity:
    _set_v(u, v)
    _set_gfun(u, g)
    _set_speed(u, s)
    _set_weight(u, w)
    return u


def zero_velocity(gfun: GFunction) -> BoundedVelocity:
    return BoundedVelocity(Vec3(0.0, 0.0, 0.0), gfun)


def _wide_norm(x: float, y: float, z: float) -> float:
    """|(x, y, z)| once its sum of squares is not finite: by hypot, after
    ``Vec3`` raises the NonFiniteError naming any non-finite component."""
    Vec3(x, y, z)
    return math.hypot(x, y, z)


def oplus(u: BoundedVelocity, v: BoundedVelocity) -> BoundedVelocity:
    """Group composition: weighted vectors add, the result stays bounded.

    Computed on the components, in the operation order of the vector
    expression ``(u g(u) + v g(v)) * (w / r)``.
    """
    gfun = u.gfun
    if not gfun.compatible(v.gfun):
        raise ValueError(
            f"cannot compose velocities under different profiles "
            f"({gfun.name}, c={gfun.c}) vs ({v.gfun.name}, c={v.gfun.c})"
        )
    a, b = u.v, v.v
    ga, gb = u._weight, v._weight
    x, y, z = a.x * ga + b.x * gb, a.y * ga + b.y * gb, a.z * ga + b.z * gb
    r = math.sqrt(x * x + y * y + z * z)
    if not r < math.inf:
        r = _wide_norm(x, y, z)
    if r == 0.0:
        return zero_velocity(gfun)
    w = gfun.solve_speed(r)
    s = w / r
    return BoundedVelocity(Vec3(x * s, y * s, z * s), gfun)


def proper_time(dt: float, v: BoundedVelocity) -> float:
    """Subjective interval rescaled by the mover's weight: dt / G(|v|)."""
    return dt / v.weight()


def check_invariance_theorem(
    v2: BoundedVelocity,
    v3: BoundedVelocity,
    duration: float,
    *,
    tolerance: float = 1e-12,
) -> Check:
    """Distance bookkeeping across three observers sharing one process.

    With v1 = v2 (+) v3 and equal proper duration on every leg, the direct
    displacement must match the two-leg sum: v1 dt1 = v2 dt2 + v3 dt3
    where dt_i = duration * G(|v_i|). The converse is probed by stretching
    one subjective interval by 1% and confirming the identity breaks by
    the predicted first-order amount. The check passes when the residual
    is within ``tolerance`` and the converse holds.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    v1 = oplus(v2, v3)
    dt1 = duration * v1._weight
    dt2 = duration * v2._weight
    dt3 = duration * v3._weight
    # Components, in the operation order of the vector expressions
    # |v1 dt1 - (v2 dt2 + v3 dt3)| and |v1 dt1 - v2 (dt2 (1 + stretch)) - v3 dt3|.
    a, b, c = v1.v, v2.v, v3.v
    lx, ly, lz = a.x * dt1, a.y * dt1, a.z * dt1
    cx, cy, cz = c.x * dt3, c.y * dt3, c.z * dt3
    dx = lx - (b.x * dt2 + cx)
    dy = ly - (b.y * dt2 + cy)
    dz = lz - (b.z * dt2 + cz)
    residual = math.sqrt(dx * dx + dy * dy + dz * dz)
    if not residual < math.inf:
        residual = _wide_norm(dx, dy, dz)

    stretch = 0.01  # the converse probe lengthens dt2 by 1%
    predicted = stretch * dt2 * v2.speed
    k = dt2 * (1.0 + stretch)
    dx = (lx - b.x * k) - cx
    dy = (ly - b.y * k) - cy
    dz = (lz - b.z * k) - cz
    perturbed = math.sqrt(dx * dx + dy * dy + dz * dz)
    if not perturbed < math.inf:
        perturbed = _wide_norm(dx, dy, dz)
    converse_ok = True
    detail = f"perturbed residual {perturbed:.3e}, first-order prediction {predicted:.3e}"
    if predicted > 0.0:
        converse_ok = abs(perturbed - predicted) <= 0.1 * predicted
    return Check(residual, residual <= tolerance and converse_ok, detail)


def light_quotient(frame_boost: BoundedVelocity, baseline: float) -> float:
    """Echo measurement under the bounded group, seen from a moving frame.

    A signal leaves the source, reflects at a mirror a fixed baseline away,
    and returns, travelling at the limiting speed c. The measured figure is
    (2 baseline) / (proper time elapsed at the source). In the apparatus
    rest frame that is c outright; re-expressed in a frame where the
    apparatus rides at ``frame_boost``, the subjective interval stretches
    by the apparatus weight while the baseline is invariant, and the
    proper-time division undoes the stretch: the quotient is frame
    independent.
    """
    if baseline <= 0.0:
        raise ValueError("baseline must be positive")
    gfun = frame_boost.gfun
    if not math.isfinite(gfun.c):
        raise ValueError("the bounded echo measurement needs a finite limiting speed")
    # Rest frame: two legs at the limiting speed; source at rest.
    out_leg = baseline / gfun.c
    back_leg = baseline / gfun.c
    rest_proper = proper_time(out_leg + back_leg, zero_velocity(gfun))
    # Moving frame: the apparatus velocity through the group operation.
    apparatus = oplus(zero_velocity(gfun), frame_boost)
    subjective = rest_proper * apparatus.weight()
    source_proper = proper_time(subjective, apparatus)
    return 2.0 * baseline / source_proper


def classical_light_quotient(
    apparatus_velocity: Vec3,
    baseline: float,
    signal_speed: float,
    axis: Vec3 = Vec3(1.0, 0.0, 0.0),
) -> float:
    """Echo measurement under plain vector addition with universal time.

    Here the signal is a thing moving at ``signal_speed`` through the rest
    frame while the whole apparatus (source and mirror, separated by
    ``baseline`` along ``axis``) drifts at ``apparatus_velocity``. Each leg
    is a catch-up problem, solved for its duration in closed form by
    ``_catch_up_time``; the quotient 2 baseline / (t_out + t_back) then
    depends on the drift, unlike the bounded construction.
    """
    if baseline <= 0.0:
        raise ValueError("baseline must be positive")
    if signal_speed <= 0.0:
        raise ValueError("signal speed must be positive")
    drift = apparatus_velocity.norm()
    if drift >= signal_speed:
        raise ValueError("no echo: apparatus outruns the signal")
    n = axis.norm()
    if n == 0.0:
        raise ValueError("apparatus axis must be nonzero")
    ux, uy, uz = axis.x / n, axis.y / n, axis.z / n
    vx, vy, vz = apparatus_velocity.x, apparatus_velocity.y, apparatus_velocity.z
    a = (signal_speed - drift) * (signal_speed + drift)
    t_out = _catch_up_time(ux * baseline, uy * baseline, uz * baseline, vx, vy, vz, a)
    t_back = _catch_up_time(ux * -baseline, uy * -baseline, uz * -baseline, vx, vy, vz, a)
    return 2.0 * baseline / (t_out + t_back)


def _catch_up_time(
    tx: float, ty: float, tz: float, vx: float, vy: float, vz: float, a: float
) -> float:
    """The t > 0 with |target + v t| = s t, given a = s^2 - |v|^2 > 0.

    That is the positive root of a t^2 - 2 b t - c = 0 with b = target . v
    and c = |target|^2, taken as (b + sqrt(b^2 + a c)) / a when b >= 0 and
    as c / (sqrt(b^2 + a c) - b) otherwise, so neither form subtracts
    nearly equal numbers.
    """
    b = tx * vx + ty * vy + tz * vz
    c = tx * tx + ty * ty + tz * tz
    root = math.sqrt(b * b + a * c)
    return (b + root) / a if b >= 0.0 else c / (root - b)
