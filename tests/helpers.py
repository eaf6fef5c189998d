"""Shared builders for the test suite, the API only the tests call
(``as_tuple``, ``force_on_b``), and two independent oracles: the Vec3
read-back of a trajectory (snapshots, relative states, observables and
rates built from validated ``Vec3`` arithmetic), which the float kernels
of ``invarlab.dynamics`` are held to; and the unbound force laws
(``UnboundLaw``, the presets' coefficient functions, ``unbound_merge``,
``unbound_soften``, ``unbound_raw_force_pair``, ``unbound_potential`` with
its Simpson quadrature ``_adaptive_simpson``), which the pair forms of
``invarlab.forces`` are held to."""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from invarlab import (
    Body, DivergenceError, ForceLaw, PairState, SingularityError, Trajectory, Vec3, bind, cross,
    force_pair, observables, pair_state,
)


def as_tuple(v: Vec3) -> tuple[float, float, float]:
    return (v.x, v.y, v.z)


def force_on_b(law: ForceLaw, a: Body, b: Body) -> Vec3:
    return force_pair(law, a, b)[1]


@dataclass(frozen=True, slots=True, init=False)
class Observables:
    """Conserved-candidate quantities of a pair state under a law.

    ``internal_energy`` is None (absent, not zero) when the law is not
    central. Like ``Vec3``, the constructor stores the fields through the
    slot descriptors; there is nothing to check.
    """

    total_momentum: Vec3
    angular_momentum: Vec3
    internal_energy: float | None
    reduced_mass: float

    def __init__(
        self,
        total_momentum: Vec3,
        angular_momentum: Vec3,
        internal_energy: float | None,
        reduced_mass: float,
    ) -> None:
        _set_momentum(self, total_momentum)
        _set_angular(self, angular_momentum)
        _set_energy(self, internal_energy)
        _set_mu(self, reduced_mass)


_set_momentum, _set_angular, _set_energy, _set_mu = (
    Observables.__dict__[name].__set__
    for name in ("total_momentum", "angular_momentum", "internal_energy", "reduced_mass")
)


def _row(traj: Trajectory, i: int) -> tuple[int, Sequence[float]]:
    """Sample i (negative counts from the end) and its 12 floats."""
    i = range(len(traj.times))[i]
    return i, traj.rows[12 * i : 12 * i + 12]


@lru_cache(maxsize=2)
def states_of(traj: Trajectory) -> tuple[tuple[Body, Body], ...]:
    """One (a, b) snapshot per sample, built on first read and kept for
    the last two trajectories read."""
    a0, b0 = traj.bodies
    return tuple(
        (
            a0.with_state(Vec3(ax, ay, az), Vec3(avx, avy, avz)),
            b0.with_state(Vec3(bx, by, bz), Vec3(bvx, bvy, bvz)),
        )
        for ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz in traj.samples()
    )


def relative_at(traj: Trajectory, i: int) -> PairState:
    _, (ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz) = _row(traj, i)
    return PairState(Vec3(ax - bx, ay - by, az - bz), Vec3(avx - bvx, avy - bvy, avz - bvz))


def observables_at(traj: Trajectory, i: int) -> Observables:
    """Observables of sample i.

    Raises:
        DivergenceError: they overflow the floating-point range.
    """
    i, row = _row(traj, i)
    try:
        (px, py, pz), (lx, ly, lz), energy, mu = observables(traj.pair, row)
    except (OverflowError, ValueError) as exc:
        raise DivergenceError(i, traj.times[i], f"observables overflow: {exc}") from None
    return Observables(Vec3(px, py, pz), Vec3(lx, ly, lz), energy, mu)


def angular_momentum_rate(a: Body, b: Body, law: ForceLaw) -> Vec3:
    """Exact d(angular momentum)/dt (the internal torque)."""
    ps = pair_state(a, b)
    pair = bind(law, a, b)
    r = ps.x_ab.norm()
    speed = ps.v_ab.norm()
    radial = ps.x_ab.x * ps.v_ab.x + ps.x_ab.y * ps.v_ab.y + ps.x_ab.z * ps.v_ab.z
    normal = cross(ps.x_ab, ps.v_ab)
    rate = Vec3(0.0, 0.0, 0.0)
    if pair.phi_s is not None:
        rate = rate + normal * pair.phi_s(r, speed, radial)
    if pair.phi_perp is not None:
        weight = (b.mass - a.mass) / (a.mass + b.mass)
        rate = rate + cross(ps.x_ab, normal) * (weight * pair.phi_perp(r, speed, radial))
    return rate


def finite_difference(values: Sequence[Vec3], times: Sequence[float]) -> list[Vec3]:
    """Numerical time derivative of a sampled vector series: central
    differences inside, one-sided at the ends."""
    n = len(values)
    if n != len(times) or n < 2:
        raise ValueError("need two or more samples with matching times")
    out: list[Vec3] = []
    for i in range(n):
        if i == 0:
            out.append((values[1] - values[0]) / (times[1] - times[0]))
        elif i == n - 1:
            out.append((values[-1] - values[-2]) / (times[-1] - times[-2]))
        else:
            out.append((values[i + 1] - values[i - 1]) / (times[i + 1] - times[i - 1]))
    return out


def sample_row(a: Body, b: Body) -> tuple[float, ...]:
    """The 12 floats of one (a, b) sample, in the order of ``Trajectory.rows``."""
    return (*as_tuple(a.position), *as_tuple(a.velocity),
            *as_tuple(b.position), *as_tuple(b.velocity))


def kepler_pair(ma=1.0, mb=2.0, g=1.0, semi_major=1.0, ecc=0.0):
    """Two bodies on a relative gravity orbit starting at perihelion,
    center of mass at rest. Returns (body_a, body_b, period)."""
    mu = g * (ma + mb)
    r0 = semi_major * (1.0 - ecc)
    v0 = math.sqrt(mu * (2.0 / r0 - 1.0 / semi_major))
    period = 2.0 * math.pi * math.sqrt(semi_major**3 / mu)
    fa = mb / (ma + mb)
    fb = ma / (ma + mb)
    a = Body("A", ma, Vec3(fa * r0, 0.0, 0.0), Vec3(0.0, fa * v0, 0.0))
    b = Body("B", mb, Vec3(-fb * r0, 0.0, 0.0), Vec3(0.0, -fb * v0, 0.0))
    return a, b, period


def inverse_cube_circular_pair(coupling, ma=1.0, mb=2.0, radius=1.0):
    """Pair on a circular orbit of any attractive inverse-square law with
    phi_e = -coupling / r^3 (coupling > 0). Returns (a, b, period)."""
    accel = coupling * (1.0 / ma + 1.0 / mb) / radius**2
    v0 = math.sqrt(accel * radius)
    period = 2.0 * math.pi * radius / v0
    fa = mb / (ma + mb)
    fb = ma / (ma + mb)
    a = Body("A", ma, Vec3(fa * radius, 0.0, 0.0), Vec3(0.0, fa * v0, 0.0), {"charge": 1.0})
    b = Body("B", mb, Vec3(-fb * radius, 0.0, 0.0), Vec3(0.0, -fb * v0, 0.0), {"charge": -1.0})
    return a, b, period


def random_unit(rng: random.Random) -> Vec3:
    while True:
        v = Vec3(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        n = v.norm()
        if n > 1e-6:
            return v / n


def random_body(rng: random.Random, name: str, charge: float = 0.0) -> Body:
    return Body(
        name,
        rng.uniform(0.5, 3.0),
        Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
        Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
        {"charge": charge},
    )


# (props_a, props_b, separation, relative speed, x_ab . v_ab) -> coefficient
PhiFn = Callable[[Mapping[str, float], Mapping[str, float], float, float, float], float]
# (props_a, props_b, separation) -> potential energy
PotentialFn = Callable[[Mapping[str, float], Mapping[str, float], float], float]


@dataclass(frozen=True)
class UnboundLaw:
    """A force law declared as coefficient functions of the two property
    views and all three invariants, called at every evaluation; ``None``
    means identically zero. The earlier form of ``ForceLaw``.

    ``radial_only`` asserts that phi_e reads only the property views and
    the separation; with no phi_s and no phi_perp that makes the law
    central, with a potential (declared, or by quadrature).
    """

    name: str
    phi_e: PhiFn | None = None
    phi_s: PhiFn | None = None
    phi_perp: PhiFn | None = None
    potential: PotentialFn | None = None
    singular: bool = False
    min_separation: float = 1e-9
    radial_only: bool = True

    @property
    def central(self) -> bool:
        return self.phi_s is None and self.phi_perp is None and self.radial_only


# The presets' coefficient functions, as ``invarlab.forces`` declared them
# beside the pair forms; keyed and parametrized as ``PRESETS``.


def unbound_free() -> UnboundLaw:
    return UnboundLaw("free")


def unbound_gravity(g: float = 1.0) -> UnboundLaw:
    return UnboundLaw(
        "gravity",
        phi_e=lambda qa, qb, r, speed, radial: -g * qa["mass"] * qb["mass"] / (r * r * r),
        potential=lambda qa, qb, r: -g * qa["mass"] * qb["mass"] / r,
        singular=True,
    )


def unbound_coulomb(k: float = 1.0) -> UnboundLaw:
    return UnboundLaw(
        "coulomb",
        phi_e=lambda qa, qb, r, speed, radial: k * qa["charge"] * qb["charge"] / (r * r * r),
        potential=lambda qa, qb, r: k * qa["charge"] * qb["charge"] / r,
        singular=True,
    )


def unbound_spring(kappa: float = 1.0) -> UnboundLaw:
    return UnboundLaw(
        "spring",
        phi_e=lambda qa, qb, r, speed, radial: -kappa,
        potential=lambda qa, qb, r: 0.5 * kappa * r * r,
    )


def unbound_linear_drag(gamma: float = 1.0) -> UnboundLaw:
    return UnboundLaw("linear-drag", phi_s=lambda qa, qb, r, speed, radial: -gamma)


def unbound_perp_demo(strength: float = 1.0) -> UnboundLaw:
    return UnboundLaw("perp-demo", phi_perp=lambda qa, qb, r, speed, radial: strength)


def unbound_charge_squared(k: float = 1.0, potential: bool = True) -> UnboundLaw:
    """With ``potential=False``, the law as declared before it registered
    k q_a^2 q_b / r: its potential comes by quadrature."""

    def phi_e(qa, qb, r, speed, radial):
        q = qa["charge"]
        return k * q * q * qb["charge"] / (r * r * r)

    def closed_form(qa, qb, r):
        q = qa["charge"]
        return k * q * q * qb["charge"] / r

    return UnboundLaw("charge-squared", phi_e=phi_e, potential=closed_form if potential else None,
                      singular=True)


UNBOUND_PRESETS = {
    "free": unbound_free,
    "gravity": unbound_gravity,
    "coulomb": unbound_coulomb,
    "spring": unbound_spring,
    "linear-drag": unbound_linear_drag,
    "perp-demo": unbound_perp_demo,
    "charge-squared": unbound_charge_squared,
}


def _unbound_sum(fns):
    """The sum of ``fns`` at the same arguments, left to right from 0.0."""

    def summed(*args):
        total = 0.0
        for fn in fns:
            total += fn(*args)
        return total

    return summed


def unbound_merge(laws: Sequence[UnboundLaw]) -> UnboundLaw:
    """The earlier ``merge_laws`` on coefficient functions: channel-wise
    sums from 0.0, a lone channel unsummed, and the potentials of the laws
    with a radial channel summed if each has one."""
    if len(laws) == 1:
        return laws[0]

    def channel(fns):
        fns = [fn for fn in fns if fn is not None]
        if not fns:
            return None
        return fns[0] if len(fns) == 1 else _unbound_sum(fns)

    pots = [law.potential for law in laws if law.phi_e is not None]
    singular = [law for law in laws if law.singular]
    return UnboundLaw(
        "+".join(law.name for law in laws),
        phi_e=channel([law.phi_e for law in laws]),
        phi_s=channel([law.phi_s for law in laws]),
        phi_perp=channel([law.phi_perp for law in laws]),
        potential=_unbound_sum(pots) if pots and None not in pots else None,
        singular=bool(singular),
        min_separation=max((law.min_separation for law in singular), default=1e-9),
        radial_only=all(law.radial_only for law in laws),
    )


def unbound_soften(law: UnboundLaw, epsilon: float) -> UnboundLaw:
    """The earlier ``soften``: every coefficient function and the potential
    see sqrt(r^2 + epsilon^2) instead of r."""
    eps2 = epsilon * epsilon

    def wrap(fn):
        if fn is None:
            return None
        return lambda qa, qb, r, *rest: fn(qa, qb, math.sqrt(r * r + eps2), *rest)

    return UnboundLaw(
        f"{law.name}(eps={epsilon:g})",
        phi_e=wrap(law.phi_e),
        phi_s=wrap(law.phi_s),
        phi_perp=wrap(law.phi_perp),
        potential=wrap(law.potential),
        radial_only=law.radial_only,
    )


def unbound_raw_force_pair(law, qa, qb, rx, ry, rz, wx, wy, wz):
    """Earlier ``raw_force_pair``: the law's PhiFns called with the property
    views ``qa``, ``qb`` and all three invariants at every evaluation. The
    oracle the pair-bound kernel must equal bit for bit."""
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


def unbound_potential(law, qa, qb, r):
    """Earlier potential V(r) of a central law from its declared form: the
    registered closed form, else quadrature of V'(rho) = -phi_e(rho) rho
    from rho = 1."""
    if law.potential is not None:
        return law.potential(qa, qb, r)
    if law.phi_e is None:
        return 0.0

    def integrand(rho: float) -> float:
        return -law.phi_e(qa, qb, rho, 0.0, 0.0) * rho

    return _adaptive_simpson(integrand, 1.0, r, 1e-12)
