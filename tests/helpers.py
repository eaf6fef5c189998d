"""Shared builders for the test suite."""

from __future__ import annotations

import math
import random

from invarlab import Body, SingularityError, Vec3
from invarlab.forces import _adaptive_simpson


def sample_row(a: Body, b: Body) -> tuple[float, ...]:
    """The 12 floats of one (a, b) sample, in the order of ``Trajectory.rows``."""
    return (*a.position.as_tuple(), *a.velocity.as_tuple(),
            *b.position.as_tuple(), *b.velocity.as_tuple())


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
