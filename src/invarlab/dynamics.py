"""Two-body motion under a pairwise law, and the quantities conserved
along it.

The coupled equations of motion are

    m_a x_a'' = f(pair state)      m_b x_b'' = k(pair state)

integrated with fixed-step classic Runge-Kutta (general laws) or velocity
Verlet (central laws only, where its bounded energy oscillation makes the
conservation audits sharper). Observables along a trajectory:

    total momentum    P = m_a v_a + m_b v_b
    angular momentum  L = x_ab x (mu v_ab),  mu = m_a m_b / (m_a + m_b)
    internal energy   E = mu |v_ab|^2 / 2 + V(|x_ab|)   (central laws)

with the potential V taken from the law's registered closed form or
recovered by quadrature of the radial coefficient, V'(r) = -phi_e(r) r.
Every kernel here evaluates the law through its pair-bound form
(``forces.bind``), made once per trajectory. Exact statements the audits
lean on:

    dP/dt = f + k = 2 (x_ab x v_ab) phi_perp
    dL/dt = (x_ab x v_ab) phi_s
            + (m_b - m_a)/(m_a + m_b) x_ab x (x_ab x v_ab) phi_perp

``_rate_mismatch`` holds a trajectory's finite-difference rates of P and L
to them.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from typing import Callable, IO, Iterator, Sequence

from .core import Body, PairState, Vec3, cross, pair_state
from .forces import ForceLaw, PairLaw, _adaptive_simpson, bind, raw_force_pair

__all__ = [
    "DivergenceError",
    "Trajectory",
    "Observables",
    "CSV_HEADER",
    "integrate",
    "observables",
    "path_time",
    "momentum_rate",
    "angular_momentum_rate",
    "finite_difference",
]

CSV_HEADER = (
    "t,ax,ay,az,avx,avy,avz,bx,by,bz,bvx,bvy,bvz,Px,Py,Pz,Lx,Ly,Lz,E"
)

_PACK_SAMPLE = struct.Struct("12d").pack
# The conserved cells of one sample: P, L and E, or P and L alone when the
# law is not central and E is undefined.
_PACK_CONSERVED = {True: struct.Struct("7d").pack, False: struct.Struct("6d").pack}
# A trajectory.csv row: t and the 12 state floats, the P and L cells as
# text, then E (a blank cell when undefined).
_CSV_ROW = {
    True: ",".join(["%r"] * 13 + ["%s"] * 6 + ["%r"]) + "\n",
    False: ",".join(["%r"] * 13 + ["%s"] * 6) + ",\n",
}

Triple = tuple[float, float, float]
# What ``observables`` returns: (P, L, E or None, mu).
RawObservables = tuple[Triple, Triple, float | None, float]


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


# Bound of ``_ReprMemo``: spring-verlet's P and L columns hold a few
# hundred values each; an rk4 run's L columns are all distinct.
_REPR_MEMO_SIZE = 2048


class _ReprMemo(dict):
    """``repr`` of floats, remembered: at most ``_REPR_MEMO_SIZE`` of them,
    all forgotten when full. Zeros are not remembered: 0.0 and -0.0 are
    equal keys that print differently."""

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if x:
            if len(self) == _REPR_MEMO_SIZE:
                self.clear()
            self[x] = text
        return text


class DivergenceError(ArithmeticError):
    """The integrated state left the floating-point range: a sample is not
    finite, or its observables overflow. Names the first bad sample."""

    def __init__(self, index: int, time: float, reason: str) -> None:
        super().__init__(f"trajectory diverged at sample {index} (t = {time!r}): {reason}")
        self.index = index
        self.time = time


class Trajectory:
    """Time-ordered samples of the pair, step metadata attached.

    Samples are stored as raw floats: ``rows`` holds 12 per sample, flat,
    in the order position of a, velocity of a, position of b, velocity of
    b (x, y, z each), and every one is checked finite at construction.
    ``integrate`` stores them, and the times, in ``array('d')``s; any float
    sequences are accepted. ``bodies`` give the snapshots their id, mass and
    properties; ``pair`` is ``law`` bound to them, which the read-back
    kernels evaluate. Read-back works on the rows: ``samples()``,
    ``observed()``, ``relative(i)``.
    ``snapshots()`` builds one transient ``(Body, Body)`` per sample (the
    rate audits' error path); ``states`` keeps them all, built on first read.

    Raises:
        ValueError: ``rows`` does not hold 12 floats per time, or the
            times are not strictly increasing.
        DivergenceError: a row holds a non-finite value.
    """

    __slots__ = ("times", "rows", "bodies", "law", "pair", "method", "step", "_states")

    def __init__(
        self,
        times: Sequence[float],
        rows: Sequence[float],
        bodies: tuple[Body, Body],
        law: ForceLaw,
        method: str,
        step: float,
    ) -> None:
        if len(rows) != 12 * len(times):
            raise ValueError("rows must hold 12 floats per time")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if not all(map(math.isfinite, rows)):
            index = next(i for i, x in enumerate(rows) if not math.isfinite(x)) // 12
            raise DivergenceError(index, times[index], "non-finite state")
        self.times = times
        self.rows = rows
        self.bodies = bodies
        self.law = law
        self.pair: PairLaw = bind(law, *bodies)
        self.method = method
        self.step = step
        self._states: tuple[tuple[Body, Body], ...] | None = None

    def __len__(self) -> int:
        return len(self.times)

    def samples(self) -> Iterator[tuple[float, ...]]:
        """The rows as 12-tuples, in time order."""
        it = iter(self.rows)
        return zip(*[it] * 12)

    def _row(self, i: int) -> tuple[int, Sequence[float]]:
        """Sample i (negative counts from the end) and its 12 floats."""
        i = range(len(self.times))[i]
        return i, self.rows[12 * i : 12 * i + 12]

    def snapshots(self) -> Iterator[tuple[Body, Body]]:
        """One (a, b) snapshot per sample, built as it is read."""
        a0, b0 = self.bodies
        for ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz in self.samples():
            yield (
                a0.with_state(Vec3(ax, ay, az), Vec3(avx, avy, avz)),
                b0.with_state(Vec3(bx, by, bz), Vec3(bvx, bvy, bvz)),
            )

    @property
    def states(self) -> tuple[tuple[Body, Body], ...]:
        """Every snapshot, built on first read and kept."""
        if self._states is None:
            self._states = tuple(self.snapshots())
        return self._states

    def relative(self, i: int) -> PairState:
        _, (ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz) = self._row(i)
        return PairState(Vec3(ax - bx, ay - by, az - bz), Vec3(avx - bvx, avy - bvy, avz - bvz))

    def observed(self) -> Iterator[RawObservables]:
        """``observables`` of each sample as plain floats, computed as they
        are read, in time order.

        Raises:
            DivergenceError: at the first sample whose observables overflow.
        """
        pair = self.pair
        i = 0
        try:
            for i, row in enumerate(self.samples()):
                yield observables(pair, row)
        except (OverflowError, ValueError) as exc:
            raise DivergenceError(i, self.times[i], f"observables overflow: {exc}") from None

    def observables(self, i: int) -> Observables:
        """Observables of sample i.

        Raises:
            DivergenceError: they overflow the floating-point range.
        """
        i, row = self._row(i)
        try:
            (px, py, pz), (lx, ly, lz), energy, mu = observables(self.pair, row)
        except (OverflowError, ValueError) as exc:
            raise DivergenceError(i, self.times[i], f"observables overflow: {exc}") from None
        return Observables(Vec3(px, py, pz), Vec3(lx, ly, lz), energy, mu)

    def conserved(self) -> array:
        """The numeric phase of ``write_csv``: P, L and E of every sample,
        flat in one ``array('d')``, 7 floats per sample (Px, Py, Pz, Lx,
        Ly, Lz, E), or 6 when the law is not central and E is undefined.
        One ``observed()`` pass.

        Raises:
            DivergenceError: at the first sample whose observables overflow.
        """
        central = self.law.central
        cells = array("d")
        append, pack = cells.frombytes, _PACK_CONSERVED[central]
        for (px, py, pz), (lx, ly, lz), energy, _ in self.observed():
            append(pack(px, py, pz, lx, ly, lz, energy) if central else pack(px, py, pz, lx, ly, lz))
        return cells

    def write_csv_text(self, stream: IO[str], cells: Sequence[float]) -> None:
        """The text phase of ``write_csv``: one row per sample from the
        times, the rows and ``cells`` (what ``conserved`` returns).

        Every cell is ``repr`` of its float. A central pair law conserves P
        and L, so their six columns repeat a few values: those cells go
        through a bounded ``_ReprMemo``.
        """
        central = self.law.central
        write, template = stream.write, _CSV_ROW[central]
        write(CSV_HEADER + "\n")
        memo = _ReprMemo().__getitem__
        it = iter(cells)
        for t, row, c in zip(self.times, self.samples(), zip(*[it] * (7 if central else 6))):
            write(template % (t, *row, *map(memo, c[:6]), *c[6:]))

    def write_csv(self, stream: IO[str]) -> None:
        """One row per sample; the energy column is blank when undefined.
        Runs the numeric phase, then the text phase, in this process.

        Raises:
            DivergenceError: a sample's observables overflow; nothing is
                written.
        """
        self.write_csv_text(stream, self.conserved())


def integrate(
    a0: Body,
    b0: Body,
    law: ForceLaw,
    t_end: float,
    step: float,
    method: str = "rk4",
) -> Trajectory:
    """Fixed-step trajectory from t = 0 to (approximately) t_end.

    The number of steps is round(t_end / step); the final sample sits at
    n * step, so pick t_end as a multiple of step for exact coverage.

    Raises:
        ValueError: nonpositive step or t_end, unknown method, or verlet
            requested for a law that is not central.
        SingularityError: the pair entered a singular law's exclusion
            radius (including at t = 0).
        DivergenceError: the state stopped being finite.
    """
    if step <= 0.0 or t_end <= 0.0:
        raise ValueError("step and t_end must be positive")
    if method not in ("rk4", "verlet"):
        raise ValueError(f"unknown integration method {method!r}")
    if method == "verlet" and not law.central:
        raise ValueError(
            f"velocity Verlet needs a velocity-independent (central) law; {law.name!r} is not"
        )
    n_steps = max(1, round(t_end / step))
    # Properties are fixed along a trajectory, so the law is bound once.
    pair = bind(law, a0, b0)
    inv_ma, inv_mb = 1.0 / a0.mass, 1.0 / b0.mass
    force = raw_force_pair
    h = step

    ax, ay, az = a0.position.x, a0.position.y, a0.position.z
    avx, avy, avz = a0.velocity.x, a0.velocity.y, a0.velocity.z
    bx, by, bz = b0.position.x, b0.position.y, b0.position.z
    bvx, bvy, bvz = b0.velocity.x, b0.velocity.y, b0.velocity.z
    rows = array("d", (ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz))
    # One packed sample appended as bytes: array.extend would convert a
    # tuple item by item.
    append, pack = rows.frombytes, _PACK_SAMPLE

    if method == "rk4":
        # Classic rk4 on the 12-component state, one scalar local per
        # component. Stage k of the state is s + (c h) k_(k-1) and the
        # update is s + (h/6) (((k1 + 2 k2) + 2 k3) + k4): the operation
        # order is part of the output format (byte-identical CSVs).
        hh = 0.5 * h
        h6 = h / 6.0
        for _ in range(n_steps):
            f1x, f1y, f1z, k1x, k1y, k1z = force(
                pair, ax - bx, ay - by, az - bz, avx - bvx, avy - bvy, avz - bvz
            )
            a1x, a1y, a1z = f1x * inv_ma, f1y * inv_ma, f1z * inv_ma
            b1x, b1y, b1z = k1x * inv_mb, k1y * inv_mb, k1z * inv_mb

            av2x, av2y, av2z = avx + hh * a1x, avy + hh * a1y, avz + hh * a1z
            bv2x, bv2y, bv2z = bvx + hh * b1x, bvy + hh * b1y, bvz + hh * b1z
            f2x, f2y, f2z, k2x, k2y, k2z = force(
                pair,
                (ax + hh * avx) - (bx + hh * bvx),
                (ay + hh * avy) - (by + hh * bvy),
                (az + hh * avz) - (bz + hh * bvz),
                av2x - bv2x, av2y - bv2y, av2z - bv2z,
            )
            a2x, a2y, a2z = f2x * inv_ma, f2y * inv_ma, f2z * inv_ma
            b2x, b2y, b2z = k2x * inv_mb, k2y * inv_mb, k2z * inv_mb

            av3x, av3y, av3z = avx + hh * a2x, avy + hh * a2y, avz + hh * a2z
            bv3x, bv3y, bv3z = bvx + hh * b2x, bvy + hh * b2y, bvz + hh * b2z
            f3x, f3y, f3z, k3x, k3y, k3z = force(
                pair,
                (ax + hh * av2x) - (bx + hh * bv2x),
                (ay + hh * av2y) - (by + hh * bv2y),
                (az + hh * av2z) - (bz + hh * bv2z),
                av3x - bv3x, av3y - bv3y, av3z - bv3z,
            )
            a3x, a3y, a3z = f3x * inv_ma, f3y * inv_ma, f3z * inv_ma
            b3x, b3y, b3z = k3x * inv_mb, k3y * inv_mb, k3z * inv_mb

            av4x, av4y, av4z = avx + h * a3x, avy + h * a3y, avz + h * a3z
            bv4x, bv4y, bv4z = bvx + h * b3x, bvy + h * b3y, bvz + h * b3z
            f4x, f4y, f4z, k4x, k4y, k4z = force(
                pair,
                (ax + h * av3x) - (bx + h * bv3x),
                (ay + h * av3y) - (by + h * bv3y),
                (az + h * av3z) - (bz + h * bv3z),
                av4x - bv4x, av4y - bv4y, av4z - bv4z,
            )
            a4x, a4y, a4z = f4x * inv_ma, f4y * inv_ma, f4z * inv_ma
            b4x, b4y, b4z = k4x * inv_mb, k4y * inv_mb, k4z * inv_mb

            ax += h6 * (avx + 2.0 * av2x + 2.0 * av3x + av4x)
            ay += h6 * (avy + 2.0 * av2y + 2.0 * av3y + av4y)
            az += h6 * (avz + 2.0 * av2z + 2.0 * av3z + av4z)
            avx += h6 * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
            avy += h6 * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)
            avz += h6 * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)
            bx += h6 * (bvx + 2.0 * bv2x + 2.0 * bv3x + bv4x)
            by += h6 * (bvy + 2.0 * bv2y + 2.0 * bv3y + bv4y)
            bz += h6 * (bvz + 2.0 * bv2z + 2.0 * bv3z + bv4z)
            bvx += h6 * (b1x + 2.0 * b2x + 2.0 * b3x + b4x)
            bvy += h6 * (b1y + 2.0 * b2y + 2.0 * b3y + b4y)
            bvz += h6 * (b1z + 2.0 * b2z + 2.0 * b3z + b4z)
            append(pack(ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz))
    else:
        fx, fy, fz, kx, ky, kz = force(
            pair, ax - bx, ay - by, az - bz, avx - bvx, avy - bvy, avz - bvz
        )
        acc = (fx * inv_ma, fy * inv_ma, fz * inv_ma, kx * inv_mb, ky * inv_mb, kz * inv_mb)
        half_h2 = 0.5 * h * h
        for _ in range(n_steps):
            ax = ax + h * avx + half_h2 * acc[0]
            ay = ay + h * avy + half_h2 * acc[1]
            az = az + h * avz + half_h2 * acc[2]
            bx = bx + h * bvx + half_h2 * acc[3]
            by = by + h * bvy + half_h2 * acc[4]
            bz = bz + h * bvz + half_h2 * acc[5]
            # Central law: velocities passed here are ignored by the force.
            fx, fy, fz, kx, ky, kz = force(
                pair, ax - bx, ay - by, az - bz, avx - bvx, avy - bvy, avz - bvz
            )
            acc_new = (fx * inv_ma, fy * inv_ma, fz * inv_ma, kx * inv_mb, ky * inv_mb, kz * inv_mb)
            avx = avx + 0.5 * h * (acc[0] + acc_new[0])
            avy = avy + 0.5 * h * (acc[1] + acc_new[1])
            avz = avz + 0.5 * h * (acc[2] + acc_new[2])
            bvx = bvx + 0.5 * h * (acc[3] + acc_new[3])
            bvy = bvy + 0.5 * h * (acc[4] + acc_new[4])
            bvz = bvz + 0.5 * h * (acc[5] + acc_new[5])
            acc = acc_new
            append(pack(ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz))

    times = array("d", (i * step for i in range(n_steps + 1)))
    return Trajectory(times, rows, (a0, b0), law, method, step)


def observables(pair: PairLaw, row: Sequence[float]) -> RawObservables:
    """P, L, E and mu of one sample (12 floats, ordered as ``Trajectory.rows``)
    as plain floats: ``((Px, Py, Pz), (Lx, Ly, Lz), E, mu)``, E None when
    the law bound in ``pair`` is not central.

    Raises:
        ValueError: a component of P, else of L, is not finite (the
            message ``Vec3`` gives).
        OverflowError: the kinetic energy overflows.
    """
    ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz = row
    ma, mb, mu = pair.ma, pair.mb, pair.mu
    px, py, pz = avx * ma + bvx * mb, avy * ma + bvy * mb, avz * ma + bvz * mb
    rx, ry, rz = ax - bx, ay - by, az - bz
    ux, uy, uz = avx - bvx, avy - bvy, avz - bvz
    wx, wy, wz = ux * mu, uy * mu, uz * mu
    lx, ly, lz = ry * wz - rz * wy, rz * wx - rx * wz, rx * wy - ry * wx
    # One test in the common case: a sum that is not finite names P, else L.
    if not math.isfinite(px + py + pz + lx + ly + lz):
        _check_finite((px, py, pz))
        _check_finite((lx, ly, lz))
    energy: float | None = None
    potential = pair.potential
    if potential is not None:
        r = math.sqrt(rx * rx + ry * ry + rz * rz)
        energy = 0.5 * mu * (ux**2 + uy**2 + uz**2) + potential(r)
    return (px, py, pz), (lx, ly, lz), energy, mu


def _check_finite(v: tuple[float, float, float]) -> None:
    x, y, z = v
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"non-finite vector component in ({x}, {y}, {z})")


def momentum_rate(a: Body, b: Body, law: ForceLaw) -> Vec3:
    """Exact d(total momentum)/dt: only the normal channel contributes."""
    if law.phi_perp is None:
        return Vec3(0.0, 0.0, 0.0)
    ps = pair_state(a, b)
    r = ps.x_ab.norm()
    speed = ps.v_ab.norm()
    radial = ps.x_ab.x * ps.v_ab.x + ps.x_ab.y * ps.v_ab.y + ps.x_ab.z * ps.v_ab.z
    c = bind(law, a, b).phi_perp(r, speed, radial)
    return cross(ps.x_ab, ps.v_ab) * (2.0 * c)


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


# Row-level float kernels of the rate audits: P and dP/dt, L and dL/dt of
# one sample (ordered as ``Trajectory.rows``), in the operation order of
# the Vec3 formulas (``momentum_rate``, ``angular_momentum_rate``). Where
# those would raise, a kernel's result is not finite (inf and nan survive
# each product and sum here), or it raises ValueError before a law call.


def _momentum_and_rate(pair: PairLaw, row: Sequence[float]) -> tuple[Triple, Triple]:
    ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz = row
    ma, mb = pair.ma, pair.mb
    momentum = (avx * ma + bvx * mb, avy * ma + bvy * mb, avz * ma + bvz * mb)
    phi_perp = pair.phi_perp
    if phi_perp is None:
        return momentum, (0.0, 0.0, 0.0)
    rx, ry, rz, ux, uy, uz = ax - bx, ay - by, az - bz, avx - bvx, avy - bvy, avz - bvz
    if not math.isfinite(rx + ry + rz + ux + uy + uz):
        raise ValueError("non-finite pair state")
    r, speed = math.sqrt(rx * rx + ry * ry + rz * rz), math.sqrt(ux * ux + uy * uy + uz * uz)
    k = 2.0 * phi_perp(r, speed, rx * ux + ry * uy + rz * uz)
    return momentum, ((ry * uz - rz * uy) * k, (rz * ux - rx * uz) * k, (rx * uy - ry * ux) * k)


def _angular_momentum_and_rate(
    pair: PairLaw, row: Sequence[float]
) -> tuple[Triple, Triple]:
    ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz = row
    ma, mb, mu = pair.ma, pair.mb, pair.mu
    rx, ry, rz, ux, uy, uz = ax - bx, ay - by, az - bz, avx - bvx, avy - bvy, avz - bvz
    wx, wy, wz = ux * mu, uy * mu, uz * mu
    angular = (ry * wz - rz * wy, rz * wx - rx * wz, rx * wy - ry * wx)
    nx, ny, nz = ry * uz - rz * uy, rz * ux - rx * uz, rx * uy - ry * ux
    # The Vec3 formula checks x_ab, v_ab and the normal even if no channel reads them.
    if not math.isfinite(rx + ry + rz + ux + uy + uz + nx + ny + nz):
        raise ValueError("non-finite pair state or normal")
    r, speed = math.sqrt(rx * rx + ry * ry + rz * rz), math.sqrt(ux * ux + uy * uy + uz * uz)
    radial = rx * ux + ry * uy + rz * uz
    tx = ty = tz = 0.0
    if pair.phi_s is not None:
        s = pair.phi_s(r, speed, radial)
        tx, ty, tz = tx + nx * s, ty + ny * s, tz + nz * s
    if pair.phi_perp is not None:
        k = (mb - ma) / (ma + mb) * pair.phi_perp(r, speed, radial)
        tx += (ry * nz - rz * ny) * k
        ty += (rz * nx - rx * nz) * k
        tz += (rx * ny - ry * nx) * k
    return angular, (tx, ty, tz)


def _rate_mismatch(traj: Trajectory, rows, series, predict) -> float:
    """Largest |central-difference rate of the series - prediction| over
    the interior samples, in one pass over the rows: ``rows`` gives a
    sample's series value and prediction as floats. At the first value
    that is not finite, or a kernel error, the pass hands the trajectory
    to ``_snapshot_rate_mismatch``, the same work in Vec3s (``series``,
    ``predict``), which names the failing sample. A finite run builds no
    ``Body``.

    Raises:
        DivergenceError: the rows are finite, but the series, its rate or
            the mismatch leaves the floating-point range at some sample.
    """
    times, pair = traj.times, traj.pair
    worst = 0.0
    # Series values of samples i - 2 and i - 1, and the prediction of i - 1.
    before = middle = predicted = None
    try:
        for i, row in enumerate(traj.samples()):
            value, prediction = rows(pair, row)
            x, y, z = value
            if not math.isfinite(x + y + z):
                break
            if i >= 2:
                (bx, by, bz), (px, py, pz), dt = before, predicted, times[i] - times[i - 2]
                dx, dy, dz = (x - bx) / dt - px, (y - by) / dt - py, (z - bz) / dt - pz
                mismatch = math.sqrt(dx * dx + dy * dy + dz * dz)
                if not math.isfinite(mismatch):
                    break
                worst = max(worst, mismatch)
            before, middle, predicted = middle, value, prediction
        else:
            return worst
    except (ArithmeticError, ValueError):
        pass
    return _snapshot_rate_mismatch(traj, series, predict)


def _snapshot_rate_mismatch(traj: Trajectory, series, predict) -> float:
    """``_rate_mismatch`` in Vec3s over transient snapshots, its error path.

    A sample whose series value overflows is named before any sample whose
    rate does, wherever it lies: a failed rate stops the rates, and the
    series runs on to the last sample.
    """
    times, law = traj.times, traj.law
    worst = 0.0
    failed: tuple[int, Exception] | None = None
    # Series values of samples i - 2 and i - 1, and the snapshot of i - 1.
    before = middle = middle_state = None
    i = 0
    try:
        for i, state in enumerate(traj.snapshots()):
            value = series(*state)
            if i >= 2 and failed is None:
                try:
                    rate = (value - before) / (times[i] - times[i - 2])
                    mismatch = (rate - predict(*middle_state, law)).norm()
                    if mismatch == math.inf:
                        raise OverflowError("|rate - prediction| is infinite")
                    worst = max(worst, mismatch)
                except (OverflowError, ValueError) as exc:
                    failed = (i - 1, exc)
            before, middle, middle_state = middle, value, state
    except (OverflowError, ValueError) as exc:
        raise DivergenceError(i, times[i], f"rate overflow: {exc}") from None
    if failed is not None:
        i, exc = failed
        raise DivergenceError(i, times[i], f"rate overflow: {exc}")
    return worst


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


def path_time(points: Sequence[Vec3], speed: Callable[[float], float]) -> float:
    """Elapsed time along a polyline traversed at a given speed profile.

    ``speed`` maps arc length to a strictly positive speed; the result is
    the quadrature of ds / speed(s) along the path. Change of position is
    the clock here: a degenerate (zero-length) path takes no time.

    Raises:
        ValueError: fewer than two points, or a nonpositive speed sample.
    """
    if len(points) < 2:
        raise ValueError("a path needs at least two points")

    def pace(s: float) -> float:
        v = speed(s)
        if v <= 0.0:
            raise ValueError(f"speed must be positive along the path; got {v} at s={s}")
        return 1.0 / v

    total = 0.0
    s0 = 0.0
    for p, q in zip(points, points[1:]):
        seg = (q - p).norm()
        if seg == 0.0:
            continue
        total += _adaptive_simpson(pace, s0, s0 + seg, 1e-12)
        s0 += seg
    return total
