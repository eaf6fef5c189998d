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

with the potential V that the law registers in closed form,
V'(r) = -phi_e(r) r. Every kernel here evaluates the law through its
pair-bound form (``forces.bind``), made once per trajectory; whether the
law is central is read from it. Exact statements the audits lean on:

    dP/dt = f + k = 2 (x_ab x v_ab) phi_perp
    dL/dt = (x_ab x v_ab) phi_s
            + (m_b - m_a)/(m_a + m_b) x_ab x (x_ab x v_ab) phi_perp

``_rate_mismatch`` holds a trajectory's finite-difference rates of P and L
to them, in one pass of float kernels over the rows. A failure names its
sample and the quantity that failed: a series value that is not finite,
at its own sample; else the first interior sample whose exact rate raises
or whose mismatch is not finite. A trajectory is read back from its rows
only; no (Body, Body) snapshot is built.
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import Callable, IO, Iterator, Sequence

from .core import Body, Vec3, cross, pair_state
from .forces import ForceLaw, PairLaw, bind, raw_force_pair

__all__ = [
    "DivergenceError",
    "Trajectory",
    "CSV_HEADER",
    "integrate",
    "observables",
    "momentum_rate",
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
    """Time-ordered samples of the pair under one law and method.

    Samples are stored as raw floats: ``rows`` holds 12 per sample, flat,
    in the order position of a, velocity of a, position of b, velocity of
    b (x, y, z each), and every one is checked finite at construction.
    ``integrate`` stores them, and the times, in ``array('d')``s; any float
    sequences are accepted. ``bodies`` are the initial states, whose masses
    and properties hold along the motion; ``pair`` is ``law`` bound to them,
    which the read-back kernels evaluate. Read-back works on the rows:
    ``samples()``, ``observed()``, and ``conserved()``, which keeps what it
    computes for ``write_csv``.

    Raises:
        ValueError: ``rows`` does not hold 12 floats per time, the times
            are not finite and strictly increasing, or ``bind`` refuses
            the law.
        DivergenceError: a row holds a non-finite value.
    """

    __slots__ = ("times", "rows", "bodies", "law", "pair", "method", "_conserved")

    def __init__(
        self,
        times: Sequence[float],
        rows: Sequence[float],
        bodies: tuple[Body, Body],
        law: ForceLaw,
        method: str,
    ) -> None:
        if len(rows) != 12 * len(times):
            raise ValueError("rows must hold 12 floats per time")
        # Strictly increasing times between finite ends are all finite.
        if any(not t1 < t2 for t1, t2 in zip(times, times[1:])) or not all(
            map(math.isfinite, times[:1] + times[-1:])
        ):
            raise ValueError("times must be finite and strictly increasing")
        if not all(map(math.isfinite, rows)):
            index = next(i for i, x in enumerate(rows) if not math.isfinite(x)) // 12
            raise DivergenceError(index, times[index], "non-finite state")
        self.times = times
        self.rows = rows
        self.bodies = bodies
        self.law = law
        self.pair: PairLaw = bind(law, *bodies)
        self.method = method
        self._conserved: array | None = None

    def __len__(self) -> int:
        return len(self.times)

    def samples(self) -> Iterator[tuple[float, ...]]:
        """The rows as 12-tuples, in time order."""
        it = iter(self.rows)
        return zip(*[it] * 12)

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

    def conserved(self) -> array:
        """P, L and E of every sample, flat in one ``array('d')``, 7 floats
        per sample (Px, Py, Pz, Lx, Ly, Lz, E), or 6 when the law is not
        central and E is undefined. One ``observed()`` pass on the first
        call; the array is kept, and later calls return it.

        Raises:
            DivergenceError: at the first sample whose observables overflow.
        """
        if self._conserved is None:
            central = self.pair.central
            cells = array("d")
            append, pack = cells.frombytes, _PACK_CONSERVED[central]
            for (px, py, pz), (lx, ly, lz), energy, _ in self.observed():
                append(pack(px, py, pz, lx, ly, lz, energy) if central else pack(px, py, pz, lx, ly, lz))
            self._conserved = cells
        return self._conserved

    def write_csv(self, stream: IO[str]) -> None:
        """One row per sample from the times, the rows and ``conserved()``;
        the energy column is blank when undefined.

        Every cell is ``repr`` of its float. A central pair law conserves P
        and L, so their six columns repeat a few values: those cells go
        through a bounded ``_ReprMemo``.

        Raises:
            DivergenceError: a sample's observables overflow; nothing is
                written.
        """
        cells = self.conserved()
        central = self.pair.central
        write, template = stream.write, _CSV_ROW[central]
        write(CSV_HEADER + "\n")
        memo = _ReprMemo().__getitem__
        it = iter(cells)
        for t, row, c in zip(self.times, self.samples(), zip(*[it] * (7 if central else 6))):
            write(template % (t, *row, *map(memo, c[:6]), *c[6:]))


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
        ValueError: nonpositive step or t_end, unknown method, a law that
            ``bind`` refuses, or verlet requested for a law that is not
            central.
        SingularityError: the pair entered the law's exclusion
            radius (including at t = 0).
        DivergenceError: the state stopped being finite.
    """
    if step <= 0.0 or t_end <= 0.0:
        raise ValueError("step and t_end must be positive")
    if method not in ("rk4", "verlet"):
        raise ValueError(f"unknown integration method {method!r}")
    # Properties are fixed along a trajectory, so the law is bound once.
    pair = bind(law, a0, b0)
    if method == "verlet" and not pair.central:
        raise ValueError(
            f"velocity Verlet needs a velocity-independent (central) law; {law.name!r} is not"
        )
    n_steps = max(1, round(t_end / step))
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
    return Trajectory(times, rows, (a0, b0), law, method)


def observables(pair: PairLaw, row: Sequence[float]) -> RawObservables:
    """P, L, E and mu of one sample (12 floats, ordered as ``Trajectory.rows``)
    as plain floats: ``((Px, Py, Pz), (Lx, Ly, Lz), E, mu)``, E None when
    the law bound in ``pair`` is not central.

    Raises:
        NonFiniteError: a component of P, else of L, is not finite (the
            error ``Vec3`` gives).
        OverflowError: the kinetic energy overflows.
    """
    ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz = row
    ma, mb, mu = pair.ma, pair.mb, pair.mu
    px, py, pz = avx * ma + bvx * mb, avy * ma + bvy * mb, avz * ma + bvz * mb
    rx, ry, rz = ax - bx, ay - by, az - bz
    ux, uy, uz = avx - bvx, avy - bvy, avz - bvz
    wx, wy, wz = ux * mu, uy * mu, uz * mu
    lx, ly, lz = ry * wz - rz * wy, rz * wx - rx * wz, rx * wy - ry * wx
    # One test in the common case: a sum that is not finite names P, else
    # L, in the NonFiniteError of the first ``Vec3`` that cannot be built.
    if not math.isfinite(px + py + pz + lx + ly + lz):
        Vec3(px, py, pz), Vec3(lx, ly, lz)
    energy: float | None = None
    potential = pair.potential
    if potential is not None:
        r = math.sqrt(rx * rx + ry * ry + rz * rz)
        energy = 0.5 * mu * (ux**2 + uy**2 + uz**2) + potential(r)
    return (px, py, pz), (lx, ly, lz), energy, mu


def momentum_rate(a: Body, b: Body, law: ForceLaw) -> Vec3:
    """Exact d(total momentum)/dt: only the normal channel contributes."""
    phi_perp = bind(law, a, b).phi_perp
    if phi_perp is None:
        return Vec3(0.0, 0.0, 0.0)
    ps = pair_state(a, b)
    r = ps.x_ab.norm()
    speed = ps.v_ab.norm()
    radial = ps.x_ab.x * ps.v_ab.x + ps.x_ab.y * ps.v_ab.y + ps.x_ab.z * ps.v_ab.z
    c = phi_perp(r, speed, radial)
    return cross(ps.x_ab, ps.v_ab) * (2.0 * c)


# Row functions of the rate audits: a series, P or L, and its exact rate,
# dP/dt or dL/dt, of one sample (ordered as ``Trajectory.rows``) as float
# triples, in the operation order of the Vec3 formulas (``momentum_rate``
# and its torque twin). ``_rate_mismatch`` checks what they return; an
# exact rate checks x_ab and v_ab before it calls a law coefficient. A
# check builds a ``Vec3`` only where a sum of components is not finite,
# and so raises the NonFiniteError naming the vector.
RowFunction = Callable[[PairLaw, Sequence[float]], Triple]


def _momentum(pair: PairLaw, row: Sequence[float]) -> Triple:
    _, _, _, avx, avy, avz, _, _, _, bvx, bvy, bvz = row
    ma, mb = pair.ma, pair.mb
    return avx * ma + bvx * mb, avy * ma + bvy * mb, avz * ma + bvz * mb


def _angular_momentum(pair: PairLaw, row: Sequence[float]) -> Triple:
    ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz = row
    mu = pair.mu
    rx, ry, rz, ux, uy, uz = ax - bx, ay - by, az - bz, avx - bvx, avy - bvy, avz - bvz
    wx, wy, wz = ux * mu, uy * mu, uz * mu
    # A finite L has finite factors: an infinite x_ab or mu v_ab component
    # meets the other vector's two other components, as inf or as inf * 0.
    return ry * wz - rz * wy, rz * wx - rx * wz, rx * wy - ry * wx


def _exact_momentum_rate(pair: PairLaw, row: Sequence[float]) -> Triple:
    phi_perp = pair.phi_perp
    if phi_perp is None:
        return 0.0, 0.0, 0.0
    ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz = row
    rx, ry, rz, ux, uy, uz = ax - bx, ay - by, az - bz, avx - bvx, avy - bvy, avz - bvz
    if not math.isfinite(rx + ry + rz + ux + uy + uz):
        Vec3(rx, ry, rz), Vec3(ux, uy, uz)
    r, speed = math.sqrt(rx * rx + ry * ry + rz * rz), math.sqrt(ux * ux + uy * uy + uz * uz)
    k = 2.0 * phi_perp(r, speed, rx * ux + ry * uy + rz * uz)
    return (ry * uz - rz * uy) * k, (rz * ux - rx * uz) * k, (rx * uy - ry * ux) * k


def _exact_torque(pair: PairLaw, row: Sequence[float]) -> Triple:
    ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz = row
    rx, ry, rz, ux, uy, uz = ax - bx, ay - by, az - bz, avx - bvx, avy - bvy, avz - bvz
    if not math.isfinite(rx + ry + rz + ux + uy + uz):
        Vec3(rx, ry, rz), Vec3(ux, uy, uz)
    nx, ny, nz = ry * uz - rz * uy, rz * ux - rx * uz, rx * uy - ry * ux
    # The normal is checked even if no channel reads it.
    if not math.isfinite(nx + ny + nz):
        Vec3(nx, ny, nz)
    r, speed = math.sqrt(rx * rx + ry * ry + rz * rz), math.sqrt(ux * ux + uy * uy + uz * uz)
    radial = rx * ux + ry * uy + rz * uz
    tx = ty = tz = 0.0
    if pair.phi_s is not None:
        s = pair.phi_s(r, speed, radial)
        tx, ty, tz = tx + nx * s, ty + ny * s, tz + nz * s
    if pair.phi_perp is not None:
        ma, mb = pair.ma, pair.mb
        cx, cy, cz = ry * nz - rz * ny, rz * nx - rx * nz, rx * ny - ry * nx
        k = (mb - ma) / (ma + mb) * pair.phi_perp(r, speed, radial)
        tx, ty, tz = tx + cx * k, ty + cy * k, tz + cz * k
    return tx, ty, tz


def _rate_mismatch(traj: Trajectory, series: RowFunction, rate: RowFunction) -> float:
    """Largest |central-difference rate of ``series`` - exact ``rate``|
    over the interior samples, in one pass over the rows; the exact rate
    is computed at interior samples only.

    A failure is named by its sample and by the quantity that failed. A
    series value that is not finite is named at its own sample, wherever
    it lies. Otherwise the first interior sample whose exact rate raises,
    or whose mismatch is not finite, is named: the message names the
    series or mismatch vector that is not finite, an infinite
    |rate - prediction|, or the exact rate's own error.

    Raises:
        DivergenceError: the rows are finite, but a series value, an exact
            rate or a mismatch leaves the floating-point range.
    """
    times, pair = traj.times, traj.pair
    worst = 0.0
    failed: tuple[int, Exception] | None = None
    # Series values of samples i - 2 and i - 1, and the row of i - 1.
    before = middle = previous = None
    try:
        for i, row in enumerate(traj.samples()):
            x, y, z = value = series(pair, row)
            if not math.isfinite(x + y + z):
                Vec3(x, y, z)
            if i >= 2 and failed is None:
                try:
                    px, py, pz = rate(pair, previous)
                    (bx, by, bz), dt = before, times[i] - times[i - 2]
                    dx, dy, dz = (x - bx) / dt - px, (y - by) / dt - py, (z - bz) / dt - pz
                    mismatch = math.sqrt(dx * dx + dy * dy + dz * dz)
                    if not math.isfinite(mismatch):
                        Vec3(dx, dy, dz)
                        raise OverflowError("|rate - prediction| is infinite")
                    worst = max(worst, mismatch)
                except (OverflowError, ValueError) as exc:
                    failed = (i - 1, exc)
            before, middle, previous = middle, value, row
    except (OverflowError, ValueError) as exc:
        raise DivergenceError(i, times[i], f"rate overflow: {exc}") from None
    if failed is not None:
        i, exc = failed
        raise DivergenceError(i, times[i], f"rate overflow: {exc}")
    return worst
