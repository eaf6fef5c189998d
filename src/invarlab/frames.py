"""The group of arbitrary observer choices acting on body states.

A transform bundles a rotation or reflection of the axes, a shift of the
spatial origin, a uniform relative velocity, and a clock offset. Applied
to a body at observer time t it sends

    position -> R position + translation + boost (t + time_offset)
    velocity -> R velocity + boost

while mass and other intrinsic properties stay untouched. Composition,
inverse and the identity below satisfy the group laws exactly at the
field level, which the audit suite verifies numerically. Relative
quantities of a body pair only feel the rotation part, so their norms
are invariant under every transform.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence, TypeVar

from .core import Vec3, ZERO, Body, Check, _Value

__all__ = [
    "Mat3",
    "IDENTITY_ROTATION",
    "FrameTransform",
    "identity",
    "pure_translation",
    "pure_boost",
    "apply",
    "compose",
    "inverse",
    "transform_residual",
    "orthogonality_defect",
    "random_rotation",
    "random_transform",
    "check_objectivity",
]

Mat3 = tuple[tuple[float, float, float], tuple[float, float, float], tuple[float, float, float]]

IDENTITY_ROTATION: Mat3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

ORTHOGONALITY_TOL = 1e-10


def orthogonality_defect(m: Mat3) -> float:
    """Largest entry of |m^T m - I|; nan when an entry of m is nan."""
    (a, b, c), (d, e, f), (g, h, k) = m
    # m^T m is symmetric, so its upper triangle holds every distinct entry.
    d0 = abs(a * a + d * d + g * g - 1.0)
    d1 = abs(a * b + d * e + g * h)
    d2 = abs(a * c + d * f + g * k)
    d3 = abs(b * b + e * e + h * h - 1.0)
    d4 = abs(b * c + e * f + h * k)
    d5 = abs(c * c + f * f + k * k - 1.0)
    # max() drops a nan that is not its first argument; the sum keeps it.
    total = d0 + d1 + d2 + d3 + d4 + d5
    return total if total != total else max(d0, d1, d2, d3, d4, d5)


class FrameTransform(_Value):
    """One observer choice: rotation/reflection, origin shift, boost, clock offset.

    Stores the rotation as a 3x3 tuple of floats, which must be finite and
    orthogonal (det -1 is allowed, so reflections are in the group), and a
    finite clock offset. Every build path ends in one checked store,
    ``_store``: the constructor after converting the rotation to floats,
    and ``compose``, ``inverse`` and ``random_transform``, given floats.
    """

    __slots__ = ("rotation", "translation", "boost", "time_offset")

    def __init__(
        self,
        rotation: Mat3 = IDENTITY_ROTATION,
        translation: Vec3 = ZERO,
        boost: Vec3 = ZERO,
        time_offset: float = 0.0,
    ) -> None:
        try:
            (a, b, c), (d, e, f), (g, h, k) = rotation
            rot = (
                (float(a), float(b), float(c)),
                (float(d), float(e), float(f)),
                (float(g), float(h), float(k)),
            )
        except (TypeError, ValueError):
            raise ValueError("rotation must be a 3x3 matrix of numbers") from None
        _store(self, rot, translation, boost, time_offset)


_set_rotation, _set_translation, _set_boost, _set_time_offset = (
    FrameTransform.__dict__[name].__set__ for name in FrameTransform.__slots__
)
_new = object.__new__


def _store(t: FrameTransform, rot: Mat3, d: Vec3, w: Vec3, s: float) -> FrameTransform:
    """Check the fields of ``t`` and store them through the slot descriptors.

    The rotation passes when every entry of m^T m - I, in the expressions
    and order of ``orthogonality_defect``, lies in [-tol, tol]: a nan or
    infinite entry does not. Only a failing rotation computes the defect.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    hi = ORTHOGONALITY_TOL
    lo = -hi
    if not (
        lo <= r00 * r00 + r10 * r10 + r20 * r20 - 1.0 <= hi
        and lo <= r00 * r01 + r10 * r11 + r20 * r21 <= hi
        and lo <= r00 * r02 + r10 * r12 + r20 * r22 <= hi
        and lo <= r01 * r01 + r11 * r11 + r21 * r21 - 1.0 <= hi
        and lo <= r01 * r02 + r11 * r12 + r21 * r22 <= hi
        and lo <= r02 * r02 + r12 * r12 + r22 * r22 - 1.0 <= hi
    ):
        if not all(map(math.isfinite, (*rot[0], *rot[1], *rot[2]))):
            raise ValueError(f"rotation entries must be finite, got {rot}")
        raise ValueError(f"rotation is not orthogonal (defect {orthogonality_defect(rot):.3e})")
    if not math.isfinite(s):
        raise ValueError("time_offset must be finite")
    _set_rotation(t, rot)
    _set_translation(t, d)
    _set_boost(t, w)
    _set_time_offset(t, s)
    return t


def identity() -> FrameTransform:
    return FrameTransform()


def pure_translation(d: Vec3) -> FrameTransform:
    return FrameTransform(translation=d)


def pure_boost(w: Vec3) -> FrameTransform:
    return FrameTransform(boost=w)


def raw_apply(
    t: FrameTransform,
    x: float,
    y: float,
    z: float,
    vx: float,
    vy: float,
    vz: float,
    time: float = 0.0,
) -> tuple[float, float, float, float, float, float]:
    """The frame action on raw components: the new (position, velocity) of
    a state observed at ``time``. The one place the action is written out;
    ``apply`` and the float paths of the audits both use it."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = t.rotation
    d, w = t.translation, t.boost
    s = time + t.time_offset
    return (
        r00 * x + r01 * y + r02 * z + d.x + w.x * s,
        r10 * x + r11 * y + r12 * z + d.y + w.y * s,
        r20 * x + r21 * y + r22 * z + d.z + w.z * s,
        r00 * vx + r01 * vy + r02 * vz + w.x,
        r10 * vx + r11 * vy + r12 * vz + w.y,
        r20 * vx + r21 * vy + r22 * vz + w.z,
    )


def apply(t: FrameTransform, body: Body, time: float = 0.0) -> Body:
    """Re-express a body's state at observer time ``time`` in the new frame."""
    p, v = body.position, body.velocity
    x, y, z, vx, vy, vz = raw_apply(t, p.x, p.y, p.z, v.x, v.y, v.z, time)
    return body.with_state(Vec3(x, y, z), Vec3(vx, vy, vz))


def compose(t1: FrameTransform, t2: FrameTransform) -> FrameTransform:
    """Transform acting like t2 first, then t1, at the same observer time:
    apply(compose(t1, t2), b, t) == apply(t1, apply(t2, b, t), t)."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = t1.rotation
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = t2.rotation
    d1, w1, s1 = t1.translation, t1.boost, t1.time_offset
    d2, w2, s2 = t2.translation, t2.boost, t2.time_offset
    rot = (
        (
            a00 * b00 + a01 * b10 + a02 * b20,
            a00 * b01 + a01 * b11 + a02 * b21,
            a00 * b02 + a01 * b12 + a02 * b22,
        ),
        (
            a10 * b00 + a11 * b10 + a12 * b20,
            a10 * b01 + a11 * b11 + a12 * b21,
            a10 * b02 + a11 * b12 + a12 * b22,
        ),
        (
            a20 * b00 + a21 * b10 + a22 * b20,
            a20 * b01 + a21 * b11 + a22 * b21,
            a20 * b02 + a21 * b12 + a22 * b22,
        ),
    )
    rwx = a00 * w2.x + a01 * w2.y + a02 * w2.z
    rwy = a10 * w2.x + a11 * w2.y + a12 * w2.z
    rwz = a20 * w2.x + a21 * w2.y + a22 * w2.z
    rdx = a00 * d2.x + a01 * d2.y + a02 * d2.z
    rdy = a10 * d2.x + a11 * d2.y + a12 * d2.z
    rdz = a20 * d2.x + a21 * d2.y + a22 * d2.z
    # Offsets add; the translation keeps the combined action exact and makes
    # the identity and inverse hold field by field, not just on body states.
    translation = Vec3(
        rdx + d1.x - rwx * s1 - w1.x * s2,
        rdy + d1.y - rwy * s1 - w1.y * s2,
        rdz + d1.z - rwz * s1 - w1.z * s2,
    )
    boost = Vec3(rwx + w1.x, rwy + w1.y, rwz + w1.z)
    return _store(_new(FrameTransform), rot, translation, boost, s1 + s2)


def inverse(t: FrameTransform) -> FrameTransform:
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = t.rotation
    d, w, s = t.translation, t.boost, t.time_offset
    two_s = 2.0 * s
    ux, uy, uz = d.x + w.x * two_s, d.y + w.y * two_s, d.z + w.z * two_s
    boost = Vec3(
        -(r00 * w.x + r10 * w.y + r20 * w.z),
        -(r01 * w.x + r11 * w.y + r21 * w.z),
        -(r02 * w.x + r12 * w.y + r22 * w.z),
    )
    translation = Vec3(
        -(r00 * ux + r10 * uy + r20 * uz),
        -(r01 * ux + r11 * uy + r21 * uz),
        -(r02 * ux + r12 * uy + r22 * uz),
    )
    rot_t = ((r00, r10, r20), (r01, r11, r21), (r02, r12, r22))
    return _store(_new(FrameTransform), rot_t, translation, boost, -s)


def transform_residual(t1: FrameTransform, t2: FrameTransform) -> float:
    """Largest field-by-field difference between two transforms."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = t1.rotation
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = t2.rotation
    d1, d2, w1, w2 = t1.translation, t2.translation, t1.boost, t2.boost
    return max(
        abs(t1.time_offset - t2.time_offset),
        abs(a00 - b00), abs(a01 - b01), abs(a02 - b02),
        abs(a10 - b10), abs(a11 - b11), abs(a12 - b12),
        abs(a20 - b20), abs(a21 - b21), abs(a22 - b22),
        abs(d1.x - d2.x), abs(d1.y - d2.y), abs(d1.z - d2.z),
        abs(w1.x - w2.x), abs(w1.y - w2.y), abs(w1.z - w2.z),
    )


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    """A draw from [lo, hi] by the formula of ``Random.uniform`` on Python
    3.10-3.13, written out: only ``random()`` has a sequence that Python
    keeps the same across versions."""
    return lo + (hi - lo) * rng.random()


def random_rotation(rng: random.Random, reflections: bool = False) -> Mat3:
    """Uniform random rotation from a unit quaternion drawn by Marsaglia's
    4-D method; optionally a reflection with probability 1/2.

    Two points (w, x) and (y, z) uniform in the unit disk, with sums of
    squares s1 < 1 and 0 < s2 < 1, give the unit quaternion
    (w, x, y k, z k), k = sqrt((1 - s1) / s2). Only ``random()``,
    products and one ``sqrt`` are used, all correctly rounded, so the
    rotations do not depend on the platform's libm.
    """
    rand = rng.random
    while True:
        w, x = 2.0 * rand() - 1.0, 2.0 * rand() - 1.0
        s1 = w * w + x * x
        if s1 < 1.0:
            break
    while True:
        y, z = 2.0 * rand() - 1.0, 2.0 * rand() - 1.0
        s2 = y * y + z * z
        if 0.0 < s2 < 1.0:
            break
    k = math.sqrt((1.0 - s1) / s2)
    y, z = y * k, z * k
    rot: Mat3 = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )
    if reflections and rng.random() < 0.5:
        rot = tuple((row[0], row[1], -row[2]) for row in rot)  # type: ignore[assignment]
    return rot


def random_transform(
    rng: random.Random,
    *,
    translation: float = 1.0,
    boost: float = 1.0,
    time_offset: float = 1.0,
    reflections: bool = True,
) -> FrameTransform:
    """Random group element with the given scales for each part."""

    def vec(scale: float) -> Vec3:
        return Vec3(
            _uniform(rng, -scale, scale), _uniform(rng, -scale, scale), _uniform(rng, -scale, scale)
        )

    rot = random_rotation(rng, reflections=reflections)
    d, w = vec(translation), vec(boost)
    return _store(_new(FrameTransform), rot, d, w, _uniform(rng, -time_offset, time_offset))


T = TypeVar("T")


def check_objectivity(
    law: Callable[[T], float], representations: Sequence[T], *, tolerance: float = 1e-9
) -> Check:
    """Evaluate a scalar law on every representation of the same situation.

    The law holds objectively when its residual vanishes in all of them;
    the detail names the worst offender. A nan residual is the worst and
    stays so (it compares false against every other), so it never passes.
    """
    worst = 0.0
    worst_index = 0
    for i, rep in enumerate(representations):
        value = abs(law(rep))
        if value > worst or value != value:
            worst = value
            worst_index = i
            if value != value:
                break
    return Check(worst, worst <= tolerance, f"worst: representation {worst_index}")
