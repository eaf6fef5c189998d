import math
import random

import pytest

from invarlab import (
    Body,
    FrameTransform,
    NonFiniteError,
    Vec3,
    apply,
    check_objectivity,
    compose,
    gravity,
    identity,
    integrate,
    inverse,
    pair_state,
    pure_boost,
    pure_translation,
    random_rotation,
    random_transform,
    transform_residual,
)
from invarlab.frames import ORTHOGONALITY_TOL, orthogonality_defect

from helpers import kepler_pair, observables_at, random_body


def test_identity_leaves_body_unchanged():
    rng = random.Random(1)
    body = random_body(rng, "A")
    out = apply(identity(), body, time=3.7)
    assert out.position == body.position
    assert out.velocity == body.velocity
    assert out.mass == body.mass


def test_pure_boost_shifts_velocity():
    body = Body("A", 1.0, Vec3(1, 2, 3), Vec3(0.5, 0, 0))
    out = apply(pure_boost(Vec3(0, 0, 2)), body, time=0.0)
    assert out.velocity == Vec3(0.5, 0, 2)
    assert out.position == body.position


def test_apply_moves_origin_with_time():
    t = FrameTransform(boost=Vec3(1, 0, 0), time_offset=2.0)
    body = Body("A", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    out = apply(t, body, time=3.0)
    assert out.position == Vec3(5.0, 0, 0)  # boost * (time + offset)


def test_mass_and_properties_are_frame_invariant():
    rng = random.Random(2)
    body = random_body(rng, "A", charge=-2.0)
    out = apply(random_transform(rng), body, time=1.0)
    assert out.mass == body.mass
    assert out.prop("charge") == -2.0


def test_non_orthogonal_rotation_rejected():
    with pytest.raises(ValueError):
        FrameTransform(rotation=((1, 0.5, 0), (0, 1, 0), (0, 0, 1)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rotation_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        FrameTransform(rotation=((bad,) * 3,) * 3)
    with pytest.raises(ValueError, match="finite"):
        FrameTransform(rotation=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, bad)))


def test_orthogonality_defect_propagates_nan():
    eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for i in range(3):
        for j in range(3):
            m = [row[:] for row in eye]
            m[i][j] = math.nan
            assert math.isnan(orthogonality_defect(m)), (i, j)
    assert orthogonality_defect(eye) == 0.0


TOL = ORTHOGONALITY_TOL


def with_entry(i, j, value):
    """The identity with entry (i, j) replaced by ``value``."""
    return tuple(
        tuple(value if (r, c) == (i, j) else float(r == c) for c in range(3)) for r in range(3)
    )


# (rotation, what the constructor does): "ok", "not orthogonal" or "not
# finite". An off-diagonal entry t of the identity makes one Gram entry of
# m^T m - I exactly t; a diagonal entry 1 + 2^-35 or 1 - 2^-35 makes one
# exactly +-2^-34, inside the tolerance, and 1 +- 2^-34 makes +-2^-33, outside.
BOUNDARY = [
    *[(with_entry(i, j, t), "ok") for i, j in ((0, 1), (0, 2), (1, 2)) for t in (TOL, -TOL)],
    *[(with_entry(i, j, math.nextafter(t, t * 2.0)), "not orthogonal")
      for i, j in ((1, 0), (2, 0), (2, 1)) for t in (TOL, -TOL)],
    *[(with_entry(i, i, 1.0 + d), "ok") for i in range(3) for d in (2.0**-35, -(2.0**-35))],
    *[(with_entry(i, i, 1.0 + d), "not orthogonal")
      for i in range(3) for d in (2.0**-34, -(2.0**-34))],
    *[(with_entry(i, (i + 1) % 3, bad), "not finite")
      for i in range(3) for bad in (math.nan, math.inf, -math.inf)],
    *[(with_entry(i, i, bad), "not finite") for i in range(3) for bad in (math.inf, -math.inf)],
    (((1.0, -0.0, -0.0), (-0.0, 1.0, -0.0), (-0.0, -0.0, 1.0)), "ok"),
    (((-0.0, 1.0, 0.0), (-1.0, -0.0, 0.0), (0.0, 0.0, -1.0)), "ok"),
    (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)), "ok"),
    (((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)), "ok"),
    (((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)), "not orthogonal"),
]


@pytest.mark.parametrize("rotation, outcome", BOUNDARY)
def test_rotation_check_accepts_exactly_the_defects_within_tolerance(rotation, outcome):
    defect = orthogonality_defect(rotation)
    assert (outcome == "ok") == (defect <= TOL)
    if outcome == "ok":
        assert FrameTransform(rotation=rotation).rotation == rotation
        return
    if outcome == "not finite":
        message = f"rotation entries must be finite, got {rotation}"
    else:
        message = f"rotation is not orthogonal (defect {defect:.3e})"
    with pytest.raises(ValueError) as raised:
        FrameTransform(rotation=rotation)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "rotation", [(1.0, 2.0, 3.0), ((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0))]
)
def test_malformed_rotation_rejected(rotation):
    with pytest.raises(ValueError, match="3x3"):
        FrameTransform(rotation=rotation)


def _raised(build):
    """The type and text of the ValueError that ``build()`` raises."""
    with pytest.raises(ValueError) as caught:
        build()
    return type(caught.value), str(caught.value)


def test_every_build_path_raises_what_the_constructor_raises():
    # compose and random_transform hand their floats to the constructor's
    # checked store: a field out of range raises the constructor's error.
    late = FrameTransform(time_offset=1e308)
    assert _raised(lambda: compose(late, late)) == _raised(
        lambda: FrameTransform(time_offset=1e308 + 1e308)
    ) == (ValueError, "time_offset must be finite")
    far = FrameTransform(translation=Vec3(1e308, 0.0, 0.0))
    assert _raised(lambda: compose(far, far)) == _raised(
        lambda: FrameTransform(translation=Vec3(1e308 + 1e308, 0.0, 0.0))
    ) == (NonFiniteError, "non-finite vector component in (inf, 0.0, 0.0)")
    assert _raised(lambda: random_transform(random.Random(1), time_offset=math.inf)) == _raised(
        lambda: FrameTransform(time_offset=math.nan)
    )


def test_reflections_are_allowed():
    reflection = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
    t = FrameTransform(rotation=reflection)
    body = Body("A", 1.0, Vec3(0, 0, 2), Vec3(0, 0, 1))
    out = apply(t, body)
    assert out.position == Vec3(0, 0, -2)


def test_compose_against_sequential_application():
    rng = random.Random(3)
    for _ in range(50):
        t1 = random_transform(rng)
        t2 = random_transform(rng)
        both = compose(t1, t2)
        body = random_body(rng, "A")
        time = rng.uniform(-5, 5)
        via_compose = apply(both, body, time)
        via_steps = apply(t1, apply(t2, body, time), time)
        assert (via_compose.position - via_steps.position).norm() < 1e-12
        assert (via_compose.velocity - via_steps.velocity).norm() < 1e-12


def test_compose_identity_is_neutral_fieldwise():
    rng = random.Random(4)
    for _ in range(20):
        t = random_transform(rng)
        assert transform_residual(compose(t, identity()), t) < 1e-15
        assert transform_residual(compose(identity(), t), t) < 1e-15


def test_boosts_compose_by_vector_addition():
    u, v = Vec3(1, 2, 3), Vec3(-0.5, 0.25, 4)
    combined = compose(pure_boost(u), pure_boost(v))
    assert combined.boost == u + v
    assert combined.translation == Vec3(0, 0, 0)
    assert combined.rotation == identity().rotation


def test_boost_subgroup_is_abelian():
    rng = random.Random(5)
    for _ in range(30):
        u = Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        v = Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert transform_residual(
            compose(pure_boost(u), pure_boost(v)), compose(pure_boost(v), pure_boost(u))
        ) < 1e-15


def test_inverse_of_identity_and_boost():
    assert transform_residual(inverse(identity()), identity()) == 0.0
    w = Vec3(1.5, -2, 0.25)
    assert inverse(pure_boost(w)).boost == -w


def test_compose_with_inverse_gives_identity():
    rng = random.Random(6)
    for _ in range(50):
        t = random_transform(rng)
        assert transform_residual(compose(t, inverse(t)), identity()) < 1e-12
        assert transform_residual(compose(inverse(t), t), identity()) < 1e-12


def test_double_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        t = random_transform(rng)
        assert transform_residual(inverse(inverse(t)), t) < 1e-12


def test_associativity_randomized():
    rng = random.Random(8)
    for _ in range(100):
        a, b, c = (random_transform(rng) for _ in range(3))
        assert transform_residual(compose(compose(a, b), c), compose(a, compose(b, c))) < 1e-12


@pytest.mark.parametrize("reflections", [False, True])
def test_random_rotations_are_orthogonal_and_centred(reflections):
    """Marsaglia's quaternions: orthogonal to rounding, mean matrix zero
    (as for the uniform measure on the group), and with ``reflections``
    about half of them reflections."""
    rng = random.Random(12)
    count = 20_000
    total = [[0.0] * 3 for _ in range(3)]
    negative = 0
    for _ in range(count):
        rot = random_rotation(rng, reflections=reflections)
        assert orthogonality_defect(rot) <= 1e-14
        (a, b, c), (d, e, f), (g, h, k) = rot
        det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
        assert abs(abs(det) - 1.0) <= 1e-14
        negative += det < 0.0
        for row, entries in zip(total, rot):
            row[:] = [t + x for t, x in zip(row, entries)]
    assert all(abs(t / count) <= 0.02 for row in total for t in row)
    if reflections:
        assert abs(negative / count - 0.5) <= 0.02
    else:
        assert negative == 0


def test_pair_state_transforms_with_rotation_only():
    rng = random.Random(10)
    for _ in range(50):
        t = random_transform(rng)
        a, b = random_body(rng, "A"), random_body(rng, "B")
        time = rng.uniform(-2, 2)
        before = pair_state(a, b)
        after = pair_state(apply(t, a, time), apply(t, b, time))
        rotated = apply(FrameTransform(rotation=t.rotation), Body("t", 1.0, before.x_ab, before.v_ab))
        assert (after.x_ab - rotated.position).norm() < 1e-12
        assert (after.v_ab - rotated.velocity).norm() < 1e-12


def test_objectivity_of_relative_norm():
    rng = random.Random(11)
    a, b = random_body(rng, "A"), random_body(rng, "B")
    base = pair_state(a, b).x_ab.norm()
    reps = [(apply(t, a), apply(t, b)) for t in (random_transform(rng) for _ in range(50))]
    verdict = check_objectivity(
        lambda rep: pair_state(*rep).x_ab.norm() - base, reps, tolerance=1e-12
    )
    assert verdict.passed


def test_subjective_coordinate_fails_objectivity():
    rng = random.Random(12)
    a, b = random_body(rng, "A"), random_body(rng, "B")
    reps = [
        (apply(pure_translation(Vec3(rng.uniform(-3, 3), 0, 0)), a), b) for _ in range(30)
    ]
    verdict = check_objectivity(
        lambda rep: rep[0].position.x - a.position.x, reps, tolerance=1e-12
    )
    assert not verdict.passed
    assert "worst" in verdict.detail


def test_internal_energy_objective_across_boosts():
    # Same orbit watched from uniformly moving frames: the energy drift
    # stays at integrator level in every one of them.
    rng = random.Random(13)
    a, b, period = kepler_pair(ecc=0.1)
    law = gravity(1.0)

    def drift(bodies):
        a0, b0 = bodies
        traj = integrate(a0, b0, law, period, period / 500.0, "rk4")
        e0 = observables_at(traj, 0).internal_energy
        return observables_at(traj, len(traj) - 1).internal_energy - e0

    reps = [(a, b)]
    for _ in range(5):
        boost = pure_boost(Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)))
        reps.append((apply(boost, a), apply(boost, b)))
    verdict = check_objectivity(drift, reps, tolerance=1e-9)
    assert verdict.passed
