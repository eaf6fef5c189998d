import math
import random
import sys

import pytest

from invarlab import (
    Body,
    ForceLaw,
    FrameTransform,
    SingularityError,
    Vec3,
    apply,
    charge_squared,
    check_property_additivity,
    coulomb,
    cross,
    force_on_a,
    force_pair,
    free,
    gravity,
    integrate,
    linear_drag,
    make_preset,
    merge_laws,
    momentum_rate,
    pair_state,
    perp_demo,
    soften,
    spring,
    superpose,
)
from invarlab.forces import PairTerms, bind, raw_force_pair
from invarlab.frames import random_rotation

from helpers import force_on_b, random_body


def body_at(pos, vel, mass=1.0, charge=0.0, name="A"):
    return Body(name, mass, pos, vel, {"charge": charge})


def test_gravity_inverse_square_at_unit_distance():
    a = body_at(Vec3(1, 0, 0), Vec3(0, 0, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    # g * m_a * m_b = 1
    assert force_on_a(gravity(1.0), a, b) == Vec3(-1.0, 0.0, 0.0)
    assert force_on_b(gravity(1.0), a, b) == Vec3(1.0, 0.0, 0.0)


def test_perp_channel_vanishes_for_collinear_motion():
    a = body_at(Vec3(2, 0, 0), Vec3(3, 0, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    strong = perp_demo(1e6)
    assert force_on_a(strong, a, b) == Vec3(0.0, 0.0, 0.0)


def test_pure_drag_like_channel():
    law = ForceLaw("unit-drag", lambda qa, qb: PairTerms(phi_s=lambda r, v, c: 1.0))
    a = body_at(Vec3(1, 0, 0), Vec3(0, 2, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    assert force_on_a(law, a, b) == Vec3(0.0, 2.0, 0.0)


def test_perp_demo_force_equal_on_both_bodies():
    a = body_at(Vec3(1, 0, 0), Vec3(0, 1, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    f, k = force_pair(perp_demo(1.0), a, b)
    assert f == Vec3(0.0, 0.0, 1.0)
    assert k == f


def test_third_law_when_no_perp_channel():
    rng = random.Random(20)
    law = merge_laws((gravity(1.0), coulomb(0.5), spring(0.3), linear_drag(0.2)))
    for _ in range(50):
        a, b = random_body(rng, "A", charge=1.0), random_body(rng, "B", charge=-2.0)
        if pair_state(a, b).x_ab.norm() < 0.1:
            continue
        f, k = force_pair(law, a, b)
        assert (f + k).norm() < 1e-12 * max(1.0, f.norm())


def test_momentum_rate_identity():
    rng = random.Random(21)
    law = merge_laws((gravity(1.0), perp_demo(0.7), linear_drag(0.1)))
    for _ in range(50):
        a, b = random_body(rng, "A"), random_body(rng, "B")
        if pair_state(a, b).x_ab.norm() < 0.1:
            continue
        f, k = force_pair(law, a, b)
        predicted = momentum_rate(a, b, law)
        assert (f + k - predicted).norm() < 1e-12
        ps = pair_state(a, b)
        explicit = cross(ps.x_ab, ps.v_ab) * (2.0 * 0.7)
        assert (predicted - explicit).norm() < 1e-12


def test_exchange_symmetry_swaps_roles():
    rng = random.Random(22)
    law = merge_laws((gravity(1.0), coulomb(2.0), linear_drag(0.4), perp_demo(0.3)))
    for _ in range(50):
        a, b = random_body(rng, "A", charge=0.5), random_body(rng, "B", charge=-1.5)
        if pair_state(a, b).x_ab.norm() < 0.1:
            continue
        # One exchange: the force on B is the force on A with roles swapped.
        assert (force_on_b(law, a, b) - force_on_a(law, b, a)).norm() < 1e-12
        # Exchanging twice returns the original force.
        assert (force_on_a(law, a, b) - force_on_b(law, b, a)).norm() < 1e-12


def test_rotational_covariance():
    rng = random.Random(23)
    law = merge_laws((gravity(1.0), linear_drag(0.2), perp_demo(0.5)))
    for _ in range(30):
        a, b = random_body(rng, "A"), random_body(rng, "B")
        if pair_state(a, b).x_ab.norm() < 0.1:
            continue
        rot = FrameTransform(rotation=random_rotation(rng, reflections=False))
        before = force_on_a(law, a, b)
        rotated_force = apply(rot, Body("f", 1.0, before, Vec3(0, 0, 0))).position
        after = force_on_a(law, apply(rot, a), apply(rot, b))
        assert (after - rotated_force).norm() < 1e-12 * max(1.0, before.norm())


def test_normal_channel_is_reflection_odd():
    # The radial and drag channels commute with reflections; the normal
    # channel picks an orientation, so its force flips sign in a mirrored
    # world. That orientation sensitivity is exactly what lets it pump
    # total momentum.
    mirror = FrameTransform(rotation=((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    a = Body("A", 1.0, Vec3(1.0, 0.3, 0.2), Vec3(0.1, 0.8, -0.4))
    b = Body("B", 2.0, Vec3(-0.2, 0.0, 0.5), Vec3(0.0, -0.3, 0.2))

    def image(v):
        return apply(mirror, Body("v", 1.0, v, Vec3(0, 0, 0))).position

    even = force_on_a(gravity(1.0), apply(mirror, a), apply(mirror, b))
    assert (even - image(force_on_a(gravity(1.0), a, b))).norm() < 1e-12
    odd = force_on_a(perp_demo(1.0), apply(mirror, a), apply(mirror, b))
    assert (odd + image(force_on_a(perp_demo(1.0), a, b))).norm() < 1e-12


def test_superpose_single_and_empty():
    a = body_at(Vec3(1, 0, 0), Vec3(0, 0, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    law = gravity(1.0)
    assert superpose([law], a, b) == force_on_a(law, a, b)
    assert superpose([], a, b) == Vec3(0.0, 0.0, 0.0)


def test_superpose_is_componentwise_sum():
    a = body_at(Vec3(1, 1, 0), Vec3(0.5, 0, 0), charge=2.0)
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), charge=-1.0, name="B")
    laws = [gravity(1.0), coulomb(1.5)]
    total = superpose(laws, a, b)
    parts = force_on_a(laws[0], a, b) + force_on_a(laws[1], a, b)
    assert (total - parts).norm() < 1e-15
    merged = merge_laws(laws)
    assert (force_on_a(merged, a, b) - parts).norm() < 1e-12


def test_merged_channels_add_left_to_right():
    # sum() on Python >= 3.12 compensates and would give 1.0 here.
    a_val, b_val, c_val = 1e16, 1.0, -1e16

    def const(i, v):
        terms = PairTerms(phi_r=lambda r: v, potential=lambda r: v)
        return ForceLaw(f"const{i}", lambda qa, qb: terms)

    laws = [const(i, v) for i, v in enumerate((a_val, b_val, c_val))]
    a = body_at(Vec3(1, 0, 0), Vec3(0, 0, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    expected = (a_val + b_val) + c_val
    assert expected == 0.0
    pair = bind(merge_laws(laws), a, b)
    assert pair.phi_r(1.0) == expected
    assert pair.potential(1.0) == expected
    # Beside a non-central law, the radial sum is a channel of the state.
    dragged = bind(merge_laws(laws + [linear_drag(0.1)]), a, b)
    assert dragged.phi_r is None
    assert dragged.phi_e(1.0, 0.0, 0.0) == expected


def test_merged_law_keeps_potential_and_centrality():
    a = body_at(Vec3(1, 0, 0), Vec3(0, 1, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    merged = bind(merge_laws((gravity(1.0), spring(2.0))), a, b)
    assert merged.central
    assert merged.potential is not None
    with_drag = bind(merge_laws((gravity(1.0), linear_drag(0.1))), a, b)
    assert not with_drag.central
    assert with_drag.potential is None


def test_singularity_error_below_minimum_separation():
    law = gravity(1.0)
    a = body_at(Vec3(1e-12, 0, 0), Vec3(0, 0, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    with pytest.raises(SingularityError):
        force_on_a(law, a, b)


# A law's exclusion radius is its ``min_separation`` alone: a law given a
# radius and nothing else refuses every separation below it.
RADIUS_ONLY = ForceLaw("radius-only", spring(1.0).pair_form, min_separation=0.5)


@pytest.mark.parametrize("through", ["raw_force_pair", "integrate"])
def test_a_radius_alone_refuses_evaluation_inside_it(through):
    a = body_at(Vec3(0.1, 0, 0), Vec3(0, 0, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    assert RADIUS_ONLY.singular and not spring(1.0).singular
    message = r"'radius-only': separation 1\.000e-01 below minimum 5\.000e-01"
    with pytest.raises(SingularityError, match=message):
        if through == "raw_force_pair":
            raw_force_pair(bind(RADIUS_ONLY, a, b), 0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
        else:
            integrate(a, b, RADIUS_ONLY, 1.0, 0.01, "rk4")


def test_a_merged_law_takes_the_largest_radius():
    assert merge_laws((gravity(), RADIUS_ONLY)).min_separation == 0.5
    assert merge_laws((spring(), linear_drag())).min_separation == 0.0


def test_a_softened_law_has_no_radius():
    assert soften(RADIUS_ONLY, 0.1).min_separation == 0.0
    assert soften(gravity(), 0.1).min_separation == 0.0


def test_softening_removes_singularity():
    law = soften(gravity(1.0), 0.1)
    a = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    assert force_on_a(law, a, b) == Vec3(0.0, 0.0, 0.0)
    far = body_at(Vec3(100.0, 0, 0), Vec3(0, 0, 0))
    soft = force_on_a(law, far, b)
    hard = force_on_a(gravity(1.0), far, b)
    assert (soft - hard).norm() < 1e-8  # softening negligible at large range


@pytest.mark.parametrize("law", [gravity(), coulomb(), charge_squared()], ids=lambda law: law.name)
def test_softening_is_refused_where_the_softened_radius_cubes_to_zero(law):
    least = sys.float_info.min ** (1.0 / 3.0)
    with pytest.raises(ValueError, match=r"^softening length must be at least 2\.8126e-103, got "):
        soften(law, math.nextafter(least, 0.0))
    a = body_at(Vec3(1e-110, 0, 0), Vec3(0, 0, 0), charge=1.0)
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), charge=1.0, name="B")
    # A Vec3 force is finite; at the least softening it is also nonzero.
    assert force_on_a(soften(law, least), a, b).x != 0.0


def test_additivity_gravity_with_mass():
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), mass=2.0, name="B")
    a1 = body_at(Vec3(1, 1, 0), Vec3(0, 0, 0), mass=1.0)
    a2 = body_at(Vec3(1, 1, 0), Vec3(0, 0, 0), mass=2.0)
    result = check_property_additivity(gravity(1.0), "mass", a1, a2, b, tolerance=1e-12)
    assert result.passed


def test_additivity_coulomb_opposite_charges_cancel():
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), charge=1.0, name="B")
    a1 = body_at(Vec3(2, 0, 0), Vec3(0, 0, 0), charge=1.0)
    a2 = body_at(Vec3(2, 0, 0), Vec3(0, 0, 0), charge=-1.0)
    law = coulomb(1.0)
    result = check_property_additivity(law, "charge", a1, a2, b, tolerance=1e-12)
    assert result.passed
    merged = body_at(Vec3(2, 0, 0), Vec3(0, 0, 0), charge=0.0)
    assert force_on_a(law, merged, b) == Vec3(0.0, 0.0, 0.0)


def test_additivity_fails_for_quadratic_coupling():
    # phi_e = k q_a^2 q_b / r^3 with q1=2, q2=3, q_b=1, k=1, x_ab=(2,0,0):
    # the cross term is 2 k q1 q2 q_b / r^3 = 12/8, so the residual force
    # is 1.5 * x_ab with norm exactly 3.
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), charge=1.0, name="B")
    a1 = body_at(Vec3(2, 0, 0), Vec3(0, 0, 0), charge=2.0)
    a2 = body_at(Vec3(2, 0, 0), Vec3(0, 0, 0), charge=3.0)
    result = check_property_additivity(charge_squared(1.0), "charge", a1, a2, b, tolerance=1e-9)
    assert not result.passed
    assert abs(result.residual - 3.0) < 1e-12


def test_additivity_rejects_mismatched_bodies():
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    a1 = body_at(Vec3(1, 0, 0), Vec3(0, 0, 0), charge=1.0)
    a2 = body_at(Vec3(2, 0, 0), Vec3(0, 0, 0), charge=2.0)
    with pytest.raises(ValueError):
        check_property_additivity(coulomb(1.0), "charge", a1, a2, b)


def test_presets_registry():
    law = make_preset("gravity", g=2.0)
    assert law.name == "gravity"
    with pytest.raises(ValueError):
        make_preset("warp-drive")
    with pytest.raises(ValueError):
        make_preset("gravity", shininess=3.0)


def test_free_law_produces_no_force():
    a = body_at(Vec3(1, 0, 0), Vec3(0, 1, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    f, k = force_pair(free(), a, b)
    assert f == Vec3(0.0, 0.0, 0.0) and k == Vec3(0.0, 0.0, 0.0)


def test_law_centrality_flags():
    a = body_at(Vec3(1, 0, 0), Vec3(0, 1, 0))
    b = body_at(Vec3(0, 0, 0), Vec3(0, 0, 0), name="B")
    for law in (gravity(), spring(), coulomb(), charge_squared(), free()):
        assert bind(law, a, b).central
    assert not bind(linear_drag(), a, b).central
    assert not bind(perp_demo(), a, b).central
    assert math.isfinite(gravity().min_separation)
