import copy
import dataclasses
import math
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from invarlab import (
    Body,
    BoundedVelocity,
    FrameTransform,
    GFunction,
    NonFiniteError,
    ScenarioError,
    Vec3,
    cross,
    pair_state,
)
from invarlab.scenario import IntegratorConfig

from helpers import Observables

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.builds(Vec3, finite, finite, finite)


def test_vector_algebra():
    u = Vec3(1.0, 2.0, 3.0)
    v = Vec3(-1.0, 0.5, 2.0)
    assert u + v == Vec3(0.0, 2.5, 5.0)
    assert u - v == Vec3(2.0, 1.5, 1.0)
    assert -u == Vec3(-1.0, -2.0, -3.0)
    assert 2.0 * u == u * 2.0 == Vec3(2.0, 4.0, 6.0)
    assert (u / 2.0).x == 0.5
    assert Vec3(3.0, 4.0, 0.0).norm() == 5.0


def test_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec3(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        Vec3(0.0, float("inf"), 0.0)


def test_cross_basis_identity():
    assert cross(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Vec3(0, 0, 1)


@given(vectors)
def test_cross_of_collinear_is_zero(u):
    assert cross(u, u) == Vec3(0.0, 0.0, 0.0)


@given(vectors, vectors)
def test_cross_perpendicular_to_both(u, v):
    c = cross(u, v)
    scale = max(1.0, u.norm() * v.norm())
    assert abs(u.x * c.x + u.y * c.y + u.z * c.z) <= 1e-12 * scale * max(1.0, u.norm())
    assert abs(v.x * c.x + v.y * c.y + v.z * c.z) <= 1e-12 * scale * max(1.0, v.norm())


@given(vectors, vectors)
def test_cross_antisymmetry(u, v):
    assert cross(u, v) == -cross(v, u)


def test_norm_zero_iff_zero_vector():
    assert Vec3(0.0, 0.0, 0.0).norm() == 0.0
    assert Vec3(1e-150, 0.0, 0.0).norm() > 0.0


def test_body_validation():
    with pytest.raises(ValueError):
        Body("A", 0.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    with pytest.raises(ValueError):
        Body("A", -1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))


def test_body_property_lookup_is_total():
    b = Body("A", 2.0, Vec3(0, 0, 0), Vec3(0, 0, 0), {"charge": -1.5})
    assert b.prop("charge") == -1.5
    assert b.prop("strangeness") == 0.0
    assert b.prop("mass") == 2.0


def test_body_is_immutable():
    b = Body("A", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    with pytest.raises(AttributeError):
        b.mass = 3.0


def test_pair_state_subtraction():
    a = Body("A", 1.0, Vec3(1, 0, 0), Vec3(0, 0, 0))
    b = Body("B", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    assert pair_state(a, b).x_ab == Vec3(1, 0, 0)


def test_pair_state_identical_bodies():
    a = Body("A", 1.0, Vec3(2, 3, 4), Vec3(1, 1, 1))
    b = Body("B", 2.0, Vec3(2, 3, 4), Vec3(1, 1, 1))
    ps = pair_state(a, b)
    assert ps.x_ab == Vec3(0, 0, 0)
    assert ps.v_ab == Vec3(0, 0, 0)


def test_pair_state_antisymmetry_randomized():
    rng = random.Random(7)
    for _ in range(100):
        a = Body(
            "A",
            rng.uniform(0.1, 5),
            Vec3(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9)),
            Vec3(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9)),
        )
        b = Body(
            "B",
            rng.uniform(0.1, 5),
            Vec3(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9)),
            Vec3(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9)),
        )
        assert pair_state(a, b).x_ab == -pair_state(b, a).x_ab
        assert pair_state(a, b).v_ab == -pair_state(b, a).v_ab


def test_with_state_keeps_identity_and_properties():
    b = Body("A", 1.5, Vec3(0, 0, 0), Vec3(0, 0, 0), {"charge": 2.0})
    moved = b.with_state(Vec3(1, 1, 1), Vec3(0, 1, 0))
    assert moved.id == "A" and moved.mass == 1.5
    assert moved.prop("charge") == 2.0
    assert math.isclose(moved.position.norm(), math.sqrt(3.0))


def _rational(a):
    # Module level, so a profile built on it pickles.
    return 1.0 / (1.0 - a * a)


PICKLABLE_PROFILE = GFunction("rational", 1.0, _rational)

# (value, field changes, its repr). Vec3 and BoundedVelocity are slot
# classes on core's value base; Observables is a test-helper dataclass.
VALUES = [
    (Vec3(1.0, -2.5, 3.0), {"y": 0.5}, "Vec3(x=1.0, y=-2.5, z=3.0)"),
    (BoundedVelocity(Vec3(0.3, 0.1, -0.2), PICKLABLE_PROFILE), {"v": Vec3(0.0, 0.5, 0.0)},
     f"BoundedVelocity(v=Vec3(x=0.3, y=0.1, z=-0.2), gfun={PICKLABLE_PROFILE!r})"),
    (Observables(Vec3(1.0, 2.0, 3.0), Vec3(0.0, 0.0, 1.0), -0.5, 0.75), {"internal_energy": None},
     "Observables(total_momentum=Vec3(x=1.0, y=2.0, z=3.0), "
     "angular_momentum=Vec3(x=0.0, y=0.0, z=1.0), internal_energy=-0.5, reduced_mass=0.75)"),
]


@pytest.mark.parametrize("value, change, text", VALUES, ids=[type(v).__name__ for v, _, _ in VALUES])
def test_value_types_are_frozen_hashable_and_copyable(value, change, text):
    cls = type(value)
    fields = {name: getattr(value, name) for name in cls.__slots__}
    for name, field in fields.items():
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is field
    assert repr(value) == text
    twin = cls(**fields)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    changed = cls(**{**fields, **change})
    assert changed != value
    for name in fields:
        assert getattr(changed, name) == change.get(name, fields[name])
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for restored in [*copies, copy.copy(value), copy.deepcopy(value)]:
        assert type(restored) is cls and restored == value
        assert hash(restored) == hash(value) and repr(restored) == text
    if cls is Observables:
        assert [f.name for f in dataclasses.fields(value)] == list(fields)
        assert dataclasses.replace(value, **change) == changed


def test_value_types_reject_bad_fields_with_messages():
    nan, inf = float("nan"), float("inf")
    for fields, components in [
        ((nan, 0.0, 0.0), "(nan, 0.0, 0.0)"),
        ((0.0, inf, 2.0), "(0.0, inf, 2.0)"),
        ((0.0, 1.0, -inf), "(0.0, 1.0, -inf)"),
    ]:
        with pytest.raises(NonFiniteError, match=re.escape(f"non-finite vector component in {components}")):
            Vec3(*fields)
    with pytest.raises(ValueError, match=re.escape("speed 1.0 must be strictly below the bound 1.0")):
        BoundedVelocity(Vec3(0.0, -1.0, 0.0), PICKLABLE_PROFILE)
    with pytest.raises(ValueError, match=re.escape("speed 2.0 must be strictly below the bound 1.0")):
        BoundedVelocity(v=Vec3(2.0, 0.0, 0.0), gfun=PICKLABLE_PROFILE)


def test_value_types_unpickle_through_the_constructor_checks():
    # An instance stored through the slot descriptors without the
    # constructor's checks pickles, but does not unpickle.
    forged_vector = object.__new__(Vec3)
    for name, component in zip("xyz", (1.0, float("nan"), 3.0)):
        Vec3.__dict__[name].__set__(forged_vector, component)
    forged_velocity = object.__new__(BoundedVelocity)
    BoundedVelocity.__dict__["v"].__set__(forged_velocity, Vec3(0.0, 1.0, 0.0))
    BoundedVelocity.__dict__["gfun"].__set__(forged_velocity, PICKLABLE_PROFILE)
    for forged, error, message in [
        (forged_vector, NonFiniteError, "non-finite vector component in (1.0, nan, 3.0)"),
        (forged_velocity, ValueError, "speed 1.0 must be strictly below the bound 1.0"),
    ]:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            payload = pickle.dumps(forged, protocol)
            with pytest.raises(error, match=re.escape(message)):
                pickle.loads(payload)


def _rational_inverse(w):
    # Module level, so a profile built on it pickles.
    return 2.0 * w / (1.0 + math.hypot(1.0, 2.0 * w))


def _doubled(a):
    return 2.0 * (1.0 + a)


# The records that check their fields: (valid instance, a bad field value,
# the error it raises). The constructor, _replace and unpickling all build
# through the checks.
CHECKED = [
    (Body("A", 1.5, Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), {"charge": 2.0}),
     {"mass": 0.0}, ValueError, "body 'A': mass must be positive and finite, got 0.0"),
    (FrameTransform(((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)), Vec3(1.0, 2.0, 3.0),
                    Vec3(0.5, 0.0, 0.0), 0.25),
     {"rotation": ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0))}, ValueError,
     "rotation is not orthogonal (defect 3.000e+00)"),
    (FrameTransform(time_offset=-1.0), {"time_offset": float("inf")}, ValueError,
     "time_offset must be finite"),
    (IntegratorConfig("rk4", 0.01, 10.0), {"t_end": 1e5}, ScenarioError,
     "integrator.step: t_end / step = 1e+07 steps, above the limit of 1000000"),
    (GFunction("rational", 1.0, _rational, inverse=_rational_inverse), {"g": _doubled},
     ValueError, "G(0) must be 1, got 2.0"),
]


@pytest.mark.parametrize(
    "value, bad, error, message", CHECKED,
    ids=["Body mass", "FrameTransform rotation", "FrameTransform time_offset",
         "IntegratorConfig steps", "GFunction G(0)"],
)
def test_checked_records_check_every_construction_path(value, bad, error, message):
    cls = type(value)
    fields = {**value._asdict(), **bad}
    with pytest.raises(error, match=re.escape(message)):
        cls(**fields)
    with pytest.raises(error, match=re.escape(message)):
        value._replace(**bad)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert type(restored) is cls and restored == value and repr(restored) == repr(value)
    # A tuple built around the checks does not unpickle.
    forged = tuple.__new__(cls, tuple(fields.values()))
    with pytest.raises(error, match=re.escape(message)):
        pickle.loads(pickle.dumps(forged))
