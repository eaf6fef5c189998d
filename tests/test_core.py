import copy
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
from invarlab.frames import compose, inverse
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


# Module level, so the profiles built on them pickle.
def _rational(a):
    return 1.0 / (1.0 - a * a)


def _rational_inverse(w):
    return 2.0 * w / (1.0 + math.hypot(1.0, 2.0 * w))


def _doubled(a):
    return 2.0 * (1.0 + a)


def _falling(a):
    return 1.0 - a


PICKLABLE_PROFILE = GFunction("rational", 1.0, _rational)
nan, inf = float("nan"), float("inf")
QUARTER_TURN = ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))

# (value, field changes, its repr, [(bad fields, the error they raise)]).
# The six checked value types are slot classes on core's value base;
# Observables is a test-helper dataclass with nothing to check.
VALUES = [
    (Vec3(1.0, -2.5, 3.0), {"y": 0.5}, "Vec3(x=1.0, y=-2.5, z=3.0)", [
        ({"x": nan}, NonFiniteError("non-finite vector component in (nan, -2.5, 3.0)")),
        ({"y": inf}, NonFiniteError("non-finite vector component in (1.0, inf, 3.0)")),
        ({"z": -inf}, NonFiniteError("non-finite vector component in (1.0, -2.5, -inf)")),
    ]),
    (BoundedVelocity(Vec3(0.3, 0.1, -0.2), PICKLABLE_PROFILE), {"v": Vec3(0.0, 0.5, 0.0)},
     f"BoundedVelocity(v=Vec3(x=0.3, y=0.1, z=-0.2), gfun={PICKLABLE_PROFILE!r})", [
        ({"v": Vec3(0.0, -1.0, 0.0)}, ValueError("speed 1.0 must be strictly below the bound 1.0")),
        ({"v": Vec3(2.0, 0.0, 0.0)}, ValueError("speed 2.0 must be strictly below the bound 1.0")),
    ]),
    (Body("A", 1.5, Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), {"charge": 2.0}), {"mass": 3.0},
     "Body(id='A', mass=1.5, position=Vec3(x=1.0, y=0.0, z=0.0), "
     "velocity=Vec3(x=0.0, y=1.0, z=0.0), properties={'charge': 2.0})", [
        ({"mass": 0.0}, ValueError("body 'A': mass must be positive and finite, got 0.0")),
        ({"mass": -inf}, ValueError("body 'A': mass must be positive and finite, got -inf")),
        ({"mass": nan}, ValueError("body 'A': mass must be positive and finite, got nan")),
    ]),
    (FrameTransform(QUARTER_TURN, Vec3(1.0, 2.0, 3.0), Vec3(0.5, 0.0, 0.0), 0.25),
     {"time_offset": -1.0},
     f"FrameTransform(rotation={QUARTER_TURN!r}, translation=Vec3(x=1.0, y=2.0, z=3.0), "
     "boost=Vec3(x=0.5, y=0.0, z=0.0), time_offset=0.25)", [
        ({"rotation": ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0))},
         ValueError("rotation is not orthogonal (defect 3.000e+00)")),
        ({"rotation": ((nan, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))},
         ValueError("rotation entries must be finite, got ((nan, 0.0, 0.0), (0.0, 1.0, 0.0), "
                    "(0.0, 0.0, 1.0))")),
        ({"rotation": ((1.0, 0.0, 0.0), (0.0, 1.0))},
         ValueError("rotation must be a 3x3 matrix of numbers")),
        ({"time_offset": inf}, ValueError("time_offset must be finite")),
    ]),
    (IntegratorConfig("rk4", 0.01, 10.0), {"method": "verlet"},
     "IntegratorConfig(method='rk4', step=0.01, t_end=10.0)", [
        ({"t_end": 1e5},
         ScenarioError("integrator.step: t_end / step = 1e+07 steps, above the limit of 1000000")),
        ({"step": 1e-9},
         ScenarioError("integrator.step: t_end / step = 1e+10 steps, above the limit of 1000000")),
    ]),
    (GFunction("rational", 1.0, _rational, inverse=_rational_inverse), {"inverse": None},
     f"GFunction(name='rational', c=1.0, g={_rational!r}, inverse={_rational_inverse!r})", [
        ({"c": 0.0}, ValueError("limiting speed c must be positive")),
        ({"g": _doubled}, ValueError("G(0) must be 1, got 2.0")),
        ({"g": _falling}, ValueError("G must be strictly increasing; violated near 0")),
    ]),
    (Observables(Vec3(1.0, 2.0, 3.0), Vec3(0.0, 0.0, 1.0), -0.5, 0.75), {"internal_energy": None},
     "Observables(total_momentum=Vec3(x=1.0, y=2.0, z=3.0), "
     "angular_momentum=Vec3(x=0.0, y=0.0, z=1.0), internal_energy=-0.5, reduced_mass=0.75)", []),
]


def _fields(value):
    return {name: getattr(value, name) for name in type(value).__slots__}


def _hash(value):
    """The hash, or the error's text where a field (a body's properties)
    is unhashable."""
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("value, change, text, bad", VALUES, ids=[type(v).__name__ for v, *_ in VALUES])
def test_value_types_are_frozen_hashable_and_copyable(value, change, text, bad):
    cls = type(value)
    fields = _fields(value)
    for name, field in fields.items():
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is field
    assert repr(value) == text
    # The constructor takes each field by keyword, the keyword-only too.
    twin = cls(**fields)
    assert twin is not value and twin == value
    assert _hash(twin) == _hash(value) == _hash(tuple(fields.values()))
    changed = cls(**{**fields, **change})
    assert changed != value
    for name in fields:
        assert getattr(changed, name) == change.get(name, fields[name])
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for restored in [*copies, copy.copy(value), copy.deepcopy(value)]:
        assert type(restored) is cls and restored == value
        assert _hash(restored) == _hash(value) and repr(restored) == text


def test_value_types_reject_bad_fields_with_messages():
    for value, _, _, bad in VALUES:
        for change, error in bad:
            with pytest.raises(type(error), match=re.escape(str(error))):
                type(value)(**{**_fields(value), **change})


def test_value_types_unpickle_through_the_constructor_checks():
    # An instance stored through the slot descriptors without the
    # constructor's checks pickles, but does not unpickle.
    for value, _, _, bad in VALUES:
        cls = type(value)
        for change, error in bad:
            forged = object.__new__(cls)
            for name, field in {**_fields(value), **change}.items():
                cls.__dict__[name].__set__(forged, field)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                payload = pickle.dumps(forged, protocol)
                with pytest.raises(type(error), match=re.escape(str(error))):
                    pickle.loads(payload)


# A FrameTransform builds through its checks on every path: the
# constructor by keyword and by position, copying and unpickling, and
# compose and inverse, which build their result through the constructor.
# (valid instance, a bad field value, the error it raises)
FRAME_CHECKS = [
    (FrameTransform(QUARTER_TURN, Vec3(1.0, 2.0, 3.0), Vec3(0.5, 0.0, 0.0), 0.25),
     {"rotation": ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0))},
     ValueError("rotation is not orthogonal (defect 3.000e+00)")),
    (FrameTransform(time_offset=-1.0), {"time_offset": inf}, ValueError("time_offset must be finite")),
]


@pytest.mark.parametrize(
    "value, bad, error", FRAME_CHECKS, ids=["FrameTransform rotation", "FrameTransform time_offset"],
)
def test_checked_records_check_every_construction_path(value, bad, error):
    cls, message = type(value), re.escape(str(error))
    fields = {**_fields(value), **bad}
    with pytest.raises(type(error), match=message):
        cls(**fields)
    with pytest.raises(type(error), match=message):
        cls(*fields.values())
    for restored in [*(pickle.loads(pickle.dumps(value, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
                     copy.copy(value), copy.deepcopy(value)]:
        assert type(restored) is cls and restored == value and repr(restored) == repr(value)
    # An instance stored around the checks neither copies nor unpickles,
    # and compose and inverse refuse to build on it.
    forged = object.__new__(cls)
    for name, field in fields.items():
        cls.__dict__[name].__set__(forged, field)
    for rebuild in [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))]:
        with pytest.raises(type(error), match=message):
            rebuild(forged)
    for build in [inverse, lambda t: compose(t, value), lambda t: compose(value, t)]:
        with pytest.raises(ValueError):
            build(forged)
