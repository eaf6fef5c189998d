"""The pair-bound force kernel against the unbound one it replaced.

``forces.bind`` closes a law over one pair's properties; every preset folds
its property products once, and ``merge_laws`` and ``soften`` compose the
bound forms. ``raw_force_pair`` on the bound law must give the floats that
the earlier kernel (``helpers.unbound_raw_force_pair``, which calls the
declared PhiFns at every evaluation) gives: equal components, and equal
signs wherever a component is zero. The same holds for the bound
potential against the declared one.
"""

import dataclasses
import math
import random

import pytest

from invarlab import (
    Body,
    ForceLaw,
    SingularityError,
    Vec3,
    charge_squared,
    coulomb,
    free,
    gravity,
    linear_drag,
    merge_laws,
    perp_demo,
    soften,
    spring,
)
from invarlab.forces import PropertyView, bind, raw_force_pair

from helpers import unbound_potential, unbound_raw_force_pair


def library_law():
    """A law built from PhiFns alone, reading every invariant."""
    return ForceLaw(
        "library",
        phi_e=lambda qa, qb, r, speed, radial: -qa["mass"] * qb["mass"] / (r * r * r) + 0.1 * speed,
        phi_s=lambda qa, qb, r, speed, radial: -0.3 * qa["charge"] * radial,
        phi_perp=lambda qa, qb, r, speed, radial: 0.2 * qb["charge"] / (1.0 + r),
        singular=True,
        min_separation=1e-6,
    )


def library_central_law():
    """A central law built from PhiFns alone, with no registered potential."""
    return ForceLaw(
        "library-central",
        phi_e=lambda qa, qb, r, speed, radial: -qa["mass"] * qb["mass"] / (r * r * r) - 0.5,
        singular=True,
    )


LAWS = {
    "free": free(),
    "gravity": gravity(0.7),
    "coulomb": coulomb(1.3),
    "spring": spring(2.1),
    "linear-drag": linear_drag(0.4),
    "perp-demo": perp_demo(0.6),
    "charge-squared": charge_squared(1.1),
    "gravity+coulomb": merge_laws((gravity(0.7), coulomb(1.3))),
    "spring+linear-drag": merge_laws((spring(2.1), linear_drag(0.4))),
    "softened-gravity": soften(gravity(0.7), 0.05),
    "library": library_law(),
    "library-central": library_central_law(),
    "gravity+library": merge_laws((gravity(0.7), library_law())),
}


def bodies(rng):
    a = Body("A", rng.uniform(0.5, 3.0), Vec3(0, 0, 0), Vec3(0, 0, 0),
             {"charge": rng.uniform(-2.0, 2.0)})
    b = Body("B", rng.uniform(0.5, 3.0), Vec3(0, 0, 0), Vec3(0, 0, 0),
             {"charge": rng.uniform(-2.0, 2.0)})
    return a, b


def relative_states(rng):
    """Random (x_ab, v_ab) components, then every combination of an exactly
    zero relative position or velocity, with either sign of zero."""
    for _ in range(40):
        yield tuple(rng.uniform(-2.0, 2.0) for _ in range(6))
    x = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
    v = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
    for zero in (0.0, -0.0):
        still = (zero, zero, zero)
        yield x + still
        yield still + v
        yield still + still
        yield (zero, x[1], zero) + (v[0], zero, zero)


def outcome(fn, *args):
    try:
        return fn(*args)
    except SingularityError as exc:
        return SingularityError, str(exc)


def same_floats(xs, ys):
    """Equal component for component, and equal in sign wherever zero."""
    return len(xs) == len(ys) and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(xs, ys)
    )


@pytest.mark.parametrize("name", LAWS)
def test_bound_kernel_equals_the_unbound_kernel(name):
    law = LAWS[name]
    rng = random.Random(name)
    for _ in range(3):
        a, b = bodies(rng)
        pair = bind(law, a, b)
        qa, qb = PropertyView(a), PropertyView(b)
        for state in relative_states(rng):
            expected = outcome(unbound_raw_force_pair, law, qa, qb, *state)
            got = outcome(raw_force_pair, pair, *state)
            if expected[0] is SingularityError:
                assert got == expected
            else:
                assert same_floats(got, expected), (state, got, expected)


@pytest.mark.parametrize("name", [name for name, law in LAWS.items() if law.central])
def test_bound_potential_equals_the_declared_potential(name):
    law = LAWS[name]
    rng = random.Random(name)
    a, b = bodies(rng)
    potential = bind(law, a, b).potential
    for r in (0.3, 1.0, 1.7, 4.0):
        assert same_floats(
            (potential(r),), (unbound_potential(law, PropertyView(a), PropertyView(b), r),)
        )


def test_pair_law_holds_the_pair_and_the_law_flags():
    a = Body("A", 1.5, Vec3(1, 0, 0), Vec3(0, 0, 0), {"charge": 2.0})
    b = Body("B", 0.5, Vec3(0, 0, 0), Vec3(0, 0, 0))
    for law in LAWS.values():
        pair = bind(law, a, b)
        assert (pair.name, pair.ma, pair.mb) == (law.name, 1.5, 0.5)
        assert pair.mu == 1.5 * 0.5 / (1.5 + 0.5)
        assert (pair.singular, pair.min_separation, pair.central) == (
            law.singular, law.min_separation, law.central
        )
        assert (pair.potential is not None) == law.central
        for channel in ("phi_e", "phi_s", "phi_perp"):
            assert (getattr(pair, channel) is None) == (getattr(law, channel) is None)
    # Only a preset-built central law is evaluated from the separation alone.
    assert bind(gravity(), a, b).phi_r is not None
    assert bind(LAWS["softened-gravity"], a, b).phi_r is not None
    assert bind(LAWS["library-central"], a, b).phi_r is None
    assert bind(LAWS["spring+linear-drag"], a, b).phi_r is None


def refuse(*args):
    raise AssertionError("a coefficient was evaluated")


@pytest.mark.parametrize("name", [name for name, law in LAWS.items() if law.singular])
def test_singularity_is_raised_first_with_the_same_text(name):
    law = LAWS[name]
    a, b = bodies(random.Random(name))
    pair = bind(law, a, b)
    for channel in ("phi_r", "phi_e", "phi_s", "phi_perp", "potential"):
        if getattr(pair, channel) is not None:
            setattr(pair, channel, refuse)
    state = (0.5 * law.min_separation, 0.0, -0.0, 0.3, 0.2, 0.1)
    expected = outcome(unbound_raw_force_pair, law, PropertyView(a), PropertyView(b), *state)
    assert expected[0] is SingularityError and "below minimum" in expected[1]
    assert outcome(raw_force_pair, pair, *state) == expected


def test_library_built_law_is_not_called_below_its_minimum():
    calls = []

    def counted(qa, qb, r, speed, radial):
        calls.append(r)
        return 1.0

    law = ForceLaw("counted", phi_e=counted, phi_s=counted, phi_perp=counted, singular=True)
    a, b = bodies(random.Random(5))
    with pytest.raises(SingularityError, match="'counted': separation 0.000e"):
        raw_force_pair(bind(law, a, b), 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    assert calls == []
    raw_force_pair(bind(law, a, b), 1.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    assert len(calls) == 3


def test_replaced_coefficients_bind_through_the_replacement():
    law = dataclasses.replace(gravity(0.7), phi_e=lambda qa, qb, r, speed, radial: 2.0 * speed)
    assert bind(law, *bodies(random.Random(1))).phi_r is None
    a, b = bodies(random.Random(2))
    state = (0.3, -0.4, 0.5, 1.0, 2.0, -2.0)
    expected = unbound_raw_force_pair(law, PropertyView(a), PropertyView(b), *state)
    assert same_floats(raw_force_pair(bind(law, a, b), *state), expected)
    assert expected[0] == 0.3 * (2.0 * 3.0)
