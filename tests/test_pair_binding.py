"""The pair-bound force kernel against the unbound one it replaced.

A ``ForceLaw`` is its pair form: ``forces.bind`` calls it once per pair,
every preset folding its property products once, and ``merge_laws`` and
``soften`` compose the terms. ``raw_force_pair`` on the bound law must
give the floats that the earlier kernel (``helpers.unbound_raw_force_pair``,
which calls the coefficient functions of the matching ``UnboundLaw`` at
every evaluation) gives: equal components, and equal signs wherever a
component is zero. The same holds for the bound potential against the
declared one.
"""

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
from invarlab.forces import PairTerms, PropertyView, bind, raw_force_pair

from helpers import (
    UnboundLaw, unbound_charge_squared, unbound_coulomb, unbound_free, unbound_gravity,
    unbound_linear_drag, unbound_merge, unbound_perp_demo, unbound_potential,
    unbound_raw_force_pair, unbound_soften, unbound_spring,
)


def library_law():
    """A law built as a pair form, reading every invariant."""

    def pair_form(qa, qb):
        k, c, p = -qa["mass"] * qb["mass"], -0.3 * qa["charge"], 0.2 * qb["charge"]
        return PairTerms(
            phi_e=lambda r, speed, radial: k / (r * r * r) + 0.1 * speed,
            phi_s=lambda r, speed, radial: c * radial,
            phi_perp=lambda r, speed, radial: p / (1.0 + r),
        )

    return ForceLaw("library", pair_form, min_separation=1e-6)


def unbound_library_law():
    return UnboundLaw(
        "library",
        phi_e=lambda qa, qb, r, speed, radial: -qa["mass"] * qb["mass"] / (r * r * r) + 0.1 * speed,
        phi_s=lambda qa, qb, r, speed, radial: -0.3 * qa["charge"] * radial,
        phi_perp=lambda qa, qb, r, speed, radial: 0.2 * qb["charge"] / (1.0 + r),
        singular=True,
        min_separation=1e-6,
    )


def library_central_law():
    """A central law built as a pair form, with its potential."""

    def pair_form(qa, qb):
        k = -qa["mass"] * qb["mass"]
        return PairTerms(phi_r=lambda r: k / (r * r * r) - 0.5,
                         potential=lambda r: k / r + 0.25 * r * r)

    return ForceLaw("library-central", pair_form, min_separation=1e-9)


def unbound_library_central_law():
    return UnboundLaw(
        "library-central",
        phi_e=lambda qa, qb, r, speed, radial: -qa["mass"] * qb["mass"] / (r * r * r) - 0.5,
        potential=lambda qa, qb, r: -qa["mass"] * qb["mass"] / r + 0.25 * r * r,
        singular=True,
    )


# Each law with the unbound law it must equal.
LAWS = {
    "free": (free(), unbound_free()),
    "gravity": (gravity(0.7), unbound_gravity(0.7)),
    "coulomb": (coulomb(1.3), unbound_coulomb(1.3)),
    "spring": (spring(2.1), unbound_spring(2.1)),
    "linear-drag": (linear_drag(0.4), unbound_linear_drag(0.4)),
    "perp-demo": (perp_demo(0.6), unbound_perp_demo(0.6)),
    "charge-squared": (charge_squared(1.1), unbound_charge_squared(1.1)),
    "gravity+coulomb": (merge_laws((gravity(0.7), coulomb(1.3))),
                        unbound_merge((unbound_gravity(0.7), unbound_coulomb(1.3)))),
    "spring+linear-drag": (merge_laws((spring(2.1), linear_drag(0.4))),
                           unbound_merge((unbound_spring(2.1), unbound_linear_drag(0.4)))),
    "softened-gravity": (soften(gravity(0.7), 0.05), unbound_soften(unbound_gravity(0.7), 0.05)),
    "library": (library_law(), unbound_library_law()),
    "library-central": (library_central_law(), unbound_library_central_law()),
    "gravity+library": (merge_laws((gravity(0.7), library_law())),
                        unbound_merge((unbound_gravity(0.7), unbound_library_law()))),
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
    law, unbound = LAWS[name]
    rng = random.Random(name)
    for _ in range(3):
        a, b = bodies(rng)
        pair = bind(law, a, b)
        qa, qb = PropertyView(a), PropertyView(b)
        for state in relative_states(rng):
            expected = outcome(unbound_raw_force_pair, unbound, qa, qb, *state)
            got = outcome(raw_force_pair, pair, *state)
            if expected[0] is SingularityError:
                assert got == expected
            else:
                assert same_floats(got, expected), (state, got, expected)


@pytest.mark.parametrize("name", [name for name, (_, unbound) in LAWS.items() if unbound.central])
def test_bound_potential_equals_the_declared_potential(name):
    law, unbound = LAWS[name]
    rng = random.Random(name)
    a, b = bodies(rng)
    potential = bind(law, a, b).potential
    for r in (0.3, 1.0, 1.7, 4.0):
        assert same_floats(
            (potential(r),), (unbound_potential(unbound, PropertyView(a), PropertyView(b), r),)
        )


def test_pair_law_holds_the_pair_and_the_law_flags():
    a = Body("A", 1.5, Vec3(1, 0, 0), Vec3(0, 0, 0), {"charge": 2.0})
    b = Body("B", 0.5, Vec3(0, 0, 0), Vec3(0, 0, 0))
    for law, unbound in LAWS.values():
        pair = bind(law, a, b)
        assert (pair.name, pair.ma, pair.mb) == (unbound.name, 1.5, 0.5)
        assert pair.mu == 1.5 * 0.5 / (1.5 + 0.5)
        # The reference law keeps a flag beside its radius; the bound law, the floor they make.
        floor = unbound.min_separation if unbound.singular else 0.0
        assert (pair.min_separation, pair.central) == (floor, unbound.central)
        assert (pair.potential is not None) == unbound.central
        for channel in ("phi_e", "phi_s", "phi_perp"):
            assert (getattr(pair, channel) is None) == (getattr(unbound, channel) is None)
        # A central law with a radial channel is evaluated from the separation alone.
        assert (pair.phi_r is not None) == (unbound.central and unbound.phi_e is not None)
    assert bind(LAWS["library-central"][0], a, b).phi_r is not None
    assert bind(LAWS["spring+linear-drag"][0], a, b).phi_r is None


def refuse(*args):
    raise AssertionError("a coefficient was evaluated")


@pytest.mark.parametrize("name", [name for name, (law, _) in LAWS.items() if law.singular])
def test_singularity_is_raised_first_with_the_same_text(name):
    law, unbound = LAWS[name]
    a, b = bodies(random.Random(name))
    pair = bind(law, a, b)
    for channel in ("phi_r", "phi_e", "phi_s", "phi_perp", "potential"):
        if getattr(pair, channel) is not None:
            setattr(pair, channel, refuse)
    state = (0.5 * law.min_separation, 0.0, -0.0, 0.3, 0.2, 0.1)
    expected = outcome(unbound_raw_force_pair, unbound, PropertyView(a), PropertyView(b), *state)
    assert expected[0] is SingularityError and "below minimum" in expected[1]
    assert outcome(raw_force_pair, pair, *state) == expected


def test_library_built_law_is_not_called_below_its_minimum():
    calls = []

    def counted(r, speed, radial):
        calls.append(r)
        return 1.0

    terms = PairTerms(phi_e=counted, phi_s=counted, phi_perp=counted)
    law = ForceLaw("counted", lambda qa, qb: terms, min_separation=1e-9)
    a, b = bodies(random.Random(5))
    with pytest.raises(SingularityError, match="'counted': separation 0.000e"):
        raw_force_pair(bind(law, a, b), 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    assert calls == []
    raw_force_pair(bind(law, a, b), 1.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    assert len(calls) == 3


def test_the_pair_form_is_called_once_per_bind():
    calls = []

    def pair_form(qa, qb):
        calls.append((qa["mass"], qb["mass"]))
        return PairTerms(phi_s=lambda r, speed, radial: -1.0)

    law = ForceLaw("once", pair_form)
    a, b = bodies(random.Random(3))
    pair = bind(law, a, b)
    for state in relative_states(random.Random(4)):
        raw_force_pair(pair, *state)
    assert calls == [(a.mass, b.mass)]


@pytest.mark.parametrize(
    "terms, message",
    [
        (PairTerms(phi_r=lambda r: -1.0), "central law 'bad' registers no potential"),
        (PairTerms(), "central law 'bad' registers no potential"),
        (PairTerms(phi_r=lambda r: -1.0, phi_e=lambda r, speed, radial: 1.0, potential=abs),
         "phi_r and phi_e are one channel"),
    ],
    ids=["phi_r-alone", "no-term", "phi_r-and-phi_e"],
)
def test_bind_refuses_terms_it_cannot_evaluate(terms, message):
    law = ForceLaw("bad", lambda qa, qb: terms)
    a, b = bodies(random.Random(6))
    with pytest.raises(ValueError, match=message):
        bind(law, a, b)
    if "one channel" in message:
        # Merged beside a non-central law, the form is refused all the same.
        with pytest.raises(ValueError, match=message):
            bind(merge_laws((law, linear_drag())), a, b)
