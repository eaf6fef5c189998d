import copy
import json
import math
import pickle
import random
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, strategies as st

import invarlab.audits as audits
import invarlab.velocity_addition as velocity_addition
from invarlab.cli import main, resolve_scenario_path
from invarlab.core import Check
from invarlab.velocity_addition import _catch_up_time
from invarlab import (
    BoundedVelocity,
    ConvergenceError,
    GFUNCTIONS,
    GFunction,
    Vec3,
    check_invariance_theorem,
    classical_g,
    classical_light_quotient,
    light_quotient,
    lorentz_g,
    oplus,
    proper_time,
    rational_g,
    solve_increasing,
    zero_velocity,
)

from helpers import as_tuple, random_unit


def bisect_weighted_speed(gfun, target, iterations=200):
    """Independent bisection oracle for w G(w) = target."""
    lo, hi = 0.0, gfun.c * (1.0 - 1e-15)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid * gfun.g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_g_function_validation():
    with pytest.raises(ValueError):
        GFunction("bad-at-rest", 1.0, lambda a: 2.0)
    with pytest.raises(ValueError):
        GFunction("decreasing", 1.0, lambda a: 1.0 - a if a < 0.5 else 1.0 + a)
    with pytest.raises(ValueError):
        GFunction("negative-c", -1.0, lambda a: 1.0)
    with pytest.raises(TypeError):  # the inverse is keyword-only
        GFunction("positional", 1.0, lorentz_g().g, lambda w: w)
    lorentz_g(2.0)  # fine
    rational_g(0.5)
    classical_g()


def test_g_function_domain():
    g = lorentz_g(1.0)
    assert g(0.0) == 1.0
    with pytest.raises(ValueError):
        g(1.0)
    with pytest.raises(ValueError):
        g(-0.1)


def test_bounded_velocity_requires_speed_below_c():
    g = lorentz_g(1.0)
    BoundedVelocity(Vec3(0.999, 0, 0), g)
    with pytest.raises(ValueError):
        BoundedVelocity(Vec3(1.0, 0, 0), g)
    with pytest.raises(ValueError):
        BoundedVelocity(Vec3(0.8, 0.8, 0), g)


def test_mixed_profiles_rejected():
    u = BoundedVelocity(Vec3(0.1, 0, 0), lorentz_g(1.0))
    v = BoundedVelocity(Vec3(0.1, 0, 0), rational_g(1.0))
    w = BoundedVelocity(Vec3(0.1, 0, 0), lorentz_g(2.0))
    with pytest.raises(ValueError):
        oplus(u, v)
    with pytest.raises(ValueError):
        oplus(u, w)


def test_neutral_element():
    g = lorentz_g(1.0)
    u = BoundedVelocity(Vec3(0.3, -0.4, 0.1), g)
    assert (oplus(u, zero_velocity(g)).v - u.v).norm() < 1e-15
    assert (oplus(zero_velocity(g), u).v - u.v).norm() < 1e-15


def test_inverse_element():
    g = rational_g(1.0)
    u = BoundedVelocity(Vec3(0.5, 0.2, -0.6), g)
    assert oplus(u, -u).v.norm() == 0.0


def test_collinear_addition_against_bisection_oracle():
    g = lorentz_g(1.0)
    u = BoundedVelocity(Vec3(0.6, 0, 0), g)
    w = oplus(u, u)
    oracle = bisect_weighted_speed(g, 1.5)  # g(0.6) * 0.6 * 2 = 1.5
    assert abs(w.v.x - oracle) < 1e-12
    assert abs(w.v.x - 0.8320502943378437) < 1e-12
    assert abs(w.v.x - 1.5 / math.sqrt(3.25)) < 1e-14


def test_weighted_vector_reconstruction():
    rng = random.Random(30)
    for gfun in (lorentz_g(1.0), rational_g(2.0)):
        for _ in range(200):
            u = BoundedVelocity(random_unit(rng) * (rng.uniform(0, 0.98) * gfun.c), gfun)
            v = BoundedVelocity(random_unit(rng) * (rng.uniform(0, 0.98) * gfun.c), gfun)
            w = oplus(u, v)
            rhs = u.v * u.weight() + v.v * v.weight()
            assert (w.v * w.weight() - rhs).norm() < 1e-12 * (1.0 + rhs.norm())
            assert w.speed < gfun.c


def test_monotone_consistency_bound():
    # |u (+) v| never exceeds the inverse image of the summed weighted
    # norms; equality only for aligned operands.
    rng = random.Random(31)
    g = lorentz_g(1.0)
    for _ in range(100):
        u = BoundedVelocity(random_unit(rng) * rng.uniform(0.05, 0.95), g)
        v = BoundedVelocity(random_unit(rng) * rng.uniform(0.05, 0.95), g)
        w = oplus(u, v)
        cap = g.solve_speed(u.speed * g(u.speed) + v.speed * g(v.speed))
        assert w.speed <= cap + 1e-12
    u = BoundedVelocity(Vec3(0.5, 0, 0), g)
    v = BoundedVelocity(Vec3(0.25, 0, 0), g)
    aligned = oplus(u, v)
    cap = g.solve_speed(0.5 * g(0.5) + 0.25 * g(0.25))
    assert abs(aligned.speed - cap) < 1e-13


speeds = st.floats(min_value=0.0, max_value=0.95)


@given(speeds, speeds, st.floats(min_value=0.0, max_value=2 * math.pi))
def test_commutativity_property(s1, s2, angle):
    g = lorentz_g(1.0)
    u = BoundedVelocity(Vec3(s1, 0.0, 0.0), g)
    v = BoundedVelocity(Vec3(s2 * math.cos(angle), s2 * math.sin(angle), 0.0), g)
    assert (oplus(u, v).v - oplus(v, u).v).norm() < 1e-12


@given(speeds, speeds, speeds)
def test_associativity_property_collinear(s1, s2, s3):
    g = rational_g(1.0)
    u, v, w = (BoundedVelocity(Vec3(s, 0, 0), g) for s in (s1, s2, s3))
    left = oplus(oplus(u, v), w)
    right = oplus(u, oplus(v, w))
    assert (left.v - right.v).norm() < 1e-10


def test_solve_speed_round_trips_near_the_bound():
    for gfun in (lorentz_g(1.0), rational_g(0.5)):
        for frac in (0.1, 0.9, 0.999, 0.999999, 1.0 - 1e-12):
            speed = frac * gfun.c
            recovered = gfun.solve_speed(speed * gfun(speed))
            assert abs(recovered - speed) < 1e-12 * gfun.c


def exact_speed(profile, c, w):
    """Root of a G(a) = w for the float w, at 50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        w, c = Decimal(w), Decimal(c)
        if profile == "classical":
            a = w
        elif profile == "lorentz":
            u = w / c
            a = c * u / (1 + u * u).sqrt()
            assert abs(a / (1 - (a / c) ** 2).sqrt() - w) <= Decimal("1e-40") * w
        else:
            a = 2 * w / (1 + (1 + (2 * w / c) ** 2).sqrt())
            assert abs(a / (1 - (a / c) ** 2) - w) <= Decimal("1e-40") * w
        return float(a)


def closed_form_cases():
    """(profile, speed scale, weighted norm): the bounded profiles at two
    bounds c, the classical one at the same two speed scales."""
    rng = random.Random(34)
    fractions = [1e-12, 1e-6, 0.001, 0.5, 0.9, 0.99, 0.999]
    fractions += [rng.uniform(0.0, 0.999) for _ in range(300)]
    profiles = [(factory(c), c) for factory in (lorentz_g, rational_g) for c in (1.0, 3e8)]
    profiles += [(classical_g(), scale) for scale in (1.0, 3e8)]
    for gfun, scale in profiles:
        for frac in fractions:
            speed = frac * scale
            yield gfun, scale, speed * gfun(speed)


def test_closed_form_inverses_match_a_decimal_oracle():
    for gfun, _, w in closed_form_cases():
        exact = exact_speed(gfun.name, gfun.c, w)
        assert abs(gfun.inverse(w) - exact) <= 3 * math.ulp(exact), (gfun.name, gfun.c, w)
        assert gfun.solve_speed(w) == gfun.inverse(w)


def test_closed_form_inverses_agree_with_the_root_solver():
    for gfun, scale, w in closed_form_cases():
        solver_only = GFunction(gfun.name, gfun.c, gfun.g)
        assert abs(gfun.solve_speed(w) - solver_only.solve_speed(w)) <= 1e-12 * scale


@pytest.mark.parametrize("factory", [lorentz_g, rational_g])
@pytest.mark.parametrize("c", [1.0, 3e8])
def test_unreachable_weighted_norm_still_raises(factory, c):
    gfun = factory(c)
    with pytest.raises(ConvergenceError, match="not reachable below the bound"):
        gfun.solve_speed(1e200)
    with pytest.raises(ValueError):
        gfun.solve_speed(-1.0)
    assert gfun.solve_speed(0.0) == 0.0


def test_only_profiles_without_a_closed_form_use_the_solver(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_increasing(*args, **kwargs)

    solve_increasing = velocity_addition.solve_increasing
    monkeypatch.setattr(velocity_addition, "solve_increasing", counting)
    custom = GFunction("quartic", 1.0, lambda a: 1.0 / (1.0 - a**4))
    shipped = [factory() for factory in GFUNCTIONS.values()]
    expected_solves = [(gfun, 0) for gfun in shipped] + [(rational_g(2.0), 0), (custom, 1)]
    for gfun, expected in expected_solves:
        calls.clear()
        u = BoundedVelocity(Vec3(0.3, 0.1, 0.0), gfun)
        v = BoundedVelocity(Vec3(0.0, 0.4, 0.2), gfun)
        oplus(u, v)
        assert len(calls) == expected, gfun.name
    assert custom.inverse is None and all(gfun.inverse is not None for gfun in shipped)
    assert classical_g().solve_speed(0.75) == 0.75


def _reference_speed(v):
    """|v| as a sum of squares, or by hypot where that overflows."""
    s = math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)
    return s if s < math.inf else math.hypot(v.x, v.y, v.z)


def _row_vectors(scale, rng):
    """Random vectors below ``scale``, ``nextafter(scale, 0)`` along each
    axis, and components near 1e154, whose squares overflow together."""
    yield from (random_unit(rng) * rng.uniform(0.0, 0.99) * scale for _ in range(8))
    edge = math.nextafter(scale, 0.0)
    yield from (Vec3(edge, 0.0, 0.0), Vec3(0.0, -edge, 0.0), Vec3(0.0, 0.0, edge))
    yield from (Vec3(1.2e154, 0.0, 0.0), Vec3(9e153, -9e153, 9e153), Vec3(1e154, 1e154, 0.0))


@pytest.mark.parametrize("profile", ["lorentz", "rational", "classical"])
@pytest.mark.parametrize("c", [1e-150, 1.0, 3e8, 1e150, math.sqrt(sys.float_info.max)])
def test_stored_speed_and_weight_are_exact_on_every_build_path(profile, c):
    # The constructor stores |v| and G(|v|) once; every velocity built from
    # one, by negation, composition, copying or pickling, must hold the
    # values recomputed from its vector, bit for bit. (Copies and unpickled
    # velocities rebuild through the constructor, an unpickled one on a new
    # profile that is compatible with the original.)
    gfun = classical_g() if profile == "classical" else GFUNCTIONS[profile](c)
    rng = random.Random(f"{profile}:{c}")

    def exact(w):
        speed = _reference_speed(w.v)
        assert w.gfun.compatible(gfun)
        assert w.speed.hex() == speed.hex()
        assert w.weight().hex() == gfun(speed).hex()

    built = []
    for vector in _row_vectors(c, rng):
        if not _reference_speed(vector) < gfun.c:
            with pytest.raises(ValueError, match="must be strictly below the bound"):
                BoundedVelocity(vector, gfun)
            continue
        v = BoundedVelocity(vector, gfun)
        built.append(v)
        unpickled = pickle.loads(pickle.dumps(v))
        assert unpickled.v == v.v
        for w in (v, -v, copy.copy(v), copy.deepcopy(v), unpickled, -unpickled):
            exact(w)
    assert len(built) >= 11
    # Near c, the weighted sums are not reachable below the bound.
    composable = [v for v in built if v.speed <= 0.99 * gfun.c]
    assert len(composable) >= 8
    for u, v in zip(composable, composable[1:] + composable[:1]):
        exact(oplus(u, v))
        exact(oplus(v, v))
        exact(pickle.loads(pickle.dumps(oplus(u, v))))


def test_closure_survives_extreme_operands():
    g = lorentz_g(1.0)
    u = BoundedVelocity(Vec3(0.99999, 0, 0), g)
    w = oplus(u, u)
    assert w.speed < 1.0
    assert w.speed > 0.99999  # composing forward motions only gets faster
    head_on = oplus(u, -u)
    assert head_on.v.norm() == 0.0


def test_monotone_bound_is_strict_off_axis():
    g = lorentz_g(1.0)
    u = BoundedVelocity(Vec3(0.6, 0, 0), g)
    v = BoundedVelocity(Vec3(0, 0.6, 0), g)
    cap = g.solve_speed(0.6 * g(0.6) * 2.0)
    assert oplus(u, v).speed < cap - 1e-6


def test_classical_profile_degenerates_to_vector_addition():
    g = classical_g()
    rng = random.Random(32)
    for _ in range(100):
        u = BoundedVelocity(random_unit(rng) * rng.uniform(0, 50), g)
        v = BoundedVelocity(random_unit(rng) * rng.uniform(0, 50), g)
        w = oplus(u, v)
        assert (w.v - (u.v + v.v)).norm() < 1e-9 * (1.0 + (u.v + v.v).norm())


def test_proper_time_at_rest_equals_subjective_time():
    g = lorentz_g(1.0)
    assert proper_time(3.5, zero_velocity(g)) == 3.5


def test_proper_time_divides_by_weight():
    # Pick the speed where G = 2: for the lorentz profile a = sqrt(3)/2 c.
    g = lorentz_g(1.0)
    v = BoundedVelocity(Vec3(math.sqrt(3.0) / 2.0, 0, 0), g)
    assert proper_time(1.0, v) == pytest.approx(0.5, rel=1e-12)


def test_proper_time_strictly_decreasing_in_speed():
    g = rational_g(1.0)
    taus = [
        proper_time(1.0, BoundedVelocity(Vec3(s, 0, 0), g))
        for s in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)
    ]
    assert all(t2 < t1 for t1, t2 in zip(taus, taus[1:]))


def test_invariance_theorem_holds_generally():
    rng = random.Random(33)
    for gfun in (lorentz_g(1.0), rational_g(1.0)):
        for _ in range(100):
            v2 = BoundedVelocity(random_unit(rng) * rng.uniform(0, 0.95), gfun)
            v3 = BoundedVelocity(random_unit(rng) * rng.uniform(0, 0.95), gfun)
            result = check_invariance_theorem(v2, v3, rng.uniform(0.1, 3.0))
            assert result.passed, result.detail


def test_invariance_theorem_zero_leg_reduces_to_identity():
    g = lorentz_g(1.0)
    v2 = BoundedVelocity(Vec3(0.4, 0.1, 0), g)
    result = check_invariance_theorem(v2, zero_velocity(g), 1.0)
    assert result.passed
    assert result.residual < 1e-14


def test_invariance_break_is_first_order():
    g = lorentz_g(1.0)
    v2 = BoundedVelocity(Vec3(0.5, 0, 0), g)
    v3 = BoundedVelocity(Vec3(0, 0.3, 0), g)
    duration, eps = 1.7, 0.01
    v1 = oplus(v2, v3)
    dt1 = duration * v1.weight()
    dt2 = duration * v2.weight()
    dt3 = duration * v3.weight()
    lhs = v1.v * dt1
    broken = (lhs - v2.v * (dt2 * (1 + eps)) - v3.v * dt3).norm()
    predicted = eps * dt2 * v2.speed
    assert abs(broken - predicted) <= 0.1 * predicted


def test_proper_time_consistent_across_chained_composition():
    # Three-frame chains: the weighted representative is additive, so the
    # proper interval of one process agrees no matter how the chain is cut.
    rng = random.Random(34)
    g = lorentz_g(1.0)
    for _ in range(50):
        u = BoundedVelocity(random_unit(rng) * rng.uniform(0, 0.9), g)
        v = BoundedVelocity(random_unit(rng) * rng.uniform(0, 0.9), g)
        w = BoundedVelocity(random_unit(rng) * rng.uniform(0, 0.9), g)
        total = oplus(oplus(u, v), w)
        duration = 1.3
        subjective = duration * total.weight()
        assert proper_time(subjective, total) == pytest.approx(duration, rel=1e-12)


def test_light_quotient_rest_frame():
    g = lorentz_g(1.0)
    assert light_quotient(zero_velocity(g), 2.0) == pytest.approx(1.0, rel=1e-15)


def test_light_quotient_frame_independent():
    rng = random.Random(35)
    for gfun in (lorentz_g(1.0), rational_g(3.0)):
        for _ in range(20):
            boost = BoundedVelocity(random_unit(rng) * (rng.uniform(0, 0.9) * gfun.c), gfun)
            q = light_quotient(boost, rng.uniform(0.5, 5.0))
            assert abs(q - gfun.c) < 1e-12 * gfun.c


def test_light_quotient_rejects_bad_input():
    g = lorentz_g(1.0)
    with pytest.raises(ValueError):
        light_quotient(zero_velocity(g), 0.0)
    with pytest.raises(ValueError):
        light_quotient(zero_velocity(classical_g()), 1.0)


def classical_two_leg_prediction(boost: Vec3, signal_speed: float, axis: Vec3) -> float:
    """Closed-form two-leg echo quotient under plain vector addition."""
    v2 = boost.norm() ** 2
    unit = axis / axis.norm()
    p = unit.x * boost.x + unit.y * boost.y + unit.z * boost.z
    return (signal_speed**2 - v2) / math.sqrt(p * p + signal_speed**2 - v2)


def test_classical_quotient_longitudinal_and_transverse():
    c = 1.0
    longitudinal = classical_light_quotient(Vec3(0.5, 0, 0), 2.0, c)
    assert longitudinal == pytest.approx(0.75, abs=1e-12)  # c (1 - v^2/c^2)
    transverse = classical_light_quotient(Vec3(0, 0.5, 0), 2.0, c)
    assert transverse == pytest.approx(math.sqrt(0.75), abs=1e-12)


def test_classical_quotient_matches_prediction_generally():
    rng = random.Random(36)
    for _ in range(50):
        boost = random_unit(rng) * rng.uniform(0.0, 0.9)
        q = classical_light_quotient(boost, 3.0, 1.0)
        assert abs(q - classical_two_leg_prediction(boost, 1.0, Vec3(1, 0, 0))) < 1e-10


def test_classical_quotient_rejects_outrunning_apparatus():
    with pytest.raises(ValueError):
        classical_light_quotient(Vec3(2.0, 0, 0), 1.0, 1.0)


def solver_echo_quotient(boost, baseline, signal_speed, axis):
    """Classical echo quotient with each catch-up leg |target + v t| = s t
    found by the root solver, as before the closed form."""
    unit = axis / axis.norm()

    def leg_time(sign):
        target = unit * (sign * baseline)

        def gap(t):
            return signal_speed * t - (target + boost * t).norm()

        hi = 2.0 * baseline / (signal_speed - boost.norm())
        return solve_increasing(gap, 0.0, hi, ftol=1e-14 * (1.0 + baseline))

    return 2.0 * baseline / (leg_time(1.0) + leg_time(-1.0))


def echo_cases(signal_speed, seed):
    rng = random.Random(seed)
    for _ in range(200):
        boost = random_unit(rng) * (rng.uniform(0.0, 0.99) * signal_speed)
        axis = random_unit(rng) * rng.uniform(0.1, 10.0)
        yield boost, rng.uniform(0.01, 100.0), axis
    # Along the axis, against it, across it, at rest, and near the signal speed.
    fixed = (Vec3(0.9, 0, 0), Vec3(-0.9, 0, 0), Vec3(0, 0.9, 0), Vec3(0, 0, 0), Vec3(0.999999, 0, 0))
    for boost in fixed:
        yield boost * signal_speed, 2.0, Vec3(1, 0, 0)


@pytest.mark.parametrize("signal_speed", [1.0, 2.5])
def test_classical_echo_closed_form_matches_the_root_solver(signal_speed):
    for boost, baseline, axis in echo_cases(signal_speed, 37):
        closed = classical_light_quotient(boost, baseline, signal_speed, axis)
        solved = solver_echo_quotient(boost, baseline, signal_speed, axis)
        assert abs(closed - solved) <= 1e-12 * signal_speed


def exact_echo_quotient(boost, baseline, signal_speed, axis):
    """The closed form evaluated in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        n = sum(Decimal(x) ** 2 for x in as_tuple(axis)).sqrt()
        unit = [Decimal(x) / n for x in as_tuple(axis)]
        v = [Decimal(x) for x in as_tuple(boost)]
        a = Decimal(signal_speed) ** 2 - sum(x * x for x in v)
        total = Decimal(0)
        for sign in (1, -1):
            target = [x * sign * Decimal(baseline) for x in unit]
            b = sum(p * q for p, q in zip(target, v))
            c = sum(p * p for p in target)
            total += (b + (b * b + a * c).sqrt()) / a
        return 2 * Decimal(baseline) / total


@pytest.mark.parametrize("signal_speed", [1.0, 3e8])
def test_classical_echo_closed_form_matches_a_decimal_oracle(signal_speed):
    # The root solver's tolerance is absolute in length, so at c = 3e8 it
    # is ~1e-8 off; the closed form stays within a few ulps at any scale.
    for boost, baseline, axis in echo_cases(signal_speed, 38):
        exact = exact_echo_quotient(boost, baseline, signal_speed, axis)
        closed = classical_light_quotient(boost, baseline, signal_speed, axis)
        assert abs(Decimal(closed) - exact) <= Decimal(3e-14) * exact


def test_catch_up_time_is_accurate_on_both_legs():
    # Near the signal speed the leg against the drift has b < 0 and
    # b^2 >> a c, where (b + sqrt(b^2 + a c)) / a would lose ~1e-10.
    rng = random.Random(39)
    for _ in range(100):
        s, drift = rng.uniform(0.5, 2.0), rng.uniform(0.999, 0.9999999)
        unit, baseline = random_unit(rng), rng.uniform(0.1, 10.0)
        v = unit * (drift * s)
        a = (s - v.norm()) * (s + v.norm())
        for sign in (1.0, -1.0):
            target = unit * (sign * baseline)
            t = _catch_up_time(*as_tuple(target), *as_tuple(v), a)
            with localcontext() as ctx:
                ctx.prec = 50
                dv = [Decimal(x) for x in as_tuple(v)]
                dt = [Decimal(x) for x in as_tuple(target)]
                da, b = Decimal(a), sum(p * q for p, q in zip(dt, dv))
                c = sum(p * p for p in dt)
                exact = (b + (b * b + da * c).sqrt()) / da
                assert abs(Decimal(t) - exact) <= Decimal(1e-15) * exact


# --- verdicts in units of c: a choice of unit changes no verdict ---

UNIT_AUDITS = ["oplus-group", "proper-time", "light-quotient"]


def run_addition(tmp_path, audits, **block):
    """addition.json with ``block`` over its velocity_addition block, cut
    to ``audits`` and run through ``main``: the exit code and each audit's
    report entry."""
    doc = json.loads(resolve_scenario_path("addition.json").read_text())
    doc["velocity_addition"].update(block)
    doc["audits"] = audits
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return code, {entry["audit"]: entry for entry in report["audits"]}


def run_addition_at(tmp_path, g, c):
    """Verdicts and residuals of addition.json's three bounded-addition
    audits, run through ``main`` with the profile ``g`` and the bound ``c``."""
    code, entries = run_addition(tmp_path, UNIT_AUDITS, g=g, c=c)
    return code, {audit: (entry["verdict"], entry["residual"]) for audit, entry in entries.items()}


@pytest.mark.parametrize("g", ["lorentz", "rational"])
@pytest.mark.parametrize(
    "c", [1e-150, 1e-20, 1.0, 1e20, 1e150, math.sqrt(sys.float_info.max)],
    ids=["1e-150", "1e-20", "1", "1e20", "1e150", "sqrt-max"],
)
def test_bounded_addition_verdicts_do_not_depend_on_the_unit_of_velocity(tmp_path, capsys, g, c):
    code, verdicts = run_addition_at(tmp_path, g, c)
    assert {audit: verdict for audit, (verdict, _) in verdicts.items()} == dict.fromkeys(
        UNIT_AUDITS, "PASS"
    )
    assert code == 0


@pytest.mark.parametrize("c", [1e-20, 1.0, 1e150])
def test_a_composition_off_by_one_part_in_a_million_fails_at_every_unit(
    tmp_path, capsys, monkeypatch, c
):
    # Every composed velocity shrunk by 1e-6: the group laws and the
    # distance identity break by a fixed share of c, whatever c is.
    exact = velocity_addition.oplus

    def shrunk(u, v):
        w = exact(u, v)
        return BoundedVelocity(w.v * (1.0 - 1e-6), w.gfun)

    monkeypatch.setattr(velocity_addition, "oplus", shrunk)
    monkeypatch.setattr(audits, "oplus", shrunk)
    code, verdicts = run_addition_at(tmp_path, "lorentz", c)
    assert code == 2
    assert verdicts["oplus-group"][0] == verdicts["proper-time"][0] == "FAIL"
    assert verdicts["oplus-group"][1] > 1e-6
    assert verdicts["proper-time"][1] > 1e-5


# --- proper-time: the residual is held to the tolerance once, by the runner ---


# Near the speed bound the leg displacements grow with G, and the residual
# with them: in units of c G(max_speed c) it passes, and the count names
# converse failures only. In units of c alone, every row but rational at
# 0.99 and c = 1 (6.2e-13) was over the 1e-12 tolerance. At c = sqrt(float
# max) the converse probe's squares overflow; hypot takes its norm.
@pytest.mark.parametrize(
    "g, max_speed, c",
    [("lorentz", 0.999, 1.0), ("rational", 0.999, 1.0), ("rational", 0.99, 1.0),
     ("rational", 0.99, 3e8), ("lorentz", 0.999, 1e-3),
     ("rational", 0.999, math.sqrt(sys.float_info.max))],
)
def test_proper_time_counts_only_converse_failures(tmp_path, capsys, g, max_speed, c):
    exit_code, entries = run_addition(tmp_path, ["proper-time"], g=g, c=c, max_speed=max_speed)
    entry = entries["proper-time"]
    assert (exit_code, entry["verdict"]) == (0, "PASS")
    assert entry["residual"] <= entry["tolerance"]
    assert entry["detail"] == "300 splits, 0 converse failures"


def test_a_broken_converse_still_fails_proper_time(tmp_path, capsys, monkeypatch):
    exact = audits.check_invariance_theorem

    def broken(*args, **kwargs):
        check = exact(*args, **kwargs)
        return Check(check.residual, False, check.detail)

    monkeypatch.setattr(audits, "check_invariance_theorem", broken)
    code, entries = run_addition(tmp_path, ["proper-time"])
    assert code == 2
    assert entries["proper-time"]["verdict"] == "FAIL"
    assert entries["proper-time"]["residual"] <= entries["proper-time"]["tolerance"]
    assert entries["proper-time"]["detail"] == "300 splits, 300 converse failures"
