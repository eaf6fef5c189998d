"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time

import conftest

from invarlab import (
    Body,
    BoundedVelocity,
    Vec3,
    apply,
    charge_squared,
    check_objectivity,
    check_property_additivity,
    classical_light_quotient,
    compose,
    coulomb,
    cross,
    free,
    gravity,
    identity,
    integrate,
    inverse,
    light_quotient,
    linear_drag,
    lorentz_g,
    momentum_rate,
    oplus,
    pair_state,
    perp_demo,
    pure_boost,
    pure_translation,
    random_transform,
    rational_g,
    spring,
    transform_residual,
)

from helpers import (
    angular_momentum_rate, finite_difference, inverse_cube_circular_pair, kepler_pair,
    observables_at, random_body, random_unit, relative_at, states_of,
)


def _report(criterion: int, ok: bool, message: str) -> None:
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {message}"
    print(line)
    conftest.criterion_lines.append(line)
    assert ok, f"criterion {criterion}: {message}"


def test_criterion_1_frame_group_laws():
    rng = random.Random(42)
    ident = identity()
    worst = 0.0
    started = time.perf_counter()
    for _ in range(1000):
        t1 = random_transform(rng)
        t2 = random_transform(rng)
        t3 = random_transform(rng)
        worst = max(
            worst,
            transform_residual(compose(compose(t1, t2), t3), compose(t1, compose(t2, t3))),
        )
        worst = max(worst, transform_residual(compose(t1, ident), t1))
        worst = max(worst, transform_residual(compose(t1, inverse(t1)), ident))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        1,
        ok,
        f"1000 transform triples: associativity/identity/inverse residual {worst:.2e} "
        f"(tol 1e-12) in {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_2_objectivity_of_relative_quantities():
    rng = random.Random(2)
    a, b = random_body(rng, "A"), random_body(rng, "B")
    base = pair_state(a, b)
    worst = 0.0
    for _ in range(100):
        t = random_transform(rng, translation=5.0, boost=3.0)
        moment = rng.uniform(-2.0, 2.0)
        rel = pair_state(apply(t, a, moment), apply(t, b, moment))
        worst = max(worst, abs(rel.x_ab.norm() - base.x_ab.norm()))
        worst = max(worst, abs(rel.v_ab.norm() - base.v_ab.norm()))
    counter = check_objectivity(
        lambda rep: rep[0].position.x - a.position.x,
        [(apply(pure_translation(random_unit(rng) * rng.uniform(0.5, 3.0)), a), b) for _ in range(30)],
        tolerance=1e-12,
    )
    ok = worst <= 1e-12 and not counter.passed
    _report(
        2,
        ok,
        f"relative norms invariant over 100 frames: residual {worst:.2e} (tol 1e-12); "
        f"subjective-coordinate law fails as expected "
        f"(counterexample residual {counter.residual:.2e})",
    )


def test_criterion_3_inertia():
    a = Body("A", 1.0, Vec3(0.3, -0.2, 1.0), Vec3(0.7, 0.1, -0.4))
    b = Body("B", 2.5, Vec3(-1.0, 0.4, 0.0), Vec3(-0.3, 0.5, 0.2))
    base = pair_state(a, b)
    step = 1e-3
    traj = integrate(a, b, free(), 10_000 * step, step, "rk4")
    worst = 0.0
    for t, (ta, tb) in zip(traj.times, states_of(traj)):
        rel = pair_state(ta, tb)
        expected = base.x_ab + base.v_ab * t
        worst = max(worst, (rel.x_ab - expected).norm() / max(1.0, expected.norm()))
        worst = max(worst, (rel.v_ab - base.v_ab).norm() / max(1.0, base.v_ab.norm()))
    ok = worst <= 1e-12
    _report(3, ok, f"isolated pair vs straight line over 10^4 steps: residual {worst:.2e} (tol 1e-12)")


def _max_deviation(traj, pick):
    first = pick(observables_at(traj, 0))
    return max((pick(observables_at(traj, i)) - first).norm() for i in range(len(traj)))


def _central_law_trajectories():
    cases = []
    a, b, period = kepler_pair(ma=1.0, mb=2.0, ecc=0.01)
    cases.append(("gravity", integrate(a, b, gravity(1.0), period, period / 10_000.0, "rk4")))
    a, b, period = inverse_cube_circular_pair(coupling=1.0, ma=1.0, mb=2.0)
    cases.append(("coulomb", integrate(a, b, coulomb(1.0), period, period / 10_000.0, "rk4")))
    ma, mb, kappa = 1.0, 3.0, 1.0
    period = 2.0 * math.pi / math.sqrt(kappa * (ma + mb) / (ma * mb))
    a = Body("A", ma, Vec3(1.0, 0.0, 0.2), Vec3(0.0, 0.5, 0.0))
    b = Body("B", mb, Vec3(-0.4, 0.0, 0.0), Vec3(0.0, -0.1, 0.1))
    cases.append(("spring", integrate(a, b, spring(kappa), period, period / 10_000.0, "rk4")))
    return cases


def _rate_mismatch(traj, series, predict):
    values = [series(*states_of(traj)[i]) for i in range(len(traj))]
    rates = finite_difference(values, traj.times)
    worst = 0.0
    for i in range(1, len(traj) - 1):
        a, b = states_of(traj)[i]
        worst = max(worst, (rates[i] - predict(a, b, traj.law)).norm())
    return worst


def test_criterion_4_momentum_iff():
    worst = 0.0
    for name, traj in _central_law_trajectories():
        worst = max(worst, _max_deviation(traj, lambda o: o.total_momentum))
    conserved_ok = worst <= 1e-9

    a = Body("A", 1.0, Vec3(0.5, 0.0, 0.0), Vec3(0.0, 0.4, 0.0))
    b = Body("B", 2.0, Vec3(-0.5, 0.0, 0.0), Vec3(0.0, -0.2, 0.0))
    law = perp_demo(1.0)

    def momentum(ta, tb):
        return ta.velocity * ta.mass + tb.velocity * tb.mass

    base = _rate_mismatch(integrate(a, b, law, 2.0, 0.004, "rk4"), momentum, momentum_rate)
    half = _rate_mismatch(integrate(a, b, law, 2.0, 0.002, "rk4"), momentum, momentum_rate)
    reduction = base / half
    order_ok = reduction >= 3.5
    _report(
        4,
        conserved_ok and order_ok,
        f"P conserved for gravity/coulomb/spring over 10^4 rk4 steps: {worst:.2e} (tol 1e-9); "
        f"normal-channel dP/dt matches 2(x_ab x v_ab)phi_perp at O(h^2): "
        f"halving reduces mismatch x{reduction:.2f} (need >= 3.5)",
    )


def test_criterion_5_torque_iff():
    worst = 0.0
    for name, traj in _central_law_trajectories():
        worst = max(worst, _max_deviation(traj, lambda o: o.angular_momentum))
    conserved_ok = worst <= 1e-9

    a = Body("A", 1.0, Vec3(0.8, 0.1, 0.0), Vec3(0.0, 0.5, 0.2))
    b = Body("B", 2.0, Vec3(-0.4, 0.0, 0.0), Vec3(0.0, -0.25, 0.0))
    law = linear_drag(0.5)
    mu = a.mass * b.mass / (a.mass + b.mass)

    def angular(ta, tb):
        ps = pair_state(ta, tb)
        return cross(ps.x_ab, ps.v_ab * mu)

    base = _rate_mismatch(integrate(a, b, law, 2.0, 0.004, "rk4"), angular, angular_momentum_rate)
    half = _rate_mismatch(integrate(a, b, law, 2.0, 0.002, "rk4"), angular, angular_momentum_rate)
    reduction = base / half
    order_ok = reduction >= 3.5
    _report(
        5,
        conserved_ok and order_ok,
        f"L conserved for central laws over 10^4 rk4 steps: {worst:.2e} (tol 1e-9); "
        f"drag-law dL/dt matches the torque formula at O(h^2): "
        f"halving reduces mismatch x{reduction:.2f} (need >= 3.5)",
    )


def test_criterion_6_energy_conservation():
    a, b, period = kepler_pair(ma=1.0, mb=2.0, ecc=0.01)
    law = gravity(1.0)

    traj = integrate(a, b, law, 100.0 * period, period / 1000.0, "verlet")
    e0 = observables_at(traj, 0).internal_energy
    drifts = [
        abs(observables_at(traj, i).internal_energy - e0) / abs(e0) for i in range(len(traj))
    ]
    oscillation = max(drifts)
    early = max(drifts[: len(drifts) // 10])
    late = max(drifts[-len(drifts) // 10 :])
    verlet_ok = oscillation < 1e-6
    secular_ok = late <= 2.0 * early + 1e-12

    rk4_traj = integrate(a, b, law, 10.0 * period, period / 1000.0, "rk4")
    rk4_drift = max(
        abs(observables_at(rk4_traj, i).internal_energy - e0) / abs(e0)
        for i in range(len(rk4_traj))
    )
    rk4_ok = rk4_drift < 1e-8
    _report(
        6,
        verlet_ok and secular_ok and rk4_ok,
        f"verlet 100 periods at T/1000: oscillation {oscillation:.2e} (tol 1e-6), "
        f"early/late windows {early:.2e}/{late:.2e} (no secular drift); "
        f"rk4 10 periods: drift {rk4_drift:.2e} (tol 1e-8)",
    )


def test_criterion_7_galilean_covariance():
    rng = random.Random(7)
    a, b, period = kepler_pair(ma=1.0, mb=2.0, ecc=0.01)
    law = gravity(1.0)
    t_end, step = 3.0 * period, period / 1000.0
    base = integrate(a, b, law, t_end, step, "rk4")
    worst = 0.0
    for _ in range(10):
        boost = pure_boost(random_unit(rng) * rng.uniform(0.2, 2.0))
        boosted = integrate(apply(boost, a), apply(boost, b), law, t_end, step, "rk4")
        for i, t in enumerate(base.times):
            ta, tb = states_of(base)[i]
            after = pair_state(apply(boost, ta, t), apply(boost, tb, t))
            direct = relative_at(boosted, i)
            worst = max(worst, (after.x_ab - direct.x_ab).norm())
            worst = max(worst, (after.v_ab - direct.v_ab).norm())
    ok = worst <= 1e-9
    _report(
        7,
        ok,
        f"integrate-then-boost vs boost-then-integrate over 10 random boosts: "
        f"relative-state residual {worst:.2e} (tol 1e-9)",
    )


def _bisect_weighted_speed(gfun, target):
    lo, hi = 0.0, gfun.c * (1.0 - 1e-15)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * gfun.g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_8_bounded_addition_group():
    rng = random.Random(8)
    group_worst = 0.0
    inverse_worst = 0.0
    closed = True
    for gfun in (lorentz_g(1.0), rational_g(1.0)):
        for _ in range(1000):
            u = BoundedVelocity(random_unit(rng) * rng.uniform(0.0, 0.99), gfun)
            v = BoundedVelocity(random_unit(rng) * rng.uniform(0.0, 0.99), gfun)
            w = BoundedVelocity(random_unit(rng) * rng.uniform(0.0, 0.99), gfun)
            uv = oplus(u, v)
            closed = closed and uv.speed < gfun.c
            group_worst = max(group_worst, (uv.v - oplus(v, u).v).norm())
            group_worst = max(
                group_worst, (oplus(uv, w).v - oplus(u, oplus(v, w)).v).norm()
            )
            inverse_worst = max(inverse_worst, oplus(u, -u).v.norm())

    g = lorentz_g(1.0)
    w = oplus(BoundedVelocity(Vec3(0.6, 0, 0), g), BoundedVelocity(Vec3(0.6, 0, 0), g))
    oracle = _bisect_weighted_speed(g, 2.0 * 0.6 * g.g(0.6))
    collinear_ok = abs(w.v.x - oracle) <= 1e-10 and abs(w.v.x - 0.8320502943378437) <= 1e-10
    ok = closed and group_worst <= 1e-10 and inverse_worst <= 1e-12 and collinear_ok
    _report(
        8,
        ok,
        f"1000 triples x 2 profiles: closure strict, commut/assoc residual {group_worst:.2e} "
        f"(tol 1e-10), inverse residual {inverse_worst:.2e} (tol 1e-12); "
        f"collinear 0.6+0.6 = {w.v.x:.10f} matches bisection oracle {oracle:.10f}",
    )


def test_criterion_9_invariance_theorem():
    rng = random.Random(9)
    g = lorentz_g(1.0)
    worst = 0.0
    converse_worst = 0.0
    for _ in range(1000):
        v2 = BoundedVelocity(random_unit(rng) * rng.uniform(0.05, 0.95), g)
        v3 = BoundedVelocity(random_unit(rng) * rng.uniform(0.05, 0.95), g)
        duration = rng.uniform(0.1, 5.0)
        v1 = oplus(v2, v3)
        dt1 = duration * v1.weight()
        dt2 = duration * v2.weight()
        dt3 = duration * v3.weight()
        lhs = v1.v * dt1
        worst = max(worst, (lhs - v2.v * dt2 - v3.v * dt3).norm())
        eps = 0.01
        broken = (lhs - v2.v * (dt2 * (1.0 + eps)) - v3.v * dt3).norm()
        predicted = eps * dt2 * v2.speed
        converse_worst = max(converse_worst, abs(broken - predicted) / predicted)
    ok = worst <= 1e-12 and converse_worst <= 0.1
    _report(
        9,
        ok,
        f"1000 splits: distance identity residual {worst:.2e} (tol 1e-12); "
        f"1% proper-time perturbation breaks it within {converse_worst:.1%} of the "
        f"first-order prediction (tol 10%)",
    )


def test_criterion_10_light_quotient():
    rng = random.Random(10)
    g = lorentz_g(1.0)
    axis = Vec3(1.0, 0.0, 0.0)
    bounded_worst = 0.0
    classical_worst = 0.0
    min_classical_gap = math.inf
    for _ in range(20):
        boost_vec = random_unit(rng) * rng.uniform(0.05, 0.95)
        baseline = rng.uniform(0.5, 4.0)
        bounded = light_quotient(BoundedVelocity(boost_vec, g), baseline)
        bounded_worst = max(bounded_worst, abs(bounded - 1.0))
        plain = classical_light_quotient(boost_vec, baseline, 1.0, axis)
        v2 = boost_vec.norm() ** 2
        along = boost_vec.x  # axis is x
        predicted = (1.0 - v2) / math.sqrt(along * along + 1.0 - v2)
        classical_worst = max(classical_worst, abs(plain - predicted))
        min_classical_gap = min(min_classical_gap, abs(plain - 1.0))
    ok = bounded_worst <= 1e-12 and classical_worst <= 1e-10 and min_classical_gap > 0.0
    _report(
        10,
        ok,
        f"20 random boosts: bounded-group quotient equals c to {bounded_worst:.2e} "
        f"(tol 1e-12); plain addition deviates from c (min gap {min_classical_gap:.2e}) "
        f"and matches the two-leg prediction to {classical_worst:.2e} (tol 1e-10)",
    )


def test_criterion_11_property_additivity():
    b_grav = Body("B", 2.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    a1 = Body("A", 1.0, Vec3(1, 1, 0), Vec3(0, 0, 0))
    a2 = Body("A", 2.0, Vec3(1, 1, 0), Vec3(0, 0, 0))
    grav = check_property_additivity(gravity(1.0), "mass", a1, a2, b_grav, tolerance=1e-12)

    def charged(q, name="A"):
        return Body(name, 1.0, Vec3(2, 0, 0) if name == "A" else Vec3(0, 0, 0), Vec3(0, 0, 0), {"charge": q})

    coul = check_property_additivity(
        coulomb(1.5), "charge", charged(0.7), charged(-0.3), charged(1.0, "B"), tolerance=1e-12
    )

    q1, q2, qb, k = 2.0, 3.0, 1.0, 1.0
    quad = check_property_additivity(
        charge_squared(k), "charge", charged(q1), charged(q2), charged(qb, "B"), tolerance=1e-9
    )
    # residual force is 2 k q1 q2 qb x / r^3 with x = (2,0,0): norm 3.
    predicted = 2.0 * k * q1 * q2 * qb / 2.0**3 * 2.0
    analytic_ok = abs(quad.residual - predicted) <= 1e-10
    ok = grav.passed and coul.passed and (not quad.passed) and analytic_ok
    _report(
        11,
        ok,
        f"gravity(mass) and coulomb(charge) additive (residuals {grav.residual:.2e}, "
        f"{coul.residual:.2e}); quadratic law fails with residual {quad.residual:.6f} "
        f"matching the analytic {predicted:.6f} to 1e-10",
    )
