"""The float hot paths against the Vec3 formulas they replaced.

The integrator, ``observables``, the inertia, boost-covariance,
momentum and angular-momentum residuals, frame ``compose``, ``inverse``
and ``transform_residual``, bounded ``oplus``, the invariance theorem
check and the audits' random unit vectors and velocities work on raw
floats; ``Trajectory.write_csv`` memoizes the ``repr`` of its P and L
cells, and the exchange audit evaluates each force pair once. The
references below are the earlier implementations, written with
tuple-comprehension rk4 stages, generator matrix products, nested loops,
validated ``Vec3`` arithmetic, ``Body`` snapshots, one ``repr`` per CSV
cell and five force evaluations per exchange state.
Both must agree exactly (``==``, not a tolerance): the arithmetic is the
same operation for operation, which is what keeps the CSVs and reports
byte-identical. Where the rate pass fails, it agrees with its reference
in exception type, sample and time; its message names the quantity that
failed in its own terms. Where bounded addition fails, it agrees with its
reference in exception type, its message names the vector whose norm it
took, and a norm whose squares overflow reads finite, by hypot.
"""

import io
import math
import random
import re

import pytest

from invarlab import (
    Body,
    BoundedVelocity,
    ConvergenceError,
    DivergenceError,
    ForceLaw,
    FrameTransform,
    GFunction,
    NonFiniteError,
    Vec3,
    check_invariance_theorem,
    classical_g,
    compose,
    cross,
    force_on_a,
    force_pair,
    identity,
    gravity,
    integrate,
    inverse,
    linear_drag,
    lorentz_g,
    merge_laws,
    momentum_rate,
    observables,
    oplus,
    pair_state,
    perp_demo,
    rational_g,
    spring,
    Trajectory,
    transform_residual,
    zero_velocity,
)
from invarlab import forces
from invarlab.audits import (
    AuditContext,
    _audit_boost_covariance,
    _audit_conserved,
    _audit_exchange,
    _audit_inertia,
    _boost_residuals,
    _inertia_residuals,
    _random_pair,
    _random_velocity,
    _unit_vector,
)
from invarlab.core import Check
from invarlab.dynamics import (
    CSV_HEADER, _REPR_MEMO_SIZE, _angular_momentum, _exact_momentum_rate, _exact_torque, _momentum,
    _rate_mismatch,
)
from invarlab.forces import PairTerms, PropertyView, bind, raw_force_pair
from invarlab.frames import apply, pure_boost, random_transform
from invarlab.scenario import IntegratorConfig, Scenario

from helpers import (
    Observables, angular_momentum_rate, as_tuple, finite_difference, force_on_b, kepler_pair,
    observables_at, relative_at, sample_row, states_of, unbound_gravity, unbound_linear_drag,
    unbound_merge, unbound_perp_demo, unbound_potential, unbound_raw_force_pair, unbound_spring,
)


def reference_samples(a0, b0, law, t_end, step, method):
    """Earlier integrator loop: one 12-tuple per sample, under the
    ``UnboundLaw`` ``law``."""
    qa, qb = PropertyView(a0), PropertyView(b0)
    inv_ma, inv_mb = 1.0 / a0.mass, 1.0 / b0.mass

    def accels(xa, ya, za, vax, vay, vaz, xb, yb, zb, vbx, vby, vbz):
        fx, fy, fz, kx, ky, kz = unbound_raw_force_pair(
            law, qa, qb, xa - xb, ya - yb, za - zb, vax - vbx, vay - vby, vaz - vbz
        )
        return (fx * inv_ma, fy * inv_ma, fz * inv_ma, kx * inv_mb, ky * inv_mb, kz * inv_mb)

    n_steps = max(1, round(t_end / step))
    y = (*as_tuple(a0.position), *as_tuple(a0.velocity),
         *as_tuple(b0.position), *as_tuple(b0.velocity))
    samples = [y]
    h = step
    if method == "rk4":
        def deriv(s):
            axa, aya, aza, axb, ayb, azb = accels(*s)
            return (s[3], s[4], s[5], axa, aya, aza, s[9], s[10], s[11], axb, ayb, azb)

        for _ in range(n_steps):
            k1 = deriv(y)
            k2 = deriv(tuple(s + 0.5 * h * k for s, k in zip(y, k1)))
            k3 = deriv(tuple(s + 0.5 * h * k for s, k in zip(y, k2)))
            k4 = deriv(tuple(s + h * k for s, k in zip(y, k3)))
            y = tuple(
                s + (h / 6.0) * (p + 2.0 * q + 2.0 * r + w)
                for s, p, q, r, w in zip(y, k1, k2, k3, k4)
            )
            samples.append(y)
    else:
        acc = accels(*y)
        half_h2 = 0.5 * h * h
        for _ in range(n_steps):
            xa = (
                y[0] + h * y[3] + half_h2 * acc[0],
                y[1] + h * y[4] + half_h2 * acc[1],
                y[2] + h * y[5] + half_h2 * acc[2],
            )
            xb = (
                y[6] + h * y[9] + half_h2 * acc[3],
                y[7] + h * y[10] + half_h2 * acc[4],
                y[8] + h * y[11] + half_h2 * acc[5],
            )
            acc_new = accels(*xa, y[3], y[4], y[5], *xb, y[9], y[10], y[11])
            y = (
                *xa,
                y[3] + 0.5 * h * (acc[0] + acc_new[0]),
                y[4] + 0.5 * h * (acc[1] + acc_new[1]),
                y[5] + 0.5 * h * (acc[2] + acc_new[2]),
                *xb,
                y[9] + 0.5 * h * (acc[3] + acc_new[3]),
                y[10] + 0.5 * h * (acc[4] + acc_new[4]),
                y[11] + 0.5 * h * (acc[5] + acc_new[5]),
            )
            acc = acc_new
            samples.append(y)
    return samples


def reference_observables(a, b, law):
    """Observables under the ``UnboundLaw`` ``law``, from Vec3 formulas."""
    mu = a.mass * b.mass / (a.mass + b.mass)
    momentum = a.velocity * a.mass + b.velocity * b.mass
    ps = pair_state(a, b)
    angular = cross(ps.x_ab, ps.v_ab * mu)
    energy = None
    if law.central:
        r = ps.x_ab.norm()
        speed2 = ps.v_ab.x**2 + ps.v_ab.y**2 + ps.v_ab.z**2
        energy = 0.5 * mu * speed2 + unbound_potential(law, PropertyView(a), PropertyView(b), r)
    return Observables(momentum, angular, energy, mu)


def reference_inertia_residuals(traj, base):
    """Earlier inertia formula, one residual per comparison."""
    for t, (ta, tb) in zip(traj.times, states_of(traj)):
        rel = pair_state(ta, tb)
        expected = base.x_ab + base.v_ab * t
        scale = max(1.0, expected.norm())
        yield (rel.x_ab - expected).norm() / scale
        yield (rel.v_ab - base.v_ab).norm() / max(1.0, base.v_ab.norm())


def reference_boost_residuals(boost, base, boosted):
    """Earlier boost-covariance formula, one residual per comparison."""
    for i, t in enumerate(base.times):
        a, b = states_of(base)[i]
        after = pair_state(apply(boost, a, t), apply(boost, b, t))
        before = relative_at(boosted, i)
        yield (after.x_ab - before.x_ab).norm()
        yield (after.v_ab - before.v_ab).norm()


def reference_inertia_residual(ctx):
    params = ctx.scenario.audit_params.get("inertia", {})
    steps = params.get("steps", 10_000)
    step = float(params.get("step", ctx.scenario.integrator.step))
    a, b = ctx.scenario.bodies
    traj = integrate(a, b, merge_laws(()), steps * step, step, "rk4")
    worst = 0.0
    for residual in reference_inertia_residuals(traj, pair_state(a, b)):
        worst = max(worst, residual)
    return worst


def reference_boost_residual(ctx):
    rng = ctx.rng("boost-covariance")
    params = ctx.scenario.audit_params.get("boost-covariance", {})
    count = params.get("count", 10)
    scale = float(params.get("boost", 1.0))
    cfg = ctx.scenario.integrator
    a0, b0 = ctx.scenario.bodies
    base = ctx.trajectory()
    worst = 0.0
    for _ in range(count):
        boost = pure_boost(_unit_vector(rng) * rng.uniform(0.1, scale))
        boosted = integrate(
            apply(boost, a0), apply(boost, b0), ctx.law, cfg.t_end, cfg.step, cfg.method
        )
        for residual in reference_boost_residuals(boost, base, boosted):
            worst = max(worst, residual)
    return worst


def reference_conserved_residual(traj, unbound, field):
    first = getattr(reference_observables(*states_of(traj)[0], unbound), field)
    worst = 0.0
    for a, b in states_of(traj):
        worst = max(worst, (getattr(reference_observables(a, b, unbound), field) - first).norm())
    return worst


def _spring_pair():
    a = Body("A", 1.1, Vec3(1.125, 0.0, 0.375), Vec3(0.0, 0.6, 0.0))
    b = Body("B", 2.9, Vec3(-0.375, 0.0, -0.125), Vec3(0.0, -0.2, 0.0))
    return a, b


def _drag_pair():
    a = Body("A", 0.7, Vec3(0.5, 0.1, 0.0), Vec3(0.0, 0.4, 0.1))
    b = Body("B", 1.9, Vec3(-0.5, 0.0, 0.0), Vec3(0.0, -0.2, 0.0))
    return a, b


# (label, bodies, law, method, t_end, step); drag + perp-demo drives the
# phi_s and phi_perp channels that no bundled gravity or spring run uses.
ORBIT = kepler_pair(ma=1.3, mb=2.7, ecc=0.3)[:2]
CASES = [
    ("gravity-rk4", ORBIT, gravity(1.0), "rk4", 1.5, 0.003),
    ("gravity-verlet", ORBIT, gravity(1.0), "verlet", 1.5, 0.003),
    ("spring-rk4", _spring_pair(), spring(1.3), "rk4", 2.0, 0.004),
    ("spring-verlet", _spring_pair(), spring(1.3), "verlet", 2.0, 0.004),
    ("drag-perp-rk4", _drag_pair(), merge_laws((linear_drag(0.3), perp_demo(0.5))), "rk4", 2.0,
     0.004),
]
IDS = [case[0] for case in CASES]
# The unbound law of each case, for the reference paths.
UNBOUND = {
    "gravity-rk4": unbound_gravity(1.0),
    "gravity-verlet": unbound_gravity(1.0),
    "spring-rk4": unbound_spring(1.3),
    "spring-verlet": unbound_spring(1.3),
    "drag-perp-rk4": unbound_merge((unbound_linear_drag(0.3), unbound_perp_demo(0.5))),
}


@pytest.mark.parametrize("label, bodies, law, method, t_end, step", CASES, ids=IDS)
def test_rows_equal_the_tuple_loop(label, bodies, law, method, t_end, step):
    traj = integrate(*bodies, law, t_end, step, method)
    expected = reference_samples(*bodies, UNBOUND[label], t_end, step, method)
    assert list(traj.samples()) == expected
    assert list(traj.rows) == [x for row in expected for x in row]


@pytest.mark.parametrize("label, bodies, law, method, t_end, step", CASES, ids=IDS)
def test_observables_equal_the_vec3_formulas(label, bodies, law, method, t_end, step):
    traj = integrate(*bodies, law, t_end, step, method)
    for i, (a, b) in enumerate(states_of(traj)):
        expected = reference_observables(a, b, UNBOUND[label])
        p, l, energy, mu = observables(bind(law, a, b), sample_row(a, b))
        assert Observables(Vec3(*p), Vec3(*l), energy, mu) == expected
        assert observables_at(traj, i) == expected
    assert (expected.internal_energy is None) == (not UNBOUND[label].central)


def body_level_observables(a, b, law):
    """Earlier observables(a, b, law) under the ``UnboundLaw`` ``law``: Vec3
    fields, checked as built."""
    ma, mb = a.mass, b.mass
    pa, pb, va, vb = a.position, b.position, a.velocity, b.velocity
    mu = ma * mb / (ma + mb)
    rx, ry, rz = pa.x - pb.x, pa.y - pb.y, pa.z - pb.z
    ux, uy, uz = va.x - vb.x, va.y - vb.y, va.z - vb.z
    wx, wy, wz = ux * mu, uy * mu, uz * mu
    momentum = Vec3(va.x * ma + vb.x * mb, va.y * ma + vb.y * mb, va.z * ma + vb.z * mb)
    angular = Vec3(ry * wz - rz * wy, rz * wx - rx * wz, rx * wy - ry * wx)
    energy = None
    if law.central:
        r = math.sqrt(rx * rx + ry * ry + rz * rz)
        potential = unbound_potential(law, PropertyView(a), PropertyView(b), r)
        energy = 0.5 * mu * (ux**2 + uy**2 + uz**2) + potential
    return Observables(momentum, angular, energy, mu)


def test_observables_errors_equal_the_body_level_formulas():
    big = 1e200
    rows = [
        # P overflows.
        (0.0, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 1e308, 0.0, 0.0),
        # L overflows, P does not.
        (big, 0.0, 0.0, 0.0, big, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        # Both: P is named.
        (big, 0.0, 0.0, 1e308, big, 0.0, 0.0, 0.0, 0.0, 1e308, 0.0, 0.0),
        # Only the kinetic energy overflows (**2 raises OverflowError).
        (0.0, 0.0, 0.0, 1e160, 0.0, 0.0, 0.0, 0.0, 0.0, -1e160, 0.0, 0.0),
    ]
    # A finite sample, last, so that the energy terms are compared too.
    finite = (1.0, 0.5, 0.0, 0.3, 0.7, 0.0, -1.0, 0.0, 0.25, -0.2, 0.1, 0.4)
    rows.append(finite)
    a0 = Body("A", 2.0, Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0))
    b0 = Body("B", 3.0, Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0))
    law = spring(1.0)
    traj = Trajectory((0.0, 1.0, 2.0, 3.0, 4.0), [x for row in rows for x in row], (a0, b0),
                      law, "rk4")
    pair = bind(law, a0, b0)
    for i, ((a, b), row) in enumerate(zip(states_of(traj), rows)):
        expected = outcome(body_level_observables, a, b, unbound_spring(1.0))
        if row is finite:
            p, l, energy, mu = observables(pair, row)
            assert expected.internal_energy is not None
            assert Observables(Vec3(*p), Vec3(*l), energy, mu) == expected
            assert observables_at(traj, i) == expected
            continue
        assert expected[0] in (NonFiniteError, OverflowError)
        assert outcome(observables, pair, row) == expected
        message = f"trajectory diverged at sample {i} (t = {float(i)!r}): observables overflow: "
        assert outcome(observables_at, traj, i) == (DivergenceError, message + expected[1])
    assert outcome(list, traj.observed()) == outcome(observables_at, traj, 0)
    assert outcome(observables_at, traj, 2)[1].endswith(
        "non-finite vector component in (inf, 2e+200, 0.0)"
    )


def reference_write_csv(traj, stream):
    """Earlier ``Trajectory.write_csv``: one ``repr`` per cell."""
    stream.write(CSV_HEADER + "\n")
    for t, row, (p, l, energy, _) in zip(traj.times, traj.samples(), traj.observed()):
        cells = ",".join(map(repr, (t, *row, *p, *l)))
        stream.write(f"{cells},{'' if energy is None else repr(energy)}\n")


def csv_text(write, traj):
    stream = io.StringIO()
    write(traj, stream)
    return stream.getvalue()


def signed_zero_trajectory():
    """Free pair at rest whose P and L cells print 0.0, then -0.0, then
    0.0 again: equal keys that a memo must not serve for each other."""
    rows = []
    for zero in (0.0, -0.0, 0.0, -0.0):
        rows += [1.0, 0.0, 0.0, zero, zero, zero, 0.0, 0.0, 0.0, zero, zero, zero]
    a = Body("A", 1.0, Vec3(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0))
    b = Body("B", 2.0, Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0))
    return Trajectory((0.0, 1.0, 2.0, 3.0), rows, (a, b), merge_laws(()), "rk4")


def conserved_cells(traj):
    return [x for p, l, _, _ in traj.observed() for x in (*p, *l)]


def test_csv_writer_equals_one_repr_per_cell():
    # rk4 on drag + perp-demo conserves neither P nor L: more distinct
    # cells than the memo holds, so it is emptied on the way.
    churn = integrate(*_drag_pair(), merge_laws((linear_drag(0.3), perp_demo(0.5))), 12.0,
                      0.004, "rk4")
    assert len({x for x in conserved_cells(churn) if x}) > 2 * _REPR_MEMO_SIZE
    zeros = signed_zero_trajectory()
    cells = [repr(x) for x in conserved_cells(zeros)]
    assert "0.0" in cells and "-0.0" in cells
    cases = [integrate(*bodies, law, t_end, step, method)
             for _, bodies, law, method, t_end, step in CASES]
    for traj in cases + [churn, zeros]:
        assert csv_text(Trajectory.write_csv, traj) == csv_text(reference_write_csv, traj)
    # drag + perp-demo is not central: its energy cells are blank.
    assert all(line.endswith(",") for line in csv_text(Trajectory.write_csv, churn).splitlines()[1:])


def _context(bodies, law, method, t_end, step, **audit_params):
    scenario = Scenario(
        name="reference",
        bodies=bodies,
        laws=(law,),
        audits=(),
        integrator=IntegratorConfig(method, step, t_end),
        audit_params=audit_params,
    )
    return AuditContext(scenario, seed=11)


@pytest.mark.parametrize("label, bodies, law, method, t_end, step", CASES, ids=IDS)
def test_residuals_equal_the_vec3_formulas(label, bodies, law, method, t_end, step):
    params = {"boost-covariance": {"count": 3, "boost": 2.0}, "inertia": {"steps": 500}}
    ctx = _context(bodies, law, method, t_end, step, **params)
    ref = _context(bodies, law, method, t_end, step, **params)

    boost = _audit_boost_covariance(ctx)
    assert boost.residual == reference_boost_residual(ref)
    assert boost.residual > 0.0
    inertia = _audit_inertia(ctx)
    assert inertia.residual == reference_inertia_residual(ref)
    traj = ref.trajectory()
    momentum = _audit_conserved(ctx, "total_momentum")
    assert momentum.residual == reference_conserved_residual(traj, UNBOUND[label], "total_momentum")
    angular = _audit_conserved(ctx, "angular_momentum")
    assert angular.residual == reference_conserved_residual(
        traj, UNBOUND[label], "angular_momentum"
    )


def reference_exchange_residual(ctx):
    """Earlier exchange audit: five force evaluations per random state."""
    rng = ctx.rng("exchange")
    count = ctx.scenario.audit_params.get("exchange", {}).get("count", 50)
    a0, b0 = ctx.scenario.bodies
    law = ctx.law
    worst = 0.0
    for _ in range(count):
        a, b = _random_pair(rng, a0, b0, law.min_separation if law.singular else 0.0)
        f, k = force_pair(law, a, b)
        worst = max(worst, (force_on_b(law, a, b) - force_on_a(law, b, a)).norm())
        worst = max(worst, (force_on_a(law, a, b) - force_on_b(law, b, a)).norm())
        worst = max(worst, (f + k - momentum_rate(a, b, law)).norm())
    return worst


@pytest.mark.parametrize("label, bodies, law, method, t_end, step", CASES, ids=IDS)
def test_exchange_residual_equals_the_five_evaluation_formula(
    label, bodies, law, method, t_end, step, monkeypatch
):
    params = {"exchange": {"count": 20}}
    expected = reference_exchange_residual(_context(bodies, law, method, t_end, step, **params))
    evals = []

    def counted(*args):
        evals.append(args)
        return raw_force_pair(*args)

    monkeypatch.setattr(forces, "raw_force_pair", counted)
    assert _audit_exchange(_context(bodies, law, method, t_end, step, **params)).residual == expected
    assert len(evals) == 2 * 20


@pytest.mark.parametrize("label, bodies, law, method, t_end, step", CASES, ids=IDS)
def test_per_sample_residuals_equal_the_vec3_formulas(label, bodies, law, method, t_end, step):
    a0, b0 = bodies
    base = integrate(a0, b0, law, t_end, step, method)
    rng = random.Random(label)
    for _ in range(3):
        # A full group element, not only a boost: raw_apply is the whole action.
        frame = random_transform(rng, boost=2.0)
        boosted = integrate(apply(frame, a0), apply(frame, b0), law, t_end, step, method)
        assert list(_boost_residuals(frame, base, boosted)) == list(
            reference_boost_residuals(frame, base, boosted)
        )
    x0 = pair_state(a0, b0)
    isolated = integrate(a0, b0, merge_laws(()), t_end, step, "rk4")
    assert list(_inertia_residuals(isolated, x0.x_ab, x0.v_ab)) == list(
        reference_inertia_residuals(isolated, x0)
    )


def reference_rate_mismatch(traj, series, predict):
    """Earlier rate mismatch: all rates from finite_difference, then max."""
    values = [series(*states_of(traj)[i]) for i in range(len(traj))]
    rates = finite_difference(values, traj.times)
    worst = 0.0
    for i in range(1, len(traj) - 1):
        a, b = states_of(traj)[i]
        worst = max(worst, (rates[i] - predict(a, b, traj.law)).norm())
    return worst


def momentum_series(a, b):
    return a.velocity * a.mass + b.velocity * b.mass


def torque_series(a, b):
    ps = pair_state(a, b)
    mu = a.mass * b.mass / (a.mass + b.mass)
    return cross(ps.x_ab, ps.v_ab * mu)


# Each rate audit's row functions, series and exact rate, with the Vec3
# series and prediction they must equal.
RATE_CHECKS = (
    ((_momentum, _exact_momentum_rate), momentum_series, momentum_rate),
    ((_angular_momentum, _exact_torque), torque_series, angular_momentum_rate),
)


@pytest.mark.parametrize("label, bodies, law, method, t_end, step", CASES, ids=IDS)
def test_rate_mismatch_equals_the_finite_difference_formula(
    label, bodies, law, method, t_end, step
):
    traj = integrate(*bodies, law, t_end, step, method)
    for rows, series, predict in RATE_CHECKS:
        assert _rate_mismatch(traj, *rows) == reference_rate_mismatch(
            traj, series, predict
        )


def snapshot_rate_mismatch(traj, series, predict):
    """Earlier _rate_mismatch: every series value from the cached
    ``states`` first, then the rates, each error named by its sample."""
    states, times, law = states_of(traj), traj.times, traj.law
    values = []
    worst = 0.0
    i = 0
    try:
        for i, (a, b) in enumerate(states):
            values.append(series(a, b))
        for i in range(1, len(states) - 1):
            rate = (values[i + 1] - values[i - 1]) / (times[i + 1] - times[i - 1])
            mismatch = (rate - predict(*states[i], law)).norm()
            if mismatch == math.inf:
                raise OverflowError("|rate - prediction| is infinite")
            worst = max(worst, mismatch)
    except (OverflowError, ValueError) as exc:
        raise DivergenceError(i, times[i], f"rate overflow: {exc}") from None
    return worst


def refuse_bodies(self, position, velocity):
    raise AssertionError("the rate pass built a Body")


@pytest.mark.parametrize("label, bodies, law, method, t_end, step", CASES, ids=IDS)
def test_rate_mismatch_equals_the_snapshot_pass(
    label, bodies, law, method, t_end, step, monkeypatch
):
    for h in (step, 0.5 * step):
        traj = integrate(*bodies, law, t_end, h, method)
        # The reference builds its snapshots before the patch.
        expected = [snapshot_rate_mismatch(traj, s, p) for _, s, p in RATE_CHECKS]
        with monkeypatch.context() as patched:
            patched.setattr(Body, "with_state", refuse_bodies)
            assert [_rate_mismatch(traj, *rows) for rows, _, _ in RATE_CHECKS] == expected


def velocity_trajectory(velocities):
    """Force-free trajectory at unit time steps: A at (1, 0, 0) and B at
    the origin, with the given (A vx, A vy, B vx) velocities."""
    rows = []
    for avx, avy, bvx in velocities:
        rows += [1.0, 0.0, 0.0, avx, avy, 0.0, 0.0, 0.0, 0.0, bvx, 0.0, 0.0]
    a = Body("A", 1.0, Vec3(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0))
    b = Body("B", 1.0, Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0))
    times = tuple(float(i) for i in range(len(velocities)))
    return Trajectory(times, rows, (a, b), merge_laws(()), "rk4")


def constant_trajectory(row, law, masses=(1.0, 1.0)):
    """Three equal samples of one 12-float row at unit time steps."""
    a = Body("A", masses[0], Vec3(*row[0:3]), Vec3(*row[3:6]))
    b = Body("B", masses[1], Vec3(*row[6:9]), Vec3(*row[9:12]))
    return Trajectory((0.0, 1.0, 2.0), list(row) * 3, (a, b), law, "rk4")


def located(fn, *args):
    """The result, or the exception's type, sample index, time and message
    (index and time None where the exception names none)."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), getattr(exc, "index", None), getattr(exc, "time", None), str(exc)


def rate_pass_outcome(monkeypatch, traj, rows, series, predict):
    """The rate pass's ``located`` outcome on ``traj``, asserted equal to
    the snapshot pass's in result, or in exception type, sample and time:
    only the message may differ."""
    # The reference builds its snapshots before the patch.
    expected = located(snapshot_rate_mismatch, traj, series, predict)
    with monkeypatch.context() as patched:
        patched.setattr(Body, "with_state", refuse_bodies)
        got = located(_rate_mismatch, traj, *rows)
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and got[:3] == expected[:3]
    else:
        assert got == expected
    return got


def test_rate_mismatch_errors_equal_the_snapshot_pass(monkeypatch):
    huge = 1.7e308
    flat = [(huge, huge, 0.0)] * 4
    cases = [
        # Rates are zero until sample 3, where the momentum difference
        # overflows and the torque rate's norm does.
        velocity_trajectory(flat + [(-huge, -huge, 0.0)]),
        # The same, but the momentum series itself overflows later, at
        # sample 5: that sample is the one named.
        velocity_trajectory(flat + [(-huge, -huge, 0.0), (huge, huge, huge)]),
        # Rates are finite, |rate - prediction| is not.
        velocity_trajectory([(0.0, 0.0, 0.0)] * 2 + [(1e200, 1e200, 0.0)] * 2),
        # rk4 on a spring too stiff for the step: the rows stay finite up
        # to t = 1, the series and rates do not.
        integrate(*_spring_pair(), spring(1e6), 1.0, 0.01, "rk4"),
        # A at (10, 0, 0) moving at (0, 1, 0) around B at rest: the series
        # are finite, both exact rates overflow: 2 * 1e308 in dP/dt, and
        # 100 * 5e307 in the normal-channel part of dL/dt.
        constant_trajectory(
            [10.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            perp_demo(1e308),
            masses=(1.0, 3.0),
        ),
    ]
    messages = []
    for traj in cases:
        for rows, series, predict in RATE_CHECKS:
            got = rate_pass_outcome(monkeypatch, traj, rows, series, predict)
            assert got[0] is DivergenceError
            messages.append(got[3])
    assert messages[0].endswith(
        "at sample 3 (t = 3.0): rate overflow: non-finite vector component in (-inf, -inf, 0.0)"
    )
    assert messages[1].endswith("at sample 3 (t = 3.0): rate overflow: |rate - prediction| is infinite")
    assert messages[2].endswith(
        "at sample 5 (t = 5.0): rate overflow: non-finite vector component in (inf, 1.7e+308, 0.0)"
    )
    assert "at sample 3 (t = 3.0)" in messages[3]
    assert messages[4].endswith("at sample 1 (t = 1.0): rate overflow: |rate - prediction| is infinite")
    # The exact rates are not finite: the mismatch vector, 0 - rate, is named.
    assert messages[8] == (
        "trajectory diverged at sample 1 (t = 1.0): rate overflow: "
        "non-finite vector component in (nan, nan, -inf)"
    )
    assert messages[9] == (
        "trajectory diverged at sample 1 (t = 1.0): rate overflow: "
        "non-finite vector component in (0.0, inf, 0.0)"
    )


def strict_coefficient(r, speed, radial):
    assert math.isfinite(r), "law called at a non-finite separation"
    return 1.0


def test_rate_mismatch_falls_back_where_no_rate_reads_the_overflow(monkeypatch):
    # A value that is not finite is named also where it never reaches a
    # rate, and no law coefficient is called at a non-finite separation.
    huge = 1.7e308
    momentum, torque = RATE_CHECKS
    # x_ab overflows: it is checked before the law is called.
    terms = PairTerms(phi_s=strict_coefficient, phi_perp=strict_coefficient)
    strict = ForceLaw("strict", lambda qa, qb: terms)
    apart = constant_trajectory([1e308, 0, 0, 0, 1.0, 0, -1e308, 0, 0, 0, 0, 0], strict)
    cases = [
        # P overflows only at the middle of three samples.
        (momentum, velocity_trajectory([(0.0, 0.0, 0.0), (huge, 0.0, huge), (0.0, 0.0, 0.0)]),
         "at sample 1 (t = 1.0): rate overflow: non-finite vector component in (inf, 0.0, 0.0)"),
        # Free law: dL/dt is zero, but x_ab x v_ab overflows while L does not.
        (torque, constant_trajectory([1e200, 0, 0, 0, 1e200, 0, 0, 0, 0, 0, 0, 0],
                                     merge_laws(()), masses=(1e-150, 1e-150)),
         "at sample 1 (t = 1.0): rate overflow: non-finite vector component in (0.0, 0.0, inf)"),
        # The momentum series is finite: the exact rate's x_ab is named.
        (momentum, apart,
         "at sample 1 (t = 1.0): rate overflow: non-finite vector component in (inf, 0, 0)"),
        # L is not finite at the first sample, which no rate reads.
        (torque, apart,
         "at sample 0 (t = 0.0): rate overflow: non-finite vector component in (0.0, nan, inf)"),
    ]
    for (rows, series, predict), traj, where in cases:
        got = rate_pass_outcome(monkeypatch, traj, rows, series, predict)
        assert got[0] is DivergenceError and got[3].endswith(where)


def test_rate_mismatch_names_each_failing_quantity(monkeypatch):
    # One row per failure kind, each named by its sample and quantity.
    momentum = RATE_CHECKS[0]
    around = [10.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    exponential = PairTerms(phi_perp=lambda r, speed, radial: math.exp(100.0 * r))
    raising = ForceLaw("exponential", lambda qa, qb: exponential)
    cases = [
        # The series is not finite at the last sample, after a finite rate.
        (velocity_trajectory([(0.0, 0.0, 0.0)] * 3 + [(1.7e308, 0.0, 1.7e308)]),
         3, "non-finite vector component in (inf, 0.0, 0.0)"),
        # The exact rate raises: exp(1000) overflows in the law.
        (constant_trajectory(around, raising), 1, "math range error"),
        # The exact rate is not finite: the mismatch vector is named.
        (constant_trajectory(around, perp_demo(1e308)), 1,
         "non-finite vector component in (nan, nan, -inf)"),
        # Each mismatch component is finite, their sum of squares is not.
        (velocity_trajectory([(0.0, 0.0, 0.0)] * 2 + [(1e200, 1e200, 0.0)] * 2), 1,
         "|rate - prediction| is infinite"),
    ]
    for traj, index, quantity in cases:
        got = rate_pass_outcome(monkeypatch, traj, *momentum)
        time = traj.times[index]
        assert got == (
            DivergenceError, index, time,
            f"trajectory diverged at sample {index} (t = {time!r}): rate overflow: {quantity}",
        )


# Values that overflow in a difference, a product or a sum of squares.
EXTREMES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e154, -1e154, 1e200, -1e200, 1e308, -1.7e308, 5e-324]


def random_coefficient(rng):
    """A bound coefficient that returns a constant (inf and nan included),
    or raises OverflowError or ValueError on large or negative invariants."""
    c = rng.choice([0.0, 1.0, -2.0, 1e300, 1e308, math.inf, math.nan])
    return rng.choice([
        lambda r, speed, radial: c,
        lambda r, speed, radial: c * speed,
        lambda r, speed, radial: r**3.0 if r > 1e100 else c,
        lambda r, speed, radial: math.sqrt(radial) if radial < 0.0 else c,
    ])


def random_law(rng):
    terms = PairTerms(phi_s=random_coefficient(rng), phi_perp=random_coefficient(rng))
    return ForceLaw("random", lambda qa, qb: terms)


def random_extreme_trajectory(rng):
    """Two to six samples of rows near the float range's edge, at unit or
    the least time steps, under a random law with phi_s and phi_perp channels."""
    n = rng.randrange(2, 7)
    base = [rng.choice(EXTREMES) for _ in range(12)]
    rows = [x if rng.random() < 0.6 else rng.choice(EXTREMES) for _ in range(n) for x in base]
    times = [0.0]
    while len(times) < n:
        t = times[-1]
        times.append(t + 1.0 if rng.random() < 0.7 else math.nextafter(t, math.inf))
    law = rng.choice([
        merge_laws(()),
        perp_demo(rng.choice([1.0, 1e308])),
        merge_laws((linear_drag(0.3), perp_demo(0.5))),
        random_law(rng),
    ])
    masses = [rng.choice([1.0, 3.0, 1e-200, 1e200, 1e308]) for _ in range(2)]
    rest = Vec3(0.0, 0.0, 0.0)
    bodies = tuple(Body(name, m, rest, rest) for name, m in zip("AB", masses))
    return Trajectory(times, rows, bodies, law, "rk4")


def test_rate_mismatch_equals_the_snapshot_pass_on_extreme_rows(monkeypatch):
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(300):
        traj = random_extreme_trajectory(rng)
        for rows, series, predict in RATE_CHECKS:
            got = rate_pass_outcome(monkeypatch, traj, rows, series, predict)
            outcomes.add(got[0] if isinstance(got, tuple) else float)
    assert outcomes == {float, DivergenceError}


def reference_mat_vec(m, v):
    return Vec3(
        m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
        m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
        m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
    )


def reference_mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def reference_transpose(m):
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


def reference_compose(t1, t2):
    """Earlier compose: generator matrix product and Vec3 arithmetic."""
    rot = reference_mat_mul(t1.rotation, t2.rotation)
    boost = reference_mat_vec(t1.rotation, t2.boost) + t1.boost
    offset = t1.time_offset + t2.time_offset
    translation = (
        reference_mat_vec(t1.rotation, t2.translation)
        + t1.translation
        - reference_mat_vec(t1.rotation, t2.boost) * t1.time_offset
        - t1.boost * t2.time_offset
    )
    return FrameTransform(rot, translation, boost, offset)


def reference_inverse(t):
    rot_t = reference_transpose(t.rotation)
    boost = -reference_mat_vec(rot_t, t.boost)
    translation = -reference_mat_vec(rot_t, t.translation + t.boost * (2.0 * t.time_offset))
    return FrameTransform(rot_t, translation, boost, -t.time_offset)


def test_compose_and_inverse_equal_the_matrix_formulas():
    rng = random.Random(41)
    ident = identity()
    for _ in range(300):
        t1 = random_transform(rng, translation=5.0, boost=2.0, time_offset=3.0)
        t2 = random_transform(rng, translation=5.0, boost=2.0, time_offset=3.0)
        for left, right in ((t1, t2), (t2, t1), (t1, ident), (ident, t1), (t1, inverse(t1))):
            assert compose(left, right) == reference_compose(left, right)
        assert inverse(t1) == reference_inverse(t1)
    assert inverse(ident) == reference_inverse(ident)


def reference_transform_residual(t1, t2):
    """Earlier transform_residual: nested loops over the fields."""
    worst = abs(t1.time_offset - t2.time_offset)
    for i in range(3):
        for j in range(3):
            worst = max(worst, abs(t1.rotation[i][j] - t2.rotation[i][j]))
    for a, b in ((t1.translation, t2.translation), (t1.boost, t2.boost)):
        worst = max(worst, abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z))
    return worst


def test_transform_residual_equals_the_loop():
    rng = random.Random(43)
    ident = identity()
    for _ in range(300):
        t1 = random_transform(rng, translation=5.0, boost=2.0, time_offset=3.0)
        t2 = random_transform(rng, translation=5.0, boost=2.0, time_offset=3.0)
        pairs = ((t1, t2), (compose(t1, inverse(t1)), ident), (compose(t1, ident), t1), (t1, t1))
        for left, right in pairs:
            assert transform_residual(left, right) == reference_transform_residual(left, right)


def reference_oplus(u, v):
    """Earlier oplus: validated Vec3 arithmetic on the weighted vectors."""
    if not u.gfun.compatible(v.gfun):
        raise ValueError(
            f"cannot compose velocities under different profiles "
            f"({u.gfun.name}, c={u.gfun.c}) vs ({v.gfun.name}, c={v.gfun.c})"
        )
    rhs = u.v * u.weight() + v.v * v.weight()
    r = rhs.norm()
    if r == math.inf:
        # The sum is finite and only its squared norm overflows.
        r = math.hypot(rhs.x, rhs.y, rhs.z)
    if r == 0.0:
        return zero_velocity(u.gfun)
    w = u.gfun.solve_speed(r)
    return BoundedVelocity(rhs * (w / r), u.gfun)


def reference_invariance_theorem(v2, v3, duration, *, tolerance=1e-12, perturbation=0.01):
    """Earlier check_invariance_theorem: Vec3 arithmetic throughout."""
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    v1 = reference_oplus(v2, v3)
    dt1 = duration * v1.weight()
    dt2 = duration * v2.weight()
    dt3 = duration * v3.weight()
    lhs = v1.v * dt1
    rhs = v2.v * dt2 + v3.v * dt3
    residual = (lhs - rhs).norm()
    predicted = perturbation * dt2 * v2.speed
    perturbed = (lhs - v2.v * (dt2 * (1.0 + perturbation)) - v3.v * dt3).norm()
    converse_ok = True
    detail = f"perturbed residual {perturbed:.3e}, first-order prediction {predicted:.3e}"
    if predicted > 0.0:
        converse_ok = abs(perturbed - predicted) <= 0.1 * predicted
    return Check(residual, residual <= tolerance and converse_ok, detail)


def reference_unit_vector(rng):
    """Marsaglia's unit vector in Vec3 arithmetic: a point p of the unit
    disk in the xy-plane, with s = |p|^2, gives 2 sqrt(1 - s) p + (1 - 2s) z."""
    while True:
        p = Vec3(2.0 * rng.random() - 1.0, 2.0 * rng.random() - 1.0, 0.0)
        s = p.x * p.x + p.y * p.y
        if s < 1.0:
            return p * (2.0 * math.sqrt(1.0 - s)) + Vec3(0.0, 0.0, 1.0 - 2.0 * s)


def reference_random_velocity(rng, gfun, max_fraction):
    scale = gfun.c if math.isfinite(gfun.c) else 10.0
    return BoundedVelocity(
        reference_unit_vector(rng) * (rng.uniform(0.0, max_fraction) * scale), gfun
    )


def outcome(fn, *args, **kwargs):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError, ConvergenceError) as exc:
        return type(exc), str(exc)


PROFILES = [
    lorentz_g(1.0),
    rational_g(2.0),
    classical_g(),
    GFunction("quartic", 3.0, lambda a: 1.0 / (1.0 - (a / 3.0) ** 4)),
]


@pytest.mark.parametrize("gfun", PROFILES, ids=[g.name for g in PROFILES])
def test_bounded_addition_equals_the_vec3_formulas(gfun):
    rng = random.Random(f"oplus:{gfun.name}")
    ref_rng = random.Random(f"oplus:{gfun.name}")
    for _ in range(300):
        u, v = _random_velocity(rng, gfun, 0.98), _random_velocity(rng, gfun, 0.98)
        assert (u, v) == (
            reference_random_velocity(ref_rng, gfun, 0.98),
            reference_random_velocity(ref_rng, gfun, 0.98),
        )
        assert _unit_vector(rng) == reference_unit_vector(ref_rng)
        for left, right in ((u, v), (v, u), (u, -u), (u, zero_velocity(gfun))):
            assert oplus(left, right) == reference_oplus(left, right)
        duration = rng.uniform(0.1, 2.0)
        assert duration == ref_rng.uniform(0.1, 2.0)
        assert check_invariance_theorem(u, v, duration) == reference_invariance_theorem(
            u, v, duration
        )


def agrees(got, expected):
    """Whether an outcome agrees with the Vec3 formulas' ``expected``: the
    same exception type, or a value equal wherever the formulas' value is
    finite. Where only a sum of squares overflows, the formulas read inf
    and the package reads the norm by hypot."""
    if type(expected) is tuple:
        return type(got) is tuple and got[0] is expected[0]
    if not isinstance(expected, Check):
        return got == expected
    pattern = r"perturbed residual (\S+), first-order prediction (\S+)"
    want = (expected.residual, *map(float, re.fullmatch(pattern, expected.detail).groups()))
    have = (got.residual, *map(float, re.fullmatch(pattern, got.detail).groups()))
    if all(map(math.isfinite, want)):
        return got == expected
    return all(h == w for h, w in zip(have, want) if math.isfinite(w))


def test_bounded_addition_errors_equal_the_vec3_formulas():
    lorentz, classical = lorentz_g(1.0), classical_g()
    # G reaches 1.4e308 at this speed: each weighted vector is finite,
    # twice one is not.
    steep = GFunction("steep", 1.0, lambda a: (1.0 - a) ** -30)
    fast = BoundedVelocity(Vec3(0.0, 1.0 - 5.35e-11, 0.0), steep)
    edge = BoundedVelocity(Vec3(math.nextafter(1.0, 0.0), 0.0, 0.0), lorentz)
    large = BoundedVelocity(Vec3(1.2e154, 0.0, 0.0), classical)
    cases = [
        # Profiles differ.
        (BoundedVelocity(Vec3(0.1, 0.0, 0.0), lorentz), zero_velocity(rational_g(1.0))),
        # The weighted norm is not reachable below the bound.
        (edge, edge),
        # The weighted sum overflows.
        (fast, fast),
        # The weighted sum is finite, its squared norm is not.
        (large, large),
        # The sum is zero, the perturbed displacement's squared norm overflows.
        (fast, -fast),
    ]
    for u, v in cases:
        assert agrees(outcome(oplus, u, v), outcome(reference_oplus, u, v))
        assert agrees(
            outcome(check_invariance_theorem, u, v, 1.0),
            outcome(reference_invariance_theorem, u, v, 1.0),
        )
    assert oplus(large, large).v == Vec3(2.4e154, 0.0, 0.0)
    # Only the stretched leg v2 (dt2 (1 + p)) leaves the float range; the
    # error names the perturbed displacement that carries it.
    args = (large, zero_velocity(classical), 1.49e154)
    assert outcome(reference_invariance_theorem, *args) == (
        NonFiniteError,
        "non-finite vector component in (inf, 0.0, 0.0)",
    )
    assert outcome(check_invariance_theorem, *args) == (
        NonFiniteError,
        "non-finite vector component in (-inf, 0.0, 0.0)",
    )
    assert outcome(oplus, edge, edge)[0] is ConvergenceError
    assert outcome(oplus, fast, fast) == (
        NonFiniteError,
        "non-finite vector component in (0.0, inf, 0.0)",
    )
    assert "perturbed residual inf" in reference_invariance_theorem(fast, -fast, 1.0).detail
    assert check_invariance_theorem(fast, -fast, 1.0) == Check(
        0.0, True, "perturbed residual 1.411e+306, first-order prediction 1.411e+306"
    )
    # The legs overflow only once they are scaled by the duration: inf - inf.
    small = BoundedVelocity(Vec3(1e150, 0.0, 0.0), classical)
    assert outcome(reference_invariance_theorem, small, small, 1e200)[0] is NonFiniteError
    assert outcome(check_invariance_theorem, small, small, 1e200) == (
        NonFiniteError,
        "non-finite vector component in (nan, 0.0, 0.0)",
    )
    # The legs are finite and round apart by more than sqrt(float max).
    u, v = (BoundedVelocity(Vec3(x, 0.0, 0.0), classical) for x in (7.11e150, 3.04e150))
    assert reference_invariance_theorem(u, v, 1e20).residual == math.inf
    got = check_invariance_theorem(u, v, 1e20)
    assert got.residual == 2.1452492687908155e155
    assert agrees(got, reference_invariance_theorem(u, v, 1e20))
