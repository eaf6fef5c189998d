"""Named audit procedures over a scenario.

Each audit exercises one conservation or invariance statement end to end
and reports a verdict with the measured residual and the tolerance it was
held to. Audits draw their randomness from per-audit seeded generators,
so the report is deterministic for a given scenario and seed and does not
depend on which other audits run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .core import Body, Vec3, cross, distance, pair_state
from .dynamics import (
    DivergenceError,
    Trajectory,
    angular_momentum_rate,
    integrate,
    momentum_rate,
)
from .forces import (
    SingularityError,
    check_property_additivity,
    force_on_a,
    force_on_b,
    force_pair,
    merge_laws,
    superpose,
)
from .frames import (
    FrameTransform,
    apply,
    check_objectivity,
    compose,
    identity,
    inverse,
    orthogonality_defect,
    pure_boost,
    pure_translation,
    random_transform,
    raw_apply,
    transform_residual,
)
from .report import AuditReport, AuditResult, ERROR, FAIL, PASS
from .rootfind import ConvergenceError
from .scenario import Scenario, ScenarioError
from .velocity_addition import (
    BoundedVelocity,
    GFunction,
    check_invariance_theorem,
    classical_light_quotient,
    light_quotient,
    oplus,
    zero_velocity,
)

__all__ = [
    "AuditSpec",
    "AuditContext",
    "CATALOG",
    "audit_names",
    "check_audit_names",
    "format_catalog",
    "run_audits",
]


class AuditConfigError(ValueError):
    """The scenario lacks something this audit needs."""


class AuditContext:
    """Shared state for one run: scenario, seed, and cached trajectories.

    A failed integration is cached like a trajectory, so every audit that
    needs it reports the same error without integrating again.
    """

    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.scenario = scenario
        self.seed = seed
        self.law = merge_laws(scenario.laws)
        self._trajectories: dict[float, Trajectory | Exception] = {}

    def rng(self, audit: str) -> random.Random:
        return random.Random(f"{self.seed}:{audit}")

    def tolerance(self, audit: str, default: float) -> float:
        return self.scenario.tolerances.get(audit, default)

    def param(self, audit: str, key: str, default):
        value = self.scenario.audit_params.get(audit, {}).get(key, default)
        if isinstance(default, bool) or isinstance(value, bool):
            raise AuditConfigError(f"audit_params.{audit}.{key}: booleans not supported")
        if isinstance(default, int) and not isinstance(value, int):
            raise AuditConfigError(f"audit_params.{audit}.{key}: expected an integer, got {value!r}")
        if isinstance(default, float) and not isinstance(value, (int, float)):
            raise AuditConfigError(f"audit_params.{audit}.{key}: expected a number, got {value!r}")
        if isinstance(default, str) and not isinstance(value, str):
            raise AuditConfigError(f"audit_params.{audit}.{key}: expected a string, got {value!r}")
        return float(value) if isinstance(default, float) else value

    def trajectory(self, step_scale: float = 1.0) -> Trajectory:
        cfg = self.scenario.integrator
        if cfg is None:
            raise AuditConfigError("scenario has no integrator block")
        if step_scale not in self._trajectories:
            a, b = self.scenario.bodies
            try:
                result: Trajectory | Exception = integrate(
                    a, b, self.law, cfg.t_end, cfg.step * step_scale, cfg.method
                )
            except (SingularityError, DivergenceError) as exc:
                result = exc
            except ValueError as exc:
                result = AuditConfigError(str(exc))
            self._trajectories[step_scale] = result
        result = self._trajectories[step_scale]
        if isinstance(result, Exception):
            raise result from None
        return result

    def frame_transforms(self, rng: random.Random) -> list[FrameTransform]:
        cfg = self.scenario.frames
        if cfg.explicit:
            return list(cfg.explicit)
        return [
            random_transform(
                rng,
                translation=cfg.translation,
                boost=cfg.boost,
                time_offset=cfg.time_offset,
                reflections=cfg.reflections,
            )
            for _ in range(cfg.count)
        ]

    def addition(self):
        cfg = self.scenario.addition
        if cfg is None:
            raise AuditConfigError("scenario has no velocity_addition block")
        return cfg


def _unit_components(rng: random.Random) -> tuple[float, float, float]:
    """Components of a random unit vector: a normalised Gaussian triple."""
    while True:
        x, y, z = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        n = math.sqrt(x * x + y * y + z * z)
        if n > 1e-6:
            return x / n, y / n, z / n


def _unit_vector(rng: random.Random) -> Vec3:
    return Vec3(*_unit_components(rng))


def _random_velocity(rng: random.Random, gfun: GFunction, max_fraction: float) -> BoundedVelocity:
    scale = gfun.c if math.isfinite(gfun.c) else 10.0
    x, y, z = _unit_components(rng)
    s = rng.uniform(0.0, max_fraction) * scale
    return BoundedVelocity(Vec3(x * s, y * s, z * s), gfun)


def _random_pair(rng: random.Random, a0: Body, b0: Body, min_separation: float) -> tuple[Body, Body]:
    while True:
        a = a0.with_state(
            Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
            Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        b = b0.with_state(
            Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
            Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        if pair_state(a, b).x_ab.norm() > max(0.1, min_separation):
            return a, b


def _worst(residuals: Iterable[float], worst: float = 0.0) -> float:
    """Largest of ``worst`` and the residuals. Unlike max(), a nan wins and
    stays, so a non-finite residual can never PASS."""
    for r in residuals:
        if r != r:
            return r
        if r > worst:
            worst = r
    return worst


# --- audit implementations ---


def _audit_frame_group(ctx: AuditContext) -> AuditResult:
    rng = ctx.rng("frame-group")
    tol = ctx.tolerance("frame-group", 1e-12)
    count = ctx.param("frame-group", "count", 200)
    ident = identity()
    worst = 0.0
    for _ in range(count):
        t1 = random_transform(rng)
        t2 = random_transform(rng)
        t3 = random_transform(rng)
        left = compose(compose(t1, t2), t3)
        right = compose(t1, compose(t2, t3))
        worst = max(worst, transform_residual(left, right))
        worst = max(worst, transform_residual(compose(t1, ident), t1))
        worst = max(worst, transform_residual(compose(ident, t1), t1))
        worst = max(worst, transform_residual(compose(t1, inverse(t1)), ident))
        worst = max(worst, transform_residual(compose(inverse(t1), t1), ident))
        worst = max(worst, orthogonality_defect(left.rotation))
    verdict = PASS if worst <= tol else FAIL
    return AuditResult(
        "frame-group", "observer-choice-group", verdict, worst, tol, f"{count} random triples"
    )


def _audit_objectivity(ctx: AuditContext) -> AuditResult:
    rng = ctx.rng("objectivity-sweep")
    tol = ctx.tolerance("objectivity-sweep", 1e-12)
    a, b = ctx.scenario.bodies
    transforms = ctx.frame_transforms(rng)
    reps = [(a, b)] + [(apply(t, a), apply(t, b)) for t in transforms]
    base = pair_state(a, b)

    x_norm = check_objectivity(
        lambda rep: pair_state(*rep).x_ab.norm() - base.x_ab.norm(), reps, tolerance=tol
    )
    v_norm = check_objectivity(
        lambda rep: pair_state(*rep).v_ab.norm() - base.v_ab.norm(), reps, tolerance=tol
    )
    # A coordinate of one body is subjective: it must fail under shifted origins.
    shifts = [identity()] + [
        pure_translation(_unit_vector(rng) * rng.uniform(0.5, 2.0)) for _ in range(20)
    ]
    counter = check_objectivity(
        lambda rep: rep[0].position.x - a.position.x,
        [(apply(t, a), apply(t, b)) for t in shifts],
        tolerance=tol,
    )
    residual = max(x_norm.residual, v_norm.residual)
    ok = x_norm.passed and v_norm.passed and not counter.passed
    detail = (
        f"{len(transforms)} frames; subjective counterexample "
        f"{'detected' if not counter.passed else 'NOT detected'} "
        f"(residual {counter.residual:.3e})"
    )
    return AuditResult(
        "objectivity-sweep", "objectivity-of-laws", PASS if ok else FAIL, residual, tol, detail
    )


def _audit_event_order(ctx: AuditContext) -> AuditResult:
    rng = ctx.rng("event-order")
    count = ctx.param("event-order", "count", 100)
    violations = 0
    for _ in range(count):
        events = sorted(rng.uniform(-50.0, 50.0) for _ in range(12))
        # Random strictly increasing reparameterization of the clock.
        a = rng.uniform(0.1, 3.0)
        bcoef = rng.uniform(0.0, 2.0)
        ccoef = rng.uniform(0.0, 0.01)
        shift = rng.uniform(-10.0, 10.0)
        mapped = [a * t + bcoef * math.atan(t) + ccoef * t**3 + shift for t in events]
        if any(t2 <= t1 for t1, t2 in zip(mapped, mapped[1:])):
            violations += 1
    verdict = PASS if violations == 0 else FAIL
    return AuditResult(
        "event-order",
        "event-order-preservation",
        verdict,
        float(violations),
        0.0,
        f"{count} monotone clock changes",
    )


def _inertia_residuals(traj: Trajectory, x0: Vec3, v0: Vec3) -> Iterator[float]:
    """Per sample: relative-position gap to x0 + v0 t (scaled), then
    relative-velocity gap to v0 (scaled), from the raw rows."""
    v_scale = max(1.0, v0.norm())
    for t, (ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz) in zip(
        traj.times, traj.samples(), strict=True
    ):
        ex, ey, ez = x0.x + v0.x * t, x0.y + v0.y * t, x0.z + v0.z * t
        dx, dy, dz = (ax - bx) - ex, (ay - by) - ey, (az - bz) - ez
        scale = max(1.0, math.sqrt(ex * ex + ey * ey + ez * ez))
        yield math.sqrt(dx * dx + dy * dy + dz * dz) / scale
        dx, dy, dz = (avx - bvx) - v0.x, (avy - bvy) - v0.y, (avz - bvz) - v0.z
        yield math.sqrt(dx * dx + dy * dy + dz * dz) / v_scale


def _audit_inertia(ctx: AuditContext) -> AuditResult:
    tol = ctx.tolerance("inertia", 1e-12)
    steps = ctx.param("inertia", "steps", 10_000)
    cfg = ctx.scenario.integrator
    step = ctx.param("inertia", "step", cfg.step if cfg is not None else 1e-3)
    a, b = ctx.scenario.bodies
    traj = integrate(a, b, merge_laws(()), steps * step, step, "rk4")
    base = pair_state(a, b)
    worst = _worst(_inertia_residuals(traj, base.x_ab, base.v_ab))
    verdict = PASS if worst <= tol else FAIL
    return AuditResult(
        "inertia", "law-of-inertia", verdict, worst, tol, f"{steps} force-free steps"
    )


def _audit_exchange(ctx: AuditContext) -> AuditResult:
    rng = ctx.rng("exchange")
    tol = ctx.tolerance("exchange", 1e-12)
    count = ctx.param("exchange", "count", 50)
    a0, b0 = ctx.scenario.bodies
    law = ctx.law
    worst = 0.0
    for _ in range(count):
        a, b = _random_pair(rng, a0, b0, law.min_separation if law.singular else 0.0)
        f, k = force_pair(law, a, b)
        worst = max(worst, (force_on_b(law, a, b) - force_on_a(law, b, a)).norm())
        worst = max(worst, (force_on_a(law, a, b) - force_on_b(law, b, a)).norm())
        worst = max(worst, (f + k - momentum_rate(a, b, law)).norm())
    verdict = PASS if worst <= tol else FAIL
    return AuditResult(
        "exchange", "exchange-symmetry", verdict, worst, tol, f"{count} random pair states"
    )


def _audit_momentum(ctx: AuditContext) -> AuditResult:
    tol = ctx.tolerance("momentum", 1e-9)
    traj = ctx.trajectory()
    first = traj.observables(0).total_momentum
    worst = _worst(
        distance(traj.observables(i).total_momentum, first) for i in range(len(traj))
    )
    verdict = PASS if worst <= tol else FAIL
    return AuditResult(
        "momentum",
        "momentum-iff-no-normal-channel",
        verdict,
        worst,
        tol,
        f"{len(traj)} samples, method {traj.method}",
    )


def _audit_angular_momentum(ctx: AuditContext) -> AuditResult:
    tol = ctx.tolerance("angular-momentum", 1e-9)
    traj = ctx.trajectory()
    first = traj.observables(0).angular_momentum
    worst = _worst(
        distance(traj.observables(i).angular_momentum, first) for i in range(len(traj))
    )
    verdict = PASS if worst <= tol else FAIL
    return AuditResult(
        "angular-momentum",
        "torque-iff-central-channels",
        verdict,
        worst,
        tol,
        f"{len(traj)} samples, method {traj.method}",
    )


def _rate_mismatch(traj: Trajectory, series, predict) -> float:
    """Largest |central-difference rate of ``series`` - ``predict``| over
    the interior samples.

    Raises:
        DivergenceError: the rows are finite, but the series, its rate or
            the mismatch leaves the floating-point range at some sample.
    """
    states, times, law = traj.states, traj.times, traj.law
    values: list[Vec3] = []
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


def _order_check_audit(ctx: AuditContext, name: str, lemma: str, series, predict) -> AuditResult:
    floor = ctx.param(name, "floor", 1e-10)
    base = _rate_mismatch(ctx.trajectory(), series, predict)
    if base <= floor:
        return AuditResult(
            name, lemma, PASS, base, floor, "rate below noise floor; order check skipped"
        )
    halved = _rate_mismatch(ctx.trajectory(step_scale=0.5), series, predict)
    target = base / 3.5
    verdict = PASS if halved <= target else FAIL
    ratio = base / halved if halved > 0.0 else math.inf
    return AuditResult(
        name,
        lemma,
        verdict,
        halved,
        target,
        f"mismatch {base:.3e} at h, {halved:.3e} at h/2 (reduction x{ratio:.2f}, need >=3.5)",
    )


def _audit_momentum_rate(ctx: AuditContext) -> AuditResult:
    def series(a: Body, b: Body) -> Vec3:
        return a.velocity * a.mass + b.velocity * b.mass

    return _order_check_audit(
        ctx, "momentum-rate", "generalized-action-reaction", series, momentum_rate
    )


def _audit_torque_rate(ctx: AuditContext) -> AuditResult:
    def series(a: Body, b: Body) -> Vec3:
        ps = pair_state(a, b)
        mu = a.mass * b.mass / (a.mass + b.mass)
        return cross(ps.x_ab, ps.v_ab * mu)

    return _order_check_audit(
        ctx, "torque-rate", "internal-torque-rate", series, angular_momentum_rate
    )


def _audit_energy(ctx: AuditContext) -> AuditResult:
    tol = ctx.tolerance("energy", 1e-9)
    if not ctx.law.central:
        raise AuditConfigError(
            f"internal energy is undefined for the non-central law {ctx.law.name!r}"
        )
    traj = ctx.trajectory()
    e0 = traj.observables(0).internal_energy
    scale = abs(e0) if abs(e0) > 1e-12 else 1.0
    drifts = [abs(traj.observables(i).internal_energy - e0) / scale for i in range(len(traj))]
    worst = max(drifts)
    window = max(2, len(drifts) // 10)
    early, late = max(drifts[:window]), max(drifts[-window:])
    verdict = PASS if worst <= tol else FAIL
    return AuditResult(
        "energy",
        "internal-energy-conservation",
        verdict,
        worst,
        tol,
        f"relative drift; early-window {early:.3e}, late-window {late:.3e}",
    )


def _boost_residuals(
    boost: FrameTransform, base: Trajectory, boosted: Trajectory
) -> Iterator[float]:
    """Per sample: relative position, then relative velocity, of the
    boosted base trajectory against the trajectory integrated from boosted
    initial states, from the raw rows."""
    for t, (ax, ay, az, avx, avy, avz, bx, by, bz, bvx, bvy, bvz), q in zip(
        base.times, base.samples(), boosted.samples(), strict=True
    ):
        pax, pay, paz, uax, uay, uaz = raw_apply(boost, ax, ay, az, avx, avy, avz, t)
        pbx, pby, pbz, ubx, uby, ubz = raw_apply(boost, bx, by, bz, bvx, bvy, bvz, t)
        dx = (pax - pbx) - (q[0] - q[6])
        dy = (pay - pby) - (q[1] - q[7])
        dz = (paz - pbz) - (q[2] - q[8])
        yield math.sqrt(dx * dx + dy * dy + dz * dz)
        dx = (uax - ubx) - (q[3] - q[9])
        dy = (uay - uby) - (q[4] - q[10])
        dz = (uaz - ubz) - (q[5] - q[11])
        yield math.sqrt(dx * dx + dy * dy + dz * dz)


def _audit_boost_covariance(ctx: AuditContext) -> AuditResult:
    rng = ctx.rng("boost-covariance")
    tol = ctx.tolerance("boost-covariance", 1e-9)
    count = ctx.param("boost-covariance", "count", 10)
    scale = ctx.param("boost-covariance", "boost", 1.0)
    cfg = ctx.scenario.integrator
    if cfg is None:
        raise AuditConfigError("scenario has no integrator block")
    t_end = ctx.param("boost-covariance", "t_end", cfg.t_end)
    step = ctx.param("boost-covariance", "step", cfg.step)
    a0, b0 = ctx.scenario.bodies
    base = (
        ctx.trajectory()
        if (t_end == cfg.t_end and step == cfg.step)
        else integrate(a0, b0, ctx.law, t_end, step, cfg.method)
    )
    worst = 0.0
    for _ in range(count):
        boost = pure_boost(_unit_vector(rng) * rng.uniform(0.1, scale))
        boosted = integrate(
            apply(boost, a0), apply(boost, b0), ctx.law, t_end, step, cfg.method
        )
        worst = _worst(_boost_residuals(boost, base, boosted), worst)
    verdict = PASS if worst <= tol else FAIL
    return AuditResult(
        "boost-covariance",
        "galilean-covariance",
        verdict,
        worst,
        tol,
        f"{count} random boosts, {len(base)} samples each",
    )


def _audit_superposition(ctx: AuditContext) -> AuditResult:
    rng = ctx.rng("superposition")
    tol = ctx.tolerance("superposition", 1e-12)
    count = ctx.param("superposition", "count", 50)
    laws = ctx.scenario.laws
    merged = ctx.law
    a0, b0 = ctx.scenario.bodies
    min_sep = merged.min_separation if merged.singular else 0.0
    worst = 0.0
    for _ in range(count):
        a, b = _random_pair(rng, a0, b0, min_sep)
        worst = max(worst, (superpose(laws, a, b) - force_on_a(merged, a, b)).norm())
        worst = max(worst, superpose((), a, b).norm())
    verdict = PASS if worst <= tol else FAIL
    return AuditResult(
        "superposition",
        "acceleration-additivity",
        verdict,
        worst,
        tol,
        f"{len(laws)} laws, {count} random pair states",
    )


def _audit_additivity(ctx: AuditContext) -> AuditResult:
    tol = ctx.tolerance("additivity", 1e-9)
    law_names = {law.name for law in ctx.scenario.laws}
    default_property = "mass" if "gravity" in law_names or not law_names else "charge"
    prop = ctx.param("additivity", "property", default_property)
    a0, b0 = ctx.scenario.bodies
    value = a0.prop(prop)
    q1, q2 = (0.4 * value, 0.6 * value) if value != 0.0 else (1.0, -1.0)

    def split(q: float) -> Body:
        if prop == "mass":
            return Body(a0.id, q, a0.position, a0.velocity, a0.properties)
        props = dict(a0.properties)
        props[prop] = q
        return Body(a0.id, a0.mass, a0.position, a0.velocity, props)

    worst = 0.0
    failed = []
    for law in ctx.scenario.laws or (ctx.law,):
        result = check_property_additivity(law, prop, split(q1), split(q2), b0, tolerance=tol)
        worst = max(worst, result.residual)
        if not result.passed:
            failed.append(law.name)
    verdict = PASS if not failed else FAIL
    detail = f"property {prop!r}, split {q1:g}/{q2:g}"
    if failed:
        detail += f"; failing laws: {', '.join(failed)}"
    return AuditResult("additivity", "property-additivity", verdict, worst, tol, detail)


def _audit_oplus_group(ctx: AuditContext) -> AuditResult:
    rng = ctx.rng("oplus-group")
    tol = ctx.tolerance("oplus-group", 1e-10)
    cfg = ctx.addition()
    gfun = cfg.gfunction()
    neutral = zero_velocity(gfun)
    worst = 0.0
    closed = True
    for _ in range(cfg.samples):
        u = _random_velocity(rng, gfun, cfg.max_speed)
        v = _random_velocity(rng, gfun, cfg.max_speed)
        w = _random_velocity(rng, gfun, cfg.max_speed)
        uv = oplus(u, v)
        closed = closed and uv.speed < gfun.c
        worst = max(worst, (uv.v - oplus(v, u).v).norm())
        worst = max(worst, (oplus(uv, w).v - oplus(u, oplus(v, w)).v).norm())
        worst = max(worst, oplus(u, -u).v.norm())
        worst = max(worst, (oplus(u, neutral).v - u.v).norm())
    verdict = PASS if (worst <= tol and closed) else FAIL
    detail = f"{cfg.samples} triples, profile {gfun.name}, c={gfun.c:g}"
    if not closed:
        detail += "; closure violated"
    return AuditResult("oplus-group", "bounded-addition-group", verdict, worst, tol, detail)


def _audit_proper_time(ctx: AuditContext) -> AuditResult:
    rng = ctx.rng("proper-time")
    tol = ctx.tolerance("proper-time", 1e-12)
    cfg = ctx.addition()
    gfun = cfg.gfunction()
    worst = 0.0
    failures = 0
    for _ in range(cfg.samples):
        v2 = _random_velocity(rng, gfun, cfg.max_speed)
        v3 = _random_velocity(rng, gfun, cfg.max_speed)
        result = check_invariance_theorem(v2, v3, rng.uniform(0.1, 2.0), tolerance=tol)
        worst = max(worst, result.residual)
        if not result.passed:
            failures += 1
    verdict = PASS if failures == 0 else FAIL
    return AuditResult(
        "proper-time",
        "distance-iff-proper-time",
        verdict,
        worst,
        tol,
        f"{cfg.samples} splits, {failures} converse failures",
    )


def _audit_light_quotient(ctx: AuditContext) -> AuditResult:
    rng = ctx.rng("light-quotient")
    tol = ctx.tolerance("light-quotient", 1e-12)
    cfg = ctx.addition()
    gfun = cfg.gfunction()
    if not math.isfinite(gfun.c):
        raise AuditConfigError("light-quotient needs a bounded profile (finite c)")
    count = ctx.param("light-quotient", "count", 20)
    worst = 0.0
    classical_min = math.inf
    for _ in range(count):
        boost = BoundedVelocity(
            _unit_vector(rng) * (rng.uniform(0.1, cfg.max_speed) * gfun.c), gfun
        )
        worst = max(worst, abs(light_quotient(boost, cfg.baseline) - gfun.c))
        plain = classical_light_quotient(boost.v, cfg.baseline, gfun.c)
        classical_min = min(classical_min, abs(plain - gfun.c))
    verdict = PASS if (worst <= tol and classical_min > 1e-6 * gfun.c) else FAIL
    return AuditResult(
        "light-quotient",
        "echo-quotient-invariance",
        verdict,
        worst,
        tol,
        f"{count} boosts; plain-addition deviation >= {classical_min:.3e}",
    )


@dataclass(frozen=True)
class AuditSpec:
    name: str
    lemma: str
    description: str
    run: Callable[[AuditContext], AuditResult]


CATALOG: tuple[AuditSpec, ...] = (
    AuditSpec(
        "frame-group",
        "observer-choice-group",
        "composition, identity, inverse and associativity of frame transforms",
        _audit_frame_group,
    ),
    AuditSpec(
        "objectivity-sweep",
        "objectivity-of-laws",
        "relative-state norms invariant across frames; a subjective coordinate is not",
        _audit_objectivity,
    ),
    AuditSpec(
        "event-order",
        "event-order-preservation",
        "monotone clock changes keep the order of events",
        _audit_event_order,
    ),
    AuditSpec(
        "inertia",
        "law-of-inertia",
        "isolated pair keeps constant relative velocity",
        _audit_inertia,
    ),
    AuditSpec(
        "exchange",
        "exchange-symmetry",
        "swapping the bodies swaps the force pair; f + k closes through the normal channel",
        _audit_exchange,
    ),
    AuditSpec(
        "momentum",
        "momentum-iff-no-normal-channel",
        "total momentum constant along the trajectory",
        _audit_momentum,
    ),
    AuditSpec(
        "momentum-rate",
        "generalized-action-reaction",
        "measured dP/dt matches 2 (x_ab x v_ab) phi_perp at second order in the step",
        _audit_momentum_rate,
    ),
    AuditSpec(
        "angular-momentum",
        "torque-iff-central-channels",
        "angular momentum constant along the trajectory",
        _audit_angular_momentum,
    ),
    AuditSpec(
        "torque-rate",
        "internal-torque-rate",
        "measured dL/dt matches the internal-torque formula at second order in the step",
        _audit_torque_rate,
    ),
    AuditSpec(
        "energy",
        "internal-energy-conservation",
        "internal energy of a central law constant along the trajectory",
        _audit_energy,
    ),
    AuditSpec(
        "boost-covariance",
        "galilean-covariance",
        "integrate-then-boost equals boost-then-integrate in relative state",
        _audit_boost_covariance,
    ),
    AuditSpec(
        "superposition",
        "acceleration-additivity",
        "forces of stacked laws sum to the merged law's force",
        _audit_superposition,
    ),
    AuditSpec(
        "additivity",
        "property-additivity",
        "merging a coupling property adds the forces (linear laws pass, quadratic fail)",
        _audit_additivity,
    ),
    AuditSpec(
        "oplus-group",
        "bounded-addition-group",
        "bounded velocity addition: closure, commutativity, associativity, inverses",
        _audit_oplus_group,
    ),
    AuditSpec(
        "proper-time",
        "distance-iff-proper-time",
        "leg-by-leg displacements agree exactly when proper intervals agree",
        _audit_proper_time,
    ),
    AuditSpec(
        "light-quotient",
        "echo-quotient-invariance",
        "echo speed quotient is frame independent under the bounded group, not under plain addition",
        _audit_light_quotient,
    ),
)

_BY_NAME = {spec.name: spec for spec in CATALOG}


def audit_names() -> list[str]:
    return [spec.name for spec in CATALOG]


def format_catalog() -> list[str]:
    width = max(len(spec.name) for spec in CATALOG)
    return [
        f"{spec.name:<{width}}  {spec.description}  [{spec.lemma}]" for spec in CATALOG
    ]


def check_audit_names(scenario: Scenario) -> None:
    """Every name in ``audits`` and every key of ``tolerances`` and
    ``audit_params`` must be a catalog audit.

    Raises:
        ScenarioError: naming the field and the unknown name.
    """
    known = ", ".join(audit_names())
    unknown = [name for name in scenario.audits if name not in _BY_NAME]
    if unknown:
        raise ScenarioError(
            f"audits: unknown audit name(s) {', '.join(sorted(set(unknown)))}; known: {known}"
        )
    for field, keys in (
        ("tolerances", scenario.tolerances),
        ("audit_params", scenario.audit_params),
    ):
        for key in keys:
            if key not in _BY_NAME:
                raise ScenarioError(f"{field}.{key}: unknown audit name; known: {known}")


def run_audits(scenario: Scenario, seed: int, context: AuditContext | None = None) -> AuditReport:
    """Run the scenario's requested audits in catalog order.

    Unknown audit names, also as keys of ``tolerances`` or
    ``audit_params``, are a scenario error (input problem, not a FAIL).
    A singular encounter, a diverging integration or a missing scenario
    block turns into an ERROR verdict for that audit alone. Passing an
    existing ``context`` reuses its cached trajectories and failures.
    """
    check_audit_names(scenario)
    requested = [spec for spec in CATALOG if spec.name in set(scenario.audits)]
    ctx = context if context is not None else AuditContext(scenario, seed)
    results = []
    for spec in requested:
        try:
            results.append(spec.run(ctx))
        except (AuditConfigError, SingularityError, DivergenceError, ConvergenceError) as exc:
            results.append(
                AuditResult(spec.name, spec.lemma, ERROR, None, None, str(exc))
            )
    return AuditReport(
        scenario=scenario.name,
        seed=seed,
        results=tuple(results),
        integrator=scenario.integrator.meta() if scenario.integrator else None,
    )
