"""Named audit procedures over a scenario.

Each audit exercises one conservation or invariance statement end to end
and reports a verdict with the measured residual and the tolerance it was
held to. Audits draw their randomness from per-audit seeded generators,
so the report is deterministic for a given scenario and seed and does not
depend on which other audits run.

Each audit is declared once, as an ``AuditSpec`` in ``CATALOG``: name,
lemma, description, default tolerance and its ``audit_params`` fields.
Its body returns only a ``Measurement``; one function resolves the
tolerance, decides PASS/FAIL and builds the ``AuditResult``.

``run_audits`` may hand audits to a worker beside this process
(``forking.beside``, which decides whether it forks and runs them here if
its child did not start or failed). With an integrator the worker takes,
before the integration, every requested audit that does not read the
trajectory, if their ``own_steps`` reach ``_WORKER_MIN_STEPS`` (fewer cost
less than the fork); without one, of two or more requested audits, the
first in catalog order with the most ``own_steps``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .core import Body, NonFiniteError, Vec3, distance, pair_state
from .dynamics import (
    DivergenceError, RowFunction, Trajectory, _angular_momentum, _exact_momentum_rate,
    _exact_torque, _momentum, _rate_mismatch, integrate, momentum_rate,
)
from .forces import (
    ForceLaw, ForceOverflowError, PropertyView, SingularityError, bind,
    check_property_additivity, force_on_a, force_pair, merge_laws, superpose,
)
from .forking import beside
from .frames import (
    FrameTransform, apply, check_objectivity, compose, identity, inverse, orthogonality_defect,
    pure_boost, pure_translation, random_transform, raw_apply, transform_residual,
)
from .report import AuditReport, AuditResult, ERROR, FAIL, PASS
from .rootfind import ConvergenceError
from .scenario import (
    COUNT, POSITIVE, TEXT, Field, Scenario, ScenarioError, check_steps, read_section,
)
from .velocity_addition import (
    BoundedVelocity, GFunction, check_invariance_theorem, classical_light_quotient,
    light_quotient, oplus, zero_velocity,
)

__all__ = [
    "AuditSpec", "AuditContext", "CATALOG", "Measurement", "audit_names",
    "check_audit_inputs", "format_catalog", "run_audits",
]


class AuditConfigError(ValueError):
    """The scenario lacks something this audit needs."""


class Measurement(NamedTuple):
    """What an audit body measured. The runner holds ``residual`` to the
    tolerance; ``ok`` is any further pass condition, and ``tolerance`` is
    set only by the audits that fix their own."""

    residual: float
    detail: str
    ok: bool = True
    tolerance: float | None = None


@dataclass(frozen=True)
class AuditSpec:
    """One audit, declared once. ``tolerance`` is the default the scenario's
    ``tolerances`` may override, or ``None`` for an audit that sets its own
    (``run`` then returns it in its ``Measurement``). ``own_steps`` counts
    the integration steps the audit always runs beyond the scenario
    trajectory it shares (a rerun it makes only sometimes is not counted);
    ``reads_trajectory`` tells whether it calls ``ctx.trajectory()``."""

    name: str
    lemma: str
    description: str
    run: Callable[[AuditContext], Measurement]
    tolerance: float | None
    params: tuple[Field, ...]
    own_steps: Callable[[Scenario], int]
    reads_trajectory: Callable[[Scenario], bool]


_DECLARED: list[AuditSpec] = []


def _declare(name: str, lemma: str, description: str, tolerance: float | None, *params: Field,
             own_steps: Callable[[Scenario], int] = lambda scenario: 0,
             reads_trajectory: Callable[[Scenario], bool] = lambda scenario: False):
    """Decorator: declare ``run`` as the catalog audit ``name``. The
    catalog lists and runs the audits in declaration order."""

    def declare(run: Callable[[AuditContext], Measurement]):
        _DECLARED.append(AuditSpec(name, lemma, description, run, tolerance, params, own_steps,
                                   reads_trajectory))
        return run

    return declare


def _resolve_params(scenario: Scenario, audit: str) -> dict[str, Any]:
    """The audit's params: the scenario's values where given, else its fields'
    defaults. Assumes ``check_audit_inputs`` accepted the scenario."""
    given = scenario.audit_params.get(audit, {})
    values = read_section(given, f"audit_params.{audit}", _BY_NAME[audit].params)
    return {name: value(scenario) if callable(value) else value for name, value in values.items()}


class AuditContext:
    """Shared state for one run: scenario, seed, and cached trajectories.

    A failed integration is cached like a trajectory, so every audit that
    needs it reports the same error without integrating again. Building one
    checks the scenario's audit inputs (``check_audit_inputs``) first.
    """

    def __init__(self, scenario: Scenario, seed: int) -> None:
        check_audit_inputs(scenario)
        self.scenario = scenario
        self.seed = seed
        self.law = merge_laws(scenario.laws)
        self._trajectories: dict[float, Trajectory | Exception] = {}

    def rng(self, audit: str) -> random.Random:
        return random.Random(f"{self.seed}:{audit}")

    def tolerance(self, audit: str) -> float | None:
        """The scenario's tolerance for ``audit``, else the catalog default."""
        return self.scenario.tolerances.get(audit, _BY_NAME[audit].tolerance)

    def params(self, audit: str) -> dict[str, Any]:
        return _resolve_params(self.scenario, audit)

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
        return [random_transform(rng, translation=cfg.translation, boost=cfg.boost,
                                 time_offset=cfg.time_offset, reflections=cfg.reflections)
                for _ in range(cfg.count)]

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


def _random_velocity(rng: random.Random, gfun: GFunction, fraction: float) -> BoundedVelocity:
    scale = gfun.c if math.isfinite(gfun.c) else 10.0
    x, y, z = _unit_components(rng)
    s = rng.uniform(0.0, fraction) * scale
    return BoundedVelocity(Vec3(x * s, y * s, z * s), gfun)


def _speed_unit(gfun: GFunction) -> float:
    """The unit of the bounded-addition residuals: c, or 1 when c = inf."""
    return gfun.c if math.isfinite(gfun.c) else 1.0


def _random_pair(rng: random.Random, a0: Body, b0: Body, min_sep: float) -> tuple[Body, Body]:
    def vec() -> Vec3:
        return Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))

    while True:
        a, b = a0.with_state(vec(), vec()), b0.with_state(vec(), vec())
        if pair_state(a, b).x_ab.norm() > max(0.1, min_sep):
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


# --- audit implementations, in catalog order ---


@_declare("frame-group", "observer-choice-group",
          "composition, identity, inverse and associativity of frame transforms", 1e-12,
          Field("count", COUNT, 200))
def _audit_frame_group(ctx: AuditContext) -> Measurement:
    rng = ctx.rng("frame-group")
    count = ctx.params("frame-group")["count"]
    ident = identity()
    worst = 0.0
    for _ in range(count):
        t1, t2, t3 = (random_transform(rng) for _ in range(3))
        t1_inverse = inverse(t1)
        left = compose(compose(t1, t2), t3)
        right = compose(t1, compose(t2, t3))
        residuals = (
            transform_residual(left, right),
            transform_residual(compose(t1, ident), t1),
            transform_residual(compose(ident, t1), t1),
            transform_residual(compose(t1, t1_inverse), ident),
            transform_residual(compose(t1_inverse, t1), ident),
            orthogonality_defect(left.rotation),
        )
        worst = _worst(residuals, worst)
    return Measurement(worst, f"{count} random triples")


@_declare("objectivity-sweep", "objectivity-of-laws",
          "relative-state norms invariant across frames; a subjective coordinate is not", 1e-12)
def _audit_objectivity(ctx: AuditContext) -> Measurement:
    rng = ctx.rng("objectivity-sweep")
    tol = ctx.tolerance("objectivity-sweep")
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
    shifted = [(apply(t, a), apply(t, b)) for t in shifts]
    counter = check_objectivity(lambda r: r[0].position.x - a.position.x, shifted, tolerance=tol)
    detail = (f"{len(transforms)} frames; subjective counterexample "
              f"{'detected' if not counter.passed else 'NOT detected'} "
              f"(residual {counter.residual:.3e})")
    return Measurement(_worst((x_norm.residual, v_norm.residual)), detail, ok=not counter.passed)


@_declare("event-order", "event-order-preservation",
          "monotone clock changes keep the order of events", None, Field("count", COUNT, 100))
def _audit_event_order(ctx: AuditContext) -> Measurement:
    rng = ctx.rng("event-order")
    count = ctx.params("event-order")["count"]
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
    return Measurement(float(violations), f"{count} monotone clock changes", tolerance=0.0)


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


@_declare("inertia", "law-of-inertia", "isolated pair keeps constant relative velocity", 1e-12,
          Field("steps", COUNT, 10_000),
          Field("step", POSITIVE, lambda sc: sc.integrator.step if sc.integrator else 1e-3,
                "integrator.step, else 0.001"),
          own_steps=lambda sc: _resolve_params(sc, "inertia")["steps"])
def _audit_inertia(ctx: AuditContext) -> Measurement:
    p = ctx.params("inertia")
    a, b = ctx.scenario.bodies
    traj = integrate(a, b, merge_laws(()), p["steps"] * p["step"], p["step"], "rk4")
    base = pair_state(a, b)
    worst = _worst(_inertia_residuals(traj, base.x_ab, base.v_ab))
    return Measurement(worst, f"{p['steps']} force-free steps")


@_declare("exchange", "exchange-symmetry",
          "swapping the bodies swaps the force pair; f + k closes through the normal channel",
          1e-12, Field("count", COUNT, 50))
def _audit_exchange(ctx: AuditContext) -> Measurement:
    rng = ctx.rng("exchange")
    count = ctx.params("exchange")["count"]
    a0, b0 = ctx.scenario.bodies
    law = ctx.law
    worst = 0.0
    for _ in range(count):
        a, b = _random_pair(rng, a0, b0, law.min_separation)
        f, k = force_pair(law, a, b)
        f_swapped, k_swapped = force_pair(law, b, a)
        # The forces are finite; f + k or 2 (x_ab x v_ab) phi_perp may not be.
        try:
            closure = f + k - momentum_rate(a, b, law)
        except ValueError as exc:
            raise ForceOverflowError(f"law {law.name!r}: {exc}") from None
        worst = _worst(((k - f_swapped).norm(), (f - k_swapped).norm(), closure.norm()), worst)
    return Measurement(worst, f"{count} random pair states")


# Where each conserved vector sits in what ``Trajectory.observed`` yields.
_OBSERVED_FIELD = {"total_momentum": 0, "angular_momentum": 1}


def _audit_conserved(ctx: AuditContext, observable: str) -> Measurement:
    """Largest distance of one conserved vector (P or L) from its value at
    sample 0, along the scenario trajectory."""
    traj = ctx.trajectory()
    k = _OBSERVED_FIELD[observable]
    first = next(traj.observed())[k]
    worst = _worst(distance(obs[k], first) for obs in traj.observed())
    return Measurement(worst, f"{len(traj)} samples, method {traj.method}")


_declare("momentum", "momentum-iff-no-normal-channel",
         "total momentum constant along the trajectory", 1e-9,
         reads_trajectory=lambda sc: True)(partial(_audit_conserved, observable="total_momentum"))


def _order_check_audit(
    ctx: AuditContext, name: str, series: RowFunction, rate: RowFunction
) -> Measurement:
    """Held to its own tolerance: ``floor`` when the mismatch at the
    scenario step is already below it, else a 3.5x reduction at half the
    step (second order in the step)."""
    floor = ctx.params(name)["floor"]
    base = _rate_mismatch(ctx.trajectory(), series, rate)
    if base <= floor:
        return Measurement(base, "rate below noise floor; order check skipped", tolerance=floor)
    halved = _rate_mismatch(ctx.trajectory(step_scale=0.5), series, rate)
    ratio = base / halved if halved > 0.0 else math.inf
    detail = f"mismatch {base:.3e} at h, {halved:.3e} at h/2 (reduction x{ratio:.2f}, need >=3.5)"
    return Measurement(halved, detail, tolerance=base / 3.5)


_declare("momentum-rate", "generalized-action-reaction",
         "measured dP/dt matches 2 (x_ab x v_ab) phi_perp at second order in the step", None,
         Field("floor", POSITIVE, 1e-10), reads_trajectory=lambda sc: True)(
    partial(_order_check_audit, name="momentum-rate", series=_momentum, rate=_exact_momentum_rate))


_declare("angular-momentum", "torque-iff-central-channels",
         "angular momentum constant along the trajectory", 1e-9,
         reads_trajectory=lambda sc: True)(partial(_audit_conserved, observable="angular_momentum"))


_declare("torque-rate", "internal-torque-rate",
         "measured dL/dt matches the internal-torque formula at second order in the step", None,
         Field("floor", POSITIVE, 1e-10), reads_trajectory=lambda sc: True)(
    partial(_order_check_audit, name="torque-rate", series=_angular_momentum, rate=_exact_torque))


@_declare("energy", "internal-energy-conservation",
          "internal energy of a central law constant along the trajectory", 1e-9,
          reads_trajectory=lambda sc: True)
def _audit_energy(ctx: AuditContext) -> Measurement:
    if not bind(ctx.law, *ctx.scenario.bodies).central:
        law = ctx.law.name
        raise AuditConfigError(f"internal energy is undefined for the non-central law {law!r}")
    traj = ctx.trajectory()
    e0 = next(traj.observed())[2]
    scale = abs(e0) if abs(e0) > 1e-12 else 1.0
    drifts = [abs(obs[2] - e0) / scale for obs in traj.observed()]
    window = max(2, len(drifts) // 10)
    early, late = _worst(drifts[:window]), _worst(drifts[-window:])
    detail = f"relative drift; early-window {early:.3e}, late-window {late:.3e}"
    return Measurement(_worst(drifts), detail)


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


def _boost_same_run(scenario: Scenario) -> bool:
    """Whether boost-covariance's base run is the scenario trajectory."""
    cfg = scenario.integrator
    p = _resolve_params(scenario, "boost-covariance")
    return cfg is not None and p["t_end"] == cfg.t_end and p["step"] == cfg.step


def _boost_own_steps(scenario: Scenario) -> int:
    """Steps of the boosted runs, and of the base run unless it is the
    scenario trajectory; none without an integrator (the audit is an ERROR)."""
    if scenario.integrator is None:
        return 0
    p = _resolve_params(scenario, "boost-covariance")
    runs = p["count"] if _boost_same_run(scenario) else p["count"] + 1
    return runs * max(1, round(p["t_end"] / p["step"]))


@_declare("boost-covariance", "galilean-covariance",
          "integrate-then-boost equals boost-then-integrate in relative state", 1e-9,
          Field("count", COUNT, 10), Field("boost", POSITIVE, 1.0),
          Field("t_end", POSITIVE, lambda sc: sc.integrator and sc.integrator.t_end,
                "integrator.t_end"),
          Field("step", POSITIVE, lambda sc: sc.integrator and sc.integrator.step,
                "integrator.step"),
          own_steps=_boost_own_steps, reads_trajectory=_boost_same_run)
def _audit_boost_covariance(ctx: AuditContext) -> Measurement:
    rng = ctx.rng("boost-covariance")
    cfg = ctx.scenario.integrator
    if cfg is None:
        raise AuditConfigError("scenario has no integrator block")
    p = ctx.params("boost-covariance")
    t_end, step = p["t_end"], p["step"]
    a0, b0 = ctx.scenario.bodies
    same_run = _boost_same_run(ctx.scenario)
    base = ctx.trajectory() if same_run else integrate(a0, b0, ctx.law, t_end, step, cfg.method)
    worst = 0.0
    for _ in range(p["count"]):
        boost = pure_boost(_unit_vector(rng) * rng.uniform(0.1, p["boost"]))
        boosted = integrate(apply(boost, a0), apply(boost, b0), ctx.law, t_end, step, cfg.method)
        worst = _worst(_boost_residuals(boost, base, boosted), worst)
    return Measurement(worst, f"{p['count']} random boosts, {len(base)} samples each")


@_declare("superposition", "acceleration-additivity",
          "forces of stacked laws sum to the merged law's force", 1e-12, Field("count", COUNT, 50))
def _audit_superposition(ctx: AuditContext) -> Measurement:
    rng = ctx.rng("superposition")
    count = ctx.params("superposition")["count"]
    laws, merged = ctx.scenario.laws, ctx.law
    a0, b0 = ctx.scenario.bodies
    worst = 0.0
    for _ in range(count):
        a, b = _random_pair(rng, a0, b0, merged.min_separation)
        residuals = (
            (superpose(laws, a, b) - force_on_a(merged, a, b)).norm(),
            superpose((), a, b).norm(),
        )
        worst = _worst(residuals, worst)
    return Measurement(worst, f"{len(laws)} laws, {count} random pair states")


class _NotingView(PropertyView):
    """A ``PropertyView`` that notes the names it is asked for."""

    __slots__ = ("read",)

    def __init__(self, body: Body) -> None:
        super().__init__(body)
        self.read: set[str] = set()

    def __getitem__(self, name: str) -> float:
        self.read.add(name)
        return super().__getitem__(name)


def _couples(law: ForceLaw, prop: str, a: Body, b: Body) -> bool:
    """Does ``law``'s pair form read A's ``prop``? A law that does not
    gives the same force for any split of it, so the sum of the split
    forces is twice the merged one."""
    view = _NotingView(a)
    law.pair_form(view, PropertyView(b))
    return prop in view.read


def _default_property(scenario: Scenario) -> str:
    laws = scenario.laws
    if not laws or any(_couples(law, "mass", *scenario.bodies) for law in laws):
        return "mass"
    return "charge"


@_declare("additivity", "property-additivity",
          "merging a coupling property adds the forces (linear laws pass, quadratic fail)", 1e-9,
          Field("property", TEXT, _default_property,
                "mass if a law reads it or there is none, else charge"))
def _audit_additivity(ctx: AuditContext) -> Measurement:
    tol = ctx.tolerance("additivity")
    prop = ctx.params("additivity")["property"]
    a0, b0 = ctx.scenario.bodies
    value = a0.prop(prop)
    q1, q2 = (0.4 * value, 0.6 * value) if value != 0.0 else (1.0, -1.0)

    def split(q: float) -> Body:
        if prop == "mass":
            return Body(a0.id, q, a0.position, a0.velocity, a0.properties)
        return Body(a0.id, a0.mass, a0.position, a0.velocity, {**a0.properties, prop: q})

    coupled, uncoupled = [], []
    for law in ctx.scenario.laws or (ctx.law,):
        (coupled if _couples(law, prop, a0, b0) else uncoupled).append(law)
    if not coupled:
        raise AuditConfigError(f"no law couples through {prop!r}")
    worst = 0.0
    failed = []
    for law in coupled:
        result = check_property_additivity(law, prop, split(q1), split(q2), b0, tolerance=tol)
        worst = _worst((result.residual,), worst)
        if not result.passed:
            failed.append(law.name)
    detail = f"property {prop!r}, split {q1:g}/{q2:g}"
    detail += f"; failing laws: {', '.join(failed)}" if failed else ""
    detail += f"; not coupled: {', '.join(law.name for law in uncoupled)}" if uncoupled else ""
    return Measurement(worst, detail)


@_declare("oplus-group", "bounded-addition-group",
          "bounded velocity addition: closure, commutativity, associativity, inverses", 1e-10)
def _audit_oplus_group(ctx: AuditContext) -> Measurement:
    rng = ctx.rng("oplus-group")
    cfg = ctx.addition()
    gfun = cfg.gfunction()
    neutral = zero_velocity(gfun)
    worst = 0.0
    closed = True
    for _ in range(cfg.samples):
        u, v, w = (_random_velocity(rng, gfun, cfg.max_speed) for _ in range(3))
        uv = oplus(u, v)
        closed = closed and uv.speed < gfun.c
        residuals = (
            (uv.v - oplus(v, u).v).norm(),
            (oplus(uv, w).v - oplus(u, oplus(v, w)).v).norm(),
            oplus(u, -u).v.norm(),
            (oplus(u, neutral).v - u.v).norm(),
        )
        worst = _worst(residuals, worst)
    detail = f"{cfg.samples} triples, profile {gfun.name}, c={gfun.c:g}"
    detail += "" if closed else "; closure violated"
    return Measurement(worst / _speed_unit(gfun), detail, ok=closed)


@_declare("proper-time", "distance-iff-proper-time",
          "leg-by-leg displacements agree exactly when proper intervals agree", 1e-12)
def _audit_proper_time(ctx: AuditContext) -> Measurement:
    rng = ctx.rng("proper-time")
    cfg = ctx.addition()
    gfun = cfg.gfunction()
    # The leg displacements grow with G: the residual is in units of
    # c G(max_speed c), or 1 for the classical profile.
    unit = _speed_unit(gfun)
    growth = gfun(cfg.max_speed * gfun.c) if math.isfinite(gfun.c) else 1.0
    worst = 0.0
    failures = 0
    for _ in range(cfg.samples):
        v2, v3 = (_random_velocity(rng, gfun, cfg.max_speed) for _ in range(2))
        # Only the converse probe decides ``passed``; the runner holds the residual.
        result = check_invariance_theorem(v2, v3, rng.uniform(0.1, 2.0), tolerance=math.inf)
        worst = _worst((result.residual,), worst)
        if not result.passed:
            failures += 1
    detail = f"{cfg.samples} splits, {failures} converse failures"
    return Measurement(worst / unit / growth, detail, ok=failures == 0)


@_declare("light-quotient", "echo-quotient-invariance",
          "echo speed quotient is frame independent under the bounded group, "
          "not under plain addition", 1e-12, Field("count", COUNT, 20))
def _audit_light_quotient(ctx: AuditContext) -> Measurement:
    rng = ctx.rng("light-quotient")
    cfg = ctx.addition()
    gfun = cfg.gfunction()
    if not math.isfinite(gfun.c):
        raise AuditConfigError("light-quotient needs a bounded profile (finite c)")
    count = ctx.params("light-quotient")["count"]
    worst = 0.0
    deviations = []
    # Boost speeds from 0.1 c up to max_speed c; all at max_speed c below 0.1.
    low = min(0.1, cfg.max_speed)
    for _ in range(count):
        direction = _unit_vector(rng)
        boost = BoundedVelocity(direction * (rng.uniform(low, cfg.max_speed) * gfun.c), gfun)
        worst = _worst((abs(light_quotient(boost, cfg.baseline) - gfun.c) / gfun.c,), worst)
        plain = classical_light_quotient(boost.v, cfg.baseline, gfun.c)
        deviations.append(abs(plain - gfun.c) / gfun.c)
    # Unlike min(), a nan stays, as in _worst, so it cannot pass as a deviation.
    classical_min = math.nan if any(d != d for d in deviations) else min(deviations)
    detail = f"{count} boosts; plain-addition deviation >= {classical_min:.3e}"
    return Measurement(worst, detail, ok=classical_min > 1e-6)


CATALOG: tuple[AuditSpec, ...] = tuple(_DECLARED)

_BY_NAME = {spec.name: spec for spec in CATALOG}


def audit_names() -> list[str]:
    return [spec.name for spec in CATALOG]


def format_catalog() -> list[str]:
    """One entry per audit: name, description and lemma, then a second line
    with its default tolerance and its ``audit_params`` with their defaults."""
    width = max(len(spec.name) for spec in CATALOG)
    entries = []
    for spec in CATALOG:
        tol = "set by the audit" if spec.tolerance is None else f"{spec.tolerance:g}"
        params = "; ".join(
            f"{p.name} ({p.kind.name}) = {p.shown or repr(p.default)}" for p in spec.params
        )
        entries.append(f"{spec.name:<{width}}  {spec.description}  [{spec.lemma}]\n{'':<{width}}"
                       f"  tolerance {tol}; params: {params or 'none'}")
    return entries


def check_audit_inputs(scenario: Scenario) -> None:
    """Validate the audit fields against the catalog before anything runs:
    names and keys are catalog audits, no ``tolerances`` key names an audit
    that sets its own, ``audit_params`` are read by the audit's fields
    (``scenario.read_section``), the audits' own integrations (``inertia.steps``,
    ``boost-covariance`` ``t_end / step``) are at most ``MAX_STEPS`` steps,
    each law, and their merge, binds to the bodies (``forces.bind``), and
    a verlet integrator has a central merged law.

    Raises:
        ScenarioError: naming the offending field.
    """
    known = ", ".join(audit_names())
    unknown = [name for name in scenario.audits if name not in _BY_NAME]
    if unknown:
        names = ", ".join(sorted(set(unknown)))
        raise ScenarioError(f"audits: unknown audit name(s) {names}; known: {known}")
    fields = (("tolerances", scenario.tolerances), ("audit_params", scenario.audit_params))
    for field, keys in fields:
        for key in keys:
            if key not in _BY_NAME:
                raise ScenarioError(f"{field}.{key}: unknown audit name; known: {known}")
    for key in scenario.tolerances:
        if _BY_NAME[key].tolerance is None:
            raise ScenarioError(f"tolerances.{key}: {key} sets its own tolerance")
    for audit, given in scenario.audit_params.items():
        read_section(given, f"audit_params.{audit}", _BY_NAME[audit].params)
    inertia = _resolve_params(scenario, "inertia")
    check_steps("audit_params.inertia.steps", inertia["steps"])
    if not inertia["steps"] * inertia["step"] < math.inf:
        raise ScenarioError("audit_params.inertia.step: steps * step is not finite")
    boost = _resolve_params(scenario, "boost-covariance")
    t_end, step = boost["t_end"], boost["step"]
    if t_end is not None and step is not None:
        check_steps("audit_params.boost-covariance.step", t_end / step, ratio=True)
    verlet = scenario.integrator and scenario.integrator.method == "verlet"
    merged = merge_laws(scenario.laws)
    for law in (*scenario.laws, merged):
        try:
            central = bind(law, *scenario.bodies).central
        except ValueError as exc:
            raise ScenarioError(f"laws: {exc}") from None
        if verlet and law is merged and not central:
            raise ScenarioError(
                f"integrator.method: velocity Verlet needs a central law; {law.name!r} is not"
            )


def _verdict(spec: AuditSpec, ctx: AuditContext) -> AuditResult:
    """Run one audit and hold its measurement to its tolerance."""
    try:
        m = spec.run(ctx)
    except (AuditConfigError, SingularityError, DivergenceError, ConvergenceError,
            ForceOverflowError, NonFiniteError) as exc:
        return AuditResult(spec.name, spec.lemma, ERROR, None, None, str(exc))
    tol = ctx.tolerance(spec.name) if m.tolerance is None else m.tolerance
    verdict = PASS if m.ok and m.residual <= tol else FAIL
    return AuditResult(spec.name, spec.lemma, verdict, m.residual, tol, m.detail)


# A worker's fork and reap take about 1.5 ms; 1000 rk4 gravity steps, 6 ms.
_WORKER_MIN_STEPS = 1000


def _worker_audits(scenario: Scenario, requested: list[AuditSpec]) -> list[AuditSpec]:
    """The requested audits to run in a forked worker (see the module notes)."""
    if scenario.integrator is not None:
        away = [spec for spec in requested if not spec.reads_trajectory(scenario)]
        return away if sum(spec.own_steps(scenario) for spec in away) >= _WORKER_MIN_STEPS else []
    return [max(requested, key=lambda s: s.own_steps(scenario))] if len(requested) > 1 else []


def run_audits(ctx: AuditContext, around: Callable = lambda here: here()) -> AuditReport:
    """Run the context's requested audits in catalog order.

    Invalid audit inputs, checked when the context is built, are a
    scenario error (input problem, not a FAIL). A singular encounter, a
    diverging integration, a force that overflows or a missing scenario
    block is an ERROR for that audit alone, and a nan residual a FAIL.
    The context's cached trajectories and failures are reused. The audits
    kept here run as ``around(here)``, after the worker (see the module
    notes) has started; no worker outlives this call.
    """
    scenario = ctx.scenario
    requested = [spec for spec in CATALOG if spec.name in set(scenario.audits)]
    away = _worker_audits(scenario, requested)

    def here() -> dict[str, AuditResult]:
        return {spec.name: _verdict(spec, ctx) for spec in requested if spec not in away}

    if away:
        sent, verdicts = beside(lambda: [tuple(_verdict(spec, ctx)) for spec in away],
                                lambda: around(here))
        verdicts.update((result[0], AuditResult(*result)) for result in sent)
    else:
        verdicts = around(here)
    results = [verdicts[spec.name] for spec in requested]
    integrator = scenario.integrator.meta() if scenario.integrator else None
    return AuditReport(scenario.name, ctx.seed, tuple(results), integrator)
