"""Outside-in tracing of one pipeline run.

The tracer wraps public functions of the program where their callers look
them up (for example ``invarlab.dynamics.raw_force_pair`` for the
integrator and ``invarlab.audits.apply`` for the audits) and restores the
originals afterwards. Nothing inside the program changes.

Coarse calls (``load_scenario``, ``run_scenario``, each audit,
``integrate``, ``write_csv``, ``to_json``) become spans with a parent id.
Per-call functions (``raw_force_pair``, ``observables``, ``apply``,
``compose``, ``inverse``, ``oplus``, ``solve_increasing``) are too many to
record one by one; their count, total time and self time are summed under
the span they run in. A frame's self time is its duration minus the time
covered by its direct children, spans and per-call frames alike.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Span", "Tracer", "AUDIT_NAMES", "layer_metrics", "PER_LAYER"]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    covered: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    # per-call function name -> [count, total seconds, self seconds]
    calls: dict[str, list] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self": self.self_time,
            "attrs": self.attrs,
            "calls": self.calls,
        }


class Tracer:
    """In-memory span recorder. Single-threaded, like the program."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        # Open frames, spans and per-call alike: [seconds covered by children].
        self._stack: list[list[float]] = []
        self._spans_open: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # --- recording ---

    def open(self, name: str) -> Span:
        parent = self._spans_open[-1].id if self._spans_open else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._spans_open.append(span)
        self._stack.append([0.0])
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        frame = self._stack.pop()
        span.covered = frame[0]
        self._spans_open.pop()
        if self._stack:
            self._stack[-1][0] += span.duration

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call is a span; ``on_result(span, result)``
        may attach attributes."""

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapper

    def per_call(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so its calls are summed under the enclosing span."""
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                owner = self._spans_open[-1]
                entry = owner.calls.get(name)
                if entry is None:
                    owner.calls[name] = [1, duration, duration - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[0]

        return wrapper

    # --- patching ---

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the program's layer boundaries. Call ``restore`` to undo."""
        import invarlab.audits as audits
        import invarlab.cli as cli
        import invarlab.dynamics as dynamics
        import invarlab.forces as forces
        import invarlab.report as report
        import invarlab.rootfind as rootfind
        import invarlab.scenario as scenario
        import invarlab.velocity_addition as velocity_addition

        counters = self.counters

        def record_steps(span: Span, trajectory) -> None:
            span.attrs["method"] = trajectory.method
            span.attrs["steps"] = len(trajectory) - 1

        self.patch(scenario, "load_scenario", self.span("load_scenario", scenario.load_scenario))
        self.patch(cli, "run_scenario", self.span("run_scenario", cli.run_scenario))
        self.patch(audits, "integrate", self.span("integrate", audits.integrate, record_steps))
        self.patch(
            dynamics.Trajectory, "write_csv", self.span("write_csv", dynamics.Trajectory.write_csv)
        )
        self.patch(report.AuditReport, "to_json", self.span("to_json", report.AuditReport.to_json))

        def audit_run(spec):
            run = spec.run

            def wrapped(ctx):
                try:
                    return run(ctx)
                except Exception:
                    counters["audits.errors"] += 1
                    raise

            return self.span(f"audit:{spec.name}", wrapped)

        self.patch(
            audits,
            "CATALOG",
            tuple(dataclasses.replace(spec, run=audit_run(spec)) for spec in audits.CATALOG),
        )

        trajectory = audits.AuditContext.trajectory
        spans = self.spans

        def cached_trajectory(ctx, *args, **kwargs):
            # A cache miss is a call that integrated.
            before = len(spans)
            try:
                return trajectory(ctx, *args, **kwargs)
            finally:
                hit = not any(s.name == "integrate" for s in spans[before:])
                counters["trajectory_cache.hits" if hit else "trajectory_cache.misses"] += 1

        self.patch(audits.AuditContext, "trajectory", cached_trajectory)

        for module, attr in (
            (dynamics, "raw_force_pair"),
            (forces, "raw_force_pair"),
            (dynamics, "observables"),
            (audits, "apply"),
            (audits, "compose"),
            (audits, "inverse"),
            (audits, "oplus"),
            (velocity_addition, "oplus"),
        ):
            self.patch(module, attr, self.per_call(attr, getattr(module, attr)))

        solve = self.per_call("solve_increasing", velocity_addition.solve_increasing)

        def counted_solve(f, *args, **kwargs):
            def counted(x):
                counters["rootfind.fevals"] += 1
                return f(x)

            try:
                return solve(counted, *args, **kwargs)
            except rootfind.ConvergenceError:
                counters["rootfind.errors"] += 1
                raise

        self.patch(velocity_addition, "solve_increasing", counted_solve)


# Audits run by at least one workload; each gets total and self time.
AUDIT_NAMES = (
    "frame-group",
    "objectivity-sweep",
    "event-order",
    "inertia",
    "exchange",
    "momentum",
    "momentum-rate",
    "angular-momentum",
    "energy",
    "boost-covariance",
    "superposition",
    "additivity",
    "oplus-group",
    "proper-time",
    "light-quotient",
)

# (metric, unit, better) in the order they are reported.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("scenario.load_s", "s", "lower"),
    ("dynamics.integrate.calls", "count", "lower"),
    ("dynamics.rk4.steps", "count", "lower"),
    ("dynamics.verlet.steps", "count", "lower"),
    ("dynamics.rk4.us_per_step", "us", "lower"),
    ("dynamics.verlet.us_per_step", "us", "lower"),
    ("dynamics.integrate.self_s", "s", "lower"),
    ("dynamics.observables.calls", "count", "lower"),
    ("dynamics.observables.self_s", "s", "lower"),
    ("dynamics.write_csv.s", "s", "lower"),
    ("dynamics.write_csv.bytes", "bytes", "lower"),
    ("forces.evals", "count", "lower"),
    ("forces.integrator_evals", "count", "lower"),
    ("forces.self_s", "s", "lower"),
    ("forces.us_per_eval", "us", "lower"),
    ("frames.apply.calls", "count", "lower"),
    ("frames.apply.self_s", "s", "lower"),
    ("frames.compose.calls", "count", "lower"),
    ("frames.inverse.calls", "count", "lower"),
    ("frames.compose.self_s", "s", "lower"),
    ("velocity_addition.oplus.calls", "count", "lower"),
    ("velocity_addition.oplus.self_s", "s", "lower"),
    ("velocity_addition.oplus.us_per_call", "us", "lower"),
    ("rootfind.solves", "count", "lower"),
    ("rootfind.fevals", "count", "lower"),
    ("rootfind.fevals_per_solve", "evals/solve", "lower"),
    ("rootfind.self_s", "s", "lower"),
    ("rootfind.errors", "count", "lower"),
    *(
        (f"audits.{name}.{kind}", "s", "lower")
        for name in AUDIT_NAMES
        for kind in ("total_s", "self_s")
    ),
    ("audits.trajectory_cache.hits", "count", "higher"),
    ("audits.trajectory_cache.misses", "count", "lower"),
    ("audits.trajectory_cache.hit_ratio", "share", "higher"),
    ("audits.errors", "count", "lower"),
    ("report.to_json.s", "s", "lower"),
    ("cli.run_scenario.self_s", "s", "lower"),
    ("trace.run_s.traced", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


def _ratio(numerator: float, denominator: float) -> float:
    """Ratio that reads 0 where the layer did no work."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], counters: Counter) -> dict[str, float]:
    """Per-layer figures of one traced iteration (all metrics of PER_LAYER
    except the ``trace.*`` and ``write_csv.bytes`` ones the harness adds)."""

    def by_name(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def call_sum(name: str, index: int, within: list[Span] | None = None) -> float:
        return sum(s.calls.get(name, (0, 0.0, 0.0))[index] for s in (spans if within is None else within))

    integrations = by_name("integrate")
    steps = {
        method: sum(s.attrs.get("steps", 0) for s in integrations if s.attrs.get("method") == method)
        for method in ("rk4", "verlet")
    }
    seconds = {
        method: sum(s.duration for s in integrations if s.attrs.get("method") == method)
        for method in ("rk4", "verlet")
    }
    evals = call_sum("raw_force_pair", 0)
    oplus_calls = call_sum("oplus", 0)
    solves = call_sum("solve_increasing", 0)
    hits = counters["trajectory_cache.hits"]
    misses = counters["trajectory_cache.misses"]

    out = {
        "scenario.load_s": sum(s.duration for s in by_name("load_scenario")),
        "dynamics.integrate.calls": len(integrations),
        "dynamics.rk4.steps": steps["rk4"],
        "dynamics.verlet.steps": steps["verlet"],
        "dynamics.rk4.us_per_step": 1e6 * _ratio(seconds["rk4"], steps["rk4"]),
        "dynamics.verlet.us_per_step": 1e6 * _ratio(seconds["verlet"], steps["verlet"]),
        "dynamics.integrate.self_s": sum(s.self_time for s in integrations),
        "dynamics.observables.calls": call_sum("observables", 0),
        "dynamics.observables.self_s": call_sum("observables", 2),
        "dynamics.write_csv.s": sum(s.duration for s in by_name("write_csv")),
        "forces.evals": evals,
        "forces.integrator_evals": call_sum("raw_force_pair", 0, integrations),
        "forces.self_s": call_sum("raw_force_pair", 2),
        "forces.us_per_eval": 1e6 * _ratio(call_sum("raw_force_pair", 1), evals),
        "frames.apply.calls": call_sum("apply", 0),
        "frames.apply.self_s": call_sum("apply", 2),
        "frames.compose.calls": call_sum("compose", 0),
        "frames.inverse.calls": call_sum("inverse", 0),
        "frames.compose.self_s": call_sum("compose", 2),
        "velocity_addition.oplus.calls": oplus_calls,
        "velocity_addition.oplus.self_s": call_sum("oplus", 2),
        "velocity_addition.oplus.us_per_call": 1e6 * _ratio(call_sum("oplus", 1), oplus_calls),
        "rootfind.solves": solves,
        "rootfind.fevals": counters["rootfind.fevals"],
        "rootfind.fevals_per_solve": _ratio(counters["rootfind.fevals"], solves),
        "rootfind.self_s": call_sum("solve_increasing", 2),
        "rootfind.errors": counters["rootfind.errors"],
        "audits.trajectory_cache.hits": hits,
        "audits.trajectory_cache.misses": misses,
        "audits.trajectory_cache.hit_ratio": _ratio(hits, hits + misses),
        "audits.errors": counters["audits.errors"],
        "report.to_json.s": sum(s.duration for s in by_name("to_json")),
        "cli.run_scenario.self_s": sum(s.self_time for s in by_name("run_scenario")),
    }
    for name in AUDIT_NAMES:
        audit_spans = by_name(f"audit:{name}")
        out[f"audits.{name}.total_s"] = sum(s.duration for s in audit_spans)
        out[f"audits.{name}.self_s"] = sum(s.self_time for s in audit_spans)
    return out
