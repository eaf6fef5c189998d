"""Command-line front end: run scenario files, list audits, print version.

Exit codes: 0 all audits pass, 1 input or output error, 2 audit failure or error.
Outputs land in the chosen directory: trajectory.csv and drift.csv when
the scenario integrates without error, report.json always. Identical scenario and flags
give byte-identical outputs; wall-clock timing goes to stdout only.

The trajectory and its P, L and E are computed first; an integration that
fails there removes any trajectory.csv and drift.csv and is reported as the
``trajectory`` ERROR, before any output is opened. Otherwise trajectory.csv
is written beside this process (``forking.beside``) while drift.csv is
written and the audits run here, which may hand one audit to a worker (see
``audits``). Lines printed to stdout escape what its encoding cannot hold;
report.json is the record.
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import resources
from pathlib import Path

from . import __version__
from .audits import AuditContext, check_audit_inputs, format_catalog, run_audits
from .core import distance
from .dynamics import DivergenceError, Trajectory
from .forces import SingularityError
from .forking import beside
from .report import AuditReport, AuditResult, ERROR
from .scenario import IntegratorConfig, Scenario, ScenarioError, _number, load_scenario

__all__ = ["main", "run_scenario", "resolve_scenario_path"]


def resolve_scenario_path(name: str) -> Path:
    """Direct path, or a bundled scenario name like ``kepler.json``."""
    path = Path(name)
    if path.exists():
        return path
    bundled = resources.files("invarlab") / "scenarios" / name
    if bundled.is_file():
        return Path(str(bundled))
    raise ScenarioError(f"no such scenario file: {name}")


def _write_drift_csv(ctx: AuditContext, out: Path) -> None:
    """Plot-ready deviations of the conserved candidates from their initial
    values; energy blank when undefined."""
    traj = ctx.trajectory()
    p0, l0, e0, _ = next(traj.observed())
    with (out / "drift.csv").open("w") as stream:
        stream.write("t,dP,dL,dE\n")
        for t, (p, l, energy, _) in zip(traj.times, traj.observed()):
            de = "" if energy is None else repr(abs(energy - e0))
            stream.write(f"{t!r},{distance(p, p0)!r},{distance(l, l0)!r},{de}\n")


def _say(line: str) -> None:
    """Print ``line`` to stdout, with what its encoding cannot hold (a lone
    surrogate, a path byte that is not UTF-8) as a backslash escape."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def _write_trajectory_csv(trajectory: Trajectory, out: Path) -> None:
    """trajectory.csv, written whole (see ``Trajectory.write_csv``)."""
    with (out / "trajectory.csv").open("w") as stream:
        trajectory.write_csv(stream)


def run_scenario(scenario: Scenario, out_dir: Path, seed: int) -> int:
    """Full pipeline: integrate (if configured), audit, write outputs.

    Raises:
        ScenarioError: an invalid audit name, tolerance or audit parameter,
            before anything is written.
        OSError: an output could not be written; report.json is not
            written.
    """
    check_audit_inputs(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    ctx = AuditContext(scenario, seed)
    trajectory: Trajectory | None = None
    trajectory_failure: AuditResult | None = None
    if scenario.integrator is not None:
        try:
            trajectory = ctx.trajectory()
            trajectory.conserved()
        except (SingularityError, DivergenceError) as exc:
            for name in ("trajectory.csv", "drift.csv"):
                (out_dir / name).unlink(missing_ok=True)
            trajectory = None
            trajectory_failure = AuditResult(
                "trajectory", "equations-of-motion", ERROR, detail=str(exc)
            )
    if trajectory is None:
        report = run_audits(scenario, seed, context=ctx)
    else:
        def here() -> AuditReport:
            _write_drift_csv(ctx, out_dir)
            return run_audits(scenario, seed, context=ctx)

        _, report = beside(lambda: _write_trajectory_csv(trajectory, out_dir), here)
    if trajectory_failure is not None:
        report = report._replace(results=(trajectory_failure,) + report.results)
    (out_dir / "report.json").write_text(report.to_json())

    for line in report.summary_lines():
        _say(line)
    _say(f"elapsed {time.perf_counter() - started:.2f} s, outputs in {out_dir}")
    return 0 if report.overall == "PASS" else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="invarlab",
        description="Run two-body invariance scenarios and their audit suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file, or a bundled name")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument("--seed", type=int, default=42, help="PRNG seed (default: 42)")
    run_p.add_argument("--step", type=float, default=None, help="override integrator step")
    run_p.add_argument(
        "--method", choices=("rk4", "verlet"), default=None, help="override integrator method"
    )

    sub.add_parser("audits", help="list the audit catalog")
    sub.add_parser("version", help="print the version")

    args = parser.parse_args(argv)

    if args.command == "audits":
        for line in format_catalog():
            print(line)
        return 0
    if args.command == "version":
        print(f"invarlab {__version__}")
        return 0

    try:
        if args.step is not None:  # the rule of the document's integrator.step
            _number(args.step, "--step", positive=True)
        scenario = load_scenario(resolve_scenario_path(args.scenario))
        if args.step is not None or args.method is not None:
            if scenario.integrator is None:
                raise ScenarioError("integrator: cannot override; scenario has no integrator block")
            cfg = scenario.integrator
            method = cfg.method if args.method is None else args.method
            step = cfg.step if args.step is None else args.step
            scenario = scenario._replace(integrator=IntegratorConfig(method, step, cfg.t_end))
        return run_scenario(scenario, Path(args.out), args.seed)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
