"""Command-line front end: run scenario files, list audits, print version.

Exit codes: 0 all audits pass, 1 input error, 2 audit failure or error.
Outputs land in the chosen directory: trajectory.csv and drift.csv when
the scenario integrates without error, report.json always. Identical scenario and flags
give byte-identical outputs; wall-clock timing goes to stdout only.

Two kinds of work may leave this process, each for one forked child
(``forking``), and never both in one run:

- trajectory.csv is written in two phases: the numeric one (P, L and E of
  every sample) in this process, the text one in a child while this process
  writes drift.csv and runs the audits. A failed child is an OSError.
- A scenario without an integrator has its audits split by ``run_audits``
  between this process and one worker (see ``audits``).

Without ``os.fork``, or with other threads running, all of it runs in this
process, and so do the audits on one usable CPU. Where a piece of work ran
never changes an output byte.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import partial
from importlib import resources
from pathlib import Path
from typing import IO, Sequence

from . import __version__
from .audits import AuditContext, check_audit_inputs, format_catalog, run_audits
from .core import distance
from .dynamics import DivergenceError, Trajectory
from .forces import SingularityError
from .forking import Child, can_fork, reap_child, start_child
from .report import AuditReport, AuditResult, ERROR
from .scenario import Scenario, ScenarioError, _number, load_scenario

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


def _text_phase(stream: IO[str], trajectory: Trajectory, cells: Sequence[float]) -> bytes:
    """The text child's work: trajectory.csv's text phase into its copy of
    ``stream``. It sends nothing back."""
    trajectory.write_csv_text(stream, cells)
    stream.flush()
    return b""


def run_scenario(scenario: Scenario, out_dir: Path, seed: int) -> int:
    """Full pipeline: integrate (if configured), audit, write outputs.

    Raises:
        ScenarioError: an invalid audit name, tolerance or audit parameter,
            before anything is written.
        OSError: an output could not be written; a failed child's error is
            named, and report.json is not written.
    """
    check_audit_inputs(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    ctx = AuditContext(scenario, seed)
    trajectory_failure: AuditResult | None = None
    child: Child | None = None
    try:
        if scenario.integrator is not None:
            try:
                trajectory = ctx.trajectory()
                cells = trajectory.conserved()
                with (out_dir / "trajectory.csv").open("w") as stream:
                    if can_fork():
                        child = start_child(partial(_text_phase, stream, trajectory, cells))
                    else:
                        trajectory.write_csv_text(stream, cells)
                del cells
                _write_drift_csv(ctx, out_dir)
            except (SingularityError, DivergenceError) as exc:
                # drift.csv can diverge after trajectory.csv is started; drop
                # both files so no output describes a run that failed (a child
                # still writing keeps only its unlinked copy).
                for name in ("trajectory.csv", "drift.csv"):
                    (out_dir / name).unlink(missing_ok=True)
                trajectory_failure = AuditResult(
                    "trajectory", "equations-of-motion", ERROR, detail=str(exc)
                )
        report = run_audits(scenario, seed, context=ctx)
    finally:
        child_error = None if child is None else reap_child(child)[1]
    if child_error is not None:
        raise OSError(f"writing trajectory.csv failed: {child_error}")
    if trajectory_failure is not None:
        report = AuditReport(
            scenario=report.scenario,
            seed=report.seed,
            results=(trajectory_failure,) + report.results,
            integrator=report.integrator,
        )
    (out_dir / "report.json").write_text(report.to_json())

    for line in report.summary_lines():
        print(line)
    print(f"elapsed {time.perf_counter() - started:.2f} s, outputs in {out_dir}")
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
            if args.step is not None:
                cfg = replace(cfg, step=args.step)
            if args.method is not None:
                cfg = replace(cfg, method=args.method)
            scenario = replace(scenario, integrator=cfg)
        return run_scenario(scenario, Path(args.out), args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
