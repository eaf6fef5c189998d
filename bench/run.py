"""Benchmark for invarlab: seeded scenario workloads through the public
pipeline, ``load_scenario`` then ``run_scenario``.

    python3 bench/run.py --workload orbit-rk4 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one iteration at a time (a closed loop with one client, no
threads). An iteration parses the workload's generated document(s) and
runs each until its report.json is written. With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates plain and
traced iterations and reports the per-layer metrics (see tracing.py).

Every iteration is checked: exit code and audit verdicts against the
workload's expectations, the outside reference check on the first
iteration, and byte-identical outputs (by SHA-256) on the later ones.

The generated documents, outputs and a results file (environment, samples,
digests, spans) go under bench/work and bench/results. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS, PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, Outcome, check_iteration, digest_outputs, generate, write_docs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

END_TO_END = (
    ("run_s.median", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# The tail is the highest percentile with ten samples beyond it, so a run
# takes at least eleven samples even when that outlasts --seconds. With so
# few samples it sits near the fastest one and swings with the machine, so
# it is reported beside the metrics rather than among them.
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1
MIN_TRACED = 2
# Fresh interpreters timed for setup_s after each iteration, so that they
# sample the machine over the whole run like the iterations do.
SETUP_PER_ITERATION = 1
# Stop sampling here whatever the minimum counts, to end well within 180 s.
HARD_LIMIT_S = 120.0

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import invarlab
from invarlab.scenario import load_scenario
for path in sys.argv[2:]:
    load_scenario(path)
print(repr(time.perf_counter() - start))
"""


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum, at percentile 100, when a run was cut
    before it had that many samples."""
    ordered = sorted(values)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        return ordered[-1], 100.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure_setup(doc_paths: list[Path], runs: int) -> list[float]:
    """import invarlab plus parsing the documents, each in a fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *map(str, doc_paths)]
    times = []
    for _ in range(runs):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
        times.append(float(proc.stdout.split()[-1]))
    return times


class Pipeline:
    """Runs one iteration through the program's public entry points.

    The entry points are looked up on their modules at each call, so a
    tracer that patched them sees the calls.
    """

    def __init__(self, paths: dict[str, Path], outs: dict[str, Path], seed: int) -> None:
        import invarlab.cli
        import invarlab.scenario

        self.cli = invarlab.cli
        self.scenario = invarlab.scenario
        self.paths = paths
        self.outs = outs
        self.seed = seed

    def run(self) -> tuple[float, Outcome]:
        for out in self.outs.values():
            shutil.rmtree(out, ignore_errors=True)
        codes: dict[str, int] = {}
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for label, path in self.paths.items():
                    loaded = self.scenario.load_scenario(path)
                    codes[label] = self.cli.run_scenario(loaded, self.outs[label], self.seed)
        except Exception as exc:  # an escaping exception fails the iteration
            return time.perf_counter() - start, Outcome(codes, {}, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        return elapsed, Outcome(codes, digest_outputs(self.outs))

    def run_traced(self) -> tuple[float, Outcome, Tracer]:
        tracer = Tracer()
        tracer.install()
        root = tracer.open("iteration")
        try:
            elapsed, outcome = self.run()
        finally:
            tracer.close(root)
            tracer.restore()
        return elapsed, outcome, tracer

    def csv_bytes(self) -> int:
        return sum(
            (out / "trajectory.csv").stat().st_size
            for out in self.outs.values()
            if (out / "trajectory.csv").exists()
        )


class Checker:
    """Counts attempted and failed iterations against the first one."""

    def __init__(self, workload, outs: dict[str, Path]) -> None:
        self.workload = workload
        self.outs = outs
        self.first_digests: dict[str, str] | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, outcome: Outcome, extra_reasons: tuple[str, ...] = ()) -> None:
        reasons = check_iteration(self.workload, outcome, self.outs, self.first_digests)
        reasons.extend(extra_reasons)
        if self.first_digests is None:
            self.first_digests = outcome.digests
        self.attempted += 1
        if reasons:
            self.failures.append(f"iteration {self.attempted}: " + "; ".join(reasons))


def measure(args, pipeline: Pipeline, checker: Checker) -> tuple[dict, dict]:
    """End-to-end run: (metrics, details for the results file)."""
    docs = list(pipeline.paths.values())
    measure_setup(docs, 1)  # compiles the bytecode; not counted
    setup: list[float] = []
    samples: list[float] = []
    peak_rss_mb = None
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
        gc.collect()  # no garbage from the previous iteration is collected inside this one
        elapsed, outcome = pipeline.run()
        samples.append(elapsed)
        checker.check(outcome)
        if peak_rss_mb is None:
            # Linux reports kilobytes; this process is fresh and has run one iteration.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += measure_setup(docs, SETUP_PER_ITERATION)
    tail_value, tail_pct = tail(samples)
    metrics = {
        "run_s.median": statistics.median(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "samples_s": samples,
        "setup_samples_s": setup,
        "run_s.tail": tail_value,
        "run_s.tail_percentile": tail_pct,
        "run_s.samples": len(samples),
        "run_s.spread": spread(samples),
        "setup_s.spread": spread(setup),
    }
    return metrics, details


def measure_traced(args, pipeline: Pipeline, checker: Checker) -> tuple[dict, dict]:
    """Per-layer run: plain and traced iterations alternate."""
    plain: list[float] = []
    traced: list[float] = []
    rows: list[dict] = []
    spans: list[list[dict]] = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start < args.seconds:
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
        gc.collect()
        elapsed, outcome = pipeline.run()
        plain.append(elapsed)
        checker.check(outcome)
        gc.collect()
        elapsed, outcome, tracer = pipeline.run_traced()
        traced.append(elapsed)
        row = layer_metrics(tracer.spans, tracer.counters)
        row["dynamics.write_csv.bytes"] = pipeline.csv_bytes()
        rows.append(row)
        spans.append([span.to_dict() for span in tracer.spans])
        differ = ", ".join(name for name in EXACT_COUNTS if row[name] != rows[0][name])
        checker.check(outcome, (f"counts differ from the first traced iteration: {differ}",) if differ else ())
    # Counts repeat exactly (checked above); times are medians.
    metrics = {
        name: rows[0][name] if name in EXACT_COUNTS else statistics.median(row[name] for row in rows)
        for name, _, _ in PER_LAYER
        if not name.startswith("trace.")
    }
    metrics["trace.run_s.traced"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    details = {
        "plain_samples_s": plain,
        "traced_samples_s": traced,
        "per_iteration": rows,
        "spans": spans,
    }
    return metrics, details


def run_workload(args) -> dict:
    import invarlab

    workload = generate(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        paths = write_docs(workload, work / "in")
        outs = {label: work / "out" / label for label in paths}
        pipeline = Pipeline(paths, outs, args.seed)
        checker = Checker(workload, outs)
        if args.trace:
            metrics, details = measure_traced(args, pipeline, checker)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, details = measure(args, pipeline, checker)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checker.failures)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "invarlab": invarlab.__version__,
        "environment": environment(),
        "attempted": checker.attempted,
        "failed": failed,
        "fail_ratio": failed / checker.attempted,
        "failures": checker.failures,
        "digests": checker.first_digests,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        **details,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["results_file"] = str(path.relative_to(ROOT))
    return result


def print_result(result: dict) -> None:
    print(
        f"{result['workload']} seed {result['seed']}: {result['attempted']} iterations, "
        f"{result['failed']} failed, fail_ratio {result['fail_ratio']:.4g}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    if "run_s.tail" in result:
        print(
            f"  {'run_s.tail':<40} {result['run_s.tail']:.6g} s  "
            f"(p{result['run_s.tail_percentile']:.1f} of {result['run_s.samples']} samples; not gated)"
        )
    env = result["environment"]
    line = f"  env: python {env['python']}, {env['platform']}, nproc {env['nproc']}"
    if "run_s.spread" in result:
        line += f", run_s spread (IQR/median) {result['run_s.spread']:.3f}"
    print(line)
    for name, digest in (result["digests"] or {}).items():
        print(f"  sha256 {name} {digest}")
    for failure in result["failures"][:5]:
        print(f"  FAILED {failure}")
    print(f"  results in {result['results_file']}")


def run_all(args) -> int:
    """Every workload, each in a fresh process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invarlab" / "__init__.py").is_file():
        print(f"error: no invarlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    result = run_workload(args)
    print_result(result)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
