"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from invarlab.scenario import parse_scenario  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = workloads.generate(name, 7)
    again = workloads.generate(name, 7)
    other = workloads.generate(name, 8)
    assert json.dumps(first.docs, sort_keys=True) == json.dumps(again.docs, sort_keys=True)
    assert json.dumps(first.docs, sort_keys=True) != json.dumps(other.docs, sort_keys=True)
    assert first.expected_verdicts == again.expected_verdicts
    for label, doc in first.docs.items():
        scenario = parse_scenario(json.loads(json.dumps(doc)))
        assert set(first.expected_verdicts[label]) == set(scenario.audits)


def test_orbit_has_the_work_of_the_bundled_kepler_run():
    doc = workloads.generate("orbit-rk4", 3).docs["orbit"]
    integrator = doc["integrator"]
    assert round(integrator["t_end"] / integrator["step"]) == 10_000
    boost = doc["audit_params"]["boost-covariance"]
    assert round(boost["t_end"] / integrator["step"]) == 2_000
    assert boost["count"] == 10
    assert doc["audit_params"]["inertia"]["steps"] == 10_000


@pytest.fixture(scope="module")
def addition_run(tmp_path_factory):
    """One real addition-group iteration: workload, outputs and outcome."""
    work = tmp_path_factory.mktemp("addition")
    workload = workloads.generate("addition-group", 5)
    paths = workloads.write_docs(workload, work / "in")
    outs = {label: work / "out" / label for label in paths}
    _, outcome = run.Pipeline(paths, outs, 5).run()
    return workload, outs, outcome


def test_correct_iteration_passes_and_repeats(addition_run):
    workload, outs, outcome = addition_run
    assert outcome.error is None
    assert workloads.check_iteration(workload, outcome, outs, None) == []
    assert workloads.check_iteration(workload, outcome, outs, outcome.digests) == []


def test_altered_expected_verdict_is_a_failure(addition_run):
    workload, outs, outcome = addition_run
    expected = json.loads(json.dumps(workload.expected_verdicts))
    expected["rational"]["oplus-group"] = "FAIL"
    altered = dataclasses.replace(workload, expected_verdicts=expected)
    reasons = workloads.check_iteration(altered, outcome, outs, None)
    assert len(reasons) == 1 and "rational: verdicts" in reasons[0]


def test_altered_exit_code_is_a_failure(addition_run):
    workload, outs, outcome = addition_run
    wrong = dataclasses.replace(outcome, exit_codes={**outcome.exit_codes, "lorentz": 2})
    reasons = workloads.check_iteration(workload, wrong, outs, None)
    assert reasons == ["lorentz: exit 2, expected 0"]


def test_altered_output_byte_is_a_failure(addition_run, tmp_path):
    workload, outs, outcome = addition_run
    copies = {label: tmp_path / label for label in outs}
    for label, out in outs.items():
        shutil.copytree(out, copies[label])
    report = copies["lorentz"] / "report.json"
    report.write_bytes(report.read_bytes().replace(b"addition-lorentz", b"addition-lorentZ", 1))
    changed = workloads.Outcome(outcome.exit_codes, workloads.digest_outputs(copies))
    reasons = workloads.check_iteration(workload, changed, copies, outcome.digests)
    assert reasons == ["outputs differ from the first iteration: lorentz/report.json"]


def test_escaped_exception_is_a_failure(addition_run):
    workload, outs, _ = addition_run
    broken = workloads.Outcome({}, {}, "RuntimeError: boom")
    assert workloads.check_iteration(workload, broken, outs, None) == ["exception: RuntimeError: boom"]


def test_reference_check_rejects_a_wrong_trajectory(tmp_path):
    workload = workloads.generate("spring-verlet", 2)
    out = tmp_path / "spring"
    out.mkdir()
    header = "t,ax,ay,az,avx,avy,avz,bx,by,bz,bvx,bvy,bvz,Px,Py,Pz,Lx,Ly,Lz,E\n"
    a, b = workload.docs["spring"]["bodies"]
    row = [0.0, *a["position"], *a["velocity"], *b["position"], *b["velocity"], *[0.0] * 6, 0.0]
    (out / "trajectory.csv").write_text(header + ",".join(map(repr, row)) + "\n")
    assert workload.reference({"spring": out}) is None
    row[1] += 0.01
    (out / "trajectory.csv").write_text(header + ",".join(map(repr, row)) + "\n")
    assert "harmonic solution mismatch" in workload.reference({"spring": out})


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_span_self_time_arithmetic():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 0.5

    def per_call_outer():
        clock.now += 1.0
        inner()
        clock.now += 0.5

    def child_span():
        clock.now += 3.0
        inner()

    inner = tracer.per_call("inner", leaf)
    outer = tracer.per_call("outer", per_call_outer)
    child = tracer.span("child", child_span)

    root = tracer.open("root")
    clock.now += 2.0
    outer()
    child()
    clock.now += 1.0
    tracer.close(root)

    spans = {s.name: s for s in tracer.spans}
    assert spans["root"].duration == pytest.approx(8.5)
    # root covers outer (2.0) and child (3.5); inner is covered by its callers
    assert spans["root"].self_time == pytest.approx(3.0)
    assert spans["child"].parent == spans["root"].id
    assert spans["child"].self_time == pytest.approx(3.0)
    assert spans["root"].calls["outer"] == pytest.approx([1, 2.0, 1.5])
    assert spans["root"].calls["inner"] == pytest.approx([1, 0.5, 0.5])
    assert spans["child"].calls["inner"] == pytest.approx([1, 0.5, 0.5])


def test_tracer_counts_calls_and_restores_originals(tmp_path):
    import invarlab.audits
    import invarlab.dynamics

    doc = workloads.generate("orbit-rk4", 1).docs["orbit"]
    step = doc["integrator"]["step"]
    doc["integrator"]["t_end"] = 10 * step
    doc["audits"] = ["momentum", "boost-covariance"]
    doc["audit_params"] = {"boost-covariance": {"count": 2, "t_end": 5 * step}}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    originals = (invarlab.dynamics.raw_force_pair, invarlab.audits.CATALOG, invarlab.audits.integrate)

    pipeline = run.Pipeline({"orbit": path}, {"orbit": tmp_path / "out"}, 1)
    _, outcome, tracer = pipeline.run_traced()

    assert outcome.error is None and outcome.exit_codes == {"orbit": 0}
    assert originals == (
        invarlab.dynamics.raw_force_pair,
        invarlab.audits.CATALOG,
        invarlab.audits.integrate,
    )
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["dynamics.integrate.calls"] == 4  # main, boost base, two boosted
    assert metrics["dynamics.rk4.steps"] == 10 + 5 + 2 * 5
    assert metrics["forces.integrator_evals"] == 4 * 25
    # 11 samples: trajectory.csv, then drift.csv and momentum with one extra for sample 0
    assert metrics["dynamics.observables.calls"] == 11 + 12 + 12
    assert metrics["audits.trajectory_cache.misses"] == 1
    assert metrics["audits.trajectory_cache.hits"] == 2
    assert metrics["audits.momentum.total_s"] > 0.0
    assert set(metrics) | {"dynamics.write_csv.bytes", "trace.run_s.traced", "trace.overhead_s"} == {
        name for name, _, _ in tracing.PER_LAYER
    }


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(20, 0, -1)]
    value, percentile = run.tail(samples)
    assert value == 10.0 and percentile == 50.0
    assert run.tail(samples[:10]) == (20.0, 100.0)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbit-rk4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_missing_trajectory_is_a_failure(tmp_path):
    workload = workloads.generate("spring-verlet", 2)
    out = tmp_path / "spring"
    out.mkdir()
    report = {"audits": [{"audit": a, "verdict": "PASS"} for a in workload.expected_verdicts["spring"]]}
    (out / "report.json").write_text(json.dumps(report))
    outcome = workloads.Outcome({"spring": 0}, workloads.digest_outputs({"spring": out}))
    [reason] = workloads.check_iteration(workload, outcome, {"spring": out}, None)
    assert reason.startswith("reference check cannot read the outputs")
