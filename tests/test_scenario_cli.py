import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading

import pytest

from invarlab import (
    Body, ScenarioError, Trajectory, Vec3, cross, load_scenario, parse_scenario,
)
import invarlab.audits as audits
import invarlab.forking as forking
from invarlab.audits import run_audits
from invarlab.cli import main, resolve_scenario_path, run_scenario
from invarlab.dynamics import DivergenceError

from test_golden_outputs import GOLDEN


def minimal_doc(**overrides):
    doc = {
        "schema": "v1",
        "name": "mini",
        "bodies": [
            {"id": "A", "mass": 1.0, "position": [0.5, 0, 0], "velocity": [0, 0.4, 0]},
            {"id": "B", "mass": 2.0, "position": [-0.5, 0, 0], "velocity": [0, -0.2, 0]},
        ],
        "laws": [{"preset": "gravity", "params": {"g": 1.0}}],
    }
    doc.update(overrides)
    return doc


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_minimal_scenario():
    sc = parse_scenario(minimal_doc())
    assert sc.name == "mini"
    assert sc.bodies[0].id == "A"
    assert sc.laws[0].name == "gravity"
    assert sc.integrator is None


def test_bundled_scenarios_load():
    for name in ("kepler.json", "perp-demo.json", "spring.json", "addition.json"):
        sc = load_scenario(resolve_scenario_path(name))
        assert len(sc.bodies) == 2
        assert sc.audits


def test_missing_mass_names_the_field():
    doc = minimal_doc()
    del doc["bodies"][0]["mass"]
    with pytest.raises(ScenarioError, match=r"bodies\[0\]\.mass"):
        parse_scenario(doc)


def test_wrong_schema_version_rejected():
    with pytest.raises(ScenarioError, match="schema"):
        parse_scenario(minimal_doc(schema="v2"))


def test_exactly_two_bodies_required():
    doc = minimal_doc()
    doc["bodies"].append(dict(doc["bodies"][0], id="C"))
    with pytest.raises(ScenarioError, match="exactly two"):
        parse_scenario(doc)


def test_negative_mass_rejected_with_path():
    doc = minimal_doc()
    doc["bodies"][1]["mass"] = -2.0
    with pytest.raises(ScenarioError, match=r"bodies\[1\]\.mass"):
        parse_scenario(doc)


def test_unknown_preset_rejected():
    with pytest.raises(ScenarioError, match="laws\\[0\\]"):
        parse_scenario(minimal_doc(laws=[{"preset": "warp"}]))


def test_bad_integrator_method_rejected():
    doc = minimal_doc(integrator={"method": "euler", "step": 0.1, "t_end": 1.0})
    with pytest.raises(ScenarioError, match="integrator.method"):
        parse_scenario(doc)


def test_explicit_frames_accepted():
    doc = minimal_doc(
        frames=[
            {"translation": [1, 0, 0]},
            {"rotation": [[0, -1, 0], [1, 0, 0], [0, 0, 1]], "boost": [0, 1, 0]},
        ]
    )
    sc = parse_scenario(doc)
    assert len(sc.frames.explicit) == 2


def test_an_empty_frames_list_is_rejected():
    with pytest.raises(ScenarioError, match=r"^frames: expected at least one transform$"):
        parse_scenario(minimal_doc(frames=[]))


@pytest.mark.parametrize(
    "rotation, field",
    [
        ([1, 2, 3], r"frames\[0\]\.rotation\[0\]"),
        ([[1, 0, 0], [0, 1, 0], [0, 0]], r"frames\[0\]\.rotation\[2\]"),
        ([[1, 0, 0], "abc", [0, 0, 1]], r"frames\[0\]\.rotation\[1\]"),
    ],
)
def test_malformed_rotation_rows_name_the_row(rotation, field):
    with pytest.raises(ScenarioError, match=field):
        parse_scenario(minimal_doc(frames=[{"rotation": rotation}]))


def test_cli_malformed_rotation_row_is_input_error(tmp_path, capsys):
    path = write(tmp_path, minimal_doc(frames=[{"rotation": [1, 2, 3]}]))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "frames[0].rotation[0]" in capsys.readouterr().err


def test_softening_wraps_singular_laws():
    sc = parse_scenario(minimal_doc(softening=0.05))
    assert not sc.laws[0].singular


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "v1",')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


# Files the UTF-8 decoder or the JSON parser refuse without a
# JSONDecodeError are input errors too: one error line that names the file.
@pytest.mark.parametrize(
    "content",
    [
        json.dumps(minimal_doc(name="k\u00e9pler"), ensure_ascii=False).encode("latin-1"),
        b"[" * 100_000 + b"]" * 100_000,
        b'{"softening": ' + b"1" * 5000 + b", " + json.dumps(minimal_doc()).encode()[1:],
    ],
    ids=["not UTF-8", "nested 100000 deep", "5000-digit integer"],
)
def test_cli_unparsable_file_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert not out.exists()


def test_cli_missing_file_is_input_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_schema_violation_is_input_error(tmp_path, capsys):
    doc = minimal_doc()
    del doc["bodies"][0]["mass"]
    path = write(tmp_path, doc)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "bodies[0].mass" in capsys.readouterr().err


def test_cli_unknown_audit_is_input_error(tmp_path, capsys):
    path = write(tmp_path, minimal_doc(audits=["momentum", "vibes"]))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "vibes" in capsys.readouterr().err


def test_cli_version_and_audit_listing(capsys):
    assert main(["version"]) == 0
    assert "invarlab" in capsys.readouterr().out
    assert main(["audits"]) == 0
    catalog = capsys.readouterr().out
    for required in ("inertia", "oplus-group", "objectivity-sweep"):
        assert required in catalog


def test_cli_kepler_run_passes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "kepler.json", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall"] == "PASS"
    assert report["seed"] == 42
    assert report["integrator"]["method"] == "rk4"
    names = [entry["audit"] for entry in report["audits"]]
    assert len(names) == len(set(names))  # each requested audit exactly once
    expected = {"momentum", "angular-momentum", "energy", "boost-covariance"}
    assert expected <= set(names)
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,ax,ay,az,avx,avy,avz,bx,by,bz,bvx,bvy,bvz,Px,Py,Pz,Lx,Ly,Lz,E"
    assert (out / "drift.csv").exists()


def test_cli_perp_demo_momentum_fails_as_designed(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "perp-demo.json", "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    verdicts = {entry["audit"]: entry for entry in report["audits"]}
    assert verdicts["momentum"]["verdict"] == "FAIL"
    assert verdicts["momentum-rate"]["verdict"] == "PASS"
    assert report["overall"] == "FAIL"

    # The momentum deficit must match the accumulated normal-channel rate:
    # integrate 2 (x_ab x v_ab) phi_perp along the stored trajectory.
    rows = [
        [float(c) for c in line.split(",")[:19]]
        for line in (out / "trajectory.csv").read_text().splitlines()[1:]
    ]
    def rate(row):
        x_ab = Vec3(row[1] - row[7], row[2] - row[8], row[3] - row[9])
        v_ab = Vec3(row[4] - row[10], row[5] - row[11], row[6] - row[12])
        return cross(x_ab, v_ab) * 2.0

    impulse = Vec3(0.0, 0.0, 0.0)
    for prev, cur in zip(rows, rows[1:]):
        dt = cur[0] - prev[0]
        impulse = impulse + (rate(prev) + rate(cur)) * (0.5 * dt)
    p_first = Vec3(rows[0][13], rows[0][14], rows[0][15])
    p_last = Vec3(rows[-1][13], rows[-1][14], rows[-1][15])
    deficit = p_last - p_first
    assert (deficit - impulse).norm() < 1e-4 * max(1.0, impulse.norm())
    assert abs(verdicts["momentum"]["residual"] - deficit.norm()) < 1e-6


def test_cli_runs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "perp-demo.json", "--out", str(out1), "--seed", "7"]) == 2
    assert main(["run", "perp-demo.json", "--out", str(out2), "--seed", "7"]) == 2
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "drift.csv").read_bytes() == (out2 / "drift.csv").read_bytes()


@pytest.mark.parametrize("name, out, stdout, shown", [
    ("kep\ud800ler", "out", "utf-8:strict", "(kep\\ud800ler, seed 42)"),
    ("addition", "out-\udcff", "utf-8:strict", "outputs in {tmp}/out-\\udcff"),
    ("addition–Zusatz", "out", "ascii:strict", "(addition\\u2013Zusatz, seed 42)"),
], ids=["lone surrogate", "path not UTF-8", "non-ASCII on ASCII"])
def test_cli_prints_what_stdout_cannot_encode_as_escapes(tmp_path, capsys, name, out, stdout,
                                                        shown):
    # report.json is the record; the printed lines escape what stdout cannot
    # hold instead of ending in a traceback.
    path = write(tmp_path, bundled_doc("addition.json", lambda doc: doc.update(name=name)))
    argv = ["run", str(path), "--out", str(tmp_path / out)]
    if stdout == "utf-8:strict":  # capsys's stream is strict UTF-8
        code = main(argv)
        printed, err = capsys.readouterr()
    else:
        env = dict(os.environ, PYTHONIOENCODING=stdout, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-m", "invarlab", *argv], env=env,
                              capture_output=True)
        code, printed, err = done.returncode, done.stdout.decode("ascii"), done.stderr.decode()
    assert (code, err) == (0, "")
    assert shown.format(tmp=tmp_path) in printed
    report = json.loads((tmp_path / out / "report.json").read_text())
    assert report["scenario"] == name


def test_cli_step_and_method_overrides(tmp_path):
    doc = minimal_doc(
        integrator={"method": "rk4", "step": 0.01, "t_end": 0.1},
        audits=["momentum"],
    )
    path = write(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out), "--step", "0.05", "--method", "verlet"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["integrator"]["method"] == "verlet"
    assert report["integrator"]["step"] == 0.05


@pytest.mark.parametrize("how", ["--method verlet", "a linear-drag document"])
def test_verlet_with_a_non_central_law_is_an_input_error(tmp_path, capsys, how):
    if how == "--method verlet":
        args, name = ["perp-demo.json", "--method", "verlet"], "perp-demo"
    else:
        doc = minimal_doc(laws=[{"preset": "linear-drag", "params": {"gamma": 0.5}}],
                          integrator={"method": "verlet", "step": 0.01, "t_end": 0.1},
                          audits=["momentum"])
        args, name = [str(write(tmp_path, doc))], "linear-drag"
    out = tmp_path / "out"
    assert main(["run", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: integrator.method: velocity Verlet needs a central law; {name!r} is not\n"
    )
    assert not out.exists()


def test_cli_singular_encounter_reports_error_and_exits_2(tmp_path, capsys):
    doc = minimal_doc(
        bodies=[
            {"id": "A", "mass": 1.0, "position": [0, 0, 0], "velocity": [0, 0, 0]},
            {"id": "B", "mass": 1.0, "position": [0, 0, 0], "velocity": [0, 0, 0]},
        ],
        integrator={"method": "rk4", "step": 0.01, "t_end": 1.0},
        audits=["momentum"],
    )
    path = write(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    verdicts = {entry["audit"]: entry["verdict"] for entry in report["audits"]}
    assert verdicts["trajectory"] == "ERROR"
    assert verdicts["momentum"] == "ERROR"
    assert not (out / "trajectory.csv").exists()


def test_cli_audit_without_required_block_is_error(tmp_path):
    path = write(tmp_path, minimal_doc(audits=["oplus-group"]))
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["audits"][0]["verdict"] == "ERROR"
    assert "velocity_addition" in report["audits"][0]["detail"]


def test_addition_scenario_runs_without_trajectory(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "addition.json", "--out", str(out)]) == 0
    assert not (out / "trajectory.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["integrator"] is None
    assert report["overall"] == "PASS"


def test_spring_scenario_passes(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "spring.json", "--out", str(out)]) == 0


def stiff_spring_doc(t_end):
    """Bundled spring.json with a spring so stiff that rk4 at step 0.01
    diverges: by t_end 1.0 the state is finite but its observables
    overflow, by t_end 100 the state itself is no longer finite."""
    doc = json.loads(resolve_scenario_path("spring.json").read_text())
    doc["laws"][0]["params"]["kappa"] = 1e6
    doc["integrator"].update(method="rk4", step=0.01, t_end=t_end)
    return doc


@pytest.mark.parametrize("t_end", [1.0, 100.0])
def test_cli_divergence_reports_error_and_exits_2(tmp_path, capsys, t_end):
    path = write(tmp_path, stiff_spring_doc(t_end))
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    verdicts = {entry["audit"]: entry for entry in report["audits"]}
    assert verdicts["trajectory"]["verdict"] == "ERROR"
    assert re.search(r"diverged at sample \d+ \(t = [0-9.]+\)", verdicts["trajectory"]["detail"])
    for name in ("momentum", "angular-momentum", "energy"):
        assert verdicts[name]["verdict"] == "ERROR"
    assert not (out / "trajectory.csv").exists()
    assert not (out / "drift.csv").exists()


def test_cli_rate_audit_overflow_reports_error_and_exits_2(tmp_path, capsys):
    # The trajectory stays finite up to t_end 1.0, but its torque and
    # momentum series overflow once differenced.
    doc = stiff_spring_doc(1.0)
    doc["audits"] = ["torque-rate", "momentum-rate"]
    out = tmp_path / "out"
    assert main(["run", str(write(tmp_path, doc)), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    verdicts = {entry["audit"]: entry for entry in report["audits"]}
    for name in ("torque-rate", "momentum-rate"):
        assert verdicts[name]["verdict"] == "ERROR"
        assert re.search(
            r"diverged at sample \d+ \(t = [0-9.]+\): rate overflow", verdicts[name]["detail"]
        )


GRAVITY_1E300 = {"preset": "gravity", "params": {"g": 1e300}}


@pytest.mark.parametrize(
    "audit, laws, detail",
    [
        # With both masses 1e10, g m_a m_b = 1e320 overflows every force.
        ("exchange", [GRAVITY_1E300], "law 'gravity': force ("),
        ("superposition", [GRAVITY_1E300], "law 'gravity': force ("),
        ("additivity", [GRAVITY_1E300], "law 'gravity': force ("),
        # |x_ab| components are below 4, so each force is finite; the sum
        # of two is not once a component exceeds about 2.04.
        ("superposition", [{"preset": "spring", "params": {"kappa": 4.4e307}}] * 2,
         "law 'spring+spring': force ("),
        # Each force of the pair is finite, f + k = 2 (x_ab x v_ab) phi_perp is not.
        ("exchange", [{"preset": "perp-demo", "params": {"strength": 1e307}}],
         "law 'perp-demo': non-finite vector component in ("),
    ],
    ids=["exchange", "superposition", "additivity", "superposition-sum", "exchange-closure"],
)
def test_cli_force_overflow_reports_error_and_exits_2(tmp_path, capsys, audit, laws, detail):
    doc = minimal_doc(audits=[audit], laws=laws)
    for body in doc["bodies"]:
        body["mass"] = 1e10
    out = tmp_path / "out"
    assert main(["run", str(write(tmp_path, doc)), "--out", str(out)]) == 2
    [entry] = json.loads((out / "report.json").read_text())["audits"]
    assert (entry["audit"], entry["verdict"]) == (audit, "ERROR")
    assert entry["detail"].startswith(detail)
    assert [path.name for path in out.iterdir()] == ["report.json"]


def test_cli_objectivity_sweep_fails_on_a_nan_residual(tmp_path, capsys):
    # |x_ab|^2 = 4e400 overflows, so |x_ab| is inf in every frame and each
    # x-norm residual is inf - inf = nan, which must not read as a pass.
    doc = minimal_doc(
        bodies=[
            {"id": "A", "mass": 1.0, "position": [0, 0, 0], "velocity": [0, 0, 0]},
            {"id": "B", "mass": 1.0, "position": [-2e200, 0, 0], "velocity": [0, 0, 0]},
        ],
        laws=[{"preset": "spring", "params": {"kappa": 1.0}}],
        frames={"count": 5},
        audits=["objectivity-sweep"],
    )
    out = tmp_path / "out"
    assert main(["run", str(write(tmp_path, doc)), "--out", str(out)]) == 2
    [entry] = json.loads((out / "report.json").read_text())["audits"]
    assert entry["verdict"] == "FAIL" and math.isnan(entry["residual"])
    assert capsys.readouterr().out.startswith("FAIL  objectivity-sweep residual=nan")


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-1"])
def test_cli_step_override_must_be_finite_and_positive(tmp_path, capsys, step):
    out = tmp_path / "out"
    assert main(["run", "kepler.json", "--out", str(out), "--step", step]) == 1
    assert capsys.readouterr().err.startswith("error: --step: must be ")
    assert not out.exists()


# A mass that the additivity split rounds to 0, light times baseline / c
# that underflow, and echo legs whose squares underflow: each once ended in
# a traceback or, for c = 1, in a report with a wrong plain-addition
# deviation; now each ends in one error line.
@pytest.mark.parametrize(
    "name, edit, field",
    [
        ("kepler.json", lambda doc: doc["bodies"][0].update(mass=5e-324), "bodies[0].mass"),
        ("addition.json", lambda doc: doc["velocity_addition"].update(baseline=5e-324),
         "velocity_addition.baseline"),
        ("addition.json", lambda doc: doc["velocity_addition"].update(c=1e154, baseline=1e-300),
         "velocity_addition.baseline"),
        ("addition.json", lambda doc: doc["velocity_addition"].update(c=1.4917e-154, baseline=1e-300),
         "velocity_addition.baseline"),
        ("addition.json", lambda doc: doc["velocity_addition"].update(c=1.0, baseline=1e-300),
         "velocity_addition.baseline"),
    ],
    ids=["subnormal mass", "subnormal baseline", "baseline / c underflows",
         "baseline * c underflows", "baseline squared underflows"],
)
def test_numbers_below_the_normal_range_are_input_errors(tmp_path, capsys, name, edit, field):
    doc = json.loads(resolve_scenario_path(name).read_text())
    edit(doc)
    out = tmp_path / "out"
    assert main(["run", str(write(tmp_path, doc)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
    assert not out.exists()


# report.json of the stiff spring run with torque-rate and momentum-rate,
# recorded when the rate audits still read the cached (Body, Body)
# snapshots in ``Trajectory.states``: the same samples, times and messages.
STIFF_RATE_REPORT = "9d712e80d808451462a7c65780cf7685353bee83cf21e25d2b300bfa982c61d2"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_runs_read_back_without_the_snapshot_list(tmp_path, capsys, monkeypatch):
    def refuse(self, position, velocity):
        raise AssertionError("a Body built while naming a rate overflow")

    # perp-demo runs both rate audits, each also at h/2.
    for name, (code, digests) in sorted(GOLDEN.items()):
        out = tmp_path / name
        assert run_scenario(load_scenario(resolve_scenario_path(name)), out, seed=42) == code
        assert {path.name: sha256(path) for path in out.iterdir()} == digests
    report = json.loads((tmp_path / "perp-demo.json" / "report.json").read_text())
    details = {entry["audit"]: entry["detail"] for entry in report["audits"]}
    assert "at h/2" in details["momentum-rate"] and "at h/2" in details["torque-rate"]

    # A rate overflow is named by the float pass, which builds no Body.
    doc = stiff_spring_doc(1.0)
    doc["audits"] = ["torque-rate", "momentum-rate"]
    out = tmp_path / "stiff"
    with monkeypatch.context() as patched:
        patched.setattr(Body, "with_state", refuse)
        assert run_scenario(parse_scenario(doc), out, seed=42) == 2
    report = json.loads((out / "report.json").read_text())
    verdicts = {entry["audit"]: entry["verdict"] for entry in report["audits"]}
    assert verdicts == {"trajectory": "ERROR", "torque-rate": "ERROR", "momentum-rate": "ERROR"}
    assert {path.name: sha256(path) for path in out.iterdir()} == {
        "report.json": STIFF_RATE_REPORT
    }


@pytest.mark.parametrize("value", ["no", 0, 1, None, [False]])
def test_reflections_must_be_a_json_boolean(value):
    with pytest.raises(ScenarioError, match=r"frames\.reflections"):
        parse_scenario(minimal_doc(frames={"count": 3, "reflections": value}))
    for flag in (True, False):
        sc = parse_scenario(minimal_doc(frames={"count": 3, "reflections": flag}))
        assert sc.frames.reflections is flag


@pytest.mark.parametrize(
    "field, doc",
    [
        ("tolerances.momentumm", {"tolerances": {"momentumm": 1e-9}}),
        ("audit_params.boost-covarience", {"audit_params": {"boost-covarience": {"count": 2}}}),
    ],
)
def test_unknown_audit_keys_are_input_errors(tmp_path, capsys, monkeypatch, field, doc):
    import invarlab.audits as audits

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before the input error")

    monkeypatch.setattr(audits, "integrate", no_integration)
    integrator = {"method": "rk4", "step": 0.01, "t_end": 1.0}
    path = write(tmp_path, minimal_doc(audits=["momentum"], integrator=integrator, **doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert re.search(rf"error: {re.escape(field)}: unknown audit name", capsys.readouterr().err)
    assert not out.exists()


def test_catalog_keys_in_tolerances_and_audit_params_are_accepted(tmp_path):
    doc = minimal_doc(
        audits=["exchange"],
        tolerances={"momentum": 1e-9, "exchange": 1e-10},
        audit_params={"exchange": {"count": 3}, "inertia": {"steps": 5}},
    )
    assert main(["run", str(write(tmp_path, doc)), "--out", str(tmp_path / "out")]) == 0


def test_step_count_above_the_limit_is_rejected_at_parse_time(monkeypatch):
    import invarlab.scenario as scenario

    monkeypatch.setattr(scenario, "MAX_STEPS", 1000)
    at_limit = {"method": "verlet", "step": 0.001, "t_end": 1.0}
    assert parse_scenario(minimal_doc(integrator=at_limit)).integrator.t_end == 1.0
    over = dict(at_limit, t_end=1.002)
    with pytest.raises(ScenarioError, match=r"integrator\.step: t_end / step = 1002 steps"):
        parse_scenario(minimal_doc(integrator=over))


def test_step_count_limit_applies_after_the_step_override(tmp_path, capsys, monkeypatch):
    import invarlab.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran a scenario above the step limit")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / "out"
    # kepler.json parses (10k steps); --step 1e-9 would ask for 3.6e10.
    assert main(["run", "kepler.json", "--out", str(out), "--step", "1e-9"]) == 1
    err = capsys.readouterr().err
    assert "integrator.step: t_end / step = 3.628e+10 steps, above the limit of 1000000" in err
    assert main(["run", "kepler.json", "--out", str(out), "--method", "verlet", "--step", "1e-300"]) == 1
    assert "integrator.step" in capsys.readouterr().err
    assert not out.exists()


def kepler_with(audit_params=None, tolerances=None):
    doc = json.loads(resolve_scenario_path("kepler.json").read_text())
    for audit, params in (audit_params or {}).items():
        doc["audit_params"].setdefault(audit, {}).update(params)
    if tolerances is not None:
        doc["tolerances"] = tolerances
    return doc


def assert_input_error_before_any_output(tmp_path, capsys, monkeypatch, doc, field):
    import invarlab.audits as audits

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before the input error")

    monkeypatch.setattr(audits, "integrate", no_integration)
    out = tmp_path / "out"
    assert main(["run", str(write(tmp_path, doc)), "--out", str(out)]) == 1
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "params, field",
    [
        ({"frame-group": {"cuont": 5}}, "audit_params.frame-group.cuont"),
        ({"momentum": {"count": 5}}, "audit_params.momentum.count"),
        ({"boost-covariance": {"count": "ten"}}, "audit_params.boost-covariance.count"),
        ({"boost-covariance": {"count": 2.0}}, "audit_params.boost-covariance.count"),
        ({"exchange": {"count": True}}, "audit_params.exchange.count"),
        ({"boost-covariance": {"boost": "fast"}}, "audit_params.boost-covariance.boost"),
        ({"boost-covariance": {"boost": 10**400}}, "audit_params.boost-covariance.boost"),
        ({"additivity": {"property": 3}}, "audit_params.additivity.property"),
    ],
)
def test_unknown_or_mistyped_audit_params_are_input_errors(
    tmp_path, capsys, monkeypatch, params, field
):
    doc = kepler_with(params)
    assert_input_error_before_any_output(tmp_path, capsys, monkeypatch, doc, field)


@pytest.mark.parametrize(
    "params, field",
    [
        ({"inertia": {"step": -1.0}}, "audit_params.inertia.step"),
        ({"frame-group": {"count": -5}}, "audit_params.frame-group.count"),
        ({"boost-covariance": {"count": 0}}, "audit_params.boost-covariance.count"),
        ({"exchange": {"count": 0}}, "audit_params.exchange.count"),
        ({"momentum-rate": {"floor": 0.0}}, "audit_params.momentum-rate.floor"),
        ({"inertia": {"steps": 10, "step": 1e308}}, "audit_params.inertia.step"),
    ],
)
def test_nonpositive_or_unbounded_audit_sizes_are_input_errors(
    tmp_path, capsys, monkeypatch, params, field
):
    doc = kepler_with(params)
    assert_input_error_before_any_output(tmp_path, capsys, monkeypatch, doc, field)


@pytest.mark.parametrize(
    "params, field",
    [
        ({"inertia": {"steps": 20_001}}, "audit_params.inertia.steps"),
        ({"boost-covariance": {"t_end": 100.0}}, "audit_params.boost-covariance.step"),
        ({"boost-covariance": {"step": 1e-4}}, "audit_params.boost-covariance.step"),
    ],
)
def test_audit_integrations_above_the_step_limit_are_input_errors(
    tmp_path, capsys, monkeypatch, params, field
):
    import invarlab.scenario as scenario

    # kepler.json integrates 10k steps, so a limit of 20k still admits it.
    monkeypatch.setattr(scenario, "MAX_STEPS", 20_000)
    doc = kepler_with(params)
    assert_input_error_before_any_output(tmp_path, capsys, monkeypatch, doc, field)


def test_audit_integrations_at_the_step_limit_are_accepted(monkeypatch):
    import invarlab.scenario as scenario
    from invarlab.audits import check_audit_inputs

    monkeypatch.setattr(scenario, "MAX_STEPS", 20_000)
    step = 0.0036275987284684354
    at_limit = {"inertia": {"steps": 20_000}, "boost-covariance": {"t_end": 20_000 * step}}
    doc = kepler_with(at_limit)
    check_audit_inputs(parse_scenario(doc))


@pytest.mark.parametrize("audit", ["event-order", "momentum-rate", "torque-rate"])
def test_tolerances_for_audits_that_set_their_own_are_input_errors(
    tmp_path, capsys, monkeypatch, audit
):
    doc = kepler_with(tolerances={audit: 1.0})
    field = f"tolerances.{audit}"
    assert_input_error_before_any_output(tmp_path, capsys, monkeypatch, doc, field)


# The text phase of trajectory.csv: a forked child where os.fork exists and
# one thread runs, this process otherwise; a child that does not start or
# fails has trajectory.csv written here.


def count_forks(monkeypatch, fork=True):
    """Count the children forked from here on, or, with ``fork`` false,
    remove ``os.fork`` so that the text phase runs in this process; returns
    the list of the children's pids."""
    pids = []
    if not fork:
        monkeypatch.delattr(os, "fork")
        return pids
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_needs_fork_and_one_thread(monkeypatch):
    assert forking._can_fork()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert not forking._can_fork()
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive() and forking._can_fork()
    one_cpu(monkeypatch)
    assert forking._can_fork()  # the number of CPUs is no part of the rule
    count_forks(monkeypatch, fork=False)
    assert not forking._can_fork()


def test_no_child_is_left_after_a_run(tmp_path, capsys, monkeypatch):
    pids = count_forks(monkeypatch)
    out = tmp_path / "out"
    assert run_scenario(load_scenario(resolve_scenario_path("spring.json")), out, seed=42) == 0
    assert len(pids) == 1
    assert_no_child_left()
    assert {path.name: sha256(path) for path in out.iterdir()} == GOLDEN["spring.json"][1]


@pytest.mark.parametrize("name", ["spring.json", "kepler.json"])
def test_the_child_and_this_process_write_the_same_bytes(tmp_path, capsys, monkeypatch, name):
    scenario = load_scenario(resolve_scenario_path(name))
    outputs = {}
    for fork in (True, False):
        pids = count_forks(monkeypatch, fork)
        out = tmp_path / f"fork-{fork}"
        assert run_scenario(scenario, out, seed=42) == 0
        # kepler's boost-covariance also runs in a worker.
        assert len(pids) == fork * {"spring.json": 1, "kepler.json": 2}[name]
        outputs[fork] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert outputs[True] == outputs[False]
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs[True].items()} == (
        GOLDEN[name][1]
    )
    assert_no_child_left()


@pytest.mark.parametrize("fork", [True, False])
def test_a_failed_text_phase_raises_oserror(tmp_path, capsys, monkeypatch, fork):
    # A failed child has trajectory.csv written here, which fails the same way.
    def disk_full(self, stream):
        stream.write("t,ax")
        raise OSError("disk full")

    monkeypatch.setattr(Trajectory, "write_csv", disk_full)
    count_forks(monkeypatch, fork)
    out = tmp_path / "out"
    with pytest.raises(OSError) as raised:
        run_scenario(load_scenario(resolve_scenario_path("spring.json")), out, seed=42)
    assert str(raised.value) == "disk full"
    assert not (out / "report.json").exists()
    assert_no_child_left()


@pytest.mark.parametrize("where", ["file", "under a file", "text phase"])
def test_cli_unwritable_output_is_an_error_line(tmp_path, capsys, monkeypatch, where):
    # An --out that cannot be a directory, or a text phase that fails in the
    # child and again here: exit 1 and one error line, no traceback.
    taken = tmp_path / "taken"
    taken.write_text("")
    out = {"file": taken, "under a file": taken / "out", "text phase": tmp_path / "out"}[where]
    if where == "text phase":
        def disk_full(self, stream):
            raise OSError("disk full")

        monkeypatch.setattr(Trajectory, "write_csv", disk_full)
    assert main(["run", "spring.json", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if where == "text phase":
        assert err == "error: disk full\n"
        assert not (out / "report.json").exists()
    assert_no_child_left()


@pytest.mark.parametrize("fork", [True, False])
def test_a_divergence_leaves_no_csv(tmp_path, capsys, monkeypatch, fork):
    # The integration fails before any output opens or any child starts;
    # trajectory.csv and drift.csv from an earlier run are removed too.
    def diverge(self):
        raise DivergenceError(7, 0.07, "injected")

    monkeypatch.setattr(Trajectory, "conserved", diverge)
    pids = count_forks(monkeypatch, fork)
    out = tmp_path / "out"
    out.mkdir()
    for name in ("trajectory.csv", "drift.csv"):
        (out / name).write_text("stale\n")
    assert run_scenario(load_scenario(resolve_scenario_path("spring.json")), out, seed=42) == 2
    assert pids == []
    assert_no_child_left()
    assert [path.name for path in out.iterdir()] == ["report.json"]
    trajectory, *_ = json.loads((out / "report.json").read_text())["audits"]
    assert trajectory["audit"] == "trajectory" and trajectory["verdict"] == "ERROR"
    assert trajectory["detail"] == "trajectory diverged at sample 7 (t = 0.07): injected"


# The audit worker: where a child may be forked and more than one audit is
# requested, one audit runs in a forked worker, on one CPU as on two. It is
# the first requested audit with the most own integration steps; with an
# integrator it must have at least audits._WORKER_MIN_STEPS of them.

# PASS, FAIL (frame-group's tolerance is below its rounding) and ERROR
# (light-quotient needs a finite c, which the classical profile lacks).
MIXED_DOC = minimal_doc(
    name="mixed",
    laws=[],
    velocity_addition={"g": "classical", "samples": 40},
    audits=["frame-group", "event-order", "oplus-group", "proper-time", "light-quotient"],
    tolerances={"frame-group": 1e-300},
    audit_params={"frame-group": {"count": 20}},
)
MIXED_VERDICTS = ["FAIL", "PASS", "PASS", "PASS", "ERROR"]


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def no_integrator_scenario(name):
    if name == "mixed":
        return parse_scenario(MIXED_DOC)
    return load_scenario(resolve_scenario_path(name))


@pytest.mark.parametrize("second_run", ["without os.fork", "on one CPU"])
@pytest.mark.parametrize("name", ["addition.json", "mixed"])
def test_the_audit_worker_and_this_process_write_the_same_report(
    tmp_path, capsys, monkeypatch, name, second_run
):
    scenario = no_integrator_scenario(name)
    pids = count_forks(monkeypatch)
    expected_exit = 0 if name == "addition.json" else 2
    assert run_scenario(scenario, tmp_path / "worker", seed=42) == expected_exit
    assert len(pids) == 1
    assert_no_child_left()
    if second_run == "without os.fork":
        count_forks(monkeypatch, fork=False)
    else:
        one_cpu(monkeypatch)
    assert run_scenario(scenario, tmp_path / "here", seed=42) == expected_exit
    assert len(pids) == 1 + (second_run == "on one CPU")  # one CPU forks too
    assert_no_child_left()
    worker, here = ((tmp_path / side / "report.json").read_bytes() for side in ("worker", "here"))
    assert worker == here
    verdicts = [audit["verdict"] for audit in json.loads(worker)["audits"]]
    if name == "addition.json":
        assert hashlib.sha256(worker).hexdigest() == GOLDEN[name][1]["report.json"]
    else:
        assert verdicts == MIXED_VERDICTS


def failing_fork(monkeypatch, how):
    """Patch ``os.fork`` so that the worker fails ``how``; returns the list
    of the children's pids."""
    real_fork = os.fork
    pids = []

    def fork():
        if how == "fork raises":
            raise OSError("no more processes")
        pid = real_fork()
        if pid == 0 and how == "exit 3":
            os._exit(3)
        if pid == 0 and how == "short payload":
            dumps = forking.marshal.dumps
            forking.marshal.dumps = lambda value: dumps(value)[:-1]
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize("how", ["fork raises", "pipe raises", "exit 3"])
def test_a_text_child_that_does_not_start_or_fails_has_its_work_done_here(
    tmp_path, capsys, monkeypatch, how
):
    if how == "pipe raises":
        def no_pipe():
            raise OSError("too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
    pids = failing_fork(monkeypatch, how)
    out = tmp_path / "out"
    assert main(["run", "spring.json", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(pids) == (how == "exit 3")
    assert_no_child_left()
    assert {path.name: sha256(path) for path in out.iterdir()} == GOLDEN["spring.json"][1]


@pytest.mark.parametrize("how", ["exit 3", "short payload", "fork raises"])
def test_a_failed_worker_has_its_audit_run_here(monkeypatch, how):
    scenario = parse_scenario(MIXED_DOC)
    with monkeypatch.context() as patch:
        count_forks(patch, fork=False)
        expected = run_audits(scenario, seed=7).to_json()
    pids = failing_fork(monkeypatch, how)
    assert run_audits(scenario, seed=7).to_json() == expected
    assert len(pids) == (how != "fork raises")
    assert_no_child_left()


@pytest.mark.parametrize("where, audit", [("worker", "frame-group"), ("here", "light-quotient")])
def test_an_exception_in_either_process_is_raised_here(monkeypatch, where, audit):
    def broken(ctx):
        raise RuntimeError(f"{audit} broke")

    from dataclasses import replace

    catalog = tuple(
        replace(spec, run=broken) if spec.name == audit else spec for spec in audits.CATALOG
    )
    monkeypatch.setattr(audits, "CATALOG", catalog)
    pids = count_forks(monkeypatch)
    with pytest.raises(RuntimeError, match=f"{audit} broke"):
        run_audits(parse_scenario(MIXED_DOC), seed=1)
    assert len(pids) == 1
    assert_no_child_left()


@pytest.mark.parametrize(
    "doc",
    [
        minimal_doc(laws=[], velocity_addition={"samples": 20}, audits=["oplus-group"]),
        minimal_doc(integrator={"method": "rk4", "step": 0.01, "t_end": 0.1},
                    audits=["frame-group", "momentum", "energy"]),
    ],
    ids=["one audit", "an integrator"],
)
def test_no_worker_for_one_audit_or_a_scenario_with_an_integrator(monkeypatch, doc):
    def fork():
        raise AssertionError("run_audits forked")

    monkeypatch.setattr(os, "fork", fork)
    report = run_audits(parse_scenario(doc), seed=1)
    assert [r.verdict for r in report.results] == ["PASS"] * len(doc["audits"])


# A small rk4 document whose boost-covariance integrates 10 runs of 100
# steps of its own (it reuses the scenario trajectory as its base run).
RK4_DOC = minimal_doc(
    name="rk4",
    integrator={"method": "rk4", "step": 0.01, "t_end": 1.0},
    audits=["momentum", "boost-covariance"],
    audit_params={"boost-covariance": {"count": 10}},
)


def own_steps(doc):
    scenario = parse_scenario(doc)
    return {spec.name: spec.own_steps(scenario) for spec in audits.CATALOG}


def test_own_steps_count_the_steps_an_audit_integrates_beyond_the_trajectory():
    kepler = load_scenario(resolve_scenario_path("kepler.json"))
    steps = {spec.name: spec.own_steps(kepler) for spec in audits.CATALOG}
    # boost-covariance: 10 boosted runs and its own base run of 2000 steps.
    assert {name: n for name, n in steps.items() if n} == {
        "inertia": 10_000, "boost-covariance": 22_000,
    }
    assert own_steps(RK4_DOC)["boost-covariance"] == 1_000
    assert own_steps(minimal_doc(laws=[], velocity_addition={}))["boost-covariance"] == 0


@pytest.mark.parametrize("second_run", ["without os.fork", "on one CPU"])
def test_kepler_writes_the_same_bytes_with_its_audit_in_a_worker(
    tmp_path, capsys, monkeypatch, second_run
):
    scenario = load_scenario(resolve_scenario_path("kepler.json"))
    pids = count_forks(monkeypatch)
    assert run_scenario(scenario, tmp_path / "worker", seed=42) == 0
    assert len(pids) == 2  # the text child and the boost-covariance worker
    if second_run == "without os.fork":
        count_forks(monkeypatch, fork=False)
    else:
        one_cpu(monkeypatch)
    assert run_scenario(scenario, tmp_path / "here", seed=42) == 0
    assert len(pids) == 2 + 2 * (second_run == "on one CPU")  # one CPU forks both
    assert_no_child_left()
    outputs = [{path.name: sha256(path) for path in (tmp_path / side).iterdir()}
               for side in ("worker", "here")]
    assert outputs[0] == outputs[1] == GOLDEN["kepler.json"][1]


@pytest.mark.parametrize("how", ["exit 3", "short payload", "fork raises"])
def test_a_failed_worker_on_an_integrator_scenario_has_its_audit_run_here(monkeypatch, how):
    scenario = parse_scenario(RK4_DOC)
    with monkeypatch.context() as patch:
        count_forks(patch, fork=False)
        expected = run_audits(scenario, seed=7).to_json()
    pids = failing_fork(monkeypatch, how)
    assert run_audits(scenario, seed=7).to_json() == expected
    assert len(pids) == (how != "fork raises")
    assert_no_child_left()


def test_an_exception_in_the_worker_on_an_integrator_scenario_is_raised_here(monkeypatch):
    def broken(ctx):
        raise RuntimeError("boost-covariance broke")

    from dataclasses import replace

    catalog = tuple(
        replace(spec, run=broken) if spec.name == "boost-covariance" else spec
        for spec in audits.CATALOG
    )
    monkeypatch.setattr(audits, "CATALOG", catalog)
    pids = count_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="boost-covariance broke"):
        run_audits(parse_scenario(RK4_DOC), seed=1)
    assert len(pids) == 1
    assert_no_child_left()


@pytest.mark.parametrize("steps, forks", [(999, 0), (1000, 1)])
def test_a_worker_needs_the_floor_of_own_steps(monkeypatch, steps, forks):
    doc = minimal_doc(
        integrator={"method": "rk4", "step": 0.01, "t_end": 0.1},
        audits=["momentum", "inertia"],
        audit_params={"inertia": {"steps": steps}},
    )
    assert audits._WORKER_MIN_STEPS == 1000
    pids = count_forks(monkeypatch)
    report = run_audits(parse_scenario(doc), seed=1)
    assert [r.verdict for r in report.results] == ["PASS", "PASS"]
    assert len(pids) == forks
    assert_no_child_left()


def with_inertia_steps(doc, steps):
    return dict(doc, audit_params={**doc.get("audit_params", {}), "inertia": {"steps": steps}})


RK4_THREE = dict(RK4_DOC, audits=["momentum", "inertia", "boost-covariance"])
NO_INTEGRATOR = minimal_doc(audits=["frame-group", "inertia", "momentum"])


def test_the_worker_takes_the_first_audit_with_the_most_own_steps():
    for doc, chosen in [
        (with_inertia_steps(RK4_THREE, 999), "boost-covariance"),
        (with_inertia_steps(RK4_THREE, 1000), "inertia"),
        (with_inertia_steps(RK4_THREE, 1001), "inertia"),
        # Without an integrator no floor applies: inertia's 10 steps win.
        (with_inertia_steps(NO_INTEGRATOR, 10), "inertia"),
        (MIXED_DOC, "frame-group"),  # nothing integrates: the first requested
    ]:
        scenario = parse_scenario(doc)
        requested = [spec for spec in audits.CATALOG if spec.name in scenario.audits]
        assert audits._worker_audit(scenario, requested).name == chosen


def bundled_doc(name, change):
    doc = json.loads(resolve_scenario_path(name).read_text())
    change(doc)
    return doc


def set_bodies(key, value):
    def change(doc):
        doc["bodies"][0][key] = [value, 0.0, 0.0]
        doc["bodies"][1][key] = [-value, 0.0, 0.0]
    return change


def set_field(block, key, value):
    return lambda doc: doc[block].__setitem__(key, value)


EXTREME_FRAME = {"translation": [1e308, 1e308, 1e308], "boost": [1e308, 0, 0], "time_offset": 1e308}


@pytest.mark.parametrize(
    "name, change, code, where",
    [
        # Each vector that leaves the float range is an ERROR verdict.
        ("kepler.json", set_bodies("position", 1e308), 2, "objectivity-sweep"),
        ("kepler.json", set_bodies("velocity", 1e308), 2, "objectivity-sweep"),
        ("kepler.json", lambda doc: doc.__setitem__("frames", [EXTREME_FRAME]), 2,
         "objectivity-sweep"),
        # A number the sweeps cannot carry is an input error naming its field.
        ("kepler.json", set_field("frames", "translation", 1e308), 1, "frames.translation"),
        ("kepler.json", set_field("frames", "boost", 1e308), 1, "frames.boost"),
        ("kepler.json", set_field("frames", "time_offset", 1e308), 1, "frames.time_offset"),
        ("addition.json", set_field("velocity_addition", "c", 1e308), 1, "velocity_addition.c"),
        ("addition.json", set_field("velocity_addition", "c", 1e-170), 1, "velocity_addition.c"),
        ("addition.json", set_field("velocity_addition", "c", 1e-300), 1, "velocity_addition.c"),
    ],
    ids=["positions", "velocities", "explicit-frame", "translation", "boost", "time-offset",
         "c-1e308", "c-1e-170", "c-1e-300"],
)
def test_extreme_numbers_end_in_a_report_or_a_named_input_error(
    tmp_path, capsys, name, change, code, where
):
    out = tmp_path / "out"
    assert main(["run", str(write(tmp_path, bundled_doc(name, change))), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1
        assert not out.exists()
        return
    assert err == ""
    verdicts = {entry["audit"]: entry for entry in json.loads((out / "report.json").read_text())["audits"]}
    assert verdicts[where]["verdict"] == "ERROR"
    assert verdicts[where]["detail"].startswith("non-finite vector component in (")


@pytest.mark.parametrize("profile", ["lorentz", "rational"])
@pytest.mark.parametrize("end", ["lowest", "highest"])
def test_c_is_accepted_up_to_where_its_square_leaves_the_normal_floats(
    tmp_path, capsys, profile, end
):
    c = math.sqrt(sys.float_info.min) if end == "lowest" else math.sqrt(sys.float_info.max)
    beyond = math.nextafter(c, 0.0 if end == "lowest" else math.inf)
    block = {"g": profile, "samples": 50, "max_speed": 0.9999999999999999}
    doc = bundled_doc("addition.json", lambda doc: doc["velocity_addition"].update(block, c=c))
    out = tmp_path / "out"
    assert main(["run", str(write(tmp_path, doc)), "--out", str(out)]) in (0, 2)
    assert json.loads((out / "report.json").read_text())["audits"]
    doc["velocity_addition"]["c"] = beyond
    with pytest.raises(ScenarioError, match=r"^velocity_addition\.c: "):
        parse_scenario(doc)


@pytest.mark.parametrize("key", ["translation", "boost", "time_offset"])
def test_a_random_frame_scale_is_accepted_while_its_double_is_finite(key):
    largest = sys.float_info.max / 2.0
    doc = minimal_doc(frames={key: largest})
    assert getattr(parse_scenario(doc).frames, key) == largest
    doc["frames"][key] = math.nextafter(largest, math.inf)
    with pytest.raises(ScenarioError, match=rf"^frames\.{key}: "):
        parse_scenario(doc)
