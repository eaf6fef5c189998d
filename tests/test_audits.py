import math

import pytest

import invarlab.audits as audits
from invarlab import (
    Body, BoundedVelocity, ForceLaw, ScenarioError, Vec3, charge_squared, coulomb, gravity,
    linear_drag, perp_demo, soften, spring,
)
from invarlab.audits import AuditContext, audit_names, format_catalog, run_audits
from invarlab.forces import PairTerms
from invarlab.scenario import AdditionConfig, IntegratorConfig, Scenario


def scenario_with(**overrides):
    base = dict(
        name="unit",
        bodies=(
            Body("A", 1.0, Vec3(0.66, 0, 0), Vec3(0, 1.1663058605140249, 0)),
            Body("B", 2.0, Vec3(-0.33, 0, 0), Vec3(0, -0.5831529302570124, 0)),
        ),
        laws=(),
        audits=(),
        integrator=None,
    )
    base.update(overrides)
    return Scenario(**base)


def test_unknown_audit_name_is_scenario_error():
    sc = scenario_with(audits=("momentum", "no-such-audit"))
    with pytest.raises(ScenarioError, match="no-such-audit"):
        run_audits(AuditContext(sc, 1))


def test_report_holds_each_requested_audit_once_in_catalog_order():
    from invarlab import gravity

    sc = scenario_with(
        laws=(gravity(1.0),),
        audits=("momentum", "frame-group", "momentum", "exchange"),
        integrator=IntegratorConfig("rk4", 0.01, 1.0),
    )
    report = run_audits(AuditContext(sc, 3))
    assert [r.audit for r in report.results] == ["frame-group", "exchange", "momentum"]
    assert report.overall == "PASS"


def test_energy_audit_errors_for_non_central_law():
    from invarlab import perp_demo

    sc = scenario_with(
        laws=(perp_demo(1.0),),
        audits=("energy",),
        integrator=IntegratorConfig("rk4", 0.01, 0.1),
    )
    report = run_audits(AuditContext(sc, 1))
    assert report.results[0].verdict == "ERROR"
    assert "undefined" in report.results[0].detail
    assert report.overall == "FAIL"


def test_energy_audit_keeps_a_nan_drift_after_finite_ones():
    def nan_spring(every):
        """A library-built unit spring whose potential is nan at every
        ``every``-th call, so first at a sample mid-trajectory."""
        calls = []

        def potential(r):
            calls.append(r)
            return math.nan if len(calls) % every == 0 else 0.5 * r * r

        terms = PairTerms(phi_r=lambda r: -1.0, potential=potential)
        return ForceLaw("nan-spring", lambda qa, qb: terms)

    def energy(law):
        sc = scenario_with(laws=(law,), audits=("energy",), tolerances={"energy": 1e-3},
                           integrator=IntegratorConfig("verlet", 0.01, 30.0))
        return run_audits(AuditContext(sc, 1)).results[0]

    finite = energy(nan_spring(10**9))
    assert finite.verdict == "PASS" and finite.residual > 0.0
    result = energy(nan_spring(1000))
    assert result.verdict == "FAIL" and math.isnan(result.residual)


def test_trajectory_audit_without_integrator_block_errors():
    from invarlab import gravity

    sc = scenario_with(laws=(gravity(1.0),), audits=("momentum",))
    report = run_audits(AuditContext(sc, 1))
    assert report.results[0].verdict == "ERROR"
    assert "integrator" in report.results[0].detail


def test_oplus_audit_covers_both_shipped_profiles():
    for g_name in ("lorentz", "rational"):
        sc = scenario_with(
            audits=("oplus-group", "proper-time"),
            addition=AdditionConfig(g_name=g_name, c=2.0, samples=50, max_speed=0.9),
        )
        report = run_audits(AuditContext(sc, 5))
        assert all(r.passed for r in report.results), report.summary_lines()


def test_unreachable_weighted_norm_is_an_error_verdict(monkeypatch):
    # At the last float below c the weight exceeds what the solver's cap
    # just under c can reach, so the composition has no representable result.
    def at_the_bound(rng, gfun, max_fraction):
        return BoundedVelocity(Vec3(math.nextafter(gfun.c, 0.0), 0.0, 0.0), gfun)

    monkeypatch.setattr(audits, "_random_velocity", at_the_bound)
    for g_name in ("lorentz", "rational"):
        sc = scenario_with(
            audits=("oplus-group", "proper-time"),
            addition=AdditionConfig(g_name=g_name, c=1.0, samples=5, max_speed=0.9),
        )
        report = run_audits(AuditContext(sc, 5))
        assert [r.verdict for r in report.results] == ["ERROR", "ERROR"]
        assert all("not reachable below the bound" in r.detail for r in report.results)


def test_additivity_audit_defaults_to_mass_for_gravity():
    from invarlab import gravity

    sc = scenario_with(laws=(gravity(1.0),), audits=("additivity",))
    report = run_audits(AuditContext(sc, 1))
    assert report.results[0].passed
    assert "'mass'" in report.results[0].detail


CHARGED = (
    Body("A", 1.0, Vec3(0.66, 0, 0), Vec3(0, 1.1, 0), {"charge": 0.5}),
    Body("B", 2.0, Vec3(-0.33, 0, 0), Vec3(0, -0.5, 0), {"charge": -1.5}),
)


@pytest.mark.parametrize(
    "laws, prop, verdict, detail",
    [
        ([spring()], "charge", "ERROR", "no law couples through 'charge'"),
        ([linear_drag(), perp_demo()], None, "ERROR", "no law couples through 'charge'"),
        ([], None, "ERROR", "no law couples through 'mass'"),
        ([gravity(), spring()], "mass", "PASS",
         "property 'mass', split 0.4/0.6; not coupled: spring"),
        ([spring(), coulomb()], None, "PASS",
         "property 'charge', split 0.2/0.3; not coupled: spring"),
        ([charge_squared(), linear_drag(), coulomb()], None, "FAIL",
         "property 'charge', split 0.2/0.3; failing laws: charge-squared; "
         "not coupled: linear-drag"),
        ([gravity()], None, "PASS", "property 'mass', split 0.4/0.6"),
        # The default is read from the pair form, not from the law's name.
        ([soften(gravity(), 0.01)], None, "PASS", "property 'mass', split 0.4/0.6"),
    ],
    ids=["spring", "drag+perp", "no-law", "gravity+spring", "spring+coulomb",
         "charge-squared+drag+coulomb", "gravity", "softened-gravity"],
)
def test_additivity_tests_only_the_laws_that_read_the_property(laws, prop, verdict, detail):
    # A law that never reads the property gives F(q1) + F(q2) = 2 F(q).
    params = {} if prop is None else {"additivity": {"property": prop}}
    sc = scenario_with(bodies=CHARGED, laws=tuple(laws), audits=("additivity",),
                       audit_params=params)
    result = run_audits(AuditContext(sc, 1)).results[0]
    assert (result.verdict, result.detail) == (verdict, detail)


def test_a_law_that_does_not_bind_is_an_input_error():
    bare = ForceLaw("bare", lambda qa, qb: PairTerms(phi_r=lambda r: -1.0))
    for laws in ((bare,), (bare, linear_drag()), (gravity(), bare)):
        sc = scenario_with(laws=laws, audits=("energy", "exchange"),
                           integrator=IntegratorConfig("rk4", 0.01, 0.1))
        with pytest.raises(ScenarioError, match="^laws: central law 'bare' registers no potential"):
            run_audits(AuditContext(sc, 1))


def test_results_do_not_depend_on_which_other_audits_run():
    from invarlab import gravity

    cfg = IntegratorConfig("rk4", 0.01, 1.0)
    alone = run_audits(AuditContext(
        scenario_with(laws=(gravity(1.0),), audits=("exchange",), integrator=cfg), 9
    ))
    together = run_audits(AuditContext(
        scenario_with(
            laws=(gravity(1.0),), audits=("exchange", "frame-group", "momentum"), integrator=cfg
        ),
        9,
    ))
    lone = alone.results[0]
    paired = next(r for r in together.results if r.audit == "exchange")
    assert lone.residual == paired.residual


def test_bad_audit_param_type_is_an_error_verdict():
    from invarlab import gravity

    sc = scenario_with(
        laws=(gravity(1.0),),
        audits=("boost-covariance",),
        integrator=IntegratorConfig("rk4", 0.01, 0.5),
        audit_params={"boost-covariance": {"count": "ten"}},
    )
    with pytest.raises(ScenarioError, match=r"audit_params\.boost-covariance\.count: expected"):
        run_audits(AuditContext(sc, 1))


def test_catalog_listing_is_complete():
    names = audit_names()
    assert names == sorted(set(names), key=names.index)
    lines = format_catalog()
    assert len(lines) == len(names)
    for required in ("inertia", "oplus-group", "objectivity-sweep", "light-quotient"):
        assert required in names


def test_integration_failures_are_cached_per_step_scale(monkeypatch):
    import invarlab.audits as audits
    from invarlab import DivergenceError, spring

    calls = []
    original = audits.integrate

    def counting(a, b, law, t_end, step, method="rk4"):
        calls.append(step)
        return original(a, b, law, t_end, step, method)

    monkeypatch.setattr(audits, "integrate", counting)
    # rk4 at step 0.01 on this spring has per-step gain ~400: not finite by t = 10.
    sc = scenario_with(
        laws=(spring(1e6),),
        audits=("momentum", "momentum-rate", "angular-momentum", "torque-rate", "energy"),
        integrator=IntegratorConfig("rk4", 0.01, 10.0),
    )
    ctx = audits.AuditContext(sc, seed=1)
    report = run_audits(ctx)
    assert [r.verdict for r in report.results] == ["ERROR"] * 5
    assert all("diverged at sample" in r.detail for r in report.results)
    assert calls == [0.01]
    for scale in (1.0, 0.5, 0.5, 1.0):
        with pytest.raises(DivergenceError):
            ctx.trajectory(step_scale=scale)
    assert calls == [0.01, 0.005]


def test_catalog_listing_shows_tolerances_and_params_from_the_specs():
    entries = {entry.split()[0]: entry for entry in format_catalog()}
    assert ("tolerance 1e-12; params: steps (a positive integer) = 10000; "
            "step (a positive number) = " in entries["inertia"])
    assert ("tolerance set by the audit; params: count (a positive integer) = 100"
            in entries["event-order"])
    assert "tolerance 1e-09; params: none" in entries["momentum"]
    for spec in audits.CATALOG:
        assert all(f"{p.name} ({p.kind.name})" in entries[spec.name] for p in spec.params)


@pytest.mark.parametrize(
    "measured, verdict, tolerance",
    [
        (audits.Measurement(0.5e-12, "below"), "PASS", 1e-12),
        (audits.Measurement(math.nan, "nan"), "FAIL", 1e-12),
        (audits.Measurement(0.0, "extra condition", ok=False), "FAIL", 1e-12),
        (audits.Measurement(2.0, "own tolerance", tolerance=3.0), "PASS", 3.0),
    ],
)
def test_runner_alone_decides_the_verdict(monkeypatch, measured, verdict, tolerance):
    from dataclasses import replace

    spec = replace(audits.CATALOG[0], run=lambda ctx: measured)
    monkeypatch.setattr(audits, "CATALOG", (spec,))
    (result,) = run_audits(AuditContext(scenario_with(audits=(spec.name,)), 1)).results
    assert (result.audit, result.lemma) == (spec.name, spec.lemma)
    assert (result.verdict, result.tolerance) == (verdict, tolerance)
    assert result.detail == measured.detail
    assert result.residual is measured.residual


def nan_on_second_call(fn, nan_result):
    """``fn``, except that its second call returns ``nan_result``."""
    calls = []

    def patched(*args):
        calls.append(args)
        return nan_result if len(calls) == 2 else fn(*args)

    return patched


class NanVector(Vec3):
    """Stands in for a vector with a nan component, which ``Vec3`` refuses:
    a difference with it is itself, and its norm is nan."""

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def __sub__(self, other):
        return self

    __rsub__ = __sub__

    def norm(self) -> float:
        return math.nan


def test_frame_group_keeps_a_nan_residual_after_a_finite_one(monkeypatch):
    patched = nan_on_second_call(audits.transform_residual, math.nan)
    monkeypatch.setattr(audits, "transform_residual", patched)
    (result,) = run_audits(AuditContext(scenario_with(audits=("frame-group",)), 1)).results
    assert result.verdict == "FAIL" and math.isnan(result.residual)


def test_oplus_group_keeps_a_nan_residual(monkeypatch):
    from types import SimpleNamespace

    patched = nan_on_second_call(audits.oplus, SimpleNamespace(v=NanVector()))
    monkeypatch.setattr(audits, "oplus", patched)
    sc = scenario_with(audits=("oplus-group",), addition=AdditionConfig(samples=5))
    (result,) = run_audits(AuditContext(sc, 1)).results
    assert result.verdict == "FAIL" and math.isnan(result.residual)


@pytest.mark.parametrize("max_speed", [0.05, 0.5])
def test_light_quotient_boosts_stay_at_or_below_max_speed(monkeypatch, max_speed):
    # Boost speeds are drawn from 0.1 c up to max_speed c; below 0.1 every
    # boost is at max_speed c, never above it.
    speeds = []
    original = audits.light_quotient

    def recording(boost, baseline):
        speeds.append(boost.speed)
        return original(boost, baseline)

    monkeypatch.setattr(audits, "light_quotient", recording)
    addition = AdditionConfig(samples=5, max_speed=max_speed)
    sc = scenario_with(audits=("light-quotient",), addition=addition)
    (result,) = run_audits(AuditContext(sc, 1)).results
    assert result.verdict == "PASS" and len(speeds) == 20
    # The unit direction's norm is 1 to within an ulp or two.
    assert max(speeds) <= max_speed * (1.0 + 1e-15)
    assert min(speeds) >= min(0.1, max_speed) * (1.0 - 1e-15)


def test_light_quotient_keeps_a_nan_plain_quotient_after_a_finite_one(monkeypatch):
    patched = nan_on_second_call(audits.classical_light_quotient, math.nan)
    monkeypatch.setattr(audits, "classical_light_quotient", patched)
    sc = scenario_with(audits=("light-quotient",), addition=AdditionConfig(samples=5))
    (result,) = run_audits(AuditContext(sc, 1)).results
    assert result.verdict == "FAIL"
    assert result.detail == "20 boosts; plain-addition deviation >= nan"
