import io
import math
from array import array

import pytest

from invarlab import (
    Body,
    DivergenceError,
    ForceLaw,
    SingularityError,
    Trajectory,
    Vec3,
    charge_squared,
    coulomb,
    cross,
    free,
    gravity,
    integrate,
    linear_drag,
    merge_laws,
    momentum_rate,
    observables,
    pair_state,
    perp_demo,
    spring,
)
from invarlab.dynamics import CSV_HEADER
from invarlab.forces import PairTerms, PropertyView, bind

from helpers import (
    angular_momentum_rate, as_tuple, finite_difference, kepler_pair, observables_at, relative_at,
    sample_row, states_of, unbound_charge_squared, unbound_potential,
)


def test_isolated_pair_moves_on_a_straight_line():
    a = Body("A", 1.0, Vec3(0.3, -0.2, 1.0), Vec3(0.7, 0.1, -0.4))
    b = Body("B", 2.5, Vec3(-1.0, 0.4, 0.0), Vec3(-0.3, 0.5, 0.2))
    base = pair_state(a, b)
    traj = integrate(a, b, free(), 10.0, 0.01, "rk4")
    for t, (ta, tb) in zip(traj.times, states_of(traj)):
        rel = pair_state(ta, tb)
        expected = base.x_ab + base.v_ab * t
        assert (rel.x_ab - expected).norm() < 1e-13 * max(1.0, expected.norm())
        assert rel.v_ab == base.v_ab


def test_circular_orbit_radius_is_steady():
    # |v_ab|^2 = g (m_a + m_b) / |x_ab| keeps the separation constant.
    a, b, period = kepler_pair(ma=1.0, mb=2.0, ecc=0.0)
    traj = integrate(a, b, gravity(1.0), period, period / 10_000.0, "rk4")
    r0 = pair_state(a, b).x_ab.norm()
    worst = max(abs(relative_at(traj, i).x_ab.norm() - r0) / r0 for i in range(len(traj)))
    assert worst < 1e-6


def test_spring_matches_analytic_oscillator():
    ma, mb, kappa = 1.0, 2.0, 1.3
    omega = math.sqrt(kappa * (ma + mb) / (ma * mb))
    period = 2.0 * math.pi / omega
    a = Body("A", ma, Vec3(1.0, 0.0, 0.2), Vec3(0.0, 0.5, 0.0))
    b = Body("B", mb, Vec3(-0.5, 0.0, 0.0), Vec3(0.0, -0.2, 0.1))
    base = pair_state(a, b)
    traj = integrate(a, b, spring(kappa), 10.0 * period, period / 2000.0, "rk4")
    worst = 0.0
    for t, (ta, tb) in zip(traj.times, states_of(traj)):
        rel = pair_state(ta, tb)
        expected_x = base.x_ab * math.cos(omega * t) + base.v_ab * (math.sin(omega * t) / omega)
        expected_v = base.v_ab * math.cos(omega * t) - base.x_ab * (omega * math.sin(omega * t))
        worst = max(worst, (rel.x_ab - expected_x).norm(), (rel.v_ab - expected_v).norm())
    assert worst < 1e-8


def body_observables(a, b, law):
    """The row-level ``observables`` kernel on one (a, b) pair."""
    return observables(bind(law, a, b), sample_row(a, b))


def test_observables_at_rest():
    a = Body("A", 1.0, Vec3(2, 0, 0), Vec3(0, 0, 0))
    b = Body("B", 3.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    law = gravity(1.0)
    momentum, angular, energy, mu = body_observables(a, b, law)
    assert Vec3(*momentum) == Vec3(0, 0, 0)
    assert Vec3(*angular) == Vec3(0, 0, 0)
    assert mu == pytest.approx(0.75)
    assert energy == pytest.approx(-1.0 * 3.0 / 2.0)  # V(r) = -g m_a m_b / r


def test_angular_momentum_zero_for_collinear_motion():
    a = Body("A", 1.0, Vec3(1, 0, 0), Vec3(2, 0, 0))
    b = Body("B", 1.0, Vec3(0, 0, 0), Vec3(-1, 0, 0))
    _, angular, _, _ = body_observables(a, b, free())
    assert Vec3(*angular) == Vec3(0, 0, 0)


def test_energy_absent_for_non_central_law():
    a = Body("A", 1.0, Vec3(1, 0, 0), Vec3(0, 1, 0))
    b = Body("B", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    assert body_observables(a, b, linear_drag(0.5))[2] is None
    assert body_observables(a, b, perp_demo(1.0))[2] is None


def test_registered_potentials_match_force_by_finite_differences():
    a = Body("A", 1.2, Vec3(1.7, 0, 0), Vec3(0, 0, 0), {"charge": 2.0})
    b = Body("B", 0.8, Vec3(0, 0, 0), Vec3(0, 0, 0), {"charge": -0.5})
    h = 1e-6
    for law in (gravity(0.7), coulomb(1.3), spring(2.1), charge_squared(0.9)):
        pair = bind(law, a, b)
        for r in (0.8, 1.7, 3.0):
            dv = (pair.potential(r + h) - pair.potential(r - h)) / (2 * h)
            # -dV/dr must equal phi_e(r) * r
            phi = pair.phi_r(r)
            assert abs(-dv - phi * r) < 1e-6 * max(1.0, abs(phi * r))


def test_potential_quadrature_fallback_matches_closed_form():
    # charge-squared once registered no potential and got one by quadrature
    # of V'(rho) = -phi_e(rho) rho from rho = 1. Its closed form
    # k q_a^2 q_b / r differs from that only by the gauge constant V(1).
    a = Body("A", 2.0, Vec3(1, 0, 0), Vec3(0, 0, 0), {"charge": 1.5})
    b = Body("B", 3.0, Vec3(0, 0, 0), Vec3(0, 0, 0), {"charge": -0.5})
    potential = bind(charge_squared(1.3), a, b).potential
    bare = unbound_charge_squared(1.3, potential=False)
    for r in (0.5, 1.0, 2.0, 4.0):
        numeric = unbound_potential(bare, PropertyView(a), PropertyView(b), r)
        assert abs(numeric - (potential(r) - potential(1.0))) < 1e-10
    assert potential(2.0) == 1.3 * 1.5 * 1.5 * -0.5 / 2.0


def test_verlet_rejects_velocity_dependent_law():
    a = Body("A", 1.0, Vec3(1, 0, 0), Vec3(0, 1, 0))
    b = Body("B", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    with pytest.raises(ValueError):
        integrate(a, b, linear_drag(0.1), 1.0, 0.01, "verlet")


def test_unknown_method_rejected():
    a = Body("A", 1.0, Vec3(1, 0, 0), Vec3(0, 1, 0))
    b = Body("B", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    with pytest.raises(ValueError):
        integrate(a, b, gravity(), 1.0, 0.01, "leapfrog")
    with pytest.raises(ValueError):
        integrate(a, b, gravity(), 1.0, -0.01)


def test_immediate_singularity_is_an_error():
    a = Body("A", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    b = Body("B", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    with pytest.raises(SingularityError):
        integrate(a, b, gravity(1.0), 1.0, 0.01)


def test_verlet_and_rk4_agree_on_short_kepler_arc():
    a, b, period = kepler_pair(ecc=0.05)
    law = gravity(1.0)
    t_end, step = period / 4.0, period / 8000.0
    r1 = integrate(a, b, law, t_end, step, "rk4")
    r2 = integrate(a, b, law, t_end, step, "verlet")
    last = len(r1) - 1
    gap = (relative_at(r1, last).x_ab - relative_at(r2, last).x_ab).norm()
    assert gap < 1e-5


def test_trajectory_invariants_enforced():
    a = Body("A", 1.0, Vec3(1, 0, 0), Vec3(0, 0, 0))
    b = Body("B", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    row = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory((0.0, 0.0), row * 2, (a, b), free(), "rk4")
    # The rate pass divides by time differences: every time is finite.
    for times in [(0.0, math.nan, 2.0), (math.nan, 1.0), (0.0, 1.0, math.inf)]:
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Trajectory(times, row * len(times), (a, b), free(), "rk4")
    with pytest.raises(ValueError, match="12 floats per time"):
        Trajectory((0.0, 0.1), row, (a, b), free(), "rk4")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_trajectory_rejects_non_finite_row(bad):
    a = Body("A", 1.0, Vec3(1, 0, 0), Vec3(0, 0, 0))
    b = Body("B", 1.0, Vec3(0, 0, 0), Vec3(0, 0, 0))
    rows = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0] * 3
    rows[12 + 10] = bad  # sample 1, body B velocity y
    with pytest.raises(DivergenceError, match=r"sample 1 \(t = 0\.1\)") as info:
        Trajectory((0.0, 0.1, 0.2), rows, (a, b), free(), "rk4")
    assert (info.value.index, info.value.time) == (1, 0.1)


def test_states_are_built_once_from_the_rows():
    a, b, period = kepler_pair()
    traj = integrate(a, b, gravity(1.0), period / 10.0, period / 100.0, "rk4")
    assert states_of(traj) is states_of(traj)
    for row, (ta, tb) in zip(traj.samples(), states_of(traj)):
        assert row == (
            *as_tuple(ta.position), *as_tuple(ta.velocity),
            *as_tuple(tb.position), *as_tuple(tb.velocity),
        )
        assert (ta.id, ta.mass, tb.id, tb.mass) == ("A", a.mass, "B", b.mass)


def test_rows_are_a_float_array_and_any_float_sequence_reads_back_alike():
    a, b, period = kepler_pair()
    traj = integrate(a, b, gravity(1.0), period / 10.0, period / 100.0, "rk4")
    assert isinstance(traj.rows, array) and traj.rows.typecode == "d"
    listed = Trajectory(traj.times, list(traj.rows), traj.bodies, traj.law, "rk4")
    assert list(listed.observed()) == list(traj.observed())
    for i in (0, 5, -1):
        assert relative_at(traj, i) == relative_at(listed, i) == pair_state(*states_of(traj)[i])
        assert observables_at(traj, i) == observables_at(listed, i)
    assert observables_at(traj, -1) == observables_at(traj, len(traj) - 1)
    csv, listed_csv = io.StringIO(), io.StringIO()
    traj.write_csv(csv)
    listed.write_csv(listed_csv)
    assert csv.getvalue() == listed_csv.getvalue()


def test_conserved_is_computed_once_and_write_csv_reads_it(monkeypatch):
    import invarlab.dynamics as dynamics

    a, b, period = kepler_pair()
    traj = integrate(a, b, gravity(1.0), period / 10.0, period / 100.0, "rk4")
    expected = io.StringIO()
    traj.write_csv(expected)
    traj = integrate(a, b, gravity(1.0), period / 10.0, period / 100.0, "rk4")
    cells = traj.conserved()
    assert traj.conserved() is cells and len(cells) == 7 * len(traj)
    calls = []
    monkeypatch.setattr(dynamics, "observables", lambda *args: calls.append(args))
    csv = io.StringIO()
    traj.write_csv(csv)
    assert calls == [] and csv.getvalue() == expected.getvalue()


def test_finite_difference_on_linear_series():
    times = [0.0, 0.5, 1.0, 1.5]
    values = [Vec3(2.0 * t, -t, 0.0) for t in times]
    for d in finite_difference(values, times):
        assert (d - Vec3(2.0, -1.0, 0.0)).norm() < 1e-12


def test_momentum_rate_matches_finite_differences():
    a = Body("A", 1.0, Vec3(0.5, 0, 0), Vec3(0, 0.4, 0))
    b = Body("B", 2.0, Vec3(-0.5, 0, 0), Vec3(0, -0.2, 0))
    law = perp_demo(1.0)
    traj = integrate(a, b, law, 1.0, 0.001, "rk4")
    momenta = [
        ta.velocity * ta.mass + tb.velocity * tb.mass for ta, tb in states_of(traj)
    ]
    rates = finite_difference(momenta, traj.times)
    mid = len(traj) // 2
    ta, tb = states_of(traj)[mid]
    assert (rates[mid] - momentum_rate(ta, tb, law)).norm() < 1e-5


def test_angular_momentum_rate_matches_finite_differences():
    a = Body("A", 1.0, Vec3(0.5, 0.1, 0), Vec3(0, 0.4, 0.1))
    b = Body("B", 2.0, Vec3(-0.5, 0, 0), Vec3(0, -0.2, 0))
    law = merge_laws((linear_drag(0.3), perp_demo(0.5)))
    traj = integrate(a, b, law, 1.0, 0.001, "rk4")
    mu = a.mass * b.mass / (a.mass + b.mass)
    series = [
        cross(pair_state(ta, tb).x_ab, pair_state(ta, tb).v_ab * mu) for ta, tb in states_of(traj)
    ]
    rates = finite_difference(series, traj.times)
    mid = len(traj) // 2
    ta, tb = states_of(traj)[mid]
    assert (rates[mid] - angular_momentum_rate(ta, tb, law)).norm() < 1e-5


def test_merged_trajectory_equals_hand_summed_law():
    # Independent construction of the sum: one coefficient that adds the
    # two formulas directly.
    g, kappa = 1.0, 0.8
    merged = merge_laws((gravity(g), spring(kappa)))
    hand = ForceLaw(
        "hand-sum",
        lambda qa, qb: PairTerms(
            phi_e=lambda r, v, c: -g * qa["mass"] * qb["mass"] / r**3 - kappa
        ),
        min_separation=1e-9,
    )
    a = Body("A", 1.0, Vec3(1.0, 0, 0), Vec3(0, 0.9, 0))
    b = Body("B", 2.0, Vec3(-0.5, 0, 0), Vec3(0, -0.45, 0))
    t1 = integrate(a, b, merged, 2.0, 0.002, "rk4")
    t2 = integrate(a, b, hand, 2.0, 0.002, "rk4")
    for i in (0, len(t1) // 2, len(t1) - 1):
        assert (relative_at(t1, i).x_ab - relative_at(t2, i).x_ab).norm() < 1e-12


def test_csv_export_format():
    a, b, period = kepler_pair()
    traj = integrate(a, b, gravity(1.0), period / 10.0, period / 100.0, "rk4")
    buffer = io.StringIO()
    traj.write_csv(buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert len(first) == 20
    assert first[0] == "0.0"
    assert first[-1] != ""  # central law: energy column populated

    drag_traj = integrate(a, b, linear_drag(0.1), 0.1, 0.01, "rk4")
    buffer = io.StringIO()
    drag_traj.write_csv(buffer)
    row = buffer.getvalue().splitlines()[1].split(",")
    assert row[-1] == ""  # energy undefined: blank, not zero
