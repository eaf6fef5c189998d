import math

import pytest

from invarlab import ConvergenceError, solve_increasing


def test_linear_root():
    root = solve_increasing(lambda x: x - 2.0, 0.0, 10.0, ftol=1e-14)
    assert abs(root - 2.0) < 1e-12


def test_cubic_root():
    root = solve_increasing(lambda x: x**3 - 7.0, 0.0, 5.0, ftol=1e-14)
    assert abs(root - 7.0 ** (1.0 / 3.0)) < 1e-13


def test_exponential_root():
    root = solve_increasing(lambda x: math.expm1(x) - 1.0, 0.0, 3.0, ftol=1e-14)
    assert abs(root - math.log(2.0)) < 1e-12


def test_steep_function_near_asymptote():
    # f blows up toward 1; the root is resolved to bracket collapse even
    # when the residual cannot be driven below ftol.
    target = 1e12

    def f(x):
        return x / (1.0 - x) - target

    root = solve_increasing(f, 0.0, 1.0 - 1e-16, ftol=1e-14)
    expected = target / (1.0 + target)
    assert abs(root - expected) < 1e-12


def test_endpoint_root():
    assert solve_increasing(lambda x: x, 0.0, 1.0, ftol=1e-14) == 0.0


def test_invalid_bracket_raises():
    with pytest.raises(ConvergenceError):
        solve_increasing(lambda x: x + 10.0, 0.0, 1.0, ftol=1e-14)
    with pytest.raises(ConvergenceError):
        solve_increasing(lambda x: x - 10.0, 0.0, 1.0, ftol=1e-14)
    with pytest.raises(ConvergenceError):
        solve_increasing(lambda x: x, 2.0, 1.0, ftol=1e-14)


def test_root_near_zero_on_the_widest_positive_bracket():
    # Bisection from 1e308 down to 1e-300 takes far more than 1000 halvings.
    halvings = []

    def f(x):
        halvings.append(x)
        return x - 1e-300

    root = solve_increasing(f, 0.0, 1e308, ftol=0.0)
    assert abs(root - 1e-300) <= 1e-15
    assert len(halvings) > 1000


def test_midpoint_of_a_wide_bracket_does_not_overflow():
    # 0.5 * (lo + hi) would be inf here, as lo + hi is above the float range.
    root = solve_increasing(lambda x: x / 1.5e308 - 1.0, 0.0, 1.7e308, ftol=1e-14)
    assert abs(root - 1.5e308) <= 1e-14 * 1.5e308
