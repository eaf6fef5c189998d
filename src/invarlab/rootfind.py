"""Scalar root finding on a bracket for increasing functions.

Written for the bounded velocity-addition solver, where the target
function is strictly increasing and diverges at the upper end of the
bracket, but generic: plain bisection, which needs nothing of f beyond
its sign and always makes progress.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["ConvergenceError", "solve_increasing"]

_EPS = 2.220446049250313e-16

# The widest finite bracket is 2**1025 wide; halving it down to the
# collapse test's 4 ulps of 1.0 (2**-50) takes 1075 halvings.
_MAX_HALVINGS = 1080


class ConvergenceError(RuntimeError):
    """Root solve failed to bracket or reach the requested tolerance."""


def solve_increasing(
    f: Callable[[float], float], lo: float, hi: float, *, ftol: float = 1e-14
) -> float:
    """Solve f(x) = 0 on [lo, hi] for increasing f with f(lo) <= 0 <= f(hi).

    Bisects until |f(x)| <= ftol, or until the bracket has collapsed to a
    few ulps (the root is then determined to full working precision even
    if f is too steep for the residual test, as happens next to an
    asymptote).

    Raises:
        ConvergenceError: invalid bracket, or no convergence in
            ``_MAX_HALVINGS`` halvings.
    """
    if not lo <= hi:
        raise ConvergenceError(f"empty bracket [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise ConvergenceError(
            f"bracket [{lo}, {hi}] does not straddle a root: f(lo)={flo}, f(hi)={fhi}"
        )
    if abs(flo) <= ftol:
        return lo
    if abs(fhi) <= ftol:
        return hi

    for _ in range(_MAX_HALVINGS):
        # Halved before adding, so that the midpoint of a wide bracket
        # cannot overflow.
        x = 0.5 * lo + 0.5 * hi
        fx = f(x)
        if abs(fx) <= ftol:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= 4.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            return 0.5 * lo + 0.5 * hi

    raise ConvergenceError(
        f"no convergence after {_MAX_HALVINGS} halvings, bracket [{lo}, {hi}]"
    )
