#!/usr/bin/env python3
"""Energy-drift comparison of rk4 and velocity Verlet on a two-body orbit.

For each step size, integrates the same near-circular gravity orbit for a
fixed number of periods and reports the worst relative energy deviation.
rk4 drifts at fourth order; Verlet oscillates at second order with no
secular growth, which is why the sharp conservation audits use it.
"""

import argparse
import math

from invarlab import Body, Vec3, gravity, integrate


def orbit(ecc: float):
    ma, mb = 1.0, 2.0
    mu = ma + mb
    r0 = 1.0 - ecc
    v0 = math.sqrt(mu * (2.0 / r0 - 1.0))
    fa, fb = mb / (ma + mb), ma / (ma + mb)
    a = Body("A", ma, Vec3(fa * r0, 0, 0), Vec3(0, fa * v0, 0))
    b = Body("B", mb, Vec3(-fb * r0, 0, 0), Vec3(0, -fb * v0, 0))
    return a, b, 2.0 * math.pi / math.sqrt(mu)


def worst_drift(traj) -> float:
    energies = [energy for _, _, energy, _ in traj.observed()]
    e0 = energies[0]
    return max(abs(energy - e0) / abs(e0) for energy in energies)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--periods", type=int, default=20)
    parser.add_argument("--ecc", type=float, default=0.01)
    args = parser.parse_args()

    a, b, period = orbit(args.ecc)
    law = gravity(1.0)
    print(f"{'steps/period':>12}  {'rk4':>12}  {'verlet':>12}")
    for steps in (200, 500, 1000, 2000):
        step = period / steps
        drifts = [
            worst_drift(integrate(a, b, law, args.periods * period, step, method))
            for method in ("rk4", "verlet")
        ]
        print(f"{steps:>12}  {drifts[0]:>12.3e}  {drifts[1]:>12.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
