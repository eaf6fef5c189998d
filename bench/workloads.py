"""Seeded scenario workloads, their expected outcomes and reference checks.

Each workload is a set of scenario documents generated from a seed, the
exit code and audit verdicts the program must produce for them, and an
outside reference check that reads the written CSVs and compares them
with a closed-form solution. The generators use only the standard
library, so the inputs do not depend on the code under test.

    orbit-rk4       gravity orbit, rk4, the work of the bundled kepler run
    spring-verlet   3-D spring pair, velocity Verlet, 18k samples
    addition-group  lorentz and rational bounded addition, no integrator
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = [
    "WORKLOADS",
    "Workload",
    "Outcome",
    "generate",
    "write_docs",
    "check_iteration",
    "digest_outputs",
]

OUTPUT_FILES = ("report.json", "trajectory.csv", "drift.csv")

# Per-workload sizes. orbit-rk4 matches the bundled kepler run step for step.
ORBIT_STEPS_PER_PERIOD = 1000
ORBIT_PERIODS = 10
ORBIT_BOOST_PERIODS = 2
SPRING_STEP = 0.002
SPRING_T_END = 36.0
ADDITION_SAMPLES = 1200
ADDITION_FRAME_TRIPLES = 800

KEPLER_AUDITS = [
    "frame-group",
    "objectivity-sweep",
    "event-order",
    "inertia",
    "exchange",
    "momentum",
    "angular-momentum",
    "energy",
    "boost-covariance",
    "superposition",
    "additivity",
]
SPRING_AUDITS = ["momentum", "momentum-rate", "angular-momentum", "energy", "superposition", "exchange"]
ADDITION_AUDITS = ["frame-group", "oplus-group", "proper-time", "light-quotient"]

# Reference-check tolerances, relative to the orbit or oscillation size.
ORBIT_CLOSURE_TOL = 1e-7
HARMONIC_TOL = 1e-4


@dataclass(frozen=True)
class Workload:
    """Generated documents (label -> scenario JSON) and what they must give."""

    name: str
    seed: int
    docs: dict[str, dict]
    expected_exit: int
    expected_verdicts: dict[str, dict[str, str]]
    reference: Callable[[dict[str, Path]], str | None] | None


@dataclass
class Outcome:
    """What one iteration produced: exit codes and output digests per label,
    or the exception that escaped."""

    exit_codes: dict[str, int]
    digests: dict[str, str]
    error: str | None = None


def _unit(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            return (v[0] / n, v[1] / n, v[2] / n)


def _rotation(rng: random.Random) -> tuple[tuple[float, ...], ...]:
    """Uniform random rotation from a unit quaternion."""
    while True:
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(c * c for c in q))
        if n > 1e-3:
            break
    w, x, y, z = (c / n for c in q)
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def _scale(v, s):
    return [c * s for c in v]


def _pair_bodies(ma: float, mb: float, x_rel, v_rel) -> list[dict]:
    """Bodies with the given relative state and the centre of mass at rest."""
    fa, fb = mb / (ma + mb), -ma / (ma + mb)
    return [
        {"id": "A", "mass": ma, "position": _scale(x_rel, fa), "velocity": _scale(v_rel, fa)},
        {"id": "B", "mass": mb, "position": _scale(x_rel, fb), "velocity": _scale(v_rel, fb)},
    ]


def _relative_rows(path: Path):
    """(t, relative position) per trajectory.csv row."""
    with path.open(newline="") as stream:
        reader = csv.reader(stream)
        next(reader)
        for row in reader:
            t = float(row[0])
            yield t, (
                float(row[1]) - float(row[7]),
                float(row[2]) - float(row[8]),
                float(row[3]) - float(row[9]),
            )


def _dist(p, q) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _orbit(seed: int) -> Workload:
    rng = random.Random(f"orbit-rk4:{seed}")
    ma, mb = 1.0, rng.uniform(0.5, 3.0)
    semi_major = rng.uniform(0.8, 1.2)
    ecc = rng.uniform(0.0, 0.1)
    gm = ma + mb
    r_peri = semi_major * (1.0 - ecc)
    v_peri = math.sqrt(gm * (1.0 + ecc) / r_peri)
    period = 2.0 * math.pi * math.sqrt(semi_major**3 / gm)
    rot = _rotation(rng)
    x_rel = [r_peri * rot[i][0] for i in range(3)]
    v_rel = [v_peri * rot[i][1] for i in range(3)]
    step = period / ORBIT_STEPS_PER_PERIOD
    doc = {
        "schema": "v1",
        "name": f"orbit-rk4-{seed}",
        "bodies": _pair_bodies(ma, mb, x_rel, v_rel),
        "laws": [{"preset": "gravity", "params": {"g": 1.0}}],
        "integrator": {"method": "rk4", "step": step, "t_end": ORBIT_PERIODS * period},
        "frames": {"count": 50, "translation": 5.0, "boost": 2.0, "time_offset": 1.0},
        "audits": KEPLER_AUDITS,
        "audit_params": {
            "boost-covariance": {"count": 10, "t_end": ORBIT_BOOST_PERIODS * period},
            "inertia": {"steps": ORBIT_PERIODS * ORBIT_STEPS_PER_PERIOD},
        },
    }

    def period_closure(outs: dict[str, Path]) -> str | None:
        """After each whole period the relative position is back at its start."""
        worst = 0.0
        for i, (_, r) in enumerate(_relative_rows(outs["orbit"] / "trajectory.csv")):
            if i % ORBIT_STEPS_PER_PERIOD == 0:
                worst = max(worst, _dist(r, x_rel) / r_peri)
        if worst > ORBIT_CLOSURE_TOL:
            return f"period closure {worst:.3e} > {ORBIT_CLOSURE_TOL:g}"
        return None

    return Workload(
        "orbit-rk4",
        seed,
        {"orbit": doc},
        0,
        {"orbit": {a: "PASS" for a in KEPLER_AUDITS}},
        period_closure,
    )


def _spring(seed: int) -> Workload:
    rng = random.Random(f"spring-verlet:{seed}")
    ma, mb = 1.0, rng.uniform(1.0, 4.0)
    mu = ma * mb / (ma + mb)
    omega = rng.uniform(0.9, 1.3)
    kappa = omega * omega * mu
    x0 = _scale(_unit(rng), rng.uniform(1.0, 2.0))
    v0 = _scale(_unit(rng), omega * rng.uniform(0.3, 1.0))
    doc = {
        "schema": "v1",
        "name": f"spring-verlet-{seed}",
        "bodies": _pair_bodies(ma, mb, x0, v0),
        "laws": [{"preset": "spring", "params": {"kappa": kappa}}],
        "integrator": {"method": "verlet", "step": SPRING_STEP, "t_end": SPRING_T_END},
        "audits": SPRING_AUDITS,
        "tolerances": {"energy": 1e-05},
    }
    size = max(math.sqrt(sum(c * c for c in x0)), math.sqrt(sum(c * c for c in v0)) / omega)

    def harmonic(outs: dict[str, Path]) -> str | None:
        """Relative motion is x0 cos(wt) + (v0/w) sin(wt) with w = sqrt(kappa/mu)."""
        worst = 0.0
        for t, r in _relative_rows(outs["spring"] / "trajectory.csv"):
            c, s = math.cos(omega * t), math.sin(omega * t) / omega
            exact = [x0[i] * c + v0[i] * s for i in range(3)]
            worst = max(worst, _dist(r, exact) / size)
        if worst > HARMONIC_TOL:
            return f"harmonic solution mismatch {worst:.3e} > {HARMONIC_TOL:g}"
        return None

    return Workload(
        "spring-verlet",
        seed,
        {"spring": doc},
        0,
        {"spring": {a: "PASS" for a in SPRING_AUDITS}},
        harmonic,
    )


def _addition(seed: int) -> Workload:
    rng = random.Random(f"addition-group:{seed}")
    docs = {}
    for profile in ("lorentz", "rational"):
        docs[profile] = {
            "schema": "v1",
            "name": f"addition-{profile}-{seed}",
            "bodies": _pair_bodies(1.0, 1.0, [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            "laws": [],
            "velocity_addition": {
                "g": profile,
                "c": 1.0,
                "samples": ADDITION_SAMPLES,
                "max_speed": rng.uniform(0.95, 0.97),
                "baseline": rng.uniform(0.5, 2.0),
            },
            "audits": ADDITION_AUDITS,
            "audit_params": {"frame-group": {"count": ADDITION_FRAME_TRIPLES}},
        }
    return Workload(
        "addition-group",
        seed,
        docs,
        0,
        {label: {a: "PASS" for a in ADDITION_AUDITS} for label in docs},
        None,
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "orbit-rk4": _orbit,
    "spring-verlet": _spring,
    "addition-group": _addition,
}


def generate(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def write_docs(workload: Workload, directory: Path) -> dict[str, Path]:
    """Write each document as <label>.json; returns label -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, doc in workload.docs.items():
        path = directory / f"{label}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths[label] = path
    return paths


def digest_outputs(outs: dict[str, Path]) -> dict[str, str]:
    """SHA-256 of every output file written, keyed label/filename."""
    digests = {}
    for label, out in outs.items():
        for name in OUTPUT_FILES:
            path = out / name
            if path.exists():
                digests[f"{label}/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def check_iteration(
    workload: Workload,
    outcome: Outcome,
    outs: dict[str, Path],
    first_digests: dict[str, str] | None,
) -> list[str]:
    """Reasons this iteration failed; empty when it is correct.

    The reference check runs on the first iteration; later iterations must
    reproduce its outputs byte for byte, which carries the check over.
    """
    if outcome.error is not None:
        return [f"exception: {outcome.error}"]
    reasons = []
    for label, code in outcome.exit_codes.items():
        if code != workload.expected_exit:
            reasons.append(f"{label}: exit {code}, expected {workload.expected_exit}")
        report = json.loads((outs[label] / "report.json").read_text())
        verdicts = {entry["audit"]: entry["verdict"] for entry in report["audits"]}
        if verdicts != workload.expected_verdicts[label]:
            reasons.append(f"{label}: verdicts {verdicts}, expected {workload.expected_verdicts[label]}")
    if first_digests is None:
        if workload.reference is not None:
            try:
                message = workload.reference(outs)
            except (OSError, ValueError, IndexError) as exc:
                message = f"reference check cannot read the outputs: {exc}"
            if message is not None:
                reasons.append(message)
    elif outcome.digests != first_digests:
        changed = sorted(
            k for k in set(first_digests) | set(outcome.digests)
            if first_digests.get(k) != outcome.digests.get(k)
        )
        reasons.append(f"outputs differ from the first iteration: {', '.join(changed)}")
    return reasons
