"""Byte-identical outputs of the bundled scenarios.

The digests were recorded with Python 3.11, seed 42. The CI matrix holds
every supported Python version to them, so a refactor or an interpreter
change that moves a single byte of ``report.json``, ``trajectory.csv`` or
``drift.csv`` fails here.
"""

import hashlib

import pytest

from invarlab.cli import resolve_scenario_path, run_scenario
from invarlab.scenario import load_scenario

GOLDEN = {
    "addition.json": (0, {
        "report.json": "01efd94a471b1b20dd1edfe38482bad734561eedede25394eeceb2c4d31c14ca",
    }),
    "kepler.json": (0, {
        "report.json": "2ed8b95bab2706d25d4de4c0cc258b5b0556f89a519dbee56ee96c53f30c9969",
        "trajectory.csv": "a8643d0d4e5f0982e723a3b97db5bd18507b6cf191d0ddb97f0c61ecb6a64eb4",
        "drift.csv": "13f25d54426247e7cbf800d2c4737e491f083137ea729deaa4d6b6c0d0ea735b",
    }),
    "perp-demo.json": (2, {
        "report.json": "7bd2438f0243069f383a1098e3be6a4199be8194de72f5d84d699fd920c41c88",
        "trajectory.csv": "994278c5e7200d9ed7fd81903bf75ec5dbab37124dcaaf206519117dd023bcac",
        "drift.csv": "4ed771985d5003268e0d9af6051d0405dc293b9768f65c12441ce90dca2409ca",
    }),
    "spring.json": (0, {
        "report.json": "77b28c252e9763b40ef1708f102dd7042cf200771f2151a600372da461ffdef1",
        "trajectory.csv": "99fff0979de45ac6ee725cd712c078c310dc3f929ec1d89eaacd79a2466ce0d7",
        "drift.csv": "d1423c6c352433e1a610e5a46a16691552a74f0337ec3f84b23ef0ca3b92131f",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_outputs_match_the_recorded_digests(tmp_path, capsys, name):
    code, digests = GOLDEN[name]
    out = tmp_path / "out"
    assert run_scenario(load_scenario(resolve_scenario_path(name)), out, seed=42) == code
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
    }
    assert written == digests
