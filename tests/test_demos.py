"""Smoke test for the demo scripts: each runs to completion as its own
process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import poisonscan

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    ["detect_poisoning", "attack_economics", "cluster_attack_groups", "full_pipeline", "mining_cost"],
)
def test_demo_runs(name):
    package_root = str(Path(poisonscan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
