"""Smoke tests: each script in scripts/ runs to completion and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("collapse_walkthrough.py", [], "== collapse replay over Q, cap 6, 2 pair(s) =="),
        ("irving_tour.py", [], "== presentation irving.pres over Q =="),
        (
            "rank_margin_sweep.py",
            ["--sizes", "3", "--trials", "3"],
            "== margin sweep over Fp:101, 3 trials per size, seed 0 ==",
        ),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
