"""``ncdiamond.__all__`` names exactly what the package exports."""

import os
import subprocess
import sys
from pathlib import Path

import ncdiamond

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves_once():
    missing = [name for name in ncdiamond.__all__ if not hasattr(ncdiamond, name)]
    assert not missing
    assert len(set(ncdiamond.__all__)) == len(ncdiamond.__all__)


def test_star_import_succeeds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # a name left in __all__ after its definition is gone fails the import
    code = "from ncdiamond import *"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
