"""``ncdiamond.__all__`` names exactly what the package exports, and the
exported value types' operators refuse an operand of another type."""

import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncdiamond
from ncdiamond import ExactMatrix, Field, FreeAlgebra, SeriesMatrix, SExtElement, TruncSeries

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


ALG = FreeAlgebra(Field.rationals(), ("x", "y"))
# each exported value type with the binary operators it defines; NcPoly * int
# is scalar multiplication, so it is not among them
OPERANDS = {
    "NcPoly": (ALG.parse("x"), ("add", "sub")),
    "TruncSeries": (TruncSeries(ALG.parse("x"), 3), ("add", "sub", "mul")),
    "SExtElement": (SExtElement.z_element(ALG, 3), ("add", "sub", "mul")),
    "SeriesMatrix": (SeriesMatrix.identity(ALG, 2, 3), ("add", "sub", "matmul")),
    "ExactMatrix": (ExactMatrix(Field.rationals(), [[1]]), ("add", "sub", "matmul")),
}


@pytest.mark.parametrize(
    "kind, op",
    [(kind, op) for kind, (_, ops) in OPERANDS.items() for op in ops]
    + [("ExactMatrix", "hstack")],
)
def test_an_int_operand_raises_type_error(kind, op):
    # the operators return NotImplemented, so Python raises TypeError on
    # either side; hstack raises it itself
    value = OPERANDS[kind][0]
    if op == "hstack":
        with pytest.raises(TypeError, match="hstack needs a matrix, got int"):
            value.hstack(3)
        return
    with pytest.raises(TypeError):
        getattr(operator, op)(value, 3)
    with pytest.raises(TypeError):
        getattr(operator, op)(3, value)
