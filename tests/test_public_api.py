"""``ncdiamond.__all__`` names exactly what the package exports, the
exported value types' operators refuse an operand of another type, and the
public functions refuse a count that is a bool, not an int or out of range."""

import operator
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import ncdiamond
from ncdiamond import (
    ExactMatrix,
    Field,
    FreeAlgebra,
    RewriteRule,
    SeriesMatrix,
    SExtElement,
    TruncSeries,
    complete,
    fuzz_bound_checks,
    load_presentation,
    parse_presentation,
    random_assignment,
    random_matrix,
    random_poly,
    random_radical_matrix,
    random_s_ext,
    random_series,
    verify_identity_comm3,
)

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TruncSeries(3, 2), "a series body must be an NcPoly, got int"),
        (lambda: SExtElement(3, 4), "extension parts must be TruncSeries, got int"),
        (lambda: SeriesMatrix(((1,),)), "a matrix entry must be a TruncSeries, got int"),
        (lambda: RewriteRule("\x00", 3), "rule right side must be an NcPoly, got int"),
    ],
    ids=["TruncSeries", "SExtElement", "SeriesMatrix", "RewriteRule"],
)
def test_a_part_of_the_wrong_type_raises_type_error(call, message):
    # the constructors check their parts' types before using them, so the
    # error names the expected type, not a missing attribute of an int
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message


F101 = Field.prime(101)
BRAID = parse_presentation("field Q\ngens x y\nrel y*x*y - x*y*x\n").system


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_identity_comm3(load_presentation("irving").system, True, True, 1),
         "trials must be at least 1, got True"),
        (lambda: verify_identity_comm3(load_presentation("irving").system, 2, 1.5, 1),
         "max_deg must be at least 1, got 1.5"),
        (lambda: complete(BRAID, -1),
         "max_new_rules must be a nonnegative integer, got -1"),
        (lambda: complete(BRAID, True),
         "max_new_rules must be a nonnegative integer, got True"),
        (lambda: fuzz_bound_checks(F101, True, 2, 1), "n must be at least 1, got True"),
        (lambda: fuzz_bound_checks(F101, 2.5, 1, 1), "n must be at least 1, got 2.5"),
        (lambda: fuzz_bound_checks(F101, 2, 0, 1), "trials must be at least 1, got 0"),
        (lambda: random_matrix(F101, -1), "n must be a nonnegative integer, got -1"),
        (lambda: random_matrix(F101, 3, True), "target_rank must be a nonnegative integer, got True"),
        (lambda: random_matrix(F101, 3, -1), "target rank -1 out of range for size 3"),
        (lambda: random_matrix(F101, 3, 4), "target rank 4 out of range for size 3"),
        (lambda: random_assignment(("x",), F101, -1, None), "n must be at least 1, got -1"),
        (lambda: random_assignment(("x",), F101, 0, None), "n must be at least 1, got 0"),
        (lambda: random_assignment(("x",), F101, True, None), "n must be at least 1, got True"),
        (lambda: ALG.parse("x") ** True, "exponent must be a nonnegative integer, got True"),
        (lambda: ALG.parse("x") ** -1, "exponent must be a nonnegative integer, got -1"),
        (lambda: TruncSeries(ALG.parse("x"), 3) ** True,
         "exponent must be a nonnegative integer, got True"),
        (lambda: TruncSeries(ALG.parse("x"), 3) ** 1.5,
         "exponent must be a nonnegative integer, got 1.5"),
        (lambda: random_poly(BRAID, 2, Random(1), max_terms=0),
         "max_terms must be at least 1, got 0"),
        (lambda: random_series(ALG, 3, Random(1), max_terms=0),
         "max_terms must be at least 1, got 0"),
        (lambda: random_series(ALG, 3, Random(1), 2, min_degree=5),
         "min_degree must be at most cap 3, got 5"),
        (lambda: random_series(ALG, 3, Random(1), min_degree=-1),
         "min_degree must be a nonnegative integer, got -1"),
        (lambda: random_s_ext(ALG, 0, Random(1)), "cap must be at least 1, got 0"),
        (lambda: random_radical_matrix(ALG, True, 3, Random(1)), "n must be at least 1, got True"),
    ],
    ids=[
        "identity-trials-bool", "identity-max-deg-float", "complete-negative", "complete-bool",
        "fuzz-n-bool", "fuzz-n-float", "fuzz-trials-zero", "matrix-n-negative",
        "matrix-rank-bool", "matrix-rank-negative", "matrix-rank-above-n",
        "assignment-n-negative", "assignment-n-zero", "assignment-n-bool",
        "poly-pow-bool", "poly-pow-negative", "series-pow-bool", "series-pow-float",
        "random-poly-max-terms-zero", "random-series-max-terms-zero",
        "random-series-min-degree-above-cap", "random-series-min-degree-negative",
        "random-s-ext-cap-zero", "random-radical-matrix-n-bool",
    ],
)
def test_public_counts_are_checked(call, message):
    # one helper, fields._check_count, checks them all; the range messages
    # of earlier releases stay as they were
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
