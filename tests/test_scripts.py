"""Each script in scripts/ runs to completion, and its whole stdout matches
tests/golden/script_<name>_<args>.out byte for byte."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from ncdiamond import parse_presentation

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def source_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


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
        (
            "collapse_walkthrough.py",
            ["--random", "--pairs", "3", "--seed", "5"],
            "== collapse replay over Q, cap 6, 3 pair(s) ==",
        ),
        (
            "irving_tour.py",
            ["--presentation", "cohnsasiada"],
            "== presentation cohnsasiada.pres over Q ==",
        ),
    ],
)
def test_script_runs(script, args, header):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
    name = "_".join([Path(script).stem, *(a.lstrip("-") for a in args)])
    assert proc.stdout == (GOLDEN / f"script_{name}.out").read_text()


def test_margin_sweep_runs_the_bundled_irving_preset_over_fp():
    # the F_p sweep swaps only the preset's 'field Q' line, so an edit to its
    # relations or witness reaches every field; a text without it is refused
    sweep = runpy.run_path(str(ROOT / "scripts" / "rank_margin_sweep.py"))
    text = (ROOT / "src" / "ncdiamond" / "presets" / "irving.pres").read_text()
    moved = sweep["over_fp"](text, 7)
    assert moved.splitlines() == [
        "field Fp 7" if line == "field Q" else line for line in text.splitlines()
    ]
    pres = parse_presentation(moved)
    assert str(pres.alg.field) == "Fp:7" and pres.witness is not None
    with pytest.raises(ValueError, match="no 'field Q' line"):
        sweep["over_fp"](moved, 7)


def test_script_quiet_when_reader_closes_early():
    # like `irving_tour.py | head -1`: the reader takes one line and leaves;
    # -u writes each line through, so later lines meet the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-u", str(ROOT / "scripts" / "irving_tour.py")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=source_env(),
    )
    assert proc.stdout.readline() == "== presentation irving.pres over Q ==\n"
    proc.stdout.close()
    assert proc.stderr.read() == ""
    proc.wait()


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("rank_margin_sweep.py", ["--trials", "0"], "argument --trials: must be at least 1, got 0"),
        ("rank_margin_sweep.py", ["--sizes", "0"], "argument --sizes: must be at least 1, got 0"),
        ("rank_margin_sweep.py", ["--sizes", "4,-2"], "argument --sizes: must be at least 1, got -2"),
        ("rank_margin_sweep.py", ["--sizes", ","], "argument --sizes: name at least one matrix size"),
        ("collapse_walkthrough.py", ["--trunc", "0"], "argument --trunc: must be at least 1, got 0"),
        (
            "collapse_walkthrough.py",
            ["--random", "--pairs", "0"],
            "argument --pairs: must be at least 1, got 0",
        ),
        ("irving_tour.py", ["--trials", "0"], "argument --trials: must be at least 1, got 0"),
        (
            "rank_margin_sweep.py",
            ["--field", "Zp"],
            "argument --field: bad field spec 'Zp' (expected 'Q' or 'Fp:<prime>')",
        ),
        ("collapse_walkthrough.py", ["--field", "Fp:8"], "argument --field: modulus 8 is not prime"),
        (
            "irving_tour.py",
            ["--presentation", "nope"],
            "argument --presentation: no presentation file at 'nope' and no bundled preset 'nope.pres'",
        ),
        ("irving_tour.py", ["--max-deg", "0"], "argument --max-deg: must be at least 1, got 0"),
        ("irving_tour.py", ["--seed", "\u0667"], "argument --seed: invalid integer value: '\u0667'"),
        ("rank_margin_sweep.py", ["--seed", "1_0"], "argument --seed: invalid integer value: '1_0'"),
        ("collapse_walkthrough.py", ["--seed", " 5"], "argument --seed: invalid integer value: ' 5'"),
    ],
)
def test_script_rejects_out_of_range_counts(script, args, message):
    # as the CLI does: argparse's usage error, exit 2, nothing on stdout;
    # a field or presentation that does not load is such an error too
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=source_env(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == f"{script}: error: {message}"

