"""Byte-identity gate: replay recorded commands through cli.main and compare
stdout and exit code with the files in tests/golden/.

Each entry of golden/commands.json names a command line and its exit code;
golden/<name>.out holds its exact stdout.  The commands run from inside
golden/, so the probe's relative assignment path prints the same everywhere.
A change that alters a report on purpose records the new stdout in the same
change, so the diff of the .out file shows exactly what moved.
"""

import json
from pathlib import Path

import pytest

from ncdiamond.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(capsys, monkeypatch, case):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    assert capsys.readouterr().out == (GOLDEN / f"{case['name']}.out").read_text()
    assert code == case["exit"]
