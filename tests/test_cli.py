import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from ncdiamond import (
    __version__,
    ambiguity_reducts,
    find_ambiguities,
    load_presentation,
    reduction_trace,
)
from ncdiamond.cli import build_parser, main

TOP_KEYS = ["command", "inputs", "verdict", "details", "seed", "version"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)
    assert list(doc) == TOP_KEYS
    assert doc["version"] == __version__
    return code, doc, err


# -- nf ---------------------------------------------------------------------------


def test_nf_reduces_to_zero(capsys):
    code, out, _ = run(capsys, "nf", "irving", "y*x*y*x")
    assert code == 0 and out.strip() == "0"


def test_nf_prints_normal_form(capsys):
    code, out, _ = run(capsys, "nf", "irving", "y*x*y + x*y*x")
    assert code == 0 and out.strip() == "x*y*x + x"


def test_nf_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "nf", "irving", "x + @")
    assert code == 2 and err.startswith("error:")


def test_deep_or_long_expression_exits_2(capsys, tmp_path):
    # a parse error with a position, not a RecursionError or int()'s message
    for expr in ("(" * 250 + "x" + ")" * 250, "1" * 5000):
        code, out, err = run(capsys, "nf", "irving", expr)
        assert code == 2 and out == "" and err.startswith("error:") and "(at position" in err
    assert run(capsys, "nf", "irving", "--", "-" * 990 + "x") == (0, "x\n", "")
    pres = tmp_path / "deep.pres"
    pres.write_text("field Q\ngens x y\nrel " + "(" * 250 + "y*x" + ")" * 250 + "\n")
    code, out, err = run(capsys, "confluence", str(pres))
    assert code == 2 and out == "" and err.startswith(f"error: {pres}:3: bad relation: parentheses")


def test_expression_starting_with_a_minus_goes_after_double_dash(capsys):
    # argparse reads -x as an option and reports expr missing; the error
    # says where such an expression goes
    hint = "(put '--' before an expression that starts with '-')"
    for argv in (["nf", "irving", "-x"], ["series", "quasi-inverse", "-x"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"error: the following arguments are required: expr {hint}")
    assert run(capsys, "nf", "irving", "--", "-x") == (0, "-x\n", "")
    assert run(capsys, "nf", "irving", "--max-steps", "10", "--", "-2*x") == (0, "-2*x\n", "")


def test_nf_missing_presentation_exits_2(capsys):
    code, _, err = run(capsys, "nf", "does-not-exist", "x")
    assert code == 2 and "error:" in err


def test_a_missing_path_is_not_the_preset_it_ends_in(capsys, tmp_path):
    path = str(tmp_path / "irving.pres")
    code, out, err = run(capsys, "confluence", path)
    assert (code, out, err) == (2, "", f"error: no presentation file at {path!r}\n")


def test_nf_on_non_confluent_rules_flags_the_reduct(capsys):
    code, out, err = run(capsys, "nf", "cohnsasiada", "x")
    assert code == 1 and out == "x\n"
    assert "not confluent" in err and "one reduct" in err
    code, out, err = run(capsys, "nf", "cohnsasiada", "y*x*x*y - x")
    assert (code, out, err) == (0, "0\n", "")


def test_nf_on_collapsed_rules_flags_the_reduct(capsys, tmp_path):
    # irving plus x*y -> 1 presents the zero ring, yet x stays irreducible
    f = tmp_path / "collapsed.pres"
    f.write_text(COLLAPSED)
    code, out, err = run(capsys, "nf", str(f), "x")
    assert code == 1 and out == "x\n" and "not confluent" in err
    code, out, err = run(capsys, "nf", str(f), "x*x + x*y - 1")
    assert (code, out, err) == (0, "0\n", "")


def test_nf_step_budget_exits_1(capsys, tmp_path):
    f = tmp_path / "loop.pres"
    f.write_text("field Q\ngens x y\nrule y*x -> x*y\n")
    code, _, err = run(capsys, "nf", str(f), "y*y*y*y*y*x", "--max-steps", "2")
    assert code == 1 and "error:" in err


def test_confluence_check_keeps_the_step_budget(capsys):
    # x is its own normal form, but the check that makes it canonical
    # normalizes the critical pair at y*x*y*x*y, which takes two steps
    for steps in ("0", "1"):
        code, out, err = run(capsys, "nf", "irving", "x", "--max-steps", steps)
        assert (code, out) == (1, "") and "critical pair at y*x*y*x*y" in err
    assert run(capsys, "nf", "irving", "x", "--max-steps", "2") == (0, "x\n", "")
    code, out, err = run(capsys, "witness", "irving", "--max-steps", "1")
    assert (code, out) == (1, "") and "critical pair at y*x*y*x*y" in err


# -- confluence -------------------------------------------------------------------


def test_confluence_irving(capsys):
    code, doc, _ = run_json(capsys, "confluence", "irving")
    assert code == 0 and doc["verdict"] is True
    d = doc["details"]
    assert d["rules"] == ["x*x -> 0", "y*x*y -> x"]
    assert d["ambiguity_count"] == 2 and d["overall"] is True
    second = d["ambiguities"][1]
    assert second["word"] == "y*x*y*x*y" and second["offset"] == 2
    assert second["trace_a"] == ["x*x*y", "0"]
    assert second["trace_b"] == ["y*x*x", "0"]
    assert second["normal_form_a"] == "0" == second["normal_form_b"]
    assert doc["seed"] is None


def test_confluence_budget_names_the_critical_pair(capsys):
    # the first ambiguity, at x*x*x, reduces both sides to 0 in no step; the
    # first whose trace needs one is the next in find_ambiguities order
    sys_ = load_presentation("irving").system
    needs_a_step = [
        amb for amb in find_ambiguities(sys_)
        if any(len(reduction_trace(red, sys_)) > 1 for red in ambiguity_reducts(sys_, amb))
    ]
    assert sys_.alg.word_str(needs_a_step[0].word) == "y*x*y*x*y"
    code, out, err = run(capsys, "confluence", "irving", "--max-steps", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: critical pair at y*x*y*x*y: the step budget ran out")
    code, out, err = run(capsys, "confluence", "irving", "--pretty", "--max-steps", "1")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "confluence_irving_pretty.out").read_text()


def test_confluence_failure_exits_1(capsys):
    code, doc, _ = run_json(capsys, "confluence", "cohnsasiada")
    assert code == 1 and doc["verdict"] is False
    amb = doc["details"]["ambiguities"][0]
    assert amb["resolvable"] is False
    assert {amb["normal_form_a"], amb["normal_form_b"]} == {"x*x*x*y", "y*x*x*x"}


# -- witness ----------------------------------------------------------------------


def test_witness_verdict_and_details(capsys):
    code, doc, _ = run_json(capsys, "witness", "irving")
    assert code == 0 and doc["verdict"] is True
    d = doc["details"]
    assert d["witness"] == {"x": "x", "y": "y", "z": "x*y*x", "a": "y", "b": "y*x"}
    assert all(d["checks"].values())
    assert d["residual_x"] == "0" and d["nf_z"] == "x*y*x"
    assert "reason" not in d


def test_witness_missing_block_exits_2(capsys):
    code, _, err = run(capsys, "witness", "cohnsasiada")
    assert code == 2 and "witness" in err


# x = x*(x*y) = x*x*y = 0 and 1 = x*y = 0: the quotient is the zero ring,
# although the rules leave x and x*y*x irreducible
COLLAPSED = (
    "field Q\ngens x y\nrel x*x\nrel y*x*y - x\nrule x*y -> 1\n"
    "witness x=x y=y z=x*y*x a=y b=y*x\n"
)


def test_witness_on_non_confluent_rules_is_not_nonzero(capsys, tmp_path):
    f = tmp_path / "collapsed.pres"
    f.write_text(COLLAPSED)
    code, doc, _ = run_json(capsys, "witness", str(f))
    assert code == 1 and doc["verdict"] is False
    d = doc["details"]
    assert d["checks"] == {
        "recovers_x": True, "z_in_ideal": True, "y_kills_z": True, "nonzero": False,
    }
    assert d["nf_x"] == "x" and "not confluent" in d["reason"]
    code, _, err = run(capsys, "probe", str(f), write_assignment(tmp_path, GOOD_ASSIGN))
    assert code == 2 and "does not verify" in err


# -- identity ---------------------------------------------------------------------


def test_identity_on_non_confluent_rules_is_no_counterexample(capsys, tmp_path):
    # irving plus x*y -> 1 presents the zero ring, where every identity holds
    f = tmp_path / "collapsed.pres"
    f.write_text(COLLAPSED)
    code, doc, _ = run_json(capsys, "identity", str(f), "--trials", "20", "--seed", "1")
    assert code == 1 and doc["verdict"] is False
    d = doc["details"]
    assert d["holds"] is False and d["counterexample"] is None
    assert "not confluent" in d["reason"]


def test_identity_holds_with_seed(capsys):
    code, doc, _ = run_json(
        capsys, "identity", "irving", "--trials", "25", "--max-deg", "3", "--seed", "42"
    )
    assert code == 0 and doc["verdict"] is True
    assert doc["seed"] == 42
    assert doc["inputs"] == {"presentation": "irving", "trials": 25, "max_deg": 3}
    assert doc["details"] == {"holds": True, "trials": 25, "counterexample": None}


def test_identity_counterexample_exits_1(capsys, tmp_path):
    f = tmp_path / "free.pres"
    f.write_text("field Q\ngens x y\n")
    code, doc, _ = run_json(
        capsys, "identity", str(f), "--trials", "30", "--max-deg", "2", "--seed", "7"
    )
    assert code == 1 and doc["verdict"] is False
    cex = doc["details"]["counterexample"]
    assert cex is not None and len(cex["substitution"]) == 6 and cex["value"] != "0"


@pytest.mark.parametrize(
    "argv",
    [
        ("identity", "irving", "--trials", "3"),
        ("fuzz-rank", "--n", "3", "--trials", "3"),
        ("series", "sfprobe", "--n", "2", "--trunc", "3", "--trials", "2"),
        ("series", "sext-demo", "--random", "--trunc", "3"),
    ],
    ids=["identity", "fuzz-rank", "sfprobe", "sext-demo"],
)
def test_drawn_seed_is_reported_and_replays(capsys, monkeypatch, argv):
    # a missing seed is drawn from the system RNG as 32 bits, and rerunning
    # with that seed prints the same document, byte for byte
    monkeypatch.delenv("CI_STRICT", raising=False)
    code, out, _ = run(capsys, *argv)
    seed = json.loads(out)["seed"]
    assert type(seed) is int and 0 <= seed < 2**32
    assert run(capsys, *argv, "--seed", str(seed)) == (code, out, "")


def test_ci_strict_requires_seed(capsys, monkeypatch):
    monkeypatch.setenv("CI_STRICT", "1")
    code, _, err = run(capsys, "identity", "irving", "--trials", "5")
    assert code == 2 and "CI_STRICT" in err
    code, doc, _ = run_json(capsys, "identity", "irving", "--trials", "5", "--seed", "3")
    assert code == 0 and doc["seed"] == 3
    code, doc, _ = run_json(capsys, "fuzz-rank", "--n", "3", "--trials", "2", "--seed", "-3")
    assert code == 0 and doc["seed"] == -3
    # non-randomized commands are unaffected
    code, _, _ = run(capsys, "witness", "irving")
    assert code == 0


# -- fuzz-rank --------------------------------------------------------------------


@pytest.mark.parametrize("check", ["claim", "master", "intersection"])
def test_fuzz_rank_all_checks(capsys, check):
    code, doc, _ = run_json(
        capsys, "fuzz-rank", "--n", "4", "--trials", "15", "--seed", "1", "--check", check
    )
    assert code == 0 and doc["verdict"] is True
    assert doc["details"]["violations"] == 0
    assert doc["details"]["min_margin"] >= 0
    assert doc["inputs"]["check"] == check and doc["inputs"]["field"] == "Fp:101"


def test_fuzz_rank_over_q_and_zero_trials(capsys):
    code, doc, _ = run_json(
        capsys, "fuzz-rank", "--field", "Q", "--n", "3", "--trials", "10", "--seed", "2"
    )
    assert code == 0 and doc["inputs"]["field"] == "Q"
    code, out, err = run(capsys, "fuzz-rank", "--trials", "0", "--seed", "2")
    assert code == 2 and out == "" and "--trials: must be at least 1, got 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identity", "irving", "--trials", "-5"], "--trials: must be at least 1, got -5"),
        (["identity", "irving", "--trials", "0"], "--trials: must be at least 1, got 0"),
        (["identity", "irving", "--max-deg", "-1"], "--max-deg: must be at least 1, got -1"),
        (["fuzz-rank", "--n", "0"], "--n: must be at least 1, got 0"),
        (["fuzz-rank", "--n", "-3"], "--n: must be at least 1, got -3"),
        (["fuzz-rank", "--trials", "0"], "--trials: must be at least 1, got 0"),
        (["series", "sfprobe", "--trials", "0"], "--trials: must be at least 1, got 0"),
        (["series", "sfprobe", "--n", "0"], "--n: must be at least 1, got 0"),
        (["series", "sext-demo", "--pairs", "0"], "--pairs: must be at least 1, got 0"),
        (["series", "quasi-inverse", "x", "--trunc", "0"], "--trunc: must be at least 1, got 0"),
        (["nf", "irving", "x", "--max-steps", "-1"], "--max-steps: must be at least 0, got -1"),
        (["confluence", "irving", "--max-steps", "-1"], "--max-steps: must be at least 0, got -1"),
        (["witness", "irving", "--max-steps", "-1"], "--max-steps: must be at least 0, got -1"),
        (["identity", "irving", "--trials", "many"], "--trials: invalid integer value: 'many'"),
        (["identity", "irving", "--max-deg", "0"], "--max-deg: must be at least 1, got 0"),
        # int() reads each of these; a count is ASCII digits 0-9, after an optional '-'
        (["fuzz-rank", "--n", "\u0663"], "--n: invalid integer value: '\u0663'"),
        (["fuzz-rank", "--trials", "1_0"], "--trials: invalid integer value: '1_0'"),
        (["nf", "irving", "x", "--max-steps", " +5"], "--max-steps: invalid integer value: ' +5'"),
        (["fuzz-rank", "--seed", "\u0667"], "--seed: invalid integer value: '\u0667'"),
    ],
)
def test_out_of_range_counts_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


def test_fuzz_rank_bad_field_exits_2(capsys):
    code, _, err = run(capsys, "fuzz-rank", "--field", "Fp:6", "--trials", "1", "--seed", "1")
    assert code == 2 and "error:" in err


def test_one_parser_serves_every_call(capsys):
    # main reuses one parser; after runs, a usage error and --version it
    # must answer as a freshly built parser does
    calls = [
        ["nf", "irving", "y*x*y + x*y*x"],
        ["identity", "irving", "--trials", "0"],
        ["confluence", "irving"],
        ["--version"],
        ["series", "quasi-inverse", "x + y*x", "--trunc", "3"],
        ["nf", "irving", "x", "--max-steps", "-1"],
        ["nf", "irving", "x"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    reused = [run(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, 0, 2, 0]
    assert build_parser() is build_parser()


# -- probe ------------------------------------------------------------------------


def write_assignment(tmp_path, payload) -> str:
    f = tmp_path / "assign.json"
    f.write_text(json.dumps(payload))
    return str(f)


GOOD_ASSIGN = {"field": "Q", "n": 2, "assign": {"x": [0, 1, 0, 0], "y": [0, 0, 1, 0]}}


def test_probe_frozen_report(capsys, tmp_path):
    path = write_assignment(tmp_path, GOOD_ASSIGN)
    code, doc, _ = run_json(capsys, "probe", "irving", path)
    assert code == 0 and doc["verdict"] is True
    d = doc["details"]
    assert (d["rank_x"], d["rank_z"], d["rank_yz"], d["rank_t"], d["rank_s"]) == (1, 1, 1, 2, 0)
    assert d["margin"] == 2 and d["regime_feasible"] is False
    assert d["alpha_rank_cap"] == "1/2" and d["alpha_defect_floor"] == "4"
    assert d["norm_t"] == "1" and d["field"] == "Q" and d["n"] == 2


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2, 3],                                                    # not an object
        {"n": 2, "assign": {}},                                       # field missing
        {"field": "Q", "assign": {}},                                 # n missing
        {"field": "Q", "n": 2},                                       # assign missing
        {"field": "Q", "n": 0, "assign": {}},                         # bad n
        {"field": "Q", "n": True, "assign": {}},                      # bool n
        {"field": 5, "n": 2, "assign": {}},                           # field not a string
        {"field": "Q", "n": 2, "assign": []},                         # assign not a dict
        {"field": "Q", "n": 2, "assign": {"q": [0, 0, 0, 0]}},        # unknown generator
        {"field": "Q", "n": 2, "assign": {"x": [0, 1, 0]}},           # wrong length
        {"field": "Q", "n": 2, "assign": {"x": [0, 1, 0, "a"]}},      # non-integer entry
        {"field": "Q", "n": 2, "assign": {"x": [0, 1, 0, True]}},     # bool entry
        {"field": "Zp", "n": 2, "assign": {}},                        # unparseable field
    ],
)
def test_probe_malformed_assignment_exits_2(capsys, tmp_path, payload):
    path = write_assignment(tmp_path, payload)
    code, _, err = run(capsys, "probe", "irving", path)
    assert code == 2 and "error:" in err


def test_probe_field_mismatch_exits_2(capsys, tmp_path):
    payload = dict(GOOD_ASSIGN, field="Fp:101")
    path = write_assignment(tmp_path, payload)
    code, _, err = run(capsys, "probe", "irving", path)
    assert code == 2 and "does not match" in err


def test_probe_invalid_json_and_missing_file(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code, _, err = run(capsys, "probe", "irving", str(f))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "probe", "irving", str(tmp_path / "nope.json"))
    assert code == 2 and "error:" in err


def test_probe_without_witness_exits_2(capsys, tmp_path):
    path = write_assignment(tmp_path, GOOD_ASSIGN)
    code, _, err = run(capsys, "probe", "cohnsasiada", path)
    assert code == 2 and "witness" in err


# -- series subcommands ---------------------------------------------------------------


def test_series_quasi_inverse_golden(capsys):
    code, doc, _ = run_json(capsys, "series", "quasi-inverse", "x", "--trunc", "3")
    assert code == 0 and doc["verdict"] is True
    d = doc["details"]
    assert d["f"] == "x" and d["g"] == "-x*x*x - x*x - x"
    assert d["gf_equals_f_plus_g"] and d["fg_equals_f_plus_g"] and d["circle_both_ways_zero"]
    assert doc["inputs"] == {"expr": "x", "gens": ["x", "y"], "field": "Q", "trunc": 3}


def test_series_quasi_inverse_other_ring(capsys):
    code, doc, _ = run_json(
        capsys,
        "series", "quasi-inverse", "a*b + b", "--gens", "a,b", "--field", "Fp:7", "--trunc", "4",
    )
    assert code == 0 and doc["inputs"]["gens"] == ["a", "b"]


def test_series_quasi_inverse_rejects_constant_term(capsys):
    code, _, err = run(capsys, "series", "quasi-inverse", "1 + x", "--trunc", "3")
    assert code == 2 and "constant term" in err


def test_series_sfprobe(capsys):
    code, doc, _ = run_json(
        capsys,
        "series", "sfprobe", "--n", "2", "--trunc", "3", "--trials", "4", "--seed", "9",
    )
    assert code == 0 and doc["verdict"] is True
    assert doc["details"] == {
        "n": 2, "trunc": 3, "trials": 4, "all_confirmed": True, "failures": [],
    }


def test_series_sext_demo_builtin(capsys):
    code, doc, _ = run_json(capsys, "series", "sext-demo", "--trunc", "6")
    assert code == 0 and doc["verdict"] is True
    d = doc["details"]
    assert d["coeffs"] == ["1", "2"] and d["f"] == "2*x*y + 3*y"
    assert len(d["steps"]) == 4 and all(s["verified"] for s in d["steps"])
    assert d["steps"][3]["lhs"] == "x*z" and d["steps"][3]["rhs"] == "0"
    assert doc["inputs"]["random"] is False and doc["seed"] is None


def test_series_sext_demo_random(capsys):
    code, doc, _ = run_json(
        capsys,
        "series", "sext-demo", "--random", "--pairs", "3", "--trunc", "4", "--seed", "11",
    )
    assert code == 0 and doc["verdict"] is True
    assert doc["inputs"]["random"] is True and doc["seed"] == 11
    assert doc["details"]["pairs"] == 3 and len(doc["details"]["u"]) == 3
    # a provided seed implies a random draw even without the flag
    code2, doc2, _ = run_json(
        capsys, "series", "sext-demo", "--pairs", "3", "--trunc", "4", "--seed", "11"
    )
    assert doc2["details"] == doc["details"]


def test_series_sext_demo_needs_two_generators(capsys):
    code, _, err = run(capsys, "series", "sext-demo", "--gens", "x")
    assert code == 2 and "two generators" in err


# -- replayability and plumbing ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("identity", "irving", "--trials", "10", "--max-deg", "3", "--seed", "5"),
        ("fuzz-rank", "--n", "4", "--trials", "10", "--seed", "5"),
        ("series", "sfprobe", "--n", "2", "--trunc", "3", "--trials", "3", "--seed", "5"),
        ("series", "sext-demo", "--random", "--trunc", "4", "--seed", "5"),
    ],
)
def test_seeded_runs_are_byte_identical(capsys, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_pretty_flag(capsys):
    code, out, _ = run(capsys, "confluence", "irving", "--pretty")
    assert code == 0
    assert out.startswith('{\n  "command"')
    assert json.loads(out)["verdict"] is True


def test_version_and_usage_errors(capsys):
    assert main(["--version"]) == 0
    assert "ncdiamond" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["nonsense"]) == 2
    assert main(["series"]) == 2
    capsys.readouterr()


def test_console_entry_points():
    proc = subprocess.run(
        [sys.executable, "-m", "ncdiamond", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and proc.stdout.strip() == f"ncdiamond {__version__}"
    # The console script as pyproject.toml declares it, run the way an
    # installer's wrapper runs it; works from the source tree, uninstalled.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    # every report prints __version__, so it is the version the package declares
    assert project["version"] == __version__
    scripts = project["scripts"]
    assert "ncdiamond" in scripts
    ep = EntryPoint(name="ncdiamond", value=scripts["ncdiamond"], group="console_scripts")
    assert callable(ep.load())
    wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and "confluence" in proc.stdout


def test_cli_quiet_when_reader_closes_early():
    # like `confluence irving --pretty | head -1`, with the reader gone
    # before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncdiamond", "confluence", "irving", "--pretty"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""


@pytest.mark.skipif(
    shutil.which("ncdiamond") is None,
    reason="no `ncdiamond` console script on PATH (needs `pip install -e .`)",
)
def test_installed_console_script():
    proc = subprocess.run(["ncdiamond", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0 and "confluence" in proc.stdout
