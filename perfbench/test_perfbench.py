"""Tests of the benchmark itself: run with ``python3 -m pytest -q perfbench``.

A smoke run of every workload at tiny size, traced and untraced; proof
that every check rejects a corrupted output and that a run then counts
the operation as failed; sanity of the reference models; and the exit
code where the program's sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Each workload's tiny operations and the outputs of one round."""
    workdir = tmp_path_factory.mktemp("work")
    out = {}
    for name in W.WORKLOADS:
        nc = run.load_program()
        ops = W.build(name, nc, 7, True, workdir)
        outs, _, _ = run.run_round(ops)
        out[name] = (nc, ops, outs)
    return out


def pick(tiny, workload, kind):
    nc, ops, outs = tiny[workload]
    i = next(i for i, op in enumerate(ops) if op.kind == kind)
    return nc, ops[i], outs[i]


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_run(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--tiny"]) == 0
    res = last_json(capsys.readouterr().out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_trace(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--tiny", "--trace", "1"]) == 0
    res = last_json(capsys.readouterr().out)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == set(run.PER_LAYER) | {"trace.overhead_pct"}
    assert res["correct"] is True and res["failed"] == 0
    if workload == "rank":
        assert all(m[k] == 0 for k in m if k.startswith(("rewrite.", "seriesring.")))
        assert m["ranklab.rank_calls"] > 0 and m["ranklab.rank_fp_s"] > 0 and m["ranklab.rank_q_s"] > 0
    if workload in ("normal-forms", "series"):
        assert m["rewrite.complete_s"] == 0
        assert all(m[k] == 0 for k in m if k.startswith("ranklab."))
    if workload == "normal-forms":
        assert m["rewrite.normal_form_calls"] > 0 and m["rewrite.reduce_once_calls"] == 0
    if workload == "completion":
        assert m["rewrite.normal_form_calls"] == 0
        assert m["rewrite.check_confluence_calls"] > 0 and m["rewrite.ambiguities"] > 0
        assert m["cli.main_s"] > 0 and m["presentations.parse_s"] > 0
    if workload == "series":
        assert m["seriesring.neumann_inverse_s"] > 0 and m["ncpoly.mul_calls"] > 0


def test_every_output_passes(tiny):
    for name, (_, ops, outs) in tiny.items():
        assert run.check_round(ops, outs) == [None] * len(ops), name


# -- corrupted outputs are rejected ------------------------------------------------


def bump(poly, word=None, by=1):
    """The polynomial with one coefficient changed."""
    d = dict(poly.terms)
    w = next(iter(d)) if word is None else word
    d[w] = d.get(w, 0) + by
    return type(poly)(poly.alg, d)


def drop(poly):
    """The polynomial without its last term."""
    return type(poly)(poly.alg, dict(poly.terms[:-1]))


@pytest.mark.parametrize("kind", ["weyl-word", "weyl-random", "sl2-random", "irving-random", "irving-comm3"])
def test_normal_form_checks_reject_a_wrong_coefficient(tiny, kind):
    _, op, out = pick(tiny, "normal-forms", kind)
    assert op.check(out) is None
    bad = bump(out, "" if out.is_zero() else None, Fraction(1, 3))
    assert op.check(bad) is not None


def test_normal_form_check_rejects_a_reducible_word(tiny):
    _, op, out = pick(tiny, "normal-forms", "weyl-random")
    assert op.check(bump(out, "\x01\x00")) is not None


def test_braid_check_rejects_a_rule_that_fails_in_b3(tiny):
    nc, op, out = pick(tiny, "completion", "complete")
    assert op.check(out) is None
    rule = nc.rewrite.RewriteRule("\x00" * 7, out.system.alg.monomial("\x00" * 6))
    bad = dataclasses.replace(out, system=out.system.with_rule(rule))
    assert "does not hold" in op.check(bad)


def test_group_check_rejects_a_wrong_rule_and_a_missing_rule(tiny):
    nc, ops, outs = tiny["completion"]
    i = next(i for i, op in enumerate(ops) if op.kind == "complete" and outs[i].completed)
    op, out = ops[i], outs[i]
    assert op.check(out) is None
    rules = list(out.system.rules)
    rules[-1] = nc.rewrite.RewriteRule(rules[-1].lhs, bump(rules[-1].rhs, "", 1))
    wrong = dataclasses.replace(out, system=dataclasses.replace(out.system, rules=tuple(rules)))
    assert op.check(wrong) is not None
    short = dataclasses.replace(out, system=dataclasses.replace(out.system, rules=out.system.rules[:-1]))
    assert op.check(short) is not None


@pytest.mark.parametrize("which", ["braid", "group"])
def test_certificate_check_rejects_a_changed_trace_step(tiny, which):
    _, ops, outs = tiny["completion"]
    i = next(i for i, op in enumerate(ops) if op.kind == "certificate"
             and outs[i - 1].completed == (which == "group"))
    op, (rc, text, res) = ops[i], outs[i]
    assert op.check((rc, text, res)) is None
    doc = json.loads(text)
    amb = next(a for a in doc["details"]["ambiguities"] if len(a["trace_a"]) > 1)
    amb["trace_a"][0] = "0"  # a word is never 0 in the model
    assert "changes the value" in op.check((rc, json.dumps(doc), res))
    doc = json.loads(text)
    doc["verdict"] = not doc["verdict"]
    assert op.check((rc, json.dumps(doc), res)) is not None


@pytest.mark.parametrize("kind,field", [
    ("master-fp", "rank_s"), ("master-q", "rank_t"), ("claim-fp", "lhs"), ("claim-q", "rhs"),
])
def test_rank_checks_reject_a_rank_off_by_one(tiny, kind, field):
    _, op, out = pick(tiny, "rank", kind)
    assert op.check(out) is None
    assert op.check(dataclasses.replace(out, **{field: getattr(out, field) + 1})) is not None


def test_series_checks_reject_a_dropped_term(tiny):
    nc, op, g = pick(tiny, "series", "quasi-inverse")
    S = nc.seriesring
    assert op.check(g) is None
    assert op.check(S.TruncSeries(drop(g.body), g.cap)) is not None

    _, op, (Y, probe) = pick(tiny, "series", "sfprobe")
    rows = [list(r) for r in Y.entries]
    e = max((e for r in rows for e in r), key=lambda e: len(e.body.terms))
    rows = [[S.TruncSeries(drop(x.body), x.cap) if x is e else x for x in r] for r in rows]
    assert op.check((S.SeriesMatrix(tuple(map(tuple, rows))), probe)) is not None

    _, op, rep = pick(tiny, "series", "collapse")
    assert op.check(rep) is None
    assert op.check(dataclasses.replace(rep, g=S.TruncSeries(drop(rep.g.body), rep.g.cap))) is not None


def test_a_run_counts_a_corrupted_output_as_failed(tiny):
    _, ops, _ = tiny["rank"]
    ops = list(ops)
    good = ops[0]
    ops[0] = dataclasses.replace(
        good, call=lambda a: dataclasses.replace(good.call(a), rank_z=-1))
    rounds, _, wrong, failed = run.measure(ops, 0.01)
    assert failed == len(rounds) and wrong and wrong[0][0] == good.kind


# -- the reference models ------------------------------------------------------


def test_reference_models_satisfy_their_relations():
    b = O.Burau()
    assert b.image({"\x01\x00\x01": 1}) == b.image({"\x00\x01\x00": 1})
    assert b.image({"\x00\x00": 1}) != b.image({"\x00": 1})
    for name, relations, perms in W.GROUPS:
        ga = O.GroupAlgebra(list(perms), W.GROUP_FIELD)
        enc = lambda w: "".join(chr("ab".index(c)) for c in w)
        for u, v in relations:
            assert ga.element(enc(u)) == ga.element(enc(v)), name
    assert [len(O.group_closure(list(p))) for _, _, p in W.GROUPS] == [6, 8, 10, 12, 24]
    e, f, h = ({chr(i): 1} for i in range(3))
    for n in range(1, 5):
        act = lambda d: O.sl2_action(d, n)
        assert act({"\x02\x00": 1, "\x00\x02": -1, "\x00": -2}) == act({})   # he - eh = 2e
        assert act({"\x00\x01": 1, "\x01\x00": -1, "\x02": -1}) == act({})   # ef - fe = h
    assert O.reduce_memo({"\x01" * 3 + "\x00" * 3: 1}, [("\x01\x00", {"\x00\x01": 1, "": 1})]) == O.weyl_closed_form(3)
    assert O.plain_rank([[1, 2], [2, 4]], None) == 1 and O.plain_rank([[1, 2], [2, 4]], 3) == 1
    assert O.parse_poly_text("-2*x*y + 1/3*y - 1", ["x", "y"]) == {"\x00\x01": -2, "\x01": Fraction(1, 3), "": -1}


# -- no program, no result -------------------------------------------------------


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rank", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
