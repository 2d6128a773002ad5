"""The four workloads: seeded inputs, the operations and their checks.

A workload is a list of operations replayed in rounds.  Each operation is
one call into a public function of ncdiamond on inputs made here, in
set-up, from the workload seed.  Its check compares the output with a
computation from ``oracles`` (which knows nothing of the program) or with
a property the method must have.

The program's modules come in as the namespace ``nc`` (``nc.rewrite``,
``nc.ranklab``, ...), and every call goes through a module or class
attribute, so that the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles as O


@dataclass
class Op:
    """One timed call.  ``prepare(outputs)`` runs untimed before it and
    gets the outputs of the round so far; ``check(output)`` returns None
    when the output is right, else the reason it is wrong."""

    kind: str
    call: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    args: Any = None
    prepare: Callable[[list], Any] | None = None


def terms(poly) -> dict:
    return dict(poly.terms)


def small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 5))


def nonzero_fraction(rng: random.Random) -> Fraction:
    """A coefficient as ``Field.random_nonzero`` draws one over Q."""
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))


def random_terms(shape: random.Random, rng: random.Random, letters: int, lengths) -> dict:
    """One term per length: a uniform word drawn from ``shape`` and a small
    nonzero coefficient drawn from ``rng``."""
    out: dict = {}
    for n in lengths:
        w = "".join(chr(shape.randrange(letters)) for _ in range(n))
        O.add_into(out, w, small_fraction(rng))
    return out


def word_groups(shape: random.Random, rng: random.Random, letters: int, length: int, size: int) -> list[dict]:
    """Every word of the given length, shuffled by ``shape`` into
    polynomials of ``size`` terms, with small nonzero coefficients from
    ``rng``."""
    words = ["".join(map(chr, w)) for w in itertools.product(range(letters), repeat=length)]
    shape.shuffle(words)
    return [
        {w: small_fraction(rng) for w in words[i:i + size]} for i in range(0, len(words), size)
    ]


def _no_lhs(poly, lhss) -> str | None:
    if O.contains_lhs((w for w, _ in poly.terms), lhss):
        return "a normal form still contains a left-hand side"
    return None


# -- normal-forms ------------------------------------------------------------------

WEYL = "field Q\ngens x y\nrule y*x -> x*y + 1\n"
SL2 = (
    "field Q\ngens e f h\n"
    "rel h*e - e*h - 2*e\nrel h*f - f*h + 2*f\nrel e*f - f*e - h\n"
)
SL2_MODULES = range(1, 9)
# As documented for ``ncdiamond identity irving --trials 200 --max-deg 4``.
COMM3_TRIALS = 200
COMM3_MAX_DEG = 4


def normal_words_by_degree(lhss, letters: int, max_deg: int) -> list[list[str]]:
    """The words of each degree up to ``max_deg`` that contain no lhs."""
    levels = [[""]]
    for _ in range(max_deg):
        levels.append([w + chr(a) for w in levels[-1] for a in range(letters)
                       if not O.contains_lhs([w + chr(a)], lhss)])
    return levels


def random_normal_poly(shape: random.Random, rng: random.Random, levels) -> dict:
    """A polynomial drawn as ``rewrite.random_poly`` draws one: 1 to 4
    terms, each a uniform normal word of a uniform degree (degrees without
    normal words are drawn again), colliding words merged.  The words come
    from ``shape``, the coefficients from ``rng``."""
    out: dict = {}
    for _ in range(shape.randint(1, 4)):
        d = shape.randint(0, len(levels) - 1)
        while not levels[d]:
            d = shape.randint(0, len(levels) - 1)
        O.add_into(out, shape.choice(levels[d]), nonzero_fraction(rng))
    return out


def build_normal_forms(nc, shape: random.Random, rng: random.Random, tiny: bool) -> list[Op]:
    P = nc.presentations
    weyl = P.parse_presentation(WEYL, "weyl")
    sl2 = P.parse_presentation(SL2, "sl2")
    irving = P.load_presentation("irving")
    nf = lambda sys: (lambda p: nc.rewrite.normal_form(p, sys))
    ops: list[Op] = []

    def lhss(pres):
        return [r.lhs for r in pres.system.rules]

    for k in range(2, 4 if tiny else 7):
        word = "\x01" * k + "\x00" * k
        ops.append(Op(
            "weyl-word", nf(weyl.system), args=weyl.alg.poly({word: 1}),
            check=lambda out, k=k: None if terms(out) == O.weyl_closed_form(k) else "differs from the closed form",
        ))

    for inp in word_groups(shape, rng, 2, 5 if tiny else 9, 4):
        ops.append(Op(
            "weyl-random", nf(weyl.system), args=weyl.alg.poly(inp),
            check=lambda out, inp=inp: _no_lhs(out, lhss(weyl)) or (
                None if O.weyl_equal(inp, terms(out)) else "acts differently on k[t]"),
        ))

    def check_sl2(out, inp):
        got = terms(out)
        if not all(O.is_pbw(w) for w in got):
            return "a word of the normal form is not a PBW word"
        for n in SL2_MODULES:
            if O.sl2_action(inp, n) != O.sl2_action(got, n):
                return f"acts differently on the irreducible module V({n})"
        return None

    for inp in word_groups(shape, rng, 3, 3 if tiny else 6, 6):
        ops.append(Op("sl2-random", nf(sl2.system), args=sl2.alg.poly(inp),
                      check=lambda out, inp=inp: check_sl2(out, inp)))

    irving_rules = [(r.lhs, terms(r.rhs)) for r in irving.system.rules]
    for inp in word_groups(shape, rng, 2, 6 if tiny else 12, 64):
        ops.append(Op(
            "irving-random", nf(irving.system), args=irving.alg.poly(inp),
            check=lambda out, inp=inp: _no_lhs(out, lhss(irving)) or (
                None if terms(out) == O.reduce_memo(inp, irving_rules) else "differs from the memoised reduction"),
        ))

    normal = normal_words_by_degree(lhss(irving), 2, COMM3_MAX_DEG)
    comm3 = lambda subs: nc.rewrite.triple_commutator_nf(irving.system, subs)
    for _ in range(4 if tiny else COMM3_TRIALS):
        subs = tuple(irving.alg.poly(random_normal_poly(shape, rng, normal)) for _ in range(6))
        ops.append(Op(
            "irving-comm3", comm3, args=subs,
            check=lambda out: None if out.is_zero() else "a triple commutator is not 0",
        ))
    return ops


# -- completion --------------------------------------------------------------------

BRAID = ("y*x*y", "x*y*x")
BRAID_BUDGETS = (6, 9, 12)

# name, relations (u, v) meaning u = v over letters a, b, and the images of
# a and b as permutations whose group the relations present.
GROUPS = (
    ("S3", (("aa", ""), ("bbb", ""), ("abab", "")), ((1, 0, 2), (1, 2, 0))),
    ("D4", (("aa", ""), ("bbbb", ""), ("abab", "")), ((0, 3, 2, 1), (1, 2, 3, 0))),
    ("D5", (("aa", ""), ("bbbbb", ""), ("abab", "")), ((0, 4, 3, 2, 1), (1, 2, 3, 4, 0))),
    ("A4", (("aa", ""), ("bbb", ""), ("ababab", "")), ((1, 0, 3, 2), (1, 2, 0, 3))),
    ("S4", (("aa", ""), ("bbb", ""), ("abababab", "")), ((1, 0, 2, 3), (0, 2, 3, 1))),
)
GROUP_FIELD = 7


def _expr(word: str) -> str:
    return "*".join(word) or "1"


def group_presentations(rng: random.Random, relations) -> list[tuple[str, str]]:
    """(generator order, presentation text) with each relation listed first,
    the generator order alternating.  Completion cost depends strongly on
    these (S4 takes from 13 to 76 ms), so every round has the same three;
    the seed only scales the relations."""
    out = []
    for k in range(len(relations)):
        gens = "ab" if k % 2 == 0 else "ba"
        lines = []
        for u, v in relations[k:] + relations[:k]:
            c = rng.randrange(1, GROUP_FIELD)
            lines.append(f"rel {c}*{_expr(u)} - {c}*{_expr(v)}\n")
        out.append((gens, f"field Fp {GROUP_FIELD}\ngens {' '.join(gens)}\n" + "".join(lines)))
    return out


def _rules(sys) -> list[tuple[str, dict]]:
    return [(r.lhs, terms(r.rhs)) for r in sys.rules]


def _check_rules(res, given, holds) -> str | None:
    """Properties of any completion, whichever rules it adds: every
    presented relation reduces to 0 by the result's rules, every rule is
    deglex-decreasing and every rule holds in the model the presentation
    maps to."""
    rules = _rules(res.system)
    p = res.system.alg.field.p
    for lhs, rhs in given:
        if O.reduce_memo(O.poly_add({lhs: 1}, {w: -c for w, c in rhs.items()}, p), rules, p):
            return "a presented relation does not reduce to 0"
    rank = {chr(i): i for i in range(len(res.system.alg.gens))}
    for lhs, rhs in rules:
        if not all(O.deglex_smaller(w, lhs, rank) for w in rhs):
            return "a rule is not deglex-decreasing"
        if not holds(lhs, rhs):
            return "a rule does not hold in the model"
    return None


def _certificate_text(res) -> str:
    alg = res.system.alg
    head = f"field {'Q' if alg.field.p is None else f'Fp {alg.field.p}'}\ngens {' '.join(alg.gens)}\n"
    return head + "".join(f"rule {r}\n" for r in res.system.rules)


def _check_certificate(out, same_value) -> str | None:
    """The confluence report of a completed system: its counts agree with a
    fresh enumeration, every trace step keeps the value of its ambiguity
    word in the model, and the verdict matches the completion."""
    rc, text, res = out
    doc = json.loads(text.strip().splitlines()[-1])
    d = doc["details"]
    gens = list(res.system.alg.gens)
    lhss = [r.lhs for r in res.system.rules]
    want = res.completed
    if rc != (0 if want else 1) or doc["verdict"] is not want or d["overall"] is not want:
        return "the verdict does not match the completion"
    if len(d["rules"]) != len(lhss):
        return "the certificate lists another number of rules"
    if d["ambiguity_count"] != O.count_ambiguities(lhss) or len(d["ambiguities"]) != d["ambiguity_count"]:
        return "the ambiguity count differs from a fresh enumeration"
    for amb in d["ambiguities"]:
        word = O.parse_poly_text(amb["word"], gens)
        for side in ("a", "b"):
            trace = amb["trace_" + side]
            if trace[-1] != amb["normal_form_" + side]:
                return "a trace does not end in its normal form"
            for step in trace:
                if not same_value(O.parse_poly_text(step, gens), word):
                    return "a trace step changes the value of its ambiguity word"
            if O.contains_lhs(O.parse_poly_text(trace[-1], gens), lhss):
                return "a normal form in the certificate is reducible"
        if amb["resolvable"] != (amb["normal_form_a"] == amb["normal_form_b"]):
            return "resolvable does not match the two normal forms"
    if d["overall"] != all(a["resolvable"] for a in d["ambiguities"]):
        return "overall does not match the ambiguities"
    return None


# The models are built by the first check that needs them, not in set-up.
_burau = functools.cache(O.Burau)
_group_algebra = functools.cache(lambda images: O.GroupAlgebra(list(images), GROUP_FIELD))


def build_completion(nc, rng: random.Random, tiny: bool, workdir: Path) -> list[Op]:
    """``workdir`` is the run's own directory for the certificates'
    presentation files."""
    P = nc.presentations
    ops: list[Op] = []

    def add_pair(name, pres, budget, check_result, holds_poly):
        given = _rules(pres.system)
        path = workdir / f"{name}.pres"

        def prepare(outs):
            path.write_text(_certificate_text(outs[-1]))
            return str(path), outs[-1]

        def certify(arg):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = nc.cli.main(["confluence", arg[0]])
            return rc, buf.getvalue(), arg[1]

        ops.append(Op("complete", lambda s: nc.rewrite.complete(s, max_new_rules=budget),
                      args=pres.system, check=lambda out: check_result(out, given)))
        ops.append(Op("certificate", certify, prepare=prepare,
                      check=lambda out: _check_certificate(out, holds_poly)))

    # Burau letter 0 is sigma_1 and letter 1 is sigma_2; the braid relation
    # is symmetric in the two letters, so either spelling of gens fits.
    same = lambda a, b: _burau().image(a) == _burau().image(b)
    for budget in BRAID_BUDGETS[:2] if tiny else BRAID_BUDGETS:
        gens = "xy" if rng.random() < 0.5 else "yx"
        c = rng.randint(1, 9)
        text = f"field Q\ngens {' '.join(gens)}\nrel {c}*{BRAID[0]} - {c}*{BRAID[1]}\n"
        pres = P.parse_presentation(text, f"braid{budget}")

        def check_braid(res, given, budget=budget):
            if res.completed or len(res.added) != budget:
                return "the braid completion should stop at its rule budget"
            return _check_rules(res, given, lambda l, r: same({l: 1}, r))

        add_pair(f"braid{budget}", pres, budget, check_braid, same)

    for name, relations, perms in GROUPS[:2] if tiny else GROUPS:
        for i, (gens, text) in enumerate(group_presentations(rng, relations)):
            pres = P.parse_presentation(text, name)
            images = tuple(perms["ab".index(g)] for g in gens)
            in_group = lambda a, b, images=images: (
                _group_algebra(images).image(a) == _group_algebra(images).image(b))

            def check_group(res, given, in_group=in_group, perms=perms):
                if not res.completed:
                    return "a finite group algebra did not complete"
                bad = _check_rules(res, given, lambda l, r: in_group({l: 1}, r))
                if bad:
                    return bad
                lhss = [r.lhs for r in res.system.rules]
                order = len(O.group_closure(list(perms)))
                if O.normal_word_count(lhss, 2, order) != order:
                    return "the number of normal words is not the group order"
                return None

            add_pair(f"{name}-{i}", pres, 64, check_group, in_group)
    return ops


# -- rank --------------------------------------------------------------------------

RANK_P = 101
RANK_N_FP = 16
RANK_N_Q = 6


def low_rank(rng: random.Random, n: int, r: int, p: int | None):
    """The product of a random n x r and a random r x n factor; over Q the
    second factor has a common denominator from 1 to 6."""
    if r == 0:
        return [[0] * n for _ in range(n)]
    if p is not None:
        left = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
        right = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        return O.mat_mul(left, right, p)
    left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    den = rng.randint(1, 6)
    return [[Fraction(x, den) for x in row] for row in O.mat_mul(left, right, None)]


def _check_master(out, ms, p) -> str | None:
    X, Y, Z, A, B = ms
    T = O.mat_sub(X, O.mat_mul(O.mat_mul(Y, X, p), A, p), p)
    S = O.mat_sub(Z, O.mat_mul(X, B, p), p)
    want = (O.plain_rank(Z, p), O.plain_rank(O.mat_mul(Y, Z, p), p), O.plain_rank(S, p), O.plain_rank(T, p))
    if (out.rank_z, out.rank_yz, out.rank_s, out.rank_t) != want:
        return "a rank differs from plain elimination"
    margin = want[1] + want[2] + want[3] - want[0]
    if out.margin != margin or margin < 0 or not out.holds:
        return "the master margin is wrong or negative"
    return None


def _check_claim(out, ms, p) -> str | None:
    X, Y, Z, B = ms
    S = O.mat_sub(Z, O.mat_mul(X, B, p), p)
    lhs = O.plain_rank(O.mat_mul(Y, X, p), p)
    rhs = O.plain_rank(O.mat_mul(Y, Z, p), p) + O.plain_rank(X, p) - O.plain_rank(Z, p) + O.plain_rank(S, p)
    if (out.lhs, out.rhs) != (lhs, rhs):
        return "a rank differs from plain elimination"
    if not out.holds or lhs > rhs:
        return "the claim bound fails"
    return None


def build_rank(nc, shape: random.Random, rng: random.Random, tiny: bool) -> list[Op]:
    """Half the operations over F_101 at n = 16, half over Q at n = 6: the
    two take about the same time per operation.  Target ranks come from
    ``shape``, entries from ``rng``."""
    R = nc.ranklab
    ops: list[Op] = []
    per_kind = 2 if tiny else 40
    for p, n in ((RANK_P, RANK_N_FP), (None, RANK_N_Q)):
        field = nc.fields.Field.rationals() if p is None else nc.fields.Field.prime(p)
        tag = "q" if p is None else "fp"
        for i in range(2 * per_kind):
            master = i % 2 == 0
            ms = [low_rank(rng, n, shape.randint(0, n), p) for _ in range(5 if master else 4)]
            # Fresh matrices for every call: ExactMatrix caches its rank.
            prepare = lambda outs, ms=ms, field=field: [R.ExactMatrix(field, m) for m in ms]
            if master:
                ops.append(Op(f"master-{tag}", lambda a: R.master_bound_check(*a), prepare=prepare,
                              check=lambda out, ms=ms, p=p: _check_master(out, ms, p)))
            else:
                ops.append(Op(f"claim-{tag}", lambda a: R.claim_bound_check(*a), prepare=prepare,
                              check=lambda out, ms=ms, p=p: _check_claim(out, ms, p)))
    return ops


# -- series ------------------------------------------------------------------------

SERIES_CAPS = (6, 7, 8)
SERIES_GROUPS_PER_CAP = 8
# As documented for ``ncdiamond series sfprobe --n 3``.
SFPROBE_N = 3


def radical_entry(shape: random.Random, rng: random.Random, cap: int) -> dict:
    """A series drawn as ``seriesring.random_series`` draws one for
    ``random_radical_matrix``: 1 to 3 terms, uniform words of a uniform
    degree up to the cap, colliding words merged, nonzero coefficients as
    over Q.  The words come from ``shape``, the coefficients from ``rng``.
    The least degree is 2, not 1: with degree-1 entries the Neumann sum
    runs to the cap, and the cost of its growing fractions changed with
    the coefficients, so a round cost up to 13% more on one seed than on
    another."""
    out: dict = {}
    for _ in range(shape.randint(1, 3)):
        d = shape.randint(2, cap)
        O.add_into(out, "".join(chr(shape.randrange(2)) for _ in range(d)), nonzero_fraction(rng))
    return out


def _series_identity_check(f: dict, g: dict, cap: int) -> str | None:
    """g is the quasi-inverse of f: g*f = f + g = f*g, all without constant."""
    s = O.poly_add(f, g)
    if "" in g:
        return "the quasi-inverse has a constant term"
    if O.poly_mul(g, f, cap) != s or O.poly_mul(f, g, cap) != s:
        return "g*f = f + g = f*g fails under the reference product"
    return None


def _matmul_series(a, b, cap):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                acc = O.poly_add(acc, O.poly_mul(a[i][k], b[k][j], cap))
            row.append(acc)
        out.append(row)
    return out


def _check_sfprobe(out, X, cap) -> str | None:
    Yrun, probe = out
    Y = [[terms(e.body) for e in row] for row in Yrun.entries]
    ident = [[{"": 1} if i == j else {} for j in range(len(X))] for i in range(len(X))]
    if _matmul_series(X, Y, cap) != ident or _matmul_series(Y, X, cap) != ident:
        return "X@Y = Y@X = I fails under the reference product"
    if not probe.confirmed:
        return "the probe did not confirm Y@X = I"
    return None


def _check_collapse(rep, u, v, cap) -> str | None:
    y = {"\x01": 1}
    alphas = [vi[0].get("", 0) for vi in v]
    f: dict = {}
    for a, ui in zip(alphas, u):
        f = O.poly_add(f, {w: a * c for w, c in O.poly_mul(ui[0], y, cap).items() if a * c})
    if list(rep.coeffs) != alphas or terms(rep.f.body) != f:
        return "f differs from sum alpha_i u_i^0 y"
    return _series_identity_check(f, terms(rep.g.body), cap) or (
        None if rep.verified else "the collapse replay did not verify")


def build_series(nc, shape: random.Random, rng: random.Random, tiny: bool) -> list[Op]:
    S = nc.seriesring
    alg = nc.ncpoly.FreeAlgebra(nc.fields.Field.rationals(), ("x", "y"))
    ser = lambda d, cap: S.TruncSeries(alg.poly(d), cap)
    ops: list[Op] = []
    groups = 1 if tiny else SERIES_GROUPS_PER_CAP
    for i in range(groups * len(SERIES_CAPS)):
        cap = SERIES_CAPS[i % len(SERIES_CAPS)]

        X = [[radical_entry(shape, rng, cap) for _ in range(SFPROBE_N)] for _ in range(SFPROBE_N)]
        for j in range(SFPROBE_N):
            O.add_into(X[j][j], "", 1)
        Xm = S.SeriesMatrix(tuple(tuple(ser(e, cap) for e in row) for row in X))

        def sfprobe(m):
            Y = S.neumann_inverse(m)
            return Y, S.stable_finiteness_probe(m, Y)

        ops.append(Op("sfprobe", sfprobe, args=Xm,
                      check=lambda out, X=X, cap=cap: _check_sfprobe(out, X, cap)))

        for _ in range(2):
            f = random_terms(shape, rng, 2, (1, 2, 3))
            ops.append(Op("quasi-inverse", lambda s: S.quasi_inverse(s), args=ser(f, cap),
                          check=lambda g, f=f, cap=cap: _series_identity_check(f, terms(g.body), cap)))

        u, v = [], []
        for _ in range(2):
            for side in (u, v):
                comps = []
                for _ in range(2):
                    d = random_terms(shape, rng, 2, (1, 2))
                    O.add_into(d, "", small_fraction(rng))
                    comps.append(d)
                side.append(comps)
        pairs = tuple(
            [S.SExtElement(ser(a, cap), ser(b, cap)) for a, b in side] for side in (u, v)
        )
        ops.append(Op("collapse", lambda uv: S.collapse_demo(*uv), args=pairs,
                      check=lambda rep, u=u, v=v, cap=cap: _check_collapse(rep, u, v, cap)))
    return ops


def build(name: str, nc, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    """The operations of one round.  Words, their grouping into
    polynomials and target ranks, which set the cost of an operation, come
    from a fixed stream; coefficients, matrix entries and scalings come
    from the seed.  Per-operation costs spread widely, so drawing the
    shapes from the seed made the figures of two seeds differ by more than
    any useful bound."""
    shape = random.Random(f"perfbench-shape|{name}")
    rng = random.Random(f"perfbench|{name}|{seed}")
    if name == "normal-forms":
        return build_normal_forms(nc, shape, rng, tiny)
    if name == "completion":
        return build_completion(nc, rng, tiny, workdir)
    if name == "rank":
        return build_rank(nc, shape, rng, tiny)
    if name == "series":
        return build_series(nc, shape, rng, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("normal-forms", "completion", "rank", "series")
