import math

import pytest

import engine_oracles as oracles
from ncdiamond import (
    Field,
    FieldError,
    FreeAlgebra,
    LemmaWitness,
    NcPoly,
    QuotientCollapseError,
    RewriteRule,
    RewriteSystem,
    StepBudgetExceeded,
    ambiguity_reducts,
    check_confluence,
    complete,
    enumerate_normal_words,
    find_ambiguities,
    normal_form,
    parse_presentation,
    random_poly,
    reduce_once,
    reduction_trace,
    triple_commutator_nf,
    verify_identity_comm3,
    verify_lemma_witness,
)
from ncdiamond import ncpoly, rewrite
from ncdiamond.ncpoly import _int_terms
from ncdiamond.rewrite import DEFAULT_STEP_BUDGET, _confluent, _first_unresolved, _reduce_terms
from ncdiamond.seeding import rng_for


def make_system(alg, *rules_text):
    """Build a system from 'lhs -> rhs' strings (lhs a plain word)."""
    rules = []
    for text in rules_text:
        lhs_s, _, rhs_s = text.partition("->")
        lhs = alg.parse(lhs_s.strip()).terms[0][0]
        rules.append(RewriteRule(lhs, alg.parse(rhs_s.strip())))
    return RewriteSystem(alg, tuple(rules))


@pytest.fixture(scope="module")
def xx2y():
    alg = FreeAlgebra(Field.rationals(), ("x", "y"))
    return make_system(alg, "x*x -> y")


# -- construction validation ---------------------------------------------------------


def test_system_validation(alg_q):
    # a rule checks itself when it is made ...
    with pytest.raises(ValueError, match="nonempty word"):
        RewriteRule("", alg_q.zero())
    # degree-increasing rhs rejected
    with pytest.raises(ValueError, match="not deglex-decreasing"):
        RewriteRule(alg_q.word_from_names("x"), alg_q.parse("y*x*y"))
    # same-degree non-smaller rhs rejected: yx -> yx + x
    with pytest.raises(ValueError, match="not deglex-decreasing"):
        RewriteRule(alg_q.word_from_names("y", "x"), alg_q.parse("y*x + x"))
    # equal-degree smaller rhs fine: yx -> xy
    RewriteSystem(alg_q, (RewriteRule(alg_q.word_from_names("y", "x"), alg_q.parse("x*y")),))
    # ... and the system checks what spans rules
    r = RewriteRule(alg_q.word_from_names("x"), alg_q.zero())
    with pytest.raises(ValueError, match="share the left-hand side x"):
        RewriteSystem(alg_q, (r, r))
    with pytest.raises(TypeError):
        RewriteSystem(alg_q, (("\x00", alg_q.zero()),))
    f7 = FreeAlgebra(Field.prime(7), ("x", "y"))
    with pytest.raises(FieldError):
        RewriteSystem(alg_q, (RewriteRule("\x00\x00", f7.parse("y")),))


def test_words_outside_the_alphabet_rejected(alg_q):
    # alg_q has letters 0 and 1; the letter with index 2 belongs to no generator
    with pytest.raises(ValueError, match="letter index 2"):
        NcPoly(alg_q, {"\x00\x02": 1})
    with pytest.raises(ValueError, match="letter index 2"):
        RewriteSystem(alg_q, (RewriteRule("\x02", alg_q.zero()),))


# -- single steps and normal forms -----------------------------------------------------


def test_reduce_once_golden_cases(irving):
    alg = irving.alg
    p, changed = reduce_once(alg.parse("y*x*y*x"), irving.system)
    assert changed and p == alg.parse("x*x")
    q, changed = reduce_once(alg.parse("x*y*x"), irving.system)
    assert not changed and q == alg.parse("x*y*x")
    z, changed = reduce_once(alg.zero(), irving.system)
    assert not changed and z.is_zero()


def test_reduce_once_leaves_no_zero_term(alg_q):
    # the spliced x*y cancels -x*y exactly and leaves no zero term behind
    out, changed = reduce_once(alg_q.parse("y*x - x*y"), make_system(alg_q, "y*x -> x*y"))
    assert changed and out.terms == ()


def test_reduce_once_strategy_order(irving):
    # the deglex-greatest reducible term is rewritten first, and the
    # leftmost redex with the lowest rule index wins inside it
    alg = irving.alg
    p = alg.parse("y*x*y + x*x")  # yxy is greater
    q, _ = reduce_once(p, irving.system)
    assert q == alg.parse("x + x*x")
    # xx at position 0 ties rule 0 against nothing else; xxx has redexes of
    # rule 0 at positions 0 and 1 - leftmost is taken
    t = reduction_trace(alg.parse("x*x*x"), irving.system)
    assert [str(v) for v in t] == ["x*x*x", "0"]


def test_normal_form_golden_cases(irving):
    alg = irving.alg
    assert normal_form(alg.parse("y*x*y*x"), irving.system).is_zero()
    assert normal_form(alg.parse("y*x*y - x"), irving.system).is_zero()
    assert normal_form(alg.parse("x*y*x*x*y*x"), irving.system).is_zero()
    assert normal_form(alg.parse("x*y*x"), irving.system) == alg.parse("x*y*x")
    assert normal_form(alg.zero(), irving.system).is_zero()


def test_normal_form_has_no_redex(irving):
    for t in range(50):
        rng = rng_for(7, "nored", t)
        p = random_poly(irving.system, 5, rng)
        q = normal_form(p * p + p, irving.system)
        for w, _ in q.terms:
            assert not oracles.all_redexes(irving.system, w)


@pytest.mark.parametrize("preset", ["irving", "cohnsasiada"])
def test_normal_form_matches_oracle(preset, irving, cohnsasiada):
    # the merged reducer must agree with the literal greatest-term
    # iteration even on the non-confluent system
    pres = irving if preset == "irving" else cohnsasiada
    for t in range(120):
        rng = rng_for(11, "oracle", preset, t)
        p = random_poly(pres.system, 5, rng)
        q = random_poly(pres.system, 4, rng)
        probe = p * q + p
        assert normal_form(probe, pres.system) == oracles.oracle_normal_form(
            probe, pres.system
        )


def test_normal_form_equals_reduction_trace_tail(irving):
    for t in range(40):
        rng = rng_for(12, "trace", t)
        p = random_poly(irving.system, 5, rng) * random_poly(irving.system, 3, rng)
        assert reduction_trace(p, irving.system)[-1] == normal_form(p, irving.system)


def test_strategy_independence_on_confluent_system(irving, xx2y):
    completed = complete(xx2y).system
    for t in range(100):
        rng = rng_for(13, "strat", t)
        p = random_poly(irving.system, 5, rng)
        nf = normal_form(p, irving.system)
        assert oracles.randomized_normal_form(p, irving.system, rng) == nf
        q = random_poly(completed, 5, rng)
        nfq = normal_form(q, completed)
        assert oracles.randomized_normal_form(q, completed, rng) == nfq


def test_nf_idempotent_linear_multiplicative(irving):
    sys_ = irving.system
    for t in range(250):
        rng = rng_for(14, "nflaws", t)
        p = random_poly(sys_, 4, rng)
        q = random_poly(sys_, 4, rng)
        nf_p = normal_form(p, sys_)
        nf_q = normal_form(q, sys_)
        assert normal_form(nf_p, sys_) == nf_p
        assert normal_form(p + q, sys_) == nf_p + nf_q
        assert normal_form(p * q, sys_) == normal_form(nf_p * nf_q, sys_)


def test_step_budget(irving, alg_q):
    alg = irving.alg
    p = alg.parse("y*x*y") * alg.parse("y*x*y") * alg.parse("y*x*y")
    with pytest.raises(StepBudgetExceeded):
        normal_form(p, irving.system, max_steps=1)
    with pytest.raises(StepBudgetExceeded):
        reduction_trace(p, irving.system, max_steps=1)
    # the Weyl rule cannot loop, so the message names the budget, not a loop
    weyl = make_system(alg_q, "y*x -> x*y + 1")
    with pytest.raises(StepBudgetExceeded, match="ran out after 100 rewrites") as exc:
        normal_form(alg_q.parse("y*y*y*y*y*y*y*y*x*x*x*x*x*x*x*x"), weyl, max_steps=100)
    assert "loop" not in str(exc.value)


@pytest.mark.parametrize("k", [8, 24])
def test_weyl_large_normal_form(alg_q, k):
    # y^k*x^k = sum_j j! C(k,j)^2 x^(k-j)*y^(k-j): k+1 terms, reached by
    # merging equal words (the unmerged expansion has (2k)!/(k!)^2 paths)
    weyl = make_system(alg_q, "y*x -> x*y + 1")
    x, y = alg_q.word_from_names("x"), alg_q.word_from_names("y")
    want = {
        x * (k - j) + y * (k - j): math.factorial(j) * math.comb(k, j) ** 2
        for j in range(k + 1)
    }
    got = normal_form(alg_q.monomial(y * k + x * k), weyl)
    assert got == alg_q.poly(want) and len(got.terms) == k + 1


def test_weyl_half_large_normal_form(alg_q):
    # y*x -> 1/2*x*y + 1/3 puts powers of 2 and 3 into every coefficient;
    # the engine's common divisor must stay near their lcm for this to be fast
    sys_ = make_system(alg_q, "y*x -> 1/2*x*y + 1/3")
    x, y = alg_q.word_from_names("x"), alg_q.word_from_names("y")
    p = alg_q.monomial(y * 24 + x * 24)
    nf = normal_form(p, sys_)
    assert nf == reduction_trace(p, sys_)[-1] == iterate_reduce_once(p, sys_)[-1]
    assert len(nf.terms) == 25 and nf.terms[-1][0] == ""


# -- ambiguities -------------------------------------------------------------------


def test_find_ambiguities_irving(irving):
    alg = irving.alg
    ambs = find_ambiguities(irving.system)
    assert len(ambs) == 2
    a, b = ambs
    assert (a.kind, alg.word_str(a.word), a.rule_a, a.rule_b, a.offset) == (
        "overlap", "x*x*x", 0, 0, 1,
    )
    assert (b.kind, alg.word_str(b.word), b.rule_a, b.rule_b, b.offset) == (
        "overlap", "y*x*y*x*y", 1, 1, 2,
    )


def test_find_ambiguities_simple_cases(alg_q, xx2y):
    assert find_ambiguities(make_system(alg_q, "y*x -> x*y")) == ()
    ambs = find_ambiguities(xx2y)
    assert len(ambs) == 1 and alg_q.word_str(ambs[0].word) == "x*x*x"


def test_find_ambiguities_inclusions(alg_q):
    sys_ = make_system(alg_q, "x*y*x -> 0", "y -> x")
    ambs = find_ambiguities(sys_)
    kinds = [(a.kind, a.rule_a, a.rule_b, a.offset) for a in ambs]
    # y sits inside xyx at offset 1; no overlaps exist between xyx and y,
    # but xyx self-overlaps at offset 2 (suffix x = prefix x)
    assert ("inclusion", 0, 1, 1) in kinds
    assert ("overlap", 0, 0, 2) in kinds
    assert all(a.rule_a != a.rule_b for a in ambs if a.kind == "inclusion")


def test_find_ambiguities_multiple_inclusion_offsets(alg_q):
    sys_ = make_system(alg_q, "x*y*x*y*x -> 0", "x -> 0")
    offsets = [a.offset for a in find_ambiguities(sys_) if a.kind == "inclusion"]
    assert offsets == [0, 2, 4]


def test_find_ambiguities_matches_brute_oracle(alg_q):
    # random left sides over two letters, lengths 1-7, up to four rules
    for t in range(400):
        rng = rng_for(23, "ambiguities", t)
        lhss = dict.fromkeys(
            "".join(rng.choice("\x00\x01") for _ in range(rng.randint(1, 7)))
            for _ in range(rng.randint(1, 4))
        )
        sys_ = RewriteSystem(alg_q, tuple(RewriteRule(w, alg_q.zero()) for w in lhss))
        got = [(a.kind, a.rule_a, a.rule_b, a.word, a.offset) for a in find_ambiguities(sys_)]
        assert got == oracles.brute_ambiguities(sys_), t


def test_ambiguity_reducts_known_chain(irving):
    alg = irving.alg
    ambs = find_ambiguities(irving.system)
    ra, rb = ambiguity_reducts(irving.system, ambs[1])
    assert ra == alg.parse("x*x*y")
    assert rb == alg.parse("y*x*x")


# -- confluence and completion ---------------------------------------------------------


def test_check_confluence_irving(irving):
    rep = check_confluence(irving.system)
    assert rep.overall and len(rep.checks) == 2
    assert all(c.resolvable for c in rep.checks)
    yxyxy = rep.checks[1]
    assert [str(p) for p in yxyxy.trace_a] == ["x*x*y", "0"]
    assert [str(p) for p in yxyxy.trace_b] == ["y*x*x", "0"]
    assert yxyxy.normal_form_a.is_zero() and yxyxy.normal_form_b.is_zero()


def test_check_confluence_xx2y_fails(xx2y):
    rep = check_confluence(xx2y)
    assert not rep.overall
    chk = rep.checks[0]
    nfs = {str(chk.normal_form_a), str(chk.normal_form_b)}
    assert nfs == {"y*x", "x*y"}


def test_check_confluence_empty_and_cohnsasiada(alg_q, cohnsasiada):
    assert check_confluence(RewriteSystem(alg_q, ())).overall
    rep = check_confluence(cohnsasiada.system)
    assert not rep.overall
    chk = rep.checks[0]
    assert cohnsasiada.alg.word_str(chk.ambiguity.word) == "y*x*x*y*x*x*y"
    assert {str(chk.normal_form_a), str(chk.normal_form_b)} == {"x*x*x*y", "y*x*x*x"}


def test_complete_irving_unchanged(irving):
    res = complete(irving.system)
    assert res.completed and res.added == ()
    assert res.system.rules == irving.system.rules


def test_complete_xx2y_adds_commutation(xx2y):
    alg = xx2y.alg
    res = complete(xx2y)
    assert res.completed
    assert [str(r) for r in res.added] == ["y*x -> x*y"]
    assert check_confluence(res.system).overall
    # the quotient is the polynomial ring in x: yx and xy agree, y = x^2
    assert normal_form(alg.parse("y*x - x*y"), res.system).is_zero()
    assert normal_form(alg.parse("y - x*x"), res.system).is_zero()


def test_complete_budget_exhaustion(xx2y):
    res = complete(xx2y, max_new_rules=0)
    assert not res.completed and res.added == ()


def test_complete_detects_quotient_collapse(alg_q):
    # xy = 0 and yx = 1 force 1 = 0: the quotient is the zero ring
    sys_ = make_system(alg_q, "x*y -> 0", "y*x -> 1")
    with pytest.raises(QuotientCollapseError):
        complete(sys_)


def test_parse_checks_each_rule_once(monkeypatch):
    # each rule compares its right-side words with its left side once, when
    # it is made; building the system re-checks none of them
    calls = _spy(monkeypatch, rewrite, "deglex_compare", lambda u, v: (u, v))
    text = "field Fp 7\ngens a b\nrel a*a - 1\nrule b*b*b -> 1\nrel a*b*a*b - b*b - a\nrel b*a*b - a*b*a\n"
    rules = parse_presentation(text).system.rules
    assert len(rules) == 4
    assert calls == [(w, r.lhs) for r in rules for w, _ in r.rhs.terms]


@pytest.mark.parametrize("budget", [6, 12])
def test_complete_checks_each_new_rule_once(budget, monkeypatch):
    # each added rule compares its right-side words with its left side once;
    # joining the system re-checks no rule, so the count is linear in rules
    braid = parse_presentation(BRAID, "braid").system
    calls = _spy(monkeypatch, rewrite, "deglex_compare", lambda u, v: (u, v))
    res = complete(braid, max_new_rules=budget)
    assert len(res.added) == budget
    assert calls == [(w, r.lhs) for r in res.added for w, _ in r.rhs.terms]


# -- the reduction engine against reduce_once ------------------------------------------

WEYL = "field Q\ngens x y\nrule y*x -> x*y + 1\n"
# rules whose right sides have a common denominator, so a step whose
# coefficient the denominator does not divide rescales the engine's terms
WEYL_HALF = "field Q\ngens x y\nrule y*x -> 1/2*x*y + 1/3\n"
WEYL_REL3 = "field Q\ngens x y\nrel 3*y*x - x*y - 1\n"
WEYL_REL3_F7 = "field Fp 7\ngens x y\nrel 3*y*x - x*y - 1\n"
SL2 = "field Q\ngens e f h\nrel h*e - e*h - 2*e\nrel h*f - f*h + 2*f\nrel e*f - f*e - h\n"
BRAID = "field Q\ngens x y\nrel y*x*y - x*y*x\n"
S3_F7 = "field Fp 7\ngens a b\nrel a*a - 1\nrel b*b*b - 1\nrel a*b*a*b - 1\n"
D4_F7 = "field Fp 7\ngens a b\nrel a*a - 1\nrel b*b*b*b - 1\nrel a*b*a*b - 1\n"
# A4 and S4 with the relation a*a = 1 listed last: a completion that never
# re-checks a resolved critical pair adds other rules on these
A4_F7 = "field Fp 7\ngens a b\nrel b*b*b - 1\nrel a*b*a*b*a*b - 1\nrel a*a - 1\n"
S4_F7 = "field Fp 7\ngens a b\nrel b*b*b - 1\nrel a*b*a*b*a*b*a*b - 1\nrel a*a - 1\n"


def iterate_reduce_once(p, sys_):
    trace = [p]
    while True:
        p, changed = reduce_once(p, sys_)
        if not changed:
            return tuple(trace)
        trace.append(p)


def engine_inputs(sys_, tag, count, max_deg):
    """Products of random normal-word polynomials, then every ambiguity reduct."""
    out = []
    for t in range(count):
        rng = rng_for(21, "engine", tag, t)
        p = random_poly(sys_, max_deg, rng)
        out.append(p * random_poly(sys_, max_deg, rng) + p)
    for amb in find_ambiguities(sys_):
        out.extend(ambiguity_reducts(sys_, amb))
    return out


def engine_systems(irving, cohnsasiada, alg_fbig):
    braid = parse_presentation(BRAID, "braid").system
    yield "irving", irving.system, True
    yield "cohnsasiada", cohnsasiada.system, False
    yield "weyl", parse_presentation(WEYL, "weyl").system, True
    yield "weyl-half", parse_presentation(WEYL_HALF, "weyl-half").system, True
    yield "weyl-rel3", parse_presentation(WEYL_REL3, "weyl-rel3").system, True
    yield "weyl-rel3-f7", parse_presentation(WEYL_REL3_F7, "weyl-rel3-f7").system, True
    # residues near 2^61: every product of two is far past p
    yield "weyl-fbig", make_system(alg_fbig, "y*x -> 1/2*x*y + 1/3", "x*x*x -> 1/5"), False
    yield "sl2", parse_presentation(SL2, "sl2").system, True
    yield "braid12", complete(braid, max_new_rules=12).system, False


def test_engine_matches_reduce_once_and_oracles(irving, cohnsasiada, alg_fbig):
    for tag, sys_, confluent in engine_systems(irving, cohnsasiada, alg_fbig):
        assert not confluent or check_confluence(sys_).overall, tag
        f = sys_.alg.field
        for i, p in enumerate(engine_inputs(sys_, tag, 30, 5)):
            trace = reduction_trace(p, sys_)
            assert trace == iterate_reduce_once(p, sys_), (tag, i)
            nf = normal_form(p, sys_)
            assert nf == trace[-1] == oracles.oracle_normal_form(p, sys_), (tag, i)
            assert all(oracles.is_canonical_scalar(f, c) for q in trace for _, c in q.terms)
            assert all(oracles.is_canonical_scalar(f, c) for _, c in nf.terms)
            if confluent:
                rng = rng_for(22, "engine-random", tag, i)
                assert oracles.randomized_normal_form(p, sys_, rng) == nf, (tag, i)


@pytest.mark.parametrize(
    "text, budget, completed, added",
    [
        (BRAID, 12, False, [
            "y*x*x*y*x -> x*y*x*x*y",
            *(
                "x*y*" + "x*" * k + "y*x -> x*x*y*x*x*y" + "*y" * (k - 2)
                for k in range(3, 14)
            ),
        ]),
        (S3_F7, 64, True, ["b*a*b -> a", "b*b*a -> a*b", "a*b*b -> b*a", "a*b*a -> b*b"]),
        (D4_F7, 64, True, [
            "b*a*b -> a", "b*b*b*a -> a*b", "b*b*a -> a*b*b", "a*b*b*b -> b*a",
            "b*b*b -> a*b*a",
        ]),
        (A4_F7, 64, True, [
            "a*b*a*b*a -> b*b",
            "b*a*b*a*b -> a",
            "a*b*a*b -> b*b*a",
            "b*b*a*b*b -> a*b*a",
            "b*a*b*a -> a*b*b",
            "a*b*b*a -> b*a*b",
        ]),
        (S4_F7, 64, True, [
            "a*b*a*b*a*b*a -> b*b",
            "b*a*b*a*b*a*b -> a",
            "a*b*a*b*a*b -> b*b*a",
            "b*b*a*b*b -> a*b*a*b*a",
            "b*a*b*a*b*a -> a*b*b",
            "b*a*b*a*b -> a*b*b*a",
            "a*b*a*b*b*a*b*a -> b*a*b*b*a*b",
            "b*a*b*b*a*b*a -> a*b*a*b*b*a*b",
        ]),
    ],
    ids=["braid12", "s3-f7", "d4-f7", "a4-f7", "s4-f7"],
)
def test_complete_adds_the_same_rules(text, budget, completed, added):
    # captured from earlier engines: braid, S3 and D4 from the trace-based
    # completion, A4 and S4 from the loop that normalized every pair each pass
    res = complete(parse_presentation(text, "pres").system, max_new_rules=budget)
    assert res.completed == completed
    assert [str(r) for r in res.added] == added


GROUP_RELATIONS = {
    "s3": ("a*a", "b*b*b", "a*b*a*b"),
    "d4": ("a*a", "b*b*b*b", "a*b*a*b"),
    "d5": ("a*a", "b*b*b*b*b", "a*b*a*b"),
    "a4": ("a*a", "b*b*b", "a*b*a*b*a*b"),
    "s4": ("a*a", "b*b*b", "a*b*a*b*a*b*a*b"),
}


def completion_corpus():
    for budget in range(6, 41):
        yield pytest.param(BRAID, budget, id=f"braid{budget}")
    for name, rels in GROUP_RELATIONS.items():
        for k in range(len(rels)):
            for gens in ("a b", "b a"):
                lines = "".join(f"rel {w} - 1\n" for w in rels[k:] + rels[:k])
                text = f"field Fp 7\ngens {gens}\n{lines}"
                yield pytest.param(text, 64, id=f"{name}-f7-rot{k}-{gens[0]}first")
    yield pytest.param(WEYL, 64, id="weyl")
    yield pytest.param(SL2, 64, id="sl2")
    yield pytest.param("field Q\ngens x y\nrule x*x -> y\n", 64, id="xx2y")
    yield pytest.param("field Q\ngens x y\nrule x*y -> 0\nrule y*x -> 1\n", 64, id="collapse")


def completion_outcome(fn, text, budget):
    sys_ = parse_presentation(text, "pres").system
    try:
        res = fn(sys_, max_new_rules=budget)
    except QuotientCollapseError as exc:
        return "collapse", str(exc)
    return res.completed, [str(r) for r in res.added]


@pytest.mark.parametrize("text, budget", completion_corpus())
def test_complete_matches_oracle(text, budget):
    assert completion_outcome(complete, text, budget) == completion_outcome(
        oracles.oracle_complete, text, budget
    )


GATE_SAMPLE = (
    "braid6", "braid12", "braid25", "s3-f7-rot0-afirst", "d4-f7-rot1-bfirst",
    "d5-f7-rot2-afirst", "a4-f7-rot2-bfirst", "s4-f7-rot0-afirst", "weyl", "sl2",
    "xx2y", "collapse",
)


def corpus_systems(ids):
    """(tag, system) for the corpus presentations named by ids, each also
    completed to its rule budget unless its quotient collapses."""
    for param in completion_corpus():
        if param.id in ids:
            text, budget = param.values
            sys_ = parse_presentation(text, param.id).system
            yield param.id, sys_
            try:
                done = complete(sys_, budget).system
            except QuotientCollapseError:
                continue
            yield param.id + "-completed", done


def test_confluence_gate_matches_check_confluence(irving, cohnsasiada, alg_fbig):
    systems = [(tag, s) for tag, s, _ in engine_systems(irving, cohnsasiada, alg_fbig)]
    alg = irving.alg
    collapsed = irving.system.with_rule(RewriteRule(alg.word_from_names("x", "y"), alg.one()))
    systems.append(("collapsed", collapsed))
    systems += corpus_systems(GATE_SAMPLE)
    assert set(GATE_SAMPLE) <= {tag for tag, _ in systems}
    verdicts = set()
    for tag, sys_ in systems:
        verdict = check_confluence(sys_).overall
        assert _confluent(sys_) == verdict, tag
        verdicts.add(verdict)
    assert verdicts == {True, False}


TRACE_SAMPLE = ("braid6", "braid9", "s3-f7-rot0-afirst", "d4-f7-rot1-bfirst", "a4-f7-rot2-bfirst")
# y*x*x*x splices the first rule's right side (divisor 6 over Q) against
# the second's (divisor 5); the pair resolves over none of Q, F_7, F_(2^61-1)
FRACTIONAL_RULES = ("y*x -> 1/3*x*y + 1/2", "x*x*x -> 1/5")
# x*y*y splices to x*y on one side and to 2*x*y on the other: snapshots with
# the same words and other coefficients, which a certificate must not join
SCALED_RULES = ("x*y -> x", "y*y -> 2*y")


def test_certificate_traces_are_reduction_traces(irving, cohnsasiada, alg_q, alg_fbig):
    # check_confluence starts each trace's loop from the splice it decodes
    systems = [(tag, s) for tag, s, _ in engine_systems(irving, cohnsasiada, alg_fbig)]
    systems.append(("fractional", make_system(alg_q, *FRACTIONAL_RULES)))
    systems.append(("scaled", make_system(alg_q, *SCALED_RULES)))
    corpus = list(corpus_systems(TRACE_SAMPLE))
    assert len(corpus) == 2 * len(TRACE_SAMPLE)
    systems += corpus
    for tag, sys_ in systems:
        for chk in check_confluence(sys_).checks:
            red_a, red_b = ambiguity_reducts(sys_, chk.ambiguity)
            assert chk.trace_a == reduction_trace(red_a, sys_), tag
            assert chk.trace_b == reduction_trace(red_b, sys_), tag


def test_certificate_builds_each_distinct_snapshot_once(
    irving, cohnsasiada, alg_q, alg_fbig, monkeypatch
):
    # a trace that reaches a polynomial an earlier trace reached takes the
    # rest of that trace, so every snapshot value is one object, built once
    systems = [(tag, s) for tag, s, _ in engine_systems(irving, cohnsasiada, alg_fbig)]
    systems.append(("fractional", make_system(alg_q, *FRACTIONAL_RULES)))
    systems.append(("scaled", make_system(alg_q, *SCALED_RULES)))
    systems += corpus_systems(TRACE_SAMPLE)
    real = NcPoly._canonical.__func__
    built = []

    def spied(cls, alg, terms):
        built.append(None)
        return real(cls, alg, terms)

    monkeypatch.setattr(NcPoly, "_canonical", classmethod(spied))
    shared = 0
    for tag, sys_ in systems:
        built.clear()
        rep = check_confluence(sys_)
        snaps = [p for chk in rep.checks for p in chk.trace_a + chk.trace_b]
        distinct = set(snaps)
        assert len(built) == len(distinct) == len({id(p) for p in snaps}), tag
        shared += len(snaps) - len(distinct)
    assert shared


def _first_shared(traces):
    """For each trace, the index of its first snapshot object that an
    earlier trace holds, or None."""
    seen, out = set(), []
    for t in traces:
        out.append(next((k for k, p in enumerate(t) if id(p) in seen), None))
        seen.update(id(p) for p in t)
    return out


@pytest.mark.parametrize("text, budget", [(S3_F7, 64), (BRAID, 6)], ids=["s3-f7", "braid6"])
def test_certificate_budget_counts_the_steps_a_trace_shares(text, budget):
    # the longest trace joins an earlier one; it passes at exactly its step
    # count, and one step less names the first critical pair whose
    # unshared trace (reduction_trace of its reduct) is longer
    sys_ = complete(parse_presentation(text, "pres").system, budget).system
    assert len(sys_.rules) == 7
    rep = check_confluence(sys_)
    traces = [t for chk in rep.checks for t in (chk.trace_a, chk.trace_b)]
    longest = max(len(t) - 1 for t in traces)
    assert check_confluence(sys_, longest) == rep
    tight = longest - 1
    first = next(i for i, t in enumerate(traces) if len(t) - 1 > tight)
    # it joins within the budget, so the shared steps are what exceed it
    k = _first_shared(traces)[first]
    assert k is not None and k <= tight
    amb = rep.checks[first // 2].ambiguity
    want = next(
        a for a in find_ambiguities(sys_)
        if any(len(reduction_trace(r, sys_)) - 1 > tight for r in ambiguity_reducts(sys_, a))
    )
    assert amb == want
    message = (
        f"critical pair at {sys_.alg.word_str(amb.word)}: the step budget ran out after "
        f"{tight} rewrites, before a normal form; deglex-decreasing rules terminate, so a "
        "larger budget reaches one"
    )
    with pytest.raises(StepBudgetExceeded) as exc:
        check_confluence(sys_, tight)
    assert str(exc.value) == message


def test_critical_pair_difference_is_the_normal_form_of_the_reducts(
    irving, cohnsasiada, xx2y, alg_q, alg_f7, alg_fbig
):
    # _first_unresolved starts its loop from red_a - red_b as int terms;
    # words on which the reducts cancel cost no step and are not rewritten
    alg = irving.alg
    systems = [
        xx2y,
        cohnsasiada.system,
        irving.system.with_rule(RewriteRule(alg.word_from_names("x", "y"), alg.one())),
        make_system(alg_q, *FRACTIONAL_RULES),
        make_system(alg_f7, *FRACTIONAL_RULES),
        make_system(alg_fbig, *FRACTIONAL_RULES),
        parse_presentation(S3_F7, "s3").system,
    ]
    for sys_ in systems:
        sep = chr(len(sys_.alg.gens))
        unresolved = 0
        for amb in find_ambiguities(sys_):
            red_a, red_b = ambiguity_reducts(sys_, amb)
            want = normal_form(red_a - red_b, sys_)
            entry = [amb, None, ""]
            found = _first_unresolved(sys_, [[entry]], DEFAULT_STEP_BUDGET)
            if want:
                assert found == (amb, want)
                unresolved += 1
            else:
                (terms,), d = _int_terms((red_a - red_b,))
                rewritten = []
                _reduce_terms(dict(terms), d, sys_, DEFAULT_STEP_BUDGET, rewritten=rewritten)
                assert found is None and entry[2] == sep.join(rewritten)
        assert unresolved


# -- normal words --------------------------------------------------------------------


def test_normal_word_counts_and_membership(irving):
    alg = irving.alg
    counts = [len(enumerate_normal_words(irving.system, d)) for d in range(1, 7)]
    assert counts == [2, 3, 4, 4, 4, 4]
    assert [alg.word_str(w) for w in enumerate_normal_words(irving.system, 1)] == ["x", "y"]
    assert [alg.word_str(w) for w in enumerate_normal_words(irving.system, 3)] == [
        "x*y*x", "x*y*y", "y*y*x", "y*y*y",
    ]
    assert enumerate_normal_words(irving.system, 0) == ("",)


@pytest.mark.parametrize("preset", ["irving", "cohnsasiada"])
def test_normal_words_match_brute_oracle(preset, irving, cohnsasiada):
    pres = irving if preset == "irving" else cohnsasiada
    for d in range(0, 8):
        assert list(enumerate_normal_words(pres.system, d)) == oracles.brute_normal_words(
            pres.system, d
        )


def test_normal_words_completed_system(xx2y):
    sys_ = complete(xx2y).system
    for d in range(0, 7):
        got = list(enumerate_normal_words(sys_, d))
        assert got == oracles.brute_normal_words(sys_, d)
    # normal words avoid xx and yx: x?y^k, so exactly two per degree >= 1
    assert len(enumerate_normal_words(sys_, 2)) == 2  # xy, yy


def test_enumerate_normal_words_validation(irving):
    # True used to be read as degree 1
    for degree in (-1, True, False, 1.0):
        with pytest.raises(ValueError, match=f"degree must be a nonnegative integer, got {degree!r}"):
            enumerate_normal_words(irving.system, degree)


@pytest.mark.parametrize("max_deg", [-1, True, False])
def test_random_poly_rejects_a_degree_that_is_not_a_count(irving, max_deg):
    # -1 used to draw from the degree-0 words alone and return a scalar
    with pytest.raises(ValueError, match=f"max_deg must be a nonnegative integer, got {max_deg!r}"):
        random_poly(irving.system, max_deg, rng_for(15, "randpoly"))


@pytest.mark.parametrize("max_steps", [-1, True, False, 2.0])
def test_step_budgets_are_nonnegative_ints(irving, alg_q, max_steps):
    # a negative budget used to read "ran out after -1 rewrites", or pass
    # silently where no step was needed
    sys_, x = irving.system, irving.alg.gen("x")
    calls = [
        lambda: normal_form(x, sys_, max_steps),
        lambda: reduction_trace(x, sys_, max_steps),
        lambda: check_confluence(sys_, max_steps),
        lambda: check_confluence(RewriteSystem(alg_q, ()), max_steps),
        lambda: triple_commutator_nf(sys_, (x,) * 6, max_steps),
        lambda: verify_lemma_witness(sys_, irving.witness, max_steps),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"max_steps must be a nonnegative integer, got {max_steps!r}"):
            call()


def test_random_poly_draws_normal_words(irving):
    for t in range(60):
        rng = rng_for(15, "randpoly", t)
        p = random_poly(irving.system, 4, rng)
        assert len(p.terms) <= 4
        for w, c in p.terms:
            assert len(w) <= 4
            assert not oracles.all_redexes(irving.system, w)
            assert c != 0


# -- the triple-commutator identity ---------------------------------------------------


def test_comm3_simple_substitution(irving):
    alg = irving.alg
    x, y = alg.gen("x"), alg.gen("y")
    assert triple_commutator_nf(irving.system, (x, y, x, y, x, y)).is_zero()
    zero = alg.zero()
    assert triple_commutator_nf(irving.system, (zero,) * 6).is_zero()
    with pytest.raises(ValueError):
        triple_commutator_nf(irving.system, (x, y))


def test_comm3_matches_full_expansion_oracle(irving):
    for t in range(25):
        rng = rng_for(16, "comm3oracle", t)
        subs = tuple(random_poly(irving.system, 2, rng, max_terms=2) for _ in range(6))
        assert triple_commutator_nf(irving.system, subs) == oracles.oracle_comm3(
            irving.system, subs
        )


WEYL_RULE = "y*x -> x*y + 1"


@pytest.mark.parametrize("field", ["q", "f7", "fbig", "free"])
def test_comm3_nonzero_values_match_full_expansion_oracle(field, alg_q, alg_f7, alg_fbig):
    # the Weyl algebra and the free algebra satisfy no polynomial identity,
    # so a wrong divisor or residue shows in a nonzero value
    alg = {"q": alg_q, "f7": alg_f7, "fbig": alg_fbig, "free": alg_q}[field]
    sys_ = RewriteSystem(alg, ()) if field == "free" else make_system(alg, WEYL_RULE)
    nonzero = 0
    for t in range(12):
        rng = rng_for(18, "comm3nonzero", field, t)
        subs = tuple(random_poly(sys_, 2, rng, max_terms=3) for _ in range(6))
        value = triple_commutator_nf(sys_, subs)
        assert value == oracles.oracle_comm3(sys_, subs)
        nonzero += bool(value)
    assert nonzero


def stepwise_comm3(sys_, subs):
    """[X1,Y1][X2,Y2][X3,Y3] with each commutator and each partial product
    brought to normal form through NcPoly arithmetic, and the most steps
    any of the six reductions took."""
    steps = []

    def nf(p):
        trace = reduction_trace(p, sys_)
        steps.append(len(trace) - 1)
        return trace[-1]

    acc = sys_.alg.one()
    for x, y in zip(subs[::2], subs[1::2]):
        acc = nf(acc * nf(x * y - y * x))
    return acc, max(steps)


def test_comm3_reduces_each_commutator_and_product_on_its_own_budget(
    irving, cohnsasiada, alg_q, alg_f7, alg_fbig
):
    # the chain makes the six reductions stepwise normal forms make, in the
    # same order: equal values on rules that are not confluent too, and
    # each reduction has the whole budget
    systems = [
        irving.system,
        cohnsasiada.system,
        make_system(alg_q, *FRACTIONAL_RULES),
        make_system(alg_f7, *FRACTIONAL_RULES),
        make_system(alg_fbig, WEYL_RULE),
    ]
    for k, sys_ in enumerate(systems):
        for t in range(8):
            rng = rng_for(18, "comm3steps", k, t)
            subs = tuple(random_poly(sys_, 2, rng, max_terms=3) for _ in range(6))
            want, need = stepwise_comm3(sys_, subs)
            assert triple_commutator_nf(sys_, subs, max_steps=need) == want
            if need:
                with pytest.raises(StepBudgetExceeded, match=f"after {need - 1} rewrites"):
                    triple_commutator_nf(sys_, subs, max_steps=need - 1)


def _spy(monkeypatch, module, name, record) -> list:
    """Wrap module.name so that each call appends record(*args) to a list."""
    calls, real = [], getattr(module, name)

    def spied(*args):
        calls.append(record(*args))
        return real(*args)

    monkeypatch.setattr(module, name, spied)
    return calls


def test_comm3_clears_each_pair_once_and_decodes_once(alg_q, monkeypatch):
    # over Q each (X, Y) pair is cleared to ints once; the commutators,
    # products and reductions stay ints and the value is decoded once
    weyl = make_system(alg_q, WEYL_RULE)
    subs = tuple(alg_q.parse(s) for s in ("1/2*x", "y*y", "2/3*x*y", "y", "x", "3/4*y"))
    # _int_terms looks _cleared up in ncpoly, where fields' function is bound
    cleared = _spy(monkeypatch, ncpoly, "_cleared", lambda *a: a)
    decoded = _spy(monkeypatch, rewrite, "_decoded", lambda *a: a)
    value = triple_commutator_nf(weyl, subs)
    assert len(cleared) == 3 and len(decoded) == 1
    assert value == oracles.oracle_comm3(weyl, subs) and value


@pytest.mark.parametrize("field", ["q", "f7"])
def test_comm3_products_enter_the_loop_without_zero_sums(field, alg_q, alg_f7, monkeypatch):
    # six reductions per value, each entered with nonzero ints: residues
    # in [1, p) over F_p
    alg = alg_q if field == "q" else alg_f7
    sys_ = make_system(alg, WEYL_RULE)
    p = alg.field.p
    entered = _spy(monkeypatch, rewrite, "_reduce_terms", lambda terms, *rest: list(terms.values()))
    for t in range(10):
        rng = rng_for(18, "comm3enter", field, t)
        triple_commutator_nf(sys_, tuple(random_poly(sys_, 2, rng) for _ in range(6)))
    assert len(entered) == 60
    for coeffs in entered:
        assert 0 not in coeffs
        assert p is None or all(0 < c < p for c in coeffs)


@pytest.mark.parametrize(
    "trials, max_deg, message",
    [
        (0, 2, "trials must be at least 1, got 0"),
        (5, 0, "max_deg must be at least 1, got 0"),
        (5, -1, "max_deg must be at least 1, got -1"),
    ],
)
def test_verify_identity_rejects_vacuous_runs(irving, trials, max_deg, message):
    # no trial, or degree-0 substitutions, whose commutators are all 0
    with pytest.raises(ValueError, match=message):
        verify_identity_comm3(irving.system, trials, max_deg, seed=1)


def test_verify_identity_holds_on_irving(irving):
    rep = verify_identity_comm3(irving.system, 60, 4, seed=2024)
    assert rep.holds and rep.counterexample is None and rep.trials == 60


def test_verify_identity_finds_counterexample_in_free_algebra(alg_q):
    # with no relations the algebra is free, and free algebras satisfy no
    # polynomial identity: the fuzz must find a nonzero value
    free = RewriteSystem(alg_q, ())
    rep = verify_identity_comm3(free, 50, 2, seed=5)
    assert not rep.holds
    cex = rep.counterexample
    assert cex is not None and not cex.value.is_zero()
    assert len(cex.substitution) == 6
    # the recorded substitution reproduces the recorded value
    assert triple_commutator_nf(free, cex.substitution) == cex.value


def test_verify_identity_deterministic(irving):
    a = verify_identity_comm3(irving.system, 30, 3, seed=9)
    b = verify_identity_comm3(irving.system, 30, 3, seed=9)
    assert a == b


# -- the factorization witness ---------------------------------------------------------


def test_witness_passes_on_bundled(irving):
    rep = verify_lemma_witness(irving.system, irving.witness)
    assert rep.verdict
    assert rep.recovers_x and rep.z_in_ideal and rep.y_kills_z and rep.nonzero
    assert rep.residual_x.is_zero() and rep.residual_z.is_zero()
    assert rep.annihilation.is_zero()
    assert str(rep.nf_x) == "x" and str(rep.nf_z) == "x*y*x"


def test_witness_failure_modes(irving):
    alg = irving.alg
    w = irving.witness
    z0 = LemmaWitness(w.x, w.y, alg.zero(), w.a, w.b)
    rep = verify_lemma_witness(irving.system, z0)
    assert not rep.verdict and not rep.nonzero
    a0 = LemmaWitness(w.x, w.y, w.z, alg.zero(), w.b)
    rep = verify_lemma_witness(irving.system, a0)
    assert not rep.verdict and not rep.recovers_x and str(rep.residual_x) == "x"
    badb = LemmaWitness(w.x, w.y, w.z, w.a, alg.parse("y"))
    rep = verify_lemma_witness(irving.system, badb)
    assert not rep.verdict and not rep.z_in_ideal
    # y in place of z survives: yz check fails (nf(y*y) = yy != 0)
    yz = LemmaWitness(w.x, w.y, alg.parse("y"), w.a, w.b)
    rep = verify_lemma_witness(irving.system, yz)
    assert not rep.verdict and not rep.y_kills_z


def test_witness_needs_confluence_for_nonzero(irving):
    # irving plus x*y -> 1 presents the zero ring, yet x stays irreducible
    alg = irving.alg
    sys_ = irving.system.with_rule(RewriteRule(alg.word_from_names("x", "y"), alg.one()))
    rep = verify_lemma_witness(sys_, irving.witness)
    assert rep.recovers_x and rep.z_in_ideal and rep.y_kills_z
    assert rep.nf_x and rep.nf_z
    assert not rep.confluent and not rep.nonzero and not rep.verdict
    assert verify_lemma_witness(irving.system, irving.witness).confluent


def test_witness_items_order(irving):
    assert [k for k, _ in irving.witness.items()] == ["x", "y", "z", "a", "b"]


def test_presentation_text_reuse_for_prime_field():
    text = "field Fp 7\ngens x y\nrel x*x\nrel y*x*y - x\nwitness x=x y=y z=x*y*x a=y b=y*x\n"
    pres = parse_presentation(text, "irving-f7")
    rep = verify_lemma_witness(pres.system, pres.witness)
    assert rep.verdict
    assert verify_identity_comm3(pres.system, 40, 3, seed=3).holds
