from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracles as oracles
from ncdiamond import (
    EMPTY_WORD,
    Field,
    FieldError,
    FreeAlgebra,
    NcPoly,
    ParseError,
    deglex_compare,
    parse_poly,
    word_indices,
    word_of,
)
from ncdiamond import ncpoly
from ncdiamond.seeding import rng_for


def test_word_helpers():
    assert word_of([0, 1, 0]) == "\x00\x01\x00"
    assert word_indices("\x00\x01") == (0, 1)
    assert word_of([]) == EMPTY_WORD


def test_deglex_compare_golden_cases(alg_q):
    x = alg_q.word_from_names("x")
    xy = alg_q.word_from_names("x", "y")
    yx = alg_q.word_from_names("y", "x")
    yxy = alg_q.word_from_names("y", "x", "y")
    assert deglex_compare(x, yxy) == -1  # degree 1 < 3
    assert deglex_compare(xy, yx) == -1  # same degree, x before y
    assert deglex_compare(yx, xy) == 1
    assert deglex_compare(xy, xy) == 0


def test_sorted_low_degree_words(alg_q):
    words = [EMPTY_WORD]
    letters = [alg_q.word_from_names("x"), alg_q.word_from_names("y")]
    words += letters
    words += [a + b for a in letters for b in letters]
    assert [alg_q.word_str(w) for w in alg_q.sort_words(words)] == [
        "1", "x", "y", "x*x", "x*y", "y*x", "y*y",
    ]


def test_declaration_order_is_the_letter_order():
    # declaring y first ranks y below x
    alg = FreeAlgebra(Field.rationals(), ("y", "x"))
    xy = alg.word_from_names("x", "y")
    yx = alg.word_from_names("y", "x")
    assert deglex_compare(yx, xy) == -1
    assert alg.sort_words([xy, yx]) == [yx, xy]
    p = alg.parse("y*x + x*y + y - x")
    assert str(p) == "x*y + y*x - x + y"
    assert alg.parse(str(p)) == p


def test_algebra_validation():
    f = Field.rationals()
    with pytest.raises(ValueError):
        FreeAlgebra(f, ())
    with pytest.raises(ValueError):
        FreeAlgebra(f, ("x", "x"))
    with pytest.raises(ValueError):
        FreeAlgebra(f, ("x", "2bad"))


def test_parse_relation_terms(alg_q):
    p = alg_q.parse("y*x*y - x")
    want = {alg_q.word_from_names("y", "x", "y"): Fraction(1), alg_q.word_from_names("x"): Fraction(-1)}
    assert p.as_dict() == want
    assert p.leading_term()[0] == alg_q.word_from_names("y", "x", "y")


def test_parse_zero(alg_q):
    assert alg_q.parse("0").is_zero()
    assert alg_q.parse("x - x").is_zero()


def test_parse_expand_f7(alg_f7):
    p = alg_f7.parse("(x+y)*(x-y)")
    w = alg_f7.word_from_names
    assert p.as_dict() == {w("x", "x"): 1, w("x", "y"): 6, w("y", "x"): 1, w("y", "y"): 6}


def test_parse_scalars_and_unary_minus(alg_q):
    assert alg_q.parse("3/4*x - -x") == alg_q.parse("3/4*x + x")
    assert alg_q.parse("-2") == alg_q.scalar(Fraction(-2))
    assert alg_q.parse("2*3") == alg_q.scalar(Fraction(6))
    assert alg_q.parse("1/2*(x+y) - 1/2*x - 1/2*y").is_zero()


def test_parse_error_positions(alg_q):
    with pytest.raises(ParseError) as e:
        alg_q.parse("x + @")
    assert e.value.pos == 4
    with pytest.raises(ParseError) as e:
        alg_q.parse("x y")  # juxtaposition forbidden
    assert e.value.pos == 2
    with pytest.raises(ParseError):
        alg_q.parse("x*")
    with pytest.raises(ParseError):
        alg_q.parse("(x")
    with pytest.raises(ParseError):
        alg_q.parse("")
    with pytest.raises(ParseError) as e:
        alg_q.parse("\u00b2")  # a digit to str.isdigit, but not one int() reads
    assert "unexpected character" in str(e.value) and e.value.pos == 0
    with pytest.raises(ParseError) as e:
        alg_q.parse("x + z")
    assert "unknown generator" in str(e.value) and e.value.pos == 4
    with pytest.raises(ParseError):
        alg_q.parse("1/0")
    with pytest.raises(ParseError):
        alg_q.parse("1/")


def test_parse_errors_inside_a_word(alg_q):
    # a run of generators is read name by name, so an unknown one is named
    # at its own position wherever it falls, and the run ends at the first
    # factor that is not a generator
    for text, pos in (("z*x*y", 0), ("x*z*y", 2), ("x*y*z", 4), ("2*x*y*yy - x", 6)):
        with pytest.raises(ParseError, match="unknown generator") as e:
            alg_q.parse(text)
        assert e.value.pos == pos
    for text, message, pos in (
        ("x*y*", "expected a scalar", 4),
        ("x*y y", "unexpected trailing input", 4),
        ("x*y*)", "expected a scalar", 4),
    ):
        with pytest.raises(ParseError, match=message) as e:
            alg_q.parse(text)
        assert e.value.pos == pos


def test_parse_word_is_one_monomial(alg_q, monkeypatch):
    calls = []
    real = ncpoly._product
    monkeypatch.setattr(ncpoly, "_product", lambda *a: calls.append(a) or real(*a))
    w = alg_q.word_from_names
    assert alg_q.parse("x*y*y*x") == alg_q.monomial(w("x", "y", "y", "x"))
    assert alg_q.parse("y*x*y - x") == alg_q.monomial(w("y", "x", "y")) - alg_q.gen("x")
    assert calls == []
    # a scalar or a parenthesis still multiplies the word once
    assert alg_q.parse("3*x*y") == alg_q.monomial(w("x", "y"), Fraction(3))
    assert alg_q.parse("(x + y)*y*x") == alg_q.parse("x*y*x + y*y*x")
    assert len(calls) == 2


def _random_expression(alg, rng, depth=2):
    """(text, polynomial): a random sum of products of generators, scalars,
    negations and parenthesized sums, the polynomial folded from NcPoly
    products of its factors left to right."""
    text, total = [], alg.zero()
    for k in range(rng.randint(1, 3)):
        parts, factors = [], []
        for _ in range(rng.randint(1, 5)):
            r = rng.random()
            if r < 0.6:
                name = rng.choice(alg.gens)
                parts.append(name)
                factors.append(alg.gen(name))
            elif r < 0.75:
                c = rng.randint(1, 9)
                parts.append(str(c))
                factors.append(alg.scalar(alg.field.from_int(c)))
            elif r < 0.85 or not depth:
                name = rng.choice(alg.gens)
                parts.append(f"-{name}")
                factors.append(-alg.gen(name))
            else:
                sub_text, sub = _random_expression(alg, rng, depth - 1)
                parts.append(f"({sub_text})")
                factors.append(sub)
        product = factors[0]
        for f in factors[1:]:
            product = product * f
        sign = rng.choice("+-") if k else ""
        text.append(f" {sign} " + "*".join(parts) if k else "*".join(parts))
        total = total - product if sign == "-" else total + product
    return "".join(text), total


@pytest.mark.parametrize("which", ["Q", "F7"])
def test_parse_matches_a_fold_of_products(which, alg_q, alg_f7):
    alg = alg_q if which == "Q" else alg_f7
    for t in range(300):
        text, want = _random_expression(alg, rng_for(102, "parse-fold", which, t))
        assert alg.parse(text) == want, text


def test_parse_fp_noninvertible_literal(alg_f7):
    with pytest.raises(ParseError):
        alg_f7.parse("1/7*x")


def test_parse_poly_module_helper():
    p = parse_poly("a*b - 1", ["a", "b"], Field.rationals())
    assert p.alg.gens == ("a", "b")
    assert p.coeff(EMPTY_WORD) == Fraction(-1)


def random_poly_dense(alg, rng, max_deg=4, max_terms=5):
    """Arbitrary (not normal-word) random polynomial for ring-axiom fuzz."""
    d = {}
    for _ in range(rng.randint(0, max_terms)):
        deg = rng.randint(0, max_deg)
        w = "".join(chr(rng.randrange(len(alg.gens))) for _ in range(deg))
        d[w] = alg.field.random_scalar(rng)
    return NcPoly(alg, d)


@pytest.mark.parametrize("which", ["Q", "F7"])
def test_ring_axioms_500_triples(which, alg_q, alg_f7):
    alg = alg_q if which == "Q" else alg_f7
    one = alg.one()
    zero = alg.zero()
    for t in range(500):
        rng = rng_for(100, "ring", which, t)
        a = random_poly_dense(alg, rng)
        b = random_poly_dense(alg, rng)
        c = random_poly_dense(alg, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert one * a == a and a * one == a
        assert zero + a == a and zero * a == zero
        assert a - a == zero
        assert a + (-a) == zero


@pytest.mark.parametrize("which", ["Q", "F7"])
def test_parser_round_trip_500(which, alg_q, alg_f7):
    alg = alg_q if which == "Q" else alg_f7
    for t in range(500):
        rng = rng_for(101, "roundtrip", which, t)
        p = random_poly_dense(alg, rng)
        assert alg.parse(str(p)) == p


def test_str_canonical_forms(alg_q, alg_f7):
    assert str(alg_q.zero()) == "0"
    assert str(alg_q.one()) == "1"
    assert str(alg_q.parse("-x")) == "-x"
    assert str(alg_q.parse("x - y")) == "-y + x"
    assert str(alg_q.parse("-3/4*x + y*y")) == "y*y - 3/4*x"
    assert str(alg_q.parse("x*y*x")) == "x*y*x"
    assert str(alg_f7.parse("x - y")) == "6*y + x"
    assert str(alg_f7.parse("y*y + x*x + x*y")) == "y*y + x*y + x*x"


def test_terms_sorted_descending_and_leading(alg_q):
    p = alg_q.parse("1 + x + y*x*y + x*y")
    words = [alg_q.word_str(w) for w, _ in p.terms]
    assert words == ["y*x*y", "x*y", "x", "1"]
    assert p.degree() == 3
    assert alg_q.zero().degree() is None
    with pytest.raises(ValueError):
        alg_q.zero().leading_term()


def test_poly_accessors(alg_q):
    p = alg_q.parse("2*x*y - 3")
    assert p.coeff(alg_q.word_from_names("x", "y")) == Fraction(2)
    assert p.coeff(alg_q.word_from_names("y")) == 0
    assert p.constant_term() == Fraction(-3)
    assert alg_q.parse("x").constant_term() == 0
    assert p.support() == (alg_q.word_from_names("x", "y"), EMPTY_WORD)
    assert bool(p) and not bool(alg_q.zero())


def test_scale_pow_truncate(alg_q):
    p = alg_q.parse("x + y")
    assert p.scale(0).is_zero()
    assert p.scale(Fraction(1, 2)) == alg_q.parse("1/2*x + 1/2*y")
    assert 2 * p == p * 2 == p + p
    assert p**0 == alg_q.one()
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)
    q = alg_q.parse("1 + x + x*y + x*y*x")
    assert q.truncate(1) == alg_q.parse("1 + x")
    assert q.truncate(0) == alg_q.one()
    assert q.truncate(5) == q


def test_immutability_and_cross_algebra(alg_q, alg_f7):
    p = alg_q.parse("x")
    with pytest.raises(AttributeError):
        p.terms = ()
    with pytest.raises(FieldError):
        p + alg_f7.parse("x")
    with pytest.raises(FieldError):
        p * alg_f7.parse("x")
    assert p.__mul__(1.5) is NotImplemented
    assert p.__mul__(True) is NotImplemented


def test_word_validation(alg_q):
    with pytest.raises(ValueError):
        NcPoly(alg_q, {"\x05": Fraction(1)})
    with pytest.raises(ValueError):
        NcPoly(alg_q, {"\x00\x02": 1})
    with pytest.raises(FieldError):
        NcPoly(alg_q, {"\x00": 1.5})


def random_canonical_dict(alg, rng, max_deg=4, max_terms=6):
    """Words in the alphabet with canonical coefficients, the empty word and
    zero coefficients included."""
    f = alg.field
    d = {EMPTY_WORD: f.random_scalar(rng)}
    for _ in range(rng.randint(0, max_terms)):
        w = "".join(chr(rng.randrange(len(alg.gens))) for _ in range(rng.randint(0, max_deg)))
        d[w] = f.zero() if rng.random() < 0.3 else f.random_scalar(rng)
    return d


@pytest.mark.parametrize("which", ["Q", "F7"])
def test_trusted_constructor_matches_checking_one(which, alg_q, alg_f7):
    alg = alg_q if which == "Q" else alg_f7
    for t in range(300):
        d = random_canonical_dict(alg, rng_for(102, "canonical", which, t))
        kept = dict(d)
        p, checked = NcPoly._canonical(alg, d), NcPoly(alg, d)
        assert p.terms == checked.terms and hash(p) == hash(checked)
        assert [type(c) for _, c in p.terms] == [type(c) for _, c in checked.terms]
        assert d == kept


@pytest.mark.parametrize("which", ["Q", "F7", "F2^61-1"])
def test_arithmetic_matches_dict_oracles(which, alg_q, alg_f7, alg_fbig):
    alg = {"Q": alg_q, "F7": alg_f7}.get(which, alg_fbig)
    f = alg.field
    for t in range(200):
        rng = rng_for(103, "dict-arith", which, t)
        a, b = random_poly_dense(alg, rng), random_poly_dense(alg, rng)
        da, db = a.as_dict(), b.as_dict()
        assert (a + b) == NcPoly(alg, oracles.dict_add(f, da, db))
        assert (a - b) == NcPoly(alg, oracles.dict_add(f, da, oracles.dict_neg(f, db)))
        assert -a == NcPoly(alg, oracles.dict_neg(f, da))
        for cap in (None, *range(6)):
            ab = a.__mul__(b, cap)
            assert ab == NcPoly(alg, oracles.dict_mul(f, da, db, cap))
            assert all(oracles.is_canonical_scalar(f, c) for _, c in ab.terms)


def test_word_str_with_long_generator_names():
    alg = FreeAlgebra(Field.rationals(), ("alpha", "b2", "x_1", "y"))
    assert alg.word_str(EMPTY_WORD) == "1"
    for t in range(100):
        rng = rng_for(104, "word-str", t)
        w = "".join(chr(rng.randrange(4)) for _ in range(rng.randint(1, 7)))
        assert alg.word_str(w) == "*".join(alg.gens[ord(c)] for c in w)
    assert str(alg.parse("2*alpha*b2 - x_1*y*alpha")) == "-x_1*y*alpha + 2*alpha*b2"


def test_hash_consistency(alg_q):
    a = alg_q.parse("x*y + 1")
    b = alg_q.parse("1 + x*y")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


words_st = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=6).map(
    lambda ix: "".join(chr(i) for i in ix)
)


@given(words_st, words_st, words_st)
@settings(max_examples=200)
def test_deglex_multiplication_compatible(u, v, w):
    cmp = deglex_compare(u, v)
    assert deglex_compare(w + u, w + v) == cmp
    assert deglex_compare(u + w, v + w) == cmp


@given(words_st, words_st)
def test_deglex_total_order(u, v):
    c = deglex_compare(u, v)
    assert c in (-1, 0, 1)
    assert (c == 0) == (u == v)
    assert deglex_compare(v, u) == -c
