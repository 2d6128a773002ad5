import pytest

from ncdiamond import (
    Field,
    PresentationError,
    bundled_preset_names,
    check_confluence,
    load_presentation,
    parse_presentation,
    verify_lemma_witness,
)


# -- bundled presets -------------------------------------------------------------------


def test_bundled_preset_names():
    assert bundled_preset_names() == ["cohnsasiada.pres", "irving.pres"]


def test_irving_preset_contents(irving):
    assert irving.alg.field == Field.rationals()
    assert irving.alg.gens == ("x", "y")
    assert [str(r) for r in irving.system.rules] == ["x*x -> 0", "y*x*y -> x"]
    w = irving.witness
    assert w is not None
    assert [str(p) for _, p in w.items()] == ["x", "y", "x*y*x", "y", "y*x"]
    assert verify_lemma_witness(irving.system, w).verdict


def test_cohnsasiada_preset_contents(cohnsasiada):
    assert cohnsasiada.alg.gens == ("x", "y")
    assert [str(r) for r in cohnsasiada.system.rules] == ["y*x*x*y -> x"]
    assert cohnsasiada.witness is None
    assert not check_confluence(cohnsasiada.system).overall


def test_load_presentation_prefers_filesystem(tmp_path):
    f = tmp_path / "irving"  # shadow a preset name with different content
    f.write_text("field Fp 5\ngens x\nrel x*x\n")
    pres = load_presentation(str(f))
    assert pres.alg.field == Field.prime(5)
    assert pres.name == str(f)


def test_load_presentation_bundled_fallback():
    by_stem = load_presentation("irving")
    by_name = load_presentation("irving.pres")
    assert by_stem.system.rules == by_name.system.rules
    assert by_stem.name == "irving.pres"
    with pytest.raises(FileNotFoundError):
        load_presentation("no-such-preset")


# -- parsing ---------------------------------------------------------------------------


def test_parse_minimal():
    pres = parse_presentation("field Q\ngens a b c\n")
    assert pres.alg.gens == ("a", "b", "c")
    assert pres.system.rules == ()
    assert pres.witness is None
    assert check_confluence(pres.system).overall  # vacuously


def test_parse_comments_and_blank_lines():
    text = """
    # a comment line
    field Q   # trailing comment

    gens x y  # names
    rel x*x   # oriented automatically
    """
    pres = parse_presentation(text)
    assert [str(r) for r in pres.system.rules] == ["x*x -> 0"]


def test_rel_auto_orientation_monic():
    pres = parse_presentation("field Q\ngens x y\nrel 2*x*x - y\n")
    assert [str(r) for r in pres.system.rules] == ["x*x -> 1/2*y"]
    pres7 = parse_presentation("field Fp 7\ngens x y\nrel 2*x*x - y\n")
    assert [str(r) for r in pres7.system.rules] == ["x*x -> 4*y"]  # 1/2 = 4 mod 7


def test_rel_orientation_picks_deglex_leader():
    # y*x + x*y: leader is y*x, so the rule flips the product order
    pres = parse_presentation("field Q\ngens x y\nrel y*x - x*y\n")
    assert [str(r) for r in pres.system.rules] == ["y*x -> x*y"]
    # a constant tail is fine as long as the leader is a real word
    pres = parse_presentation("field Q\ngens x y\nrel x - 2\n")
    assert [str(r) for r in pres.system.rules] == ["x -> 2"]


def test_rule_keyword_explicit_orientation():
    pres = parse_presentation("field Q\ngens x y\nrule y*x*y -> x\nrule x*x -> 0\n")
    assert [str(r) for r in pres.system.rules] == ["y*x*y -> x", "x*x -> 0"]


def test_witness_parsing_whitespace_tolerant():
    text = "field Q\ngens x y\nrel x*x\nwitness x = x y=y z= x*y*x a =y b=y*x\n"
    w = parse_presentation(text).witness
    assert w is not None and str(w.z) == "x*y*x" and str(w.b) == "y*x"


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("gens x y\n", 1, "after 'field'"),
        ("field Q\nrel x*x\n", 2, "after 'field' and 'gens'"),
        ("field R\ngens x\n", 1, "expected 'field Q' or 'field Fp <p>'"),
        ("field Fp 4\ngens x\n", 1, "bad prime field"),
        ("field Fp x\ngens x\n", 1, "bad prime field"),
        ("field Q\nfield Q\n", 2, "duplicate 'field'"),
        ("field Q\ngens x\ngens y\n", 3, "duplicate 'gens'"),
        ("field Q\ngens\n", 2, "at least one generator"),
        ("field Q\ngens x x\n", 2, ""),
        ("field Q\ngens x y\nrel x*x - x*x\n", 3, "reduces to 0"),
        ("field Q\ngens x y\nrel 2\n", 3, "constant leading term"),
        ("field Q\ngens x y\nrel x*q\n", 3, "bad relation"),
        ("field Q\ngens x y\nrule x*x\n", 3, "needs '->'"),
        ("field Q\ngens x y\nrule 2*x -> 0\n", 3, "coefficient 1"),
        ("field Q\ngens x y\nrule x + y -> 0\n", 3, "single monomial"),
        ("field Q\ngens x y\nrule 1 -> x\n", 3, "nonempty word"),
        ("field Q\ngens x y\nrule x*x -> q\n", 3, "bad rule"),
        ("field Q\ngens x y\nbogus stuff\n", 3, "unknown keyword"),
        ("field Q\ngens x y\nwitness x=x\n", 3, "missing components"),
        ("field Q\ngens x y\nwitness x=x x=y y=y z=x a=x b=x\n", 3, "duplicate witness component"),
        ("field Q\ngens x y\nwitness q x=x\n", 3, "before first assignment"),
        ("field Q\ngens x y\nwitness x=@ y=y z=x a=x b=x\n", 3, "bad witness component"),
        (
            "field Q\ngens x y\nrel x*x\nwitness x=x y=y z=x a=x b=x\nwitness x=x y=y z=x a=x b=x\n",
            5,
            "duplicate 'witness'",
        ),
        ("# nothing but comments\n", 1, "no 'field'/'gens'"),
        ("", 1, "no 'field'/'gens'"),
        (
            "field Q\ngens x y\nrel x*x\nrel y*x*y - \u00b2*x\n",
            4,
            "bad relation: unexpected character '\u00b2' (at position 8)",
        ),
        # rewrite-system validation errors name the offending rule's line
        ("field Q\ngens x y\nrule x -> y*x*y\n", 3, "not deglex-decreasing"),
        ("field Q\ngens x y\nrel x*x\nrel y*y\nrule x*x -> y\n", 5, "two rules share the left-hand side x*x"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(PresentationError) as ei:
        parse_presentation(text, name="bad.pres")
    assert ei.value.lineno == lineno
    assert ei.value.source == "bad.pres"
    assert str(ei.value).startswith(f"bad.pres:{lineno}: ")
    assert fragment in str(ei.value)


def test_duplicate_lhs_rejected_via_system_validation():
    with pytest.raises(PresentationError):
        parse_presentation("field Q\ngens x y\nrel x*x\nrule x*x -> 0\n")


def test_repeated_lhs_that_is_not_decreasing_reports_the_order():
    # the rule checks itself before the system sees its repeated left side
    with pytest.raises(PresentationError, match=r"^bad.pres:4: rule x\*x -> x\*x\*x is not deglex"):
        parse_presentation("field Q\ngens x y\nrel x*x\nrule x*x -> x*x*x\n", name="bad.pres")


def test_parse_presentation_is_reusable_for_other_fields():
    base = "field Fp {p}\ngens x y\nrel x*x\nrel y*x*y - x\n"
    for p in (2, 3, 101):
        pres = parse_presentation(base.format(p=p))
        assert pres.alg.field == Field.prime(p)
        assert check_confluence(pres.system).overall
