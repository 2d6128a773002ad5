from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncdiamond import Field, FieldError, is_prime
from ncdiamond.seeding import rng_for


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-5, 2000):
        assert is_prime(n) == trial_division(n), n


def test_is_prime_larger_samples():
    for n in (2**31 - 1, 2**31, 10**12 + 39, 10**12 + 40, 999_999_999_989):
        assert is_prime(n) == trial_division(n), n


def test_field_construction_and_parse():
    q = Field.rationals()
    assert q.kind == "Q" and q.p is None and str(q) == "Q"
    f7 = Field.prime(7)
    assert f7.kind == "Fp" and f7.p == 7 and str(f7) == "Fp:7"
    assert Field.parse("Q") == q
    assert Field.parse("Fp:7") == f7
    assert Field.parse("Fp:2").p == 2


@pytest.mark.parametrize("bad", ["", "q", "R", "Fp", "Fp:", "Fp:abc", "Fp:4", "Fp:1", "Fp:-3"])
def test_field_parse_rejects(bad):
    with pytest.raises(FieldError):
        Field.parse(bad)


def test_field_validation():
    with pytest.raises(FieldError):
        Field("Fp", 6)
    with pytest.raises(FieldError):
        Field("Fp", None)
    with pytest.raises(FieldError):
        Field("Fp", 1 << 63)  # modulus must fit in 63 bits
    with pytest.raises(FieldError):
        Field("Q", 5)
    with pytest.raises(FieldError):
        Field("weird")
    # largest prime below 2^63 is fine
    Field.prime((1 << 63) - 25)


def test_scalar_construction_q():
    q = Field.rationals()
    assert q.zero() == Fraction(0) and q.one() == Fraction(1)
    assert q.from_int(-3) == Fraction(-3)
    assert q.from_ratio(2, -4) == Fraction(-1, 2)
    assert q.normalize(5) == Fraction(5)
    assert q.normalize(Fraction(6, 4)) == Fraction(3, 2)
    half = Fraction(1, 2)
    assert q.normalize(half) is half
    with pytest.raises(FieldError):
        q.from_ratio(1, 0)
    with pytest.raises(FieldError):
        q.normalize(True)
    with pytest.raises(FieldError):
        q.normalize(1.5)


def test_scalar_construction_fp():
    f7 = Field.prime(7)
    assert f7.from_int(-1) == 6
    assert f7.from_ratio(1, 2) == 4  # 2*4 = 8 = 1 mod 7
    assert f7.normalize(Fraction(1, 2)) == 4
    assert f7.normalize(10) == 3
    with pytest.raises(FieldError):
        f7.from_ratio(1, 7)
    with pytest.raises(FieldError):
        f7.normalize(Fraction(1, 14))
    with pytest.raises(FieldError):
        f7.normalize(True)
    with pytest.raises(FieldError):
        f7.normalize("3")


def test_inverse_and_division():
    for field in (Field.rationals(), Field.prime(101)):
        for k in range(1, 20):
            a = field.from_int(k)
            if a == 0:
                continue
            assert field.mul(a, field.inv(a)) == field.one()
            assert field.div(a, a) == field.one()
        with pytest.raises(FieldError):
            field.inv(field.zero())


ints = st.integers(min_value=-50, max_value=50)


@given(ints, ints, ints)
def test_field_axioms_q(a, b, c):
    f = Field.rationals()
    A, B, C = f.from_int(a), f.from_int(b), f.from_int(c)
    assert f.add(A, B) == f.add(B, A)
    assert f.mul(A, B) == f.mul(B, A)
    assert f.add(f.add(A, B), C) == f.add(A, f.add(B, C))
    assert f.mul(f.mul(A, B), C) == f.mul(A, f.mul(B, C))
    assert f.mul(A, f.add(B, C)) == f.add(f.mul(A, B), f.mul(A, C))
    assert f.add(A, f.neg(A)) == f.zero()
    assert f.sub(A, B) == f.add(A, f.neg(B))


@given(ints, ints, ints)
def test_field_axioms_f7(a, b, c):
    f = Field.prime(7)
    A, B, C = f.from_int(a), f.from_int(b), f.from_int(c)
    assert 0 <= A < 7
    assert f.add(A, B) == (a + b) % 7
    assert f.mul(A, B) == (a * b) % 7
    assert f.mul(A, f.add(B, C)) == f.add(f.mul(A, B), f.mul(A, C))
    assert f.add(A, f.neg(A)) == 0


def test_random_scalar_conventions():
    q = Field.rationals()
    f7 = Field.prime(7)
    rng = rng_for(0, "scalars")
    for _ in range(300):
        a = q.random_scalar(rng)
        assert isinstance(a, Fraction)
        assert abs(a.numerator) <= 9 and 1 <= a.denominator <= 9
        b = q.random_nonzero(rng)
        assert b != 0
        r = f7.random_scalar(rng)
        assert 0 <= r < 7
        s = f7.random_nonzero(rng)
        assert 1 <= s < 7


def test_rng_for_is_deterministic_and_label_sensitive():
    a = rng_for(1, "x", 2).random()
    b = rng_for(1, "x", 2).random()
    c = rng_for(1, "x", 3).random()
    d = rng_for(2, "x", 2).random()
    assert a == b
    assert a != c and a != d
