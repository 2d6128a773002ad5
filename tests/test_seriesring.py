from fractions import Fraction

import pytest

import engine_oracles as oracles
from ncdiamond import (
    Field,
    FieldError,
    FreeAlgebra,
    SeriesMatrix,
    SExtElement,
    TruncSeries,
    circle,
    collapse_demo,
    neumann_inverse,
    quasi_inverse,
    random_radical_matrix,
    random_s_ext,
    random_series,
    stable_finiteness_probe,
)
from ncdiamond import ncpoly, seriesring
from ncdiamond.seeding import rng_for


def ts(alg, text, cap):
    return TruncSeries(alg.parse(text), cap)


@pytest.fixture(scope="module")
def alg():
    return FreeAlgebra(Field.rationals(), ("x", "y"))


@pytest.fixture(scope="module")
def alg7():
    return FreeAlgebra(Field.prime(7), ("x", "y"))


# -- truncated series ------------------------------------------------------------------


def test_series_truncates_on_construction(alg):
    assert ts(alg, "x*y*x", 2).is_zero()
    s = ts(alg, "1 + x + x*y + x*y*x", 2)
    assert str(s) == "x*y + x + 1"
    assert s.constant_term() == 1
    assert s.cap == 2 and s.alg is alg


def test_series_cap_validation(alg):
    for bad in (0, -1, True, 2.5):
        with pytest.raises(ValueError):
            TruncSeries(alg.one(), bad)


def test_series_arithmetic_frozen(alg):
    x = ts(alg, "x", 1)
    assert (x * x).is_zero()
    x2, y2 = ts(alg, "x", 2), ts(alg, "y", 2)
    assert (x2 + y2) * x2 == ts(alg, "x*x + y*x", 2)
    assert (x2 * TruncSeries.zero(alg, 2)).is_zero()
    one = TruncSeries.one(alg, 2)
    assert (one + x2) ** 2 == ts(alg, "1 + 2*x + x*x", 2)
    assert (one + x2) ** 0 == one
    assert -x2 == TruncSeries.zero(alg, 2) - x2
    assert x2.scale(Fraction(1, 2)) == ts(alg, "1/2*x", 2)


def test_series_power_takes_a_nonnegative_integer(alg):
    x = ts(alg, "x", 3)
    for k in (-2, 1.5):
        with pytest.raises(ValueError, match="nonnegative integer"):
            x**k


def test_series_mismatch_errors(alg, alg7):
    a = ts(alg, "x", 3)
    with pytest.raises(ValueError):
        a + ts(alg, "x", 4)
    with pytest.raises(FieldError):
        a * TruncSeries(alg7.parse("x"), 3)
    with pytest.raises(TypeError):
        a * 2


def test_series_product_commutes_with_truncation(alg, alg7):
    # truncating first and multiplying equals multiplying polynomials and
    # truncating once: dropped terms only ever produce dropped terms
    for which, a in (("Q", alg), ("F7", alg7)):
        sys_rng = rng_for(21, "trunccompat", which)
        for _ in range(60):
            cap = sys_rng.randint(1, 4)
            p = _random_poly_any(a, 5, sys_rng)
            q = _random_poly_any(a, 5, sys_rng)
            lhs = TruncSeries(p, cap) * TruncSeries(q, cap)
            assert lhs == TruncSeries(p * q, cap)
            assert p.__mul__(q, cap) == (p * q).truncate(cap)


def test_series_product_forms_no_word_over_the_cap(alg):
    # x^3 * x^3 has degree 6 > 4: the series product forms no word from the
    # pair, the plain product then truncated forms x^6 once.  The word's
    # str subclass records every concatenation it takes part in, on either
    # side, which is where a product turns a pair of terms into an output
    # word.
    formed = []

    class SpyWord(str):
        def __add__(self, other):
            w = str.__add__(self, other)
            formed.append(w)
            return w

        def __radd__(self, other):
            w = str.__add__(other, self)
            formed.append(w)
            return w

    s = TruncSeries(alg.monomial(SpyWord("\x00" * 3)), 4)
    assert (s * s).is_zero()
    assert formed == []
    assert (s.body * s.body).truncate(4).is_zero()
    assert formed == ["\x00" * 6]
    m = SeriesMatrix(((s,),))
    assert (m @ m).is_zero()
    assert formed == ["\x00" * 6]
    # the geometric series of both inverses run the same loop: they form
    # x^3 from the identity and stop, x^6 being over the cap
    formed.clear()
    assert quasi_inverse(s) == -s
    ident = SeriesMatrix.identity(alg, 1, 4)
    assert neumann_inverse(ident + m) == ident - m
    assert formed == ["\x00" * 3, "\x00" * 3]


def _random_poly_any(alg, max_deg, rng):
    acc = alg.zero()
    for _ in range(rng.randint(0, 4)):
        d = rng.randint(0, max_deg)
        w = "".join(chr(rng.randrange(len(alg.gens))) for _ in range(d))
        acc = acc + alg.monomial(w).scale(alg.field.normalize(rng.randint(-4, 4)))
    return acc


def test_series_ring_laws(alg, alg7):
    for which, a in (("Q", alg), ("F7", alg7)):
        for t in range(60):
            rng = rng_for(22, "serieslaws", which, t)
            cap = rng.randint(1, 4)
            f = random_series(a, cap, rng, min_degree=0)
            g = random_series(a, cap, rng, min_degree=0)
            h = random_series(a, cap, rng, min_degree=0)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h


# -- quasi-inverses -------------------------------------------------------------------


def test_quasi_inverse_frozen(alg):
    f = ts(alg, "x", 3)
    g = quasi_inverse(f)
    assert str(g) == "-x*x*x - x*x - x"
    assert g * f == f + g == f * g
    assert circle(f, g).is_zero() and circle(g, f).is_zero()


def test_quasi_inverse_zero_and_errors(alg):
    z = TruncSeries.zero(alg, 4)
    assert quasi_inverse(z).is_zero()
    with pytest.raises(ValueError):
        quasi_inverse(ts(alg, "1 + x", 4))
    with pytest.raises(ValueError):
        quasi_inverse(ts(alg, "x - 1/3", 4))


def test_quasi_inverse_random(alg, alg7):
    for which, a in (("Q", alg), ("F7", alg7)):
        for t in range(50):
            rng = rng_for(23, "qi", which, t)
            f = random_series(a, rng.randint(2, 6), rng)
            g = quasi_inverse(f)
            assert g.constant_term() == 0
            assert g * f == f + g
            assert f * g == f + g
            assert quasi_inverse(g) == f or circle(quasi_inverse(g), f).is_zero()


def _oracle_quasi_inverse(s: TruncSeries) -> dict:
    """-(f + f^2 + ... + f^cap), one reference product and sum per power."""
    field, f = s.alg.field, s.body.as_dict()
    power, total = {"": field.one()}, {}
    for _ in range(s.cap):
        power = oracles.dict_mul(field, power, f, s.cap)
        total = oracles.dict_add(field, total, power)
    return oracles.dict_neg(field, total)


@pytest.mark.parametrize("which", ["Q", "F7", "F2^61-1"])
def test_quasi_inverse_matches_power_by_power_oracle(which, alg_q, alg_f7, alg_fbig):
    a = {"Q": alg_q, "F7": alg_f7}.get(which, alg_fbig)
    for cap in range(1, 8):
        for t in range(6):
            rng = rng_for(37, "qi-oracle", which, cap, t)
            f = random_series(a, cap, rng, max_terms=rng.randint(1, 5))
            got = quasi_inverse(f).body
            assert got.as_dict() == _oracle_quasi_inverse(f)
            assert all(oracles.is_canonical_scalar(a.field, c) for _, c in got.terms)


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call appends its arguments to a list."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_quasi_inverse_stops_at_a_power_the_cap_kills(alg, monkeypatch):
    # (x*y)^2 has degree 4 > 3: the loop forms f = 1*f and f^2 = 0, and stops
    products = _count_calls(monkeypatch, seriesring, "_product")
    g = quasi_inverse(ts(alg, "x*y", 3))
    assert str(g) == "-x*y"
    assert len(products) == 2


def test_inverses_clear_their_factor_once(alg, alg7, monkeypatch):
    # over Q the factor's coefficients are cleared to ints once, the powers
    # and sums stay ints; over F_p the residues are used as they are
    rng = rng_for(38, "clear-once")
    f = ts(alg, "x + 1/2*x*y - 2/3*y*y*x", 7)
    m = SeriesMatrix.identity(alg, 3, 6) + random_radical_matrix(alg, 3, 6, rng)
    m7 = SeriesMatrix.identity(alg7, 2, 6) + random_radical_matrix(alg7, 2, 6, rng)
    # _int_terms looks _cleared up in ncpoly, where fields' function is bound
    cleared = _count_calls(monkeypatch, ncpoly, "_cleared")
    quasi_inverse(f)
    assert len(cleared) == 1
    neumann_inverse(m)
    assert len(cleared) == 2
    neumann_inverse(m7)
    quasi_inverse(ts(alg7, "x + 3*x*y", 5))
    assert len(cleared) == 2


def test_circle_group_laws(alg):
    zero = TruncSeries.zero(alg, 4)
    for t in range(40):
        rng = rng_for(24, "circle", t)
        a = random_series(alg, 4, rng)
        b = random_series(alg, 4, rng)
        c = random_series(alg, 4, rng)
        assert circle(zero, a) == a == circle(a, zero)
        assert circle(circle(a, b), c) == circle(a, circle(b, c))
        assert quasi_inverse(quasi_inverse(a)) == a


# -- the square-zero extension ---------------------------------------------------------


def test_z_calculus(alg):
    cap = 4
    z = SExtElement.z_element(alg, cap)
    assert (z * z).is_zero()
    scalar_free = SExtElement.from_ring(ts(alg, "x + x*y", cap))
    assert (z * scalar_free).is_zero()
    unit_plus = SExtElement.from_ring(ts(alg, "2 + x", cap))
    assert z * unit_plus == z.scale(2)
    # multiplying z from the left keeps the whole series as coefficient
    assert (unit_plus * z).s1 == ts(alg, "2 + x", cap)
    assert (unit_plus * z).s0.is_zero()


def test_s_ext_product_matches_formula(alg):
    # (s0 + s1 z)(t0 + t1 z) = s0 t0 + (s0 t1 + gamma(t0) s1) z
    rng = rng_for(25, "sextmul")
    for _ in range(20):
        s = random_s_ext(alg, 3, rng)
        t = random_s_ext(alg, 3, rng)
        gamma = t.s0.constant_term()
        assert s * t == SExtElement(s.s0 * t.s0, s.s0 * t.s1 + s.s1.scale(gamma))


def test_from_ring_and_projection_are_homomorphisms(alg):
    for t in range(40):
        rng = rng_for(26, "hom", t)
        a = random_series(alg, 3, rng, min_degree=0)
        b = random_series(alg, 3, rng, min_degree=0)
        assert SExtElement.from_ring(a) * SExtElement.from_ring(b) == SExtElement.from_ring(a * b)
        s = random_s_ext(alg, 3, rng)
        u = random_s_ext(alg, 3, rng)
        assert (s * u).s0 == s.s0 * u.s0
        f = alg.field
        assert f.normalize((s * u).scalar_part()) == f.mul(
            f.normalize(s.scalar_part()), f.normalize(u.scalar_part())
        )


def test_s_ext_associativity_and_distributivity(alg, alg7):
    for which, a in (("Q", alg), ("F7", alg7)):
        for t in range(150):
            rng = rng_for(27, "sextassoc", which, t)
            r = random_s_ext(a, 3, rng)
            s = random_s_ext(a, 3, rng)
            u = random_s_ext(a, 3, rng)
            assert (r * s) * u == r * (s * u)
            assert r * (s + u) == r * s + r * u
            assert (r + s) * u == r * u + s * u


def test_s_ext_mismatch_errors(alg, alg7):
    a = SExtElement.z_element(alg, 3)
    with pytest.raises(ValueError):
        a + SExtElement.z_element(alg, 4)
    with pytest.raises(FieldError):
        a * SExtElement.z_element(alg7, 3)
    with pytest.raises(ValueError):
        SExtElement(TruncSeries.one(alg, 3), TruncSeries.one(alg, 4))


# -- the collapse replay ---------------------------------------------------------------


def test_collapse_demo_scalars(alg):
    cap = 4
    one = SExtElement.from_ring(TruncSeries.one(alg, cap))
    v_scalar = SExtElement.from_ring(ts(alg, "2 + y", cap))
    v_free = SExtElement.from_ring(ts(alg, "x", cap))
    assert collapse_demo((one,), (one,)).coeffs == (1,)
    assert collapse_demo((one, one), (v_scalar, v_free)).coeffs == (2, 0)
    with pytest.raises(ValueError):
        collapse_demo((one,), (one, one))
    # every product checks its operands, so mismatched pairs are refused too
    with pytest.raises(ValueError, match="caps differ"):
        collapse_demo((one,), (SExtElement.from_ring(TruncSeries.one(alg, cap + 1)),))


def test_collapse_demo_coeffs_reproduce_collapse_identity(alg):
    # sum u_i*(y*x*z)*v_i really equals (sum alpha_i*u_i^0*y) * (x*z)
    cap = 5
    x, y = ts(alg, "x", cap), ts(alg, "y", cap)
    z = SExtElement.z_element(alg, cap)
    yxz = SExtElement.from_ring(y * x) * z
    xz = SExtElement.from_ring(x) * z
    for t in range(30):
        rng = rng_for(28, "kstep", t)
        k = rng.randint(1, 4)
        u = tuple(random_s_ext(alg, cap, rng) for _ in range(k))
        v = tuple(random_s_ext(alg, cap, rng) for _ in range(k))
        total = SExtElement.zero(alg, cap)
        for ui, vi in zip(u, v):
            total = total + ui * yxz * vi
        alphas = collapse_demo(u, v).coeffs
        f = TruncSeries.zero(alg, cap)
        for alpha, ui in zip(alphas, u):
            f = f + (ui.s0 * y).scale(alpha)
        assert total == SExtElement.from_ring(f) * xz


def test_collapse_demo_builtin_instance(alg):
    cap = 6
    one = SExtElement.from_ring(TruncSeries.one(alg, cap))
    u = (one, SExtElement.from_ring(ts(alg, "1 + x", cap)))
    v = (one, SExtElement.from_ring(ts(alg, "2 + y", cap)))
    rep = collapse_demo(u, v)
    assert rep.coeffs == (1, 2)
    assert str(rep.f) == "2*x*y + 3*y"
    assert rep.verified
    assert len(rep.steps) == 4
    assert all(s.verified for s in rep.steps)
    assert rep.steps[3].lhs == "x*z" and rep.steps[3].rhs == "0"
    assert rep.g == quasi_inverse(rep.f)


def test_collapse_demo_single_pair_and_random(alg):
    one = SExtElement.from_ring(TruncSeries.one(alg, 4))
    rep = collapse_demo((one,), (one,))
    assert rep.verified and str(rep.f) == "y"
    for t in range(15):
        rng = rng_for(29, "collapse", t)
        k = rng.randint(1, 3)
        u = tuple(random_s_ext(alg, 5, rng) for _ in range(k))
        v = tuple(random_s_ext(alg, 5, rng) for _ in range(k))
        rep = collapse_demo(u, v)
        assert rep.verified and all(s.verified for s in rep.steps)


def test_collapse_demo_errors(alg):
    one = SExtElement.from_ring(TruncSeries.one(alg, 4))
    with pytest.raises(ValueError):
        collapse_demo((), ())
    with pytest.raises(ValueError):
        collapse_demo((one,), (one, one))
    single = FreeAlgebra(Field.rationals(), ("x",))
    s_one = SExtElement.from_ring(TruncSeries.one(single, 4))
    with pytest.raises(ValueError):
        collapse_demo((s_one,), (s_one,))


# -- random generators ----------------------------------------------------------------


def test_random_series_properties(alg7):
    for t in range(40):
        rng = rng_for(30, "randseries", t)
        cap = rng.randint(2, 5)
        s = random_series(alg7, cap, rng)
        assert s.cap == cap
        assert s.constant_term() == 0  # min_degree defaults to 1
        assert all(1 <= len(w) <= cap for w in s.body.support())
    a = random_series(alg7, 4, rng_for(31, "det"))
    b = random_series(alg7, 4, rng_for(31, "det"))
    assert a == b


def test_random_s_ext_deterministic(alg):
    a = random_s_ext(alg, 3, rng_for(32, "det"))
    b = random_s_ext(alg, 3, rng_for(32, "det"))
    assert a == b and a.cap == 3


# -- matrices and the finiteness probe ---------------------------------------------------


def test_series_matrix_basics(alg):
    ident = SeriesMatrix.identity(alg, 2, 3)
    assert ident.is_identity() and not ident.is_zero()
    assert ident @ ident == ident
    x, zero = ts(alg, "x", 3), TruncSeries.zero(alg, 3)
    m = SeriesMatrix(((zero, x), (zero, zero)))
    assert (m @ m).is_zero()
    assert m + m == m.scale(2)
    assert (m - m).is_zero()
    assert (ident + m) @ (ident - m) == ident


def test_series_matrix_validation(alg, alg7):
    x = ts(alg, "x", 3)
    with pytest.raises(ValueError):
        SeriesMatrix(())
    with pytest.raises(ValueError):
        SeriesMatrix(((x, x),))  # 1x2
    with pytest.raises(ValueError):
        SeriesMatrix(((x, x), (x, ts(alg, "x", 4))))
    with pytest.raises(FieldError):
        SeriesMatrix(((x, x), (x, TruncSeries(alg7.parse("x"), 3))))
    ident = SeriesMatrix.identity(alg, 2, 3)
    with pytest.raises(ValueError):
        ident @ SeriesMatrix.identity(alg, 3, 3)
    with pytest.raises(ValueError):
        ident + SeriesMatrix.identity(alg, 2, 4)


@pytest.mark.parametrize("which", ["Q", "F7", "F2^61-1"])
def test_series_matrix_product_matches_entrywise_oracle(which, alg_q, alg_f7, alg_fbig):
    # each entry of A @ B against the sum over k of the reference products
    # of A[i][k] and B[k][j], added one at a time, with the cap applied
    a = {"Q": alg_q, "F7": alg_f7}.get(which, alg_fbig)
    f = a.field
    for n in (1, 2, 3):
        for cap in range(1, 7):
            for t in range(3):
                rng = rng_for(36, "matmul", which, n, cap, t)
                A, B = (
                    SeriesMatrix(tuple(
                        tuple(random_series(a, cap, rng, min_degree=0) if rng.random() < 0.8
                              else TruncSeries.zero(a, cap) for _ in range(n))
                        for _ in range(n)))
                    for _ in range(2)
                )
                AB = A @ B
                assert AB.n == n and AB.cap == cap
                for i in range(n):
                    for j in range(n):
                        want: dict = {}
                        for k in range(n):
                            want = oracles.dict_add(f, want, oracles.dict_mul(
                                f, A.entries[i][k].body.as_dict(), B.entries[k][j].body.as_dict(), cap))
                        got = AB.entries[i][j].body
                        assert got.as_dict() == want
                        assert all(oracles.is_canonical_scalar(f, c) for _, c in got.terms)


def test_neumann_inverse_frozen(alg):
    one_plus_x = SeriesMatrix(((ts(alg, "1 + x", 3),),))
    w = neumann_inverse(one_plus_x)
    assert str(w.entries[0][0]) == "-x*x*x + x*x - x + 1"
    assert (one_plus_x @ w).is_identity() and (w @ one_plus_x).is_identity()
    ident = SeriesMatrix.identity(alg, 3, 4)
    assert neumann_inverse(ident) == ident


def test_neumann_inverse_random(alg, alg7):
    for which, a in (("Q", alg), ("F7", alg7)):
        for t in range(25):
            rng = rng_for(33, "neumann", which, t)
            n = rng.randint(1, 3)
            cap = rng.randint(2, 4)
            ident = SeriesMatrix.identity(a, n, cap)
            m = ident + random_radical_matrix(a, n, cap, rng)
            w = neumann_inverse(m)
            assert (m @ w).is_identity()
            assert (w @ m).is_identity()
            assert m @ w == w @ m


def _oracle_neumann_inverse(m: SeriesMatrix) -> list[list[dict]]:
    """I + (I - M) + ... + (I - M)^cap, one reference product and sum per
    term of each inner product."""
    field, n, cap = m.alg.field, m.n, m.cap
    ident = [[{"": field.one()} if i == j else {} for j in range(n)] for i in range(n)]
    neg_n = [
        [oracles.dict_add(field, ident[i][j], oracles.dict_neg(field, e.body.as_dict()))
         for j, e in enumerate(row)]
        for i, row in enumerate(m.entries)
    ]
    power, total = ident, ident
    for _ in range(cap):
        nxt = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    nxt[i][j] = oracles.dict_add(
                        field, nxt[i][j], oracles.dict_mul(field, power[i][k], neg_n[k][j], cap))
        power = nxt
        total = [
            [oracles.dict_add(field, s, t) for s, t in zip(rs, rt)] for rs, rt in zip(total, power)
        ]
    return total


@pytest.mark.parametrize("which", ["Q", "F7", "F2^61-1"])
def test_neumann_inverse_matches_power_by_power_oracle(which, alg_q, alg_f7, alg_fbig):
    a = {"Q": alg_q, "F7": alg_f7}.get(which, alg_fbig)
    for n in (1, 2, 3):
        for cap in range(1, 6):
            for t in range(2):
                rng = rng_for(39, "neumann-oracle", which, n, cap, t)
                m = SeriesMatrix.identity(a, n, cap) + SeriesMatrix(tuple(
                    tuple(random_series(a, cap, rng) if rng.random() < 0.8
                          else TruncSeries.zero(a, cap) for _ in range(n))
                    for _ in range(n)))
                w = neumann_inverse(m)
                assert w.n == n and w.cap == cap
                want = _oracle_neumann_inverse(m)
                for i in range(n):
                    for j in range(n):
                        got = w.entries[i][j].body
                        assert got.as_dict() == want[i][j]
                        assert all(oracles.is_canonical_scalar(a.field, c) for _, c in got.terms)


def test_neumann_inverse_stops_at_a_power_that_cancels_mod_p(alg7, monkeypatch):
    # N = [[x, 6x], [x, 6x]] over F_7: each entry of N^2 is 7*x*x or 42*x*x,
    # 0 mod 7 though its int sum is not 0, and far below the cap.  The loop
    # forms -N = I*(-N) and (-N)^2 = 0, one pair loop per entry, and stops.
    m = SeriesMatrix((
        (ts(alg7, "1 + x", 6), ts(alg7, "6*x", 6)),
        (ts(alg7, "x", 6), ts(alg7, "1 + 6*x", 6)),
    ))
    products = _count_calls(monkeypatch, seriesring, "_product")
    w = neumann_inverse(m)
    assert len(products) == 2 * 4
    assert w == SeriesMatrix.identity(alg7, 2, 6) - (m - SeriesMatrix.identity(alg7, 2, 6))
    assert (m @ w).is_identity() and (w @ m).is_identity()


def test_neumann_inverse_rejects_bad_constant_part(alg):
    n_mat = SeriesMatrix(((ts(alg, "2 + x", 3),),))
    with pytest.raises(ValueError):
        neumann_inverse(n_mat)
    rad = random_radical_matrix(alg, 2, 3, rng_for(34, "rad"))
    with pytest.raises(ValueError):
        neumann_inverse(rad)  # constant part is zero, not identity


def test_stable_finiteness_probe(alg, alg7):
    ident = SeriesMatrix.identity(alg, 2, 3)
    rep = stable_finiteness_probe(ident, ident)
    assert rep.confirmed and rep.yx.is_identity()
    for which, a in (("Q", alg), ("F7", alg7)):
        for t in range(20):
            rng = rng_for(35, "probe", which, t)
            n = rng.randint(1, 3)
            x_mat = SeriesMatrix.identity(a, n, 4) + random_radical_matrix(a, n, 4, rng)
            y_mat = neumann_inverse(x_mat)
            rep = stable_finiteness_probe(x_mat, y_mat)
            assert rep.confirmed
            assert rep.yx.is_identity()


def test_stable_finiteness_probe_precondition(alg):
    ident = SeriesMatrix.identity(alg, 2, 3)
    x = ident + random_radical_matrix(alg, 2, 3, rng_for(36, "bad"))
    with pytest.raises(ValueError):
        stable_finiteness_probe(x, ident)
