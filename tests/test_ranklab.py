import math
from fractions import Fraction
from itertools import product

import pytest

import engine_oracles as oracles
from ncdiamond import (
    ExactMatrix,
    Field,
    FieldError,
    LemmaWitness,
    claim_bound_check,
    evaluate_poly,
    fuzz_bound_checks,
    image_intersection_dim,
    master_bound_check,
    obstruction_probe,
    random_assignment,
    random_matrix,
)
from ncdiamond.seeding import rng_for

Q = Field.rationals()
F2 = Field.prime(2)
F7 = Field.prime(7)
F101 = Field.prime(101)

E12 = ExactMatrix(Q, [[0, 1], [0, 0]])
E21 = ExactMatrix(Q, [[0, 0], [1, 0]])


# -- construction and arithmetic -------------------------------------------------------


def test_matrix_construction_normalizes_entries():
    m = ExactMatrix(Q, [[1, Fraction(1, 2)], [-3, 0]])
    assert m.entries[0][0] == Fraction(1) and isinstance(m.entries[0][0], Fraction)
    m7 = ExactMatrix(F7, [[-1, 9], [0, 3]])
    assert m7.entries[0] == (6, 2)
    with pytest.raises(ValueError):
        ExactMatrix(Q, [[1, 2], [3]])
    with pytest.raises(FieldError):
        ExactMatrix(Q, [[True]])
    with pytest.raises(FieldError):
        ExactMatrix(F7, [[Fraction(1, 7)]])  # denominator divisible by p


def test_matrix_identity_eq_hash_immutability():
    i2 = ExactMatrix.identity(Q, 2)
    assert i2 == ExactMatrix(Q, [[1, 0], [0, 1]])
    assert i2 != ExactMatrix.identity(F7, 2)
    assert hash(i2) == hash(ExactMatrix(Q, [[1, 0], [0, 1]]))
    with pytest.raises(AttributeError):
        i2.rows = 3
    assert repr(i2) == "ExactMatrix(2x2 over Q)"
    assert ExactMatrix.zeros(Q, 2, 3).rank() == 0


def test_matrix_shape_errors():
    a = ExactMatrix(Q, [[1, 2], [3, 4]])
    tall = ExactMatrix(Q, [[1], [2]])
    with pytest.raises(ValueError):
        a + tall
    with pytest.raises(ValueError):
        a - tall
    with pytest.raises(ValueError):
        tall @ a  # 2x1 times 2x2
    with pytest.raises(ValueError):
        a.hstack(ExactMatrix(Q, [[1, 2]]))
    with pytest.raises(FieldError):
        a + ExactMatrix(F7, [[1, 2], [3, 4]])
    with pytest.raises(FieldError):
        a - ExactMatrix(F7, [[1, 2], [3, 4]])
    # a non-matrix operand gets NotImplemented, so Python raises TypeError
    with pytest.raises(TypeError):
        a + 3
    with pytest.raises(TypeError):
        a - 3
    with pytest.raises(TypeError):
        a @ 3


def test_matrix_transpose_hstack_scale():
    a = ExactMatrix(Q, [[1, 2, 3], [4, 5, 6]])
    assert a.transpose().entries == ((1, 4), (2, 5), (3, 6))
    b = ExactMatrix(Q, [[7], [8]])
    assert a.hstack(b).entries == ((1, 2, 3, 7), (4, 5, 6, 8))
    assert a.scale(2).entries[1] == (8, 10, 12)
    assert (-a).entries[0] == (-1, -2, -3)
    assert (a - a).rank() == 0


def test_matmul_frozen():
    assert E12 @ E21 == ExactMatrix(Q, [[1, 0], [0, 0]])
    assert E21 @ E12 == ExactMatrix(Q, [[0, 0], [0, 1]])
    assert (E12 @ E12).rank() == 0
    m = ExactMatrix(F7, [[2, 3], [4, 5]])
    assert (m @ ExactMatrix.identity(F7, 2)) == m
    assert (m @ m).entries == (
        ((2 * 2 + 3 * 4) % 7, (2 * 3 + 3 * 5) % 7),
        ((4 * 2 + 5 * 4) % 7, (4 * 3 + 5 * 5) % 7),
    )


P_MAX = 9223372036854775783  # the largest prime below 2^63, the largest modulus accepted
KERNEL_FIELDS = {
    "F2": F2, "F101": F101, "F_2^61-1": Field.prime(2**61 - 1), "F_pmax": Field.prime(P_MAX), "Q": Q,
}


def random_entries(field, rows, cols, rng):
    """Seeded entries: over Q mixed denominators, over F_p uniform residues
    mixed with 0, 1 and p - 1."""
    if field.p is None:
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(cols)] for _ in range(rows)]
    pick = lambda: rng.choice((0, 1, field.p - 1, rng.randrange(field.p)))
    return [[pick() for _ in range(cols)] for _ in range(rows)]


def kernel_shapes(which, count):
    """Seeded (rows, inner, cols) triples up to 7, with 1 x k and k x 1 factors."""
    yield from ((1, 5, 1), (5, 1, 5), (1, 7, 3), (4, 7, 1))
    for t in range(count):
        rng = rng_for(43, "shapes", which, t)
        yield rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)


@pytest.mark.parametrize("which", list(KERNEL_FIELDS))
def test_matmul_matches_schoolbook(which):
    f = KERNEL_FIELDS[which]
    for t, (a, b, c) in enumerate(kernel_shapes(which, 40)):
        rng = rng_for(44, "matmul", which, t)
        A = ExactMatrix(f, random_entries(f, a, b, rng))
        B = ExactMatrix(f, random_entries(f, b, c, rng))
        C = A @ B
        assert (C.rows, C.cols) == (a, c)
        assert C == oracles.mat_mul(f, A, B)
        if f.p is None:
            for x in (x for row in C.entries for x in row):
                assert type(x) is Fraction
                assert math.gcd(x.numerator, x.denominator) == 1 and x.denominator > 0


def entrywise(f, op, *mats):
    """The matrix whose entries are op of the matrices' entries, one field
    call each."""
    return ExactMatrix._raw(f, tuple(tuple(map(op, *rows)) for rows in zip(*(m.entries for m in mats))))


def canonical_entries(f, M):
    """Every entry in the field's own form: nonzero ones canonical, zeros
    of the type of the field's zero."""
    return all(
        oracles.is_canonical_scalar(f, x) if x else type(x) is type(f.zero())
        for row in M.entries
        for x in row
    )


@pytest.mark.parametrize("which", list(KERNEL_FIELDS))
def test_entrywise_matches_field_ops(which):
    f = KERNEL_FIELDS[which]
    for t, (a, _, b) in enumerate(kernel_shapes(which, 40)):
        rng = rng_for(46, "entrywise", which, t)
        A = ExactMatrix(f, random_entries(f, a, b, rng))
        B = ExactMatrix(f, random_entries(f, a, b, rng))
        pairs = [
            (A + B, entrywise(f, f.add, A, B)),
            (A - B, entrywise(f, f.sub, A, B)),
            (-A, entrywise(f, f.neg, A)),
        ]
        for c in (0, 1, -1, f.random_scalar(rng)):
            pairs.append((A.scale(c), entrywise(f, lambda x: f.mul(x, f.normalize(c)), A)))
        for M, want in pairs:
            assert (M.rows, M.cols) == (a, b)
            assert M == want
            assert canonical_entries(f, M)


@pytest.mark.parametrize("which", list(KERNEL_FIELDS))
def test_rank_matches_oracles(which):
    f = KERNEL_FIELDS[which]
    for t, (a, b, c) in enumerate(kernel_shapes(which, 40)):
        rng = rng_for(45, "rank", which, t)
        # a product of a x b and b x c factors, so ranks below full are common
        M = ExactMatrix(f, random_entries(f, a, b, rng)) @ ExactMatrix(f, random_entries(f, b, c, rng))
        assert M.rank() == oracles.rank_fraction_gauss(M)
        if max(a, c) <= 4:
            assert M.rank() == oracles.rank_by_minors(M)


def test_packed_kernels_at_the_width_bound():
    # every entry p - 1 at the largest prime: each product field reaches
    # exactly 16 * (p - 1)^2, the most the packed width must hold
    f = Field.prime(P_MAX)
    M = ExactMatrix(f, [[P_MAX - 1] * 16] * 16)
    MM = M @ M
    assert MM == oracles.mat_mul(f, M, M)
    assert MM.entries == ((16,) * 16,) * 16
    assert M.rank() == MM.rank() == 1
    # I - J: every elimination adds to fields already near the bound; rank 16
    N = ExactMatrix(f, [[0 if i == j else P_MAX - 1 for j in range(16)] for i in range(16)])
    assert N.rank() == oracles.rank_fraction_gauss(N) == 16
    # both checks on inputs of all p - 1: each field of Y@(X@A) reaches
    # n^2 (p - 1)^3, the most the checks' packed width must hold
    master = master_bound_check(M, M, M, M, M)
    assert (master.rank_z, master.rank_yz, master.rank_s, master.rank_t) == (1, 1, 1, 1)
    claim = claim_bound_check(M, M, M, M)
    assert (claim.lhs, claim.rhs) == (1, 2)
    # with X = A = I - J the fields of Y@(X@A) reach 240 (p - 1)^3, and
    # T = I + 224 J has full rank, so its elimination runs on every column
    master = master_bound_check(N, M, M, N, M)
    assert master.rank_t == oracles.rank_fraction_gauss(N - M @ N @ N) == 16


def test_traced_kernels_are_class_attributes():
    # the benchmark tracer wraps these two by name in the class __dict__
    assert "__matmul__" in ExactMatrix.__dict__
    assert "rank" in ExactMatrix.__dict__


# -- exact rank -----------------------------------------------------------------------


def test_rank_frozen_examples():
    assert ExactMatrix.identity(Q, 4).rank() == 4
    assert ExactMatrix.identity(F7, 5).rank() == 5
    assert ExactMatrix(Q, [[1, 2], [2, 4]]).rank() == 1
    assert ExactMatrix(F2, [[1, 1], [1, 1]]).rank() == 1
    assert ExactMatrix(Q, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]).rank() == 1
    assert ExactMatrix(Q, [[1, 0, 0], [0, 1, 0]]).rank() == 2
    assert E12.rank() == 1
    # rank depends on the field: 2x2 of all 2s has rank 1 over Q, 0 over F2
    assert ExactMatrix(Q, [[2, 2], [2, 2]]).rank() == 1
    assert ExactMatrix(F2, [[2, 2], [2, 2]]).rank() == 0
    assert E21.rank() == 1


def test_rank_exhaustive_f2_3x3_vs_minors():
    for bits in product((0, 1), repeat=9):
        m = ExactMatrix(F2, [bits[0:3], bits[3:6], bits[6:9]])
        assert m.rank() == oracles.rank_by_minors(m)


def test_rank_sampled_vs_minors():
    for t in range(25):
        rng = rng_for(40, "minors", t)
        m7 = ExactMatrix(F7, [[rng.randrange(7) for _ in range(4)] for _ in range(4)])
        assert m7.rank() == oracles.rank_by_minors(m7)
        mq = ExactMatrix(Q, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        assert mq.rank() == oracles.rank_by_minors(mq)


def test_rank_q_vs_fraction_gauss():
    for t in range(40):
        rng = rng_for(41, "gauss", t)
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = ExactMatrix(
            Q,
            [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ],
        )
        assert m.rank() == oracles.rank_fraction_gauss(m)


def test_rank_laws_fuzz():
    for which, f in (("Q", Q), ("F7", F7), ("F101", F101)):
        for t in range(60):
            rng = rng_for(42, "ranklaws", which, t)
            n = rng.randint(1, 6)
            a = random_matrix(f, n, rng.randint(0, n), seed=1000 + t)
            b = random_matrix(f, n, rng.randint(0, n), seed=2000 + t)
            ra, rb = a.rank(), b.rank()
            assert a.transpose().rank() == ra
            assert (a @ b).rank() <= min(ra, rb)
            assert (a + b).rank() <= ra + rb
            stacked = a.hstack(b).rank()
            assert max(ra, rb) <= stacked <= ra + rb
            assert (a @ ExactMatrix.identity(f, n)).rank() == ra


def test_rank_memoized():
    m = ExactMatrix(Q, [[1, 2], [3, 4]])
    assert m.rank() == 2
    assert m._rank == 2
    assert m.rank() == 2


# -- random matrices -----------------------------------------------------------------


def test_random_matrix_determinism_and_target_ranks():
    a = random_matrix(F101, 6, 3, seed=5)
    b = random_matrix(F101, 6, 3, seed=5)
    assert a == b and a.rank() == 3
    assert random_matrix(F101, 6, 3, seed=6) != a
    for f in (Q, F101):
        for r in range(0, 5):
            assert random_matrix(f, 4, r, seed=11).rank() == r
    dense = random_matrix(Q, 5, seed=7)
    assert dense.rows == dense.cols == 5
    with pytest.raises(ValueError):
        random_matrix(Q, 3, 4, seed=0)
    with pytest.raises(ValueError):
        random_matrix(Q, 3, -1, seed=0)


def test_random_assignment_shape():
    rng = rng_for(43, "assign")
    asn = random_assignment(("x", "y"), F101, 4, rng)
    assert set(asn) == {"x", "y"}
    assert all(m.rows == m.cols == 4 and m.field == F101 for m in asn.values())


# -- image intersection ----------------------------------------------------------------


def test_image_intersection_frozen():
    e11 = ExactMatrix(Q, [[1, 0], [0, 0]])
    e22 = ExactMatrix(Q, [[0, 0], [0, 1]])
    assert image_intersection_dim(e11, e22) == 0
    i2 = ExactMatrix.identity(Q, 2)
    assert image_intersection_dim(i2, i2) == 2
    assert image_intersection_dim(e11, i2) == 1
    assert image_intersection_dim(E12, e11) == 1  # both images are span(e1)


def test_image_intersection_exhaustive_f2_2x2():
    mats = [
        ExactMatrix(F2, [bits[0:2], bits[2:4]]) for bits in product((0, 1), repeat=4)
    ]
    for x in mats:
        for z in mats:
            got = image_intersection_dim(x, z)
            assert got == oracles.f2_intersection_dim(x, z)
            assert got == image_intersection_dim(z, x)


def test_image_intersection_sampled_f2_3x3():
    for t in range(50):
        rng = rng_for(44, "f2inter", t)
        x = ExactMatrix(F2, [[rng.randrange(2) for _ in range(3)] for _ in range(3)])
        z = ExactMatrix(F2, [[rng.randrange(2) for _ in range(3)] for _ in range(3)])
        assert image_intersection_dim(x, z) == oracles.f2_intersection_dim(x, z)


def test_image_intersection_containment():
    # X = Z @ C has image inside Z's, so the intersection is all of Im X
    for t in range(30):
        rng = rng_for(45, "contain", t)
        n = rng.randint(1, 5)
        z = random_matrix(F7, n, rng.randint(0, n), seed=300 + t)
        c = random_matrix(F7, n, seed=400 + t)
        x = z @ c
        assert image_intersection_dim(x, z) == x.rank()


# -- the two bounds -------------------------------------------------------------------


def test_claim_bound_frozen_cases():
    i2 = ExactMatrix.identity(Q, 2)
    res = claim_bound_check(i2, i2, i2, i2)
    assert res.holds and res.lhs == 2 and res.rhs == 2 and res.margin == 0
    zero = ExactMatrix.zeros(Q, 2, 2)
    res = claim_bound_check(zero, zero, zero, zero)
    assert res.holds and res.lhs == 0 and res.rhs == 0
    # S = Z - X@B absorbs an arbitrary Z even when X = 0
    res = claim_bound_check(zero, i2, i2, zero)
    assert res.holds and res.lhs == 0 and res.rhs == 2 + 0 - 2 + 2


def test_master_bound_frozen_cases():
    i2 = ExactMatrix.identity(Q, 2)
    res = master_bound_check(i2, i2, i2, i2, i2)
    assert res.holds and res.margin == 0
    assert (res.rank_z, res.rank_yz, res.rank_s, res.rank_t) == (2, 2, 0, 0)
    zero = ExactMatrix.zeros(Q, 2, 2)
    res = master_bound_check(zero, zero, zero, zero, zero)
    assert res.holds and res.margin == 0
    for f in (Q, F7):
        empty = ExactMatrix(f, [])
        res = master_bound_check(empty, empty, empty, empty, empty)
        assert res.holds and (res.margin, res.rank_z, res.rank_yz, res.rank_s, res.rank_t) == (0,) * 5
        assert claim_bound_check(empty, empty, empty, empty) == claim_bound_check(zero, zero, zero, zero)


def test_bound_checks_validate_shapes():
    i2 = ExactMatrix.identity(Q, 2)
    i3 = ExactMatrix.identity(Q, 3)
    rect = ExactMatrix(Q, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        claim_bound_check(i2, i2, i3, i2)
    with pytest.raises(ValueError):
        master_bound_check(i2, i2, i2, i2, rect)
    with pytest.raises(FieldError):
        claim_bound_check(i2, i2, ExactMatrix.identity(F7, 2), i2)


def test_bounds_hold_on_random_draws():
    # (label, field, n, trials, rows scaled by distinct denominators, all zero)
    cases = (
        ("Q", Q, 4, 60, False, False),
        ("F7", F7, 5, 60, False, False),
        ("F101", F101, 16, 6, False, False),
        ("F_2^61-1", Field.prime(2**61 - 1), 8, 8, False, False),
        ("Q-row-dens", Q, 6, 20, True, False),
        ("Q-n1", Q, 1, 10, True, False),
        ("F101-n1", F101, 1, 10, False, False),
        ("Q-zeros", Q, 3, 1, False, True),
        ("F_pmax-zeros", Field.prime(P_MAX), 4, 1, False, True),
    )
    for which, f, n, trials, row_dens, zeros in cases:
        for t in range(trials):
            rng = rng_for(46, "bounds", which, t)

            def draw():
                if zeros:
                    return ExactMatrix.zeros(f, n, n)
                m = random_matrix(f, n, rng.randint(0, n), seed=rng.randrange(10**6))
                if row_dens:
                    dens = rng.sample(range(2, 40), n)
                    m = ExactMatrix(f, [[x / d for x in row] for row, d in zip(m.entries, dens)])
                return m

            x, y, z, a, b = draw(), draw(), draw(), draw(), draw()
            cres = claim_bound_check(x, y, z, b)
            mres = master_bound_check(x, y, z, a, b)
            t_mat = x - y @ x @ a
            s_mat = z - x @ b
            exprs = {"x": x, "z": z, "yx": y @ x, "yz": y @ z, "s": s_mat, "t": t_mat}
            ranks = {k: oracles.rank_fraction_gauss(M) for k, M in exprs.items()}
            assert ranks == {k: M.rank() for k, M in exprs.items()}
            assert (cres.lhs, cres.rhs) == (ranks["yx"], ranks["yz"] + ranks["x"] - ranks["z"] + ranks["s"])
            assert cres.holds and cres.margin >= 0
            assert (mres.rank_z, mres.rank_yz, mres.rank_s, mres.rank_t) == (
                ranks["z"], ranks["yz"], ranks["s"], ranks["t"]
            )
            assert mres.margin == mres.rank_yz + mres.rank_s + mres.rank_t - mres.rank_z
            assert mres.holds and mres.margin >= 0


def test_bound_checks_build_no_intermediate_matrix(monkeypatch):
    # the checks form Y@X@A, X@B, Y@Z, S and T as packed or integer rows,
    # never as an ExactMatrix
    for f, n in ((Q, 4), (F101, 5)):
        mats = [random_matrix(f, n, r, seed=50 + r) for r in range(5)]
        calls = []
        matmul, raw = ExactMatrix.__matmul__, ExactMatrix._raw
        monkeypatch.setattr(ExactMatrix, "__matmul__", lambda a, b: calls.append("@") or matmul(a, b))
        monkeypatch.setattr(ExactMatrix, "_raw", staticmethod(lambda *a: calls.append("_raw") or raw(*a)))
        master_bound_check(*mats)
        claim_bound_check(*mats[:3], mats[4])
        monkeypatch.undo()
        assert calls == []


# -- polynomial evaluation ------------------------------------------------------------


def test_evaluate_poly_frozen(irving):
    alg = irving.alg
    asn = {"x": E12, "y": E21}
    assert evaluate_poly(alg.one(), asn) == ExactMatrix.identity(Q, 2)
    assert evaluate_poly(alg.zero(), asn) == ExactMatrix.zeros(Q, 2, 2)
    assert evaluate_poly(alg.parse("x*y*x"), asn) == E12
    assert evaluate_poly(alg.parse("2*x + 3"), asn) == E12.scale(2) + ExactMatrix.identity(Q, 2).scale(3)


def test_evaluate_poly_is_a_homomorphism(irving):
    alg = irving.alg
    from ncdiamond import random_poly

    for t in range(30):
        rng = rng_for(47, "evalhom", t)
        asn = random_assignment(alg.gens, Q, 3, rng)
        p = random_poly(irving.system, 3, rng)
        q = random_poly(irving.system, 3, rng)
        assert evaluate_poly(p * q, asn) == evaluate_poly(p, asn) @ evaluate_poly(q, asn)
        assert evaluate_poly(p + q, asn) == evaluate_poly(p, asn) + evaluate_poly(q, asn)


def test_evaluate_poly_errors(irving):
    alg = irving.alg
    p = alg.parse("x*y")
    with pytest.raises(ValueError):
        evaluate_poly(p, {"x": E12})  # y missing
    with pytest.raises(FieldError):
        evaluate_poly(p, {"x": ExactMatrix.identity(F7, 2), "y": ExactMatrix.identity(F7, 2)})
    with pytest.raises(ValueError):
        evaluate_poly(p, {"x": E12, "y": ExactMatrix.identity(Q, 3)})
    with pytest.raises(ValueError):
        evaluate_poly(p, {"x": ExactMatrix(Q, [[1, 0, 0], [0, 1, 0]]), "y": E21})


# -- the obstruction probe -------------------------------------------------------------


def test_obstruction_probe_frozen(irving):
    rep = obstruction_probe(irving.system, irving.witness, {"x": E12, "y": E21})
    assert rep.as_dict() == {
        "n": 2,
        "field": "Q",
        "rank_x": 1,
        "rank_z": 1,
        "rank_yz": 1,
        "rank_t": 2,
        "rank_s": 0,
        "margin": 2,
        "norm_x": "1/2",
        "norm_z": "1/2",
        "norm_yz": "1/2",
        "norm_t": "1",
        "norm_s": "0",
        "alpha_rank_cap": "1/2",
        "alpha_defect_floor": "4",
        "regime_feasible": False,
    }
    assert list(rep.as_dict()) == [
        "n", "field", "rank_x", "rank_z", "rank_yz", "rank_t", "rank_s", "margin",
        "norm_x", "norm_z", "norm_yz", "norm_t", "norm_s",
        "alpha_rank_cap", "alpha_defect_floor", "regime_feasible",
    ]


def test_obstruction_probe_zero_assignment(irving):
    zero = ExactMatrix.zeros(Q, 3, 3)
    rep = obstruction_probe(irving.system, irving.witness, {"x": zero, "y": zero})
    assert rep.margin == 0 and not rep.regime_feasible
    assert rep.alpha_rank_cap == 0 and rep.alpha_defect_floor == 0


def test_obstruction_probe_rejects_bad_witness(irving):
    alg = irving.alg
    w = irving.witness
    broken = LemmaWitness(w.x, w.y, alg.zero(), w.a, w.b)
    with pytest.raises(ValueError):
        obstruction_probe(irving.system, broken, {"x": E12, "y": E21})


def near_representation(f, n, rng) -> dict[str, ExactMatrix]:
    """X and Y that satisfy X@X = 0 and Y@X@Y = X on 2x2 blocks (X = E12,
    Y = diag(a, 1/a)), each plus a random matrix of planted rank 0 or 1.
    Then T, S, Z and YZ have low ranks that vary, while YX keeps rank about
    n/2; generic matrices of planted low rank make rank(YX) = rank(YZ)."""
    x = [[0] * n for _ in range(n)]
    y = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(0, n - 1, 2):
        a = f.random_nonzero(rng)
        x[i][i + 1] = 1
        y[i][i], y[i + 1][i + 1] = a, f.inv(a)
    perturb = lambda: random_matrix(f, n, rng.randint(0, 1), seed=rng.randrange(1 << 30))
    return {"x": ExactMatrix(f, x) + perturb(), "y": ExactMatrix(f, y) + perturb()}


def test_obstruction_probe_random_assignments():
    from ncdiamond import parse_presentation

    # z = x*y*x + x*x is x*y*x in the quotient, so S = Z - X@B = X@X
    text = (
        "field {}\ngens x y\nrel x*x\nrel y*x*y - x\n"
        "witness x=x y=y z=x*y*x + x*x a=y b=y*x\n"
    )
    systems = {f: parse_presentation(text.format(s), s) for f, s in ((Q, "Q"), (F101, "Fp 101"))}
    seen = []
    for t in range(25):
        rng = rng_for(48, "probefuzz", t)
        n = rng.randint(1, 6)
        f = Q if t % 2 else F101
        pres = systems[f]
        asn = near_representation(f, n, rng)
        rep = obstruction_probe(pres.system, pres.witness, asn)
        X, Y, Z, A, B = (evaluate_poly(p, asn) for _, p in pres.witness.items())
        oracle_rank = oracles.rank_fraction_gauss if f == Q else oracles.rank_by_minors
        want = [oracle_rank(M) for M in (X, Z, Y @ Z, X - Y @ X @ A, Z - X @ B)]
        got = [rep.rank_x, rep.rank_z, rep.rank_yz, rep.rank_t, rep.rank_s]
        assert got == want
        seen.append(got)
        assert rep.margin == rep.rank_yz + rep.rank_t + rep.rank_s - rep.rank_z
        assert not rep.regime_feasible
        assert rep.n == n and rep.field == f
        assert rep.norm_x == Fraction(rep.rank_x, n)
    assert all(len(set(column)) > 1 for column in zip(*seen))


# -- the fuzz driver ------------------------------------------------------------------


@pytest.mark.parametrize("check", ["claim", "master", "intersection"])
def test_fuzz_bound_checks_no_violations(check):
    rep = fuzz_bound_checks(F101, 6, 40, seed=77, check=check)
    assert rep.violations == 0 and rep.first_violation is None
    assert rep.min_margin is not None and rep.min_margin >= 0
    assert (rep.check, rep.field, rep.n, rep.trials) == (check, F101, 6, 40)
    repq = fuzz_bound_checks(Q, 4, 25, seed=78, check=check)
    assert repq.violations == 0 and repq.min_margin >= 0


@pytest.mark.parametrize(
    "n, trials, message",
    [
        (3, 0, "trials must be at least 1, got 0"),
        (0, 5, "n must be at least 1, got 0"),
    ],
)
def test_fuzz_bound_checks_rejects_vacuous_runs(n, trials, message):
    # no trial, or 0x0 matrices, would pass with nothing checked
    with pytest.raises(ValueError, match=message):
        fuzz_bound_checks(F7, n, trials, seed=1)


def test_fuzz_bound_checks_edge_cases():
    rep = fuzz_bound_checks(F7, 1, 1, seed=1)
    assert rep.trials == 1 and rep.violations == 0
    assert rep.min_margin == 0 and rep.first_violation is None
    with pytest.raises(ValueError):
        fuzz_bound_checks(F7, 3, 5, seed=1, check="nonsense")
    a = fuzz_bound_checks(F7, 4, 10, seed=9, check="master")
    b = fuzz_bound_checks(F7, 4, 10, seed=9, check="master")
    assert a == b
