"""The acceptance gate: one test per advertised guarantee, each printing a
single "[acceptance] ...: PASS" line when its checks all hold.  Budgets are
asserted where a criterion advertises one.
"""

import json
import time
from itertools import product

import engine_oracles as oracles
from ncdiamond import (
    ExactMatrix,
    Field,
    FreeAlgebra,
    SExtElement,
    SeriesMatrix,
    TruncSeries,
    ambiguity_reducts,
    check_confluence,
    collapse_demo,
    enumerate_normal_words,
    find_ambiguities,
    fuzz_bound_checks,
    image_intersection_dim,
    neumann_inverse,
    obstruction_probe,
    parse_presentation,
    quasi_inverse,
    random_assignment,
    random_radical_matrix,
    random_s_ext,
    random_series,
    stable_finiteness_probe,
    verify_identity_comm3,
    verify_lemma_witness,
)
from ncdiamond.cli import main
from ncdiamond.seeding import rng_for

Q = Field.rationals()
F2 = Field.prime(2)
F7 = Field.prime(7)
F101 = Field.prime(101)

IRVING_OVER = "field Fp {p}\ngens x y\nrel x*x\nrel y*x*y - x\nwitness x=x y=y z=x*y*x a=y b=y*x\n"


def _pass(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_c1_confluence_certificate(irving):
    t0 = time.perf_counter()
    alg = irving.alg
    ambs = find_ambiguities(irving.system)
    assert [(a.kind, alg.word_str(a.word), a.offset) for a in ambs] == [
        ("overlap", "x*x*x", 1),
        ("overlap", "y*x*y*x*y", 2),
    ]
    ra, rb = ambiguity_reducts(irving.system, ambs[1])
    assert (str(ra), str(rb)) == ("x*x*y", "y*x*x")
    report = check_confluence(irving.system)
    assert report.overall and all(c.resolvable for c in report.checks)
    assert all(c.normal_form_a.is_zero() for c in report.checks)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass("C1 confluence certificate", f"2 ambiguities resolved in {elapsed:.3f}s")


def test_c2_normal_word_growth(irving):
    counts = [len(enumerate_normal_words(irving.system, d)) for d in range(1, 7)]
    assert counts == [2, 3, 4, 4, 4, 4]
    for d in range(0, 7):
        assert list(enumerate_normal_words(irving.system, d)) == oracles.brute_normal_words(
            irving.system, d
        )
    _pass("C2 normal-word growth", f"degree 1..6 counts {counts}, oracle-matched")


def test_c3_triple_commutator_identity(irving):
    t0 = time.perf_counter()
    rep_q = verify_identity_comm3(irving.system, 200, 4, seed=31401)
    assert rep_q.holds and rep_q.counterexample is None
    over_f7 = parse_presentation(IRVING_OVER.format(p=7), "irving-f7")
    rep_7 = verify_identity_comm3(over_f7.system, 200, 4, seed=31402)
    assert rep_7.holds and rep_7.counterexample is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass("C3 triple-commutator identity", f"200 trials over Q and F7 in {elapsed:.2f}s")


def test_c4_factorization_witness(irving):
    rep = verify_lemma_witness(irving.system, irving.witness)
    assert rep.recovers_x and rep.z_in_ideal and rep.y_kills_z and rep.nonzero
    assert rep.verdict
    _pass("C4 factorization witness", "x = y*x*a, z = x*b, y*z = 0, x and z nonzero")


def test_c5_rank_inequalities():
    t0 = time.perf_counter()
    for n in (4, 8, 12):
        for check in ("claim", "master"):
            rep = fuzz_bound_checks(F101, n, 1000, seed=50500 + n, check=check)
            assert rep.violations == 0 and rep.min_margin >= 0
    for check in ("claim", "master"):
        rep = fuzz_bound_checks(Q, 6, 200, seed=50600, check=check)
        assert rep.violations == 0 and rep.min_margin >= 0
    # exhaustive image-intersection cross-check over F2 in sizes 1..3
    pairs = 0
    for n in (1, 2, 3):
        mats = [
            ExactMatrix(F2, [bits[i * n : (i + 1) * n] for i in range(n)])
            for bits in product((0, 1), repeat=n * n)
        ]
        spans = [oracles.f2_column_span(m) for m in mats]
        for x, sx in zip(mats, spans):
            for z, sz in zip(mats, spans):
                assert image_intersection_dim(x, z) == len(sx & sz).bit_length() - 1
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(
        "C5 rank inequalities",
        f"6600 fuzz trials with min margin >= 0, {pairs} exhaustive F2 pairs in {elapsed:.1f}s",
    )


def test_c6_obstruction_probe_regime():
    t0 = time.perf_counter()
    pres = parse_presentation(IRVING_OVER.format(p=101), "irving-f101")
    worst_margin = None
    for t in range(100):
        rng = rng_for(60600, "c6", t)
        asn = random_assignment(pres.alg.gens, F101, 12, rng)
        rep = obstruction_probe(pres.system, pres.witness, asn)
        assert rep.margin >= 0
        assert not rep.regime_feasible
        if worst_margin is None or rep.margin < worst_margin:
            worst_margin = rep.margin
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(
        "C6 obstruction probe",
        f"100 assignments at n=12 over F101, min margin {worst_margin}, regime infeasible, {elapsed:.1f}s",
    )


def test_c7_quasi_inverses():
    alg_q = FreeAlgebra(Q, ("x", "y"))
    alg_7 = FreeAlgebra(F7, ("x", "y"))
    f = TruncSeries(alg_q.parse("x"), 3)
    g = quasi_inverse(f)
    assert str(g) == "-x*x*x - x*x - x"
    assert g * f == f + g == f * g
    for t in range(100):
        rng = rng_for(70700, "c7", t)
        a = alg_q if t % 2 else alg_7
        s = random_series(a, rng.randint(2, 6), rng)
        si = quasi_inverse(s)
        assert si * s == s + si == s * si
    _pass("C7 quasi-inverses", "golden inverse plus 100 random series, g*f = f + g = f*g")


def test_c8_square_zero_extension():
    alg = FreeAlgebra(Q, ("x", "y"))
    z = SExtElement.z_element(alg, 5)
    assert (z * z).is_zero()
    assert (z * SExtElement.from_ring(TruncSeries(alg.parse("x + y*x"), 5))).is_zero()
    for t in range(300):
        rng = rng_for(80800, "c8", t)
        r = random_s_ext(alg, 3, rng)
        s = random_s_ext(alg, 3, rng)
        u = random_s_ext(alg, 3, rng)
        assert (r * s) * u == r * (s * u)
    one = SExtElement.from_ring(TruncSeries.one(alg, 6))
    x = SExtElement.from_ring(TruncSeries(alg.parse("x"), 6))
    y = SExtElement.from_ring(TruncSeries(alg.parse("y"), 6))
    two = SExtElement.from_ring(TruncSeries(alg.parse("2"), 6))
    rep = collapse_demo([one, one + x], [one, two + y])
    assert rep.verified and len(rep.steps) == 4 and all(s.verified for s in rep.steps)
    assert str(rep.f) == "2*x*y + 3*y"
    for t in range(10):
        rng = rng_for(80801, "c8r", t)
        u = [random_s_ext(alg, 5, rng) for _ in range(2)]
        v = [random_s_ext(alg, 5, rng) for _ in range(2)]
        assert collapse_demo(u, v).verified
    _pass(
        "C8 square-zero extension",
        "z*z = 0, 300 associativity triples, collapse replay verified on builtin and random data",
    )


def test_c9_stable_finiteness_probe():
    t0 = time.perf_counter()
    alg = FreeAlgebra(Q, ("x", "y"))
    ident = SeriesMatrix.identity(alg, 3, 4)
    for t in range(100):
        rng = rng_for(90900, "c9", t)
        x_mat = ident + random_radical_matrix(alg, 3, 4, rng)
        y_mat = neumann_inverse(x_mat)
        assert (x_mat @ y_mat).is_identity()
        probe = stable_finiteness_probe(x_mat, y_mat)
        assert probe.confirmed and probe.yx.is_identity()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(
        "C9 stable-finiteness probe",
        f"100 random units at n=3, cap 4: Y*X = I whenever X*Y = I, {elapsed:.1f}s",
    )


def test_c10_deterministic_replay(capsys):
    commands = [
        ["identity", "irving", "--trials", "20", "--max-deg", "3", "--seed", "1234"],
        ["fuzz-rank", "--n", "5", "--trials", "20", "--seed", "1234"],
        ["series", "sfprobe", "--n", "2", "--trunc", "3", "--trials", "5", "--seed", "1234"],
        ["series", "sext-demo", "--random", "--trunc", "4", "--seed", "1234"],
    ]
    for argv in commands:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["seed"] == 1234 and doc["verdict"] is True
    _pass("C10 deterministic replay", "4 seeded commands byte-identical across reruns")
