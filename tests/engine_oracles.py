"""Independent reference implementations the tests check the engine against.

Everything here is written for clarity, not speed, and deliberately avoids
the package's internal algorithms: term selection scans with explicit loops
and slice comparisons instead of str.find, ranks come from minor expansion
or plain scalar-by-scalar elimination instead of Bareiss or packed modular
elimination, products are summed entry by entry instead of over cleared
denominators or packed rows, subspaces over F_2 are enumerated as literal
vector sets, and normal words come from a generate-and-filter pass instead
of incremental suffix extension.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from ncdiamond import (
    CompletionResult,
    ExactMatrix,
    Field,
    NcPoly,
    QuotientCollapseError,
    RewriteRule,
    RewriteSystem,
    ambiguity_reducts,
    find_ambiguities,
    normal_form,
)
from ncdiamond.ncpoly import EMPTY_WORD, Word

# -- polynomial arithmetic on plain dicts -------------------------------------------


def is_canonical_scalar(field: Field, c: object) -> bool:
    """A nonzero scalar in the field's own form: a Fraction over Q, an int
    residue below p over F_p."""
    if field.p is None:
        return type(c) is Fraction and c != 0
    return type(c) is int and 0 < c < field.p


def dict_add(field: Field, a: dict[Word, object], b: dict[Word, object]) -> dict[Word, object]:
    """Termwise sum, zero coefficients dropped."""
    out = dict(a)
    for w, c in b.items():
        out[w] = field.add(out.get(w, field.zero()), c)
    return {w: c for w, c in out.items() if c != 0}


def dict_neg(field: Field, a: dict[Word, object]) -> dict[Word, object]:
    return {w: field.neg(c) for w, c in a.items()}


def dict_mul(
    field: Field, a: dict[Word, object], b: dict[Word, object], cap: int | None = None
) -> dict[Word, object]:
    """Every product of a term of a with a term of b, summed one at a time;
    with a cap, the words over it are dropped at the end."""
    out: dict[Word, object] = {}
    for u, x in a.items():
        for v, y in b.items():
            out = dict_add(field, out, {u + v: field.mul(x, y)})
    return {w: c for w, c in out.items() if cap is None or len(w) <= cap}


# -- word order and rewriting -----------------------------------------------------


def word_key(w: Word) -> tuple[int, list[int]]:
    """Deglex key built letter by letter from the generator indices."""
    return (len(w), [ord(c) for c in w])


def contains_at(w: Word, factor: Word, pos: int) -> bool:
    return w[pos : pos + len(factor)] == factor


def all_redexes(sys: RewriteSystem, w: Word) -> list[tuple[int, int]]:
    """Every (position, rule index) where some rule's lhs occurs in w."""
    hits = []
    for idx, rule in enumerate(sys.rules):
        span = len(w) - len(rule.lhs)
        for pos in range(span + 1):
            if contains_at(w, rule.lhs, pos):
                hits.append((pos, idx))
    return hits


def apply_rewrite(
    sys: RewriteSystem, terms: dict[Word, object], w: Word, pos: int, idx: int
) -> dict[Word, object]:
    """One elementary rewrite of the w-term at (pos, idx), as a fresh dict."""
    f = sys.alg.field
    rule = sys.rules[idx]
    out = {u: c for u, c in terms.items() if u != w}
    c = terms[w]
    for u, a in rule.rhs.terms:
        nu = w[:pos] + u + w[pos + len(rule.lhs) :]
        v = f.add(out.get(nu, f.zero()), f.mul(c, a))
        if v == 0:
            out.pop(nu, None)
        else:
            out[nu] = v
    return out


def oracle_normal_form(p: NcPoly, sys: RewriteSystem, max_steps: int = 200_000) -> NcPoly:
    """Literal restatement of the reduction contract: repeatedly rewrite the
    deglex-greatest reducible term at its leftmost redex with the lowest
    rule index, until no term is reducible."""
    terms = dict(p.terms)
    for _ in range(max_steps):
        best_word = None
        for w in terms:
            if all_redexes(sys, w) and (
                best_word is None or word_key(w) > word_key(best_word)
            ):
                best_word = w
        if best_word is None:
            return NcPoly(sys.alg, terms)
        pos, idx = min(all_redexes(sys, best_word))
        terms = apply_rewrite(sys, terms, best_word, pos, idx)
    raise RuntimeError("oracle reduction did not terminate within its step cap")


def randomized_normal_form(
    p: NcPoly, sys: RewriteSystem, rng, max_steps: int = 200_000
) -> NcPoly:
    """Reduce with a uniformly random choice of (term, position, rule) at
    every step; on a confluent system the result must match every other
    strategy."""
    terms = {w: c for w, c in p.terms}
    for _ in range(max_steps):
        sites = [
            (w, pos, idx) for w in terms for pos, idx in all_redexes(sys, w)
        ]
        if not sites:
            return NcPoly(sys.alg, terms)
        w, pos, idx = sites[rng.randrange(len(sites))]
        terms = apply_rewrite(sys, terms, w, pos, idx)
    raise RuntimeError("randomized reduction did not terminate within its step cap")


def brute_ambiguities(sys: RewriteSystem) -> list[tuple[str, int, int, Word, int]]:
    """Every (kind, rule_a, rule_b, word, offset) ambiguity, found by trying
    each ordered pair of rules at each offset and comparing slices, sorted
    by (rule_a, rule_b, offset).  An inclusion puts lhs_b strictly inside
    lhs_a (a != b); an overlap starts lhs_b inside lhs_a and ends it past."""
    found = []
    for a, ra in enumerate(sys.rules):
        for b, rb in enumerate(sys.rules):
            u, v = ra.lhs, rb.lhs
            for off in range(len(u)):
                if off + len(v) <= len(u):
                    if a != b and len(v) < len(u) and contains_at(u, v, off):
                        found.append(("inclusion", a, b, u, off))
                elif off > 0 and u[off:] == v[: len(u) - off]:
                    found.append(("overlap", a, b, u + v[len(u) - off :], off))
    found.sort(key=lambda amb: (amb[1], amb[2], amb[4]))
    return found


def brute_normal_words(sys: RewriteSystem, degree: int) -> list[Word]:
    """All degree-d words with no lhs factor, by full enumeration + filter,
    sorted with the explicit deglex key."""
    letters = [chr(i) for i in range(len(sys.alg.gens))]
    lhss = [r.lhs for r in sys.rules]
    out = []
    for tup in product(letters, repeat=degree):
        w = "".join(tup)
        if any(
            contains_at(w, lhs, pos)
            for lhs in lhss
            for pos in range(len(w) - len(lhs) + 1)
        ):
            continue
        out.append(w)
    out.sort(key=word_key)
    return out


def oracle_comm3(sys: RewriteSystem, subs: tuple[NcPoly, ...]) -> NcPoly:
    """Fully expand [X1,Y1][X2,Y2][X3,Y3] first, then reduce with the oracle
    reducer - no interleaved normalization."""
    x1, y1, x2, y2, x3, y3 = subs
    big = (x1 * y1 - y1 * x1) * (x2 * y2 - y2 * x2) * (x3 * y3 - y3 * x3)
    return oracle_normal_form(big, sys)


def oracle_complete(
    sys: RewriteSystem, max_new_rules: int = 64, max_degree: int = 64
) -> CompletionResult:
    """Completion that re-checks everything: every pass walks
    find_ambiguities from the first pair and normalizes the difference of
    each pair's reducts until one is nonzero, then orients it as
    rewrite.complete does."""
    added: list[RewriteRule] = []
    cur = sys
    while True:
        for amb in find_ambiguities(cur):
            red_a, red_b = ambiguity_reducts(cur, amb)
            diff = normal_form(red_a - red_b, cur)
            if diff:
                break
        else:
            return CompletionResult(True, cur, tuple(added))
        w, c = diff.leading_term()
        if w == EMPTY_WORD:
            raise QuotientCollapseError(
                f"critical pair at {cur.alg.word_str(amb.word)} normalizes "
                f"to the nonzero scalar {cur.alg.field.scalar_str(c)}: the quotient "
                "collapses to the zero ring"
            )
        if len(added) >= max_new_rules or len(w) > max_degree:
            return CompletionResult(False, cur, tuple(added))
        rhs = cur.alg.monomial(w) - diff.scale(cur.alg.field.inv(c))
        rule = RewriteRule(w, rhs)
        added.append(rule)
        cur = cur.with_rule(rule)


# -- exact rank -------------------------------------------------------------------


def determinant(field: Field, rows: list[list]) -> object:
    """Recursive first-row Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = field.zero()
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        term = field.mul(rows[0][j], determinant(field, minor))
        total = field.add(total, term) if j % 2 == 0 else field.sub(total, term)
    return total


def rank_by_minors(M: ExactMatrix) -> int:
    """Largest k admitting a k x k submatrix with nonzero determinant."""
    best = 0
    for k in range(1, min(M.rows, M.cols) + 1):
        found = False
        for rsel in combinations(range(M.rows), k):
            for csel in combinations(range(M.cols), k):
                sub = [[M.entries[i][j] for j in csel] for i in rsel]
                if determinant(M.field, sub) != 0:
                    found = True
                    break
            if found:
                break
        if not found:
            return best
        best = k
    return best


def mat_mul(field: Field, A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Schoolbook product: every entry summed term by term with the field's
    own add and mul."""
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            total = field.zero()
            for k in range(A.cols):
                total = field.add(total, field.mul(A.entries[i][k], B.entries[k][j]))
            row.append(total)
        out.append(row)
    return ExactMatrix(field, out)


def rank_fraction_gauss(M: ExactMatrix) -> int:
    """Plain Gauss-Jordan row reduction with the field's own scalar
    operations: Fraction arithmetic over Q, residues over F_p."""
    f = M.field
    rows = [list(row) for row in M.entries]
    rank = 0
    for col in range(M.cols):
        piv = None
        for i in range(rank, M.rows):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [f.div(x, lead) for x in rows[rank]]
        for i in range(M.rows):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- subspaces over F_2 ----------------------------------------------------------


def f2_column_span(M: ExactMatrix) -> frozenset[int]:
    """Every vector in the column span, encoded as row-bitmask integers."""
    assert M.field.p == 2
    span = {0}
    for j in range(M.cols):
        v = 0
        for i in range(M.rows):
            if M.entries[i][j]:
                v |= 1 << i
        span |= {u ^ v for u in span}
    return frozenset(span)


def f2_intersection_dim(X: ExactMatrix, Z: ExactMatrix) -> int:
    """dim of the intersection of two column spans, by literal enumeration."""
    common = f2_column_span(X) & f2_column_span(Z)
    return len(common).bit_length() - 1
