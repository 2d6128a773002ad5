"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ncdiamond.  A word is read as the program stores it,
a ``str`` whose letter ``chr(i)`` is generator ``i``; a polynomial is a
plain ``dict`` from word to coefficient.  Each check states a property
the output must have whatever algorithm produced it: an action on a
module, a representation, a group algebra, a closed form or a plain
elimination.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# A Mersenne prime for the modular Burau evaluation.
BIG_P = (1 << 61) - 1


def add_into(d: dict, key, c, p: int | None = None) -> None:
    """d[key] += c, dropping the entry when it cancels."""
    v = d.get(key, 0) + c
    if p is not None:
        v %= p
    if v:
        d[key] = v
    else:
        d.pop(key, None)


def poly_mul(a: dict, b: dict, cap: int) -> dict:
    """Product of two word polynomials, dropping words longer than cap."""
    out: dict = {}
    for u, x in a.items():
        for v, y in b.items():
            if len(u) + len(v) <= cap:
                add_into(out, u + v, x * y)
    return out


def poly_add(a: dict, b: dict, p: int | None = None) -> dict:
    out = dict(a)
    for w, c in b.items():
        add_into(out, w, c, p)
    return out


def contains_lhs(words, lhss) -> bool:
    return any(l in w for w in words for l in lhss)


def deglex_smaller(u: str, v: str, rank: dict[str, int]) -> bool:
    """u < v in degree-then-lex order with the given letter ranks."""
    if len(u) != len(v):
        return len(u) < len(v)
    return [rank[c] for c in u] < [rank[c] for c in v]


def reduce_memo(poly: dict, rules: list[tuple[str, dict]], p: int | None = None) -> dict:
    """Normal form by reducing each distinct word once (memoised, leftmost
    occurrence of the first matching rule).  On a confluent system every
    strategy gives the same normal form."""
    memo: dict[str, dict] = {}

    def nf_word(w: str) -> dict:
        if w in memo:
            return memo[w]
        stack = [w]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            hit = None
            for lhs, rhs in rules:
                pos = top.find(lhs)
                if pos >= 0 and (hit is None or pos < hit[0]):
                    hit = (pos, lhs, rhs)
            if hit is None:
                memo[top] = {top: 1}
                stack.pop()
                continue
            pos, lhs, rhs = hit
            pre, post = top[:pos], top[pos + len(lhs):]
            pending = [pre + u + post for u in rhs if pre + u + post not in memo]
            if pending:
                stack.extend(pending)
                continue
            out: dict = {}
            for u, c in rhs.items():
                for v, e in memo[pre + u + post].items():
                    add_into(out, v, c * e, p)
            memo[top] = out
            stack.pop()
        return memo[w]

    out: dict = {}
    for w, c in poly.items():
        for v, e in nf_word(w).items():
            add_into(out, v, c * e, p)
    return out


# -- the Weyl algebra: x acts as t, y as d/dt ---------------------------------


def weyl_closed_form(k: int) -> dict:
    """y^k x^k = sum_j j! C(k,j)^2 x^(k-j) y^(k-j) in the Weyl algebra."""
    x, y = chr(0), chr(1)
    return {
        x * (k - j) + y * (k - j): Fraction(math.factorial(j) * math.comb(k, j) ** 2)
        for j in range(k + 1)
    }


def weyl_action(poly: dict, m: int) -> dict:
    """The polynomial applied, as a differential operator, to t^m.  The
    result maps exponents of t to coefficients."""
    out: dict = {}
    for w, c in poly.items():
        f = {m: Fraction(1)}
        for ch in reversed(w):
            if ord(ch) == 0:
                f = {e + 1: a for e, a in f.items()}
            else:
                f = {e - 1: a * e for e, a in f.items() if e}
            if not f:
                break
        for e, a in f.items():
            add_into(out, e, c * a)
    return out


def weyl_equal(inp: dict, out: dict) -> bool:
    """Equal as differential operators: both act alike on t^0 .. t^d, where
    d bounds the number of y letters of any word."""
    top = max((len(w) for w in list(inp) + list(out)), default=0)
    return all(weyl_action(inp, m) == weyl_action(out, m) for m in range(top + 1))


# -- U(sl2) on its irreducible modules ----------------------------------------


def sl2_action(poly: dict, n: int) -> list[dict]:
    """Images of the basis v_0 .. v_n of the irreducible module V(n), with
    e v_i = (n-i+1) v_(i-1), f v_i = (i+1) v_(i+1), h v_i = (n-2i) v_i and
    the generators declared in the order e, f, h."""
    cols = []
    for i in range(n + 1):
        col: dict = {}
        for w, c in poly.items():
            j, a = i, Fraction(c)
            for ch in reversed(w):
                g = ord(ch)
                if g == 0:
                    a, j = a * (n - j + 1), j - 1
                elif g == 1:
                    a, j = a * (j + 1), j + 1
                else:
                    a = a * (n - 2 * j)
                if not a or j < 0 or j > n:
                    a = 0
                    break
            if a:
                add_into(col, j, a)
        cols.append(col)
    return cols


def is_pbw(w: str) -> bool:
    """e^a f^b h^c: the letters never decrease."""
    return all(w[i] <= w[i + 1] for i in range(len(w) - 1))


# -- the Burau representation of B3 --------------------------------------------


def _mat_mul2(a, b, p):
    return (
        ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % p, (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % p),
        ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % p, (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % p),
    )


def _to_mod(c, p: int) -> int:
    if isinstance(c, Fraction):
        return c.numerator * pow(c.denominator, -1, p) % p
    return c % p


class Burau:
    """Reduced Burau matrices of sigma_1 (letter 0) and sigma_2 (letter 1)
    at several values of t, modulo a large prime.  Every consequence of
    the braid relation maps to 0, so a rule lhs -> rhs of any completion
    must give equal images."""

    def __init__(self, ts=(2, 3 * pow(7, -1, BIG_P) % BIG_P, 987654321)):
        p = BIG_P
        self.gens = [
            (((-t) % p, 1), (0, 1), (1, 0), (t, (-t) % p)) for t in ts
        ]
        self.cache: dict[str, list] = {"": [((1, 0), (0, 1))] * len(ts)}

    def word(self, w: str) -> list:
        got = self.cache.get(w)
        if got is None:
            head = self.word(w[:-1])
            g = ord(w[-1])
            got = [
                _mat_mul2(m, (gen[0], gen[1]) if g == 0 else (gen[2], gen[3]), BIG_P)
                for m, gen in zip(head, self.gens)
            ]
            self.cache[w] = got
        return got

    def image(self, poly: dict) -> list:
        out = [[[0, 0], [0, 0]] for _ in self.gens]
        for w, c in poly.items():
            c = _to_mod(c, BIG_P)
            for acc, m in zip(out, self.word(w)):
                for i in range(2):
                    for j in range(2):
                        acc[i][j] = (acc[i][j] + c * m[i][j]) % BIG_P
        return out


# -- finite group algebras ---------------------------------------------------------


def compose(p: tuple, q: tuple) -> tuple:
    """The permutation i -> p(q(i))."""
    return tuple(p[i] for i in q)


def group_closure(gens: list[tuple]) -> set:
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


class GroupAlgebra:
    """F_p[G] for a permutation group, with letter i mapped to perms[i]."""

    def __init__(self, perms: list[tuple], p: int):
        self.perms = perms
        self.p = p
        self.cache: dict[str, tuple] = {"": tuple(range(len(perms[0])))}

    def element(self, w: str) -> tuple:
        got = self.cache.get(w)
        if got is None:
            got = compose(self.element(w[:-1]), self.perms[ord(w[-1])])
            self.cache[w] = got
        return got

    def image(self, poly: dict) -> dict:
        out: dict = {}
        for w, c in poly.items():
            add_into(out, self.element(w), c, self.p)
        return out


def normal_word_count(lhss: list[str], letters: int, limit: int) -> int | None:
    """How many words avoid every lhs, or None if some word of length
    ``limit`` still avoids them all (the count is then not finite so far)."""
    total, level = 0, [""]
    for _ in range(limit + 1):
        level = [w for w in level if not any(w.endswith(l) for l in lhss)]
        if not level:
            return total
        total += len(level)
        level = [w + chr(i) for w in level for i in range(letters)]
    return None


def count_ambiguities(lhss: list[str]) -> int:
    """Overlaps (self-pairs included) and proper inclusions among the lhs."""
    n = 0
    for a, u in enumerate(lhss):
        for b, v in enumerate(lhss):
            n += sum(1 for k in range(1, min(len(u), len(v))) if u[-k:] == v[:k])
            if a != b and len(v) < len(u):
                n += sum(1 for j in range(len(u) - len(v) + 1) if u[j:j + len(v)] == v)
    return n


# -- reading the polynomials of a confluence certificate ---------------------------

_SPLIT = re.compile(r"\s+([+-])\s+")
_SCALAR = re.compile(r"^\d+(/\d+)?$")


def parse_poly_text(text: str, gens: list[str]) -> dict:
    """Read the program's printed polynomial form, "2*x*y - 1/3*y + 1"."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = _SPLIT.split(text)
    index = {g: chr(i) for i, g in enumerate(gens)}
    out: dict = {}
    for k in range(0, len(parts), 2):
        if k:
            sign = 1 if parts[k - 1] == "+" else -1
        factors = parts[k].split("*")
        coeff = Fraction(1)
        if _SCALAR.match(factors[0]):
            coeff = Fraction(factors.pop(0))
        word = "".join(index[g] for g in factors)
        add_into(out, word, sign * coeff)
    return out


# -- exact rank by plain elimination ----------------------------------------------


def mat_mul(a, b, p: int | None):
    cols = list(zip(*b))
    if p is None:
        return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def mat_sub(a, b, p: int | None):
    if p is None:
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[(x - y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def plain_rank(m, p: int | None) -> int:
    """Gaussian elimination on Fractions (Q) or residues (F_p)."""
    rows = [[Fraction(x) if p is None else x % p for x in row] for row in m]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if not rows[i][col]:
                continue
            if p is None:
                f = rows[i][col] / top[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
            else:
                f = rows[i][col] * pow(top[col], -1, p) % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank
