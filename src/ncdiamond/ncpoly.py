"""Free-monoid words, noncommutative polynomials, and the expression parser.

Elements of the free algebra F<g1, ..., gk> are finite linear combinations
of words in the generators.  A word is stored as a plain ``str`` with
generator i encoded as ``chr(i)``: concatenation, factor search, and
lexicographic comparison then all run at C speed, which the rewriting
engine leans on heavily.

Polynomials keep their terms sorted descending under the degree-then-lex
order ("deglex"), so ``terms[0]`` is always the leading term and equal
polynomials have identical storage.  A polynomial is a frozen dataclass of
its algebra and its terms: it compares, hashes, copies and pickles by them.

Products do not add Fractions term by term.  Each factor comes in as
integer coefficients over one divisor (cleared numerators over Q, the
residues over F_p), and one pair loop (``_product``) sums the products of
term pairs as plain ints.  Decoding (``_decoded``) is a separate step,
one Fraction over Q or one reduction mod p over F_p per output word, so a
caller that chains products keeps the int sums between them and decodes
once at the end.  Truncated series, their matrices, the quasi-inverse
and Neumann sums, and the triple-commutator chain all run the same pair
loop.

Polynomials, truncated series, extension elements, series matrices and
exact matrices take a - b, -a and is_zero from one private base, ``_Linear``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .fields import Field, FieldError, Scalar, _check_count, _cleared, _digits

Word = str

EMPTY_WORD: Word = ""


def word_of(indices: Iterable[int]) -> Word:
    """Build a word from generator indices."""
    return "".join(map(chr, indices))


def word_indices(w: Word) -> tuple[int, ...]:
    """Generator indices of a word, left to right."""
    return tuple(map(ord, w))


def deglex_key(w: Word) -> tuple[int, Word]:
    """Sort key for deglex: total degree, then left to right by generator
    declaration order, which for chr-encoded words is native str order."""
    return (len(w), w)


def deglex_compare(u: Word, v: Word) -> int:
    """Compare words under deglex; returns -1, 0, or +1."""
    ku, kv = deglex_key(u), deglex_key(v)
    if ku == kv:
        return 0
    return -1 if ku < kv else 1


@dataclass(frozen=True)
class FreeAlgebra:
    """A free associative algebra: a coefficient field and named generators,
    whose declaration order is the letter order of deglex.
    ``descending_letters`` maps letter i to top - i, so the key
    (-len(w), w.translate(descending_letters)) sorts words descending;
    ``_word_names`` maps letter i to its name and a ``*``, for word_str."""

    field: Field
    gens: tuple[str, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.gens)
        object.__setattr__(self, "gens", gens)
        if not gens:
            raise ValueError("a free algebra needs at least one generator")
        for name in gens:
            if not name.isidentifier():
                raise ValueError(f"generator name {name!r} is not an identifier")
        if len(set(gens)) != len(gens):
            raise ValueError("generator names must be distinct")
        top = len(gens) - 1
        object.__setattr__(self, "descending_letters", {i: top - i for i in range(len(gens))})
        object.__setattr__(self, "_word_names", {i: n + "*" for i, n in enumerate(gens)})
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(gens)})

    # -- word helpers -----------------------------------------------------

    def word_from_names(self, *names: str) -> Word:
        return "".join(chr(self._gen_index(n)) for n in names)

    def _gen_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def sort_words(self, words: Iterable[Word]) -> list[Word]:
        """Words sorted ascending under deglex."""
        return sorted(words, key=deglex_key)

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        return w.translate(self._word_names)[:-1]

    def check_word(self, w: Word) -> None:
        if w and ord(max(w)) >= len(self.gens):
            raise ValueError(f"word uses letter index {ord(max(w))}, alphabet has {len(self.gens)}")

    # -- polynomial constructors -------------------------------------------

    def poly(self, terms: Mapping[Word, Scalar] | None = None) -> "NcPoly":
        return NcPoly(self, terms)

    def zero(self) -> "NcPoly":
        return NcPoly(self, None)

    def one(self) -> "NcPoly":
        return NcPoly(self, {EMPTY_WORD: self.field.one()})

    def scalar(self, c: Scalar) -> "NcPoly":
        return NcPoly(self, {EMPTY_WORD: c})

    def monomial(self, w: Word, coeff: Scalar | None = None) -> "NcPoly":
        return NcPoly(self, {w: self.field.one() if coeff is None else coeff})

    def gen(self, name: str) -> "NcPoly":
        return self.monomial(chr(self._gen_index(name)))

    def parse(self, text: str) -> "NcPoly":
        return _Parser(text, self).parse()


class _Linear:
    """a - b = a + b.scale(-1), -a = a.scale(-1) and a.is_zero() = not a, for
    types with +, scale and __bool__, ``ranklab.ExactMatrix`` among them;
    empty slots keep NcPoly and ExactMatrix dict-free."""

    __slots__ = ()

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not self


@dataclass(frozen=True, slots=True, init=False, repr=False)
class NcPoly(_Linear):
    """An element of a free algebra: finitely many (word, coefficient) terms.

    ``terms`` is a tuple of pairs sorted descending under deglex with no zero
    coefficients, so the leading term is ``terms[0]`` and structural equality
    is semantic equality.  Instances are immutable.
    """

    alg: FreeAlgebra
    terms: tuple[tuple[Word, Scalar], ...]

    def __init__(self, alg: FreeAlgebra, terms: Mapping[Word, Scalar] | None = None):
        f = alg.field
        canon: dict[Word, Scalar] = {}
        if terms:
            for w, c in terms.items():
                alg.check_word(w)
                canon[w] = f.normalize(c)
        self._fill(alg, canon)

    @classmethod
    def _canonical(cls, alg: FreeAlgebra, terms: Mapping[Word, Scalar]) -> "NcPoly":
        """The trusted constructor, for terms formed from polynomials of alg:
        their words are in the alphabet and their coefficients canonical, so
        it only drops zeros and sorts."""
        self = object.__new__(cls)
        self._fill(alg, terms)
        return self

    def _fill(self, alg: FreeAlgebra, terms: Mapping[Word, Scalar]) -> None:
        words = [w for w, c in terms.items() if c]
        if len(words) > 1:
            # deglex is (len, str): sort descending by str, then stably by len
            words.sort(reverse=True)
            words.sort(key=len, reverse=True)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", tuple([(w, terms[w]) for w in words]))

    # -- inspection ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.terms)

    def coeff(self, w: Word) -> Scalar:
        for u, c in self.terms:
            if u == w:
                return c
        return self.alg.field.zero()

    def constant_term(self) -> Scalar:
        if self.terms and not self.terms[-1][0]:
            return self.terms[-1][1]
        return self.alg.field.zero()

    def leading_term(self) -> tuple[Word, Scalar]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0]

    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.terms[0][0]) if self.terms else None

    def as_dict(self) -> dict[Word, Scalar]:
        return dict(self.terms)

    def __iter__(self) -> Iterator[tuple[Word, Scalar]]:
        return iter(self.terms)

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "NcPoly") -> None:
        if self.alg != other.alg:
            raise FieldError("operands live in different free algebras")

    def __add__(self, other: "NcPoly") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check(other)
        f = self.alg.field
        d = dict(self.terms)
        for w, c in other.terms:
            d[w] = f.add(d[w], c) if w in d else c
        return NcPoly._canonical(self.alg, d)

    def scale(self, c: Scalar) -> "NcPoly":
        f = self.alg.field
        c = f.normalize(c)
        return NcPoly._canonical(self.alg, {w: f.mul(a, c) for w, a in self.terms})

    def __mul__(self, other, cap: int | None = None):
        """The product; with a cap it forms no word of degree over the cap,
        which gives (self * other).truncate(cap)."""
        if isinstance(other, NcPoly):
            self._check(other)
            (left, right), d = _int_terms((self, other))
            return _decoded(self.alg, _product(((left, right),), cap).items(), d * d)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "NcPoly":
        _check_count("exponent", k)
        out = self.alg.one()
        for _ in range(k):
            out = out * self
        return out

    def truncate(self, cap: int) -> "NcPoly":
        """Drop every term of degree greater than cap."""
        if self.terms and len(self.terms[0][0]) > cap:
            return NcPoly._canonical(self.alg, {w: c for w, c in self.terms if len(w) <= cap})
        return self

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        """Canonical expression, terms descending; round-trips through parse.
        Each coefficient is read as numerator and denominator, which a
        Fraction and an int residue both have."""
        if not self.terms:
            return "0"
        word_str = self.alg.word_str
        parts: list[str] = []
        for w, c in self.terms:
            n, d = c.numerator, c.denominator
            if n < 0:
                parts.append(" - ")
                n = -n
            else:
                parts.append(" + ")
            if not w:
                parts.append(f"{n}" if d == 1 else f"{n}/{d}")
            elif d != 1:
                parts.append(f"{n}/{d}*{word_str(w)}")
            elif n != 1:
                parts.append(f"{n}*{word_str(w)}")
            else:
                parts.append(word_str(w))
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self) -> str:
        return f"NcPoly({self} over {self.alg.field})"


# -- the integer product ------------------------------------------------------


def _int_terms(polys: Sequence[NcPoly]) -> tuple[list[Sequence[tuple[Word, int]]], int]:
    """The terms of each polynomial with int coefficients over one shared
    divisor: cleared numerators over Q, the residues themselves over F_p."""
    if polys[0].alg.field.p is not None:
        return [p.terms for p in polys], 1
    nums, d = _cleared([c for p in polys for _, c in p.terms])
    nums = iter(nums)
    return [[(w, next(nums)) for w, _ in p.terms] for p in polys], d


def _product(
    pairs: Iterable[tuple[Sequence[tuple[Word, int]], Sequence[tuple[Word, int]]]],
    cap: int | None,
) -> dict[Word, int]:
    """The sum of left * right over pairs of int term lists, as int terms
    over the product of the two divisors, zero sums included.

    Every product of two terms is one int product added into a dict.  With
    a cap, no word over it is formed; each right list must then be in term
    order.  ``_decoded`` turns the result into a polynomial."""
    acc: dict[Word, int] = {}
    get = acc.get
    for left, right in pairs:
        if cap is not None:
            # right is in term order, so its lengths never increase and the
            # words of at most cap - len(u) letters are a suffix of it
            neg_lens = [-len(v) for v, _ in right]
        for u, a in left:
            right_u = right if cap is None else right[bisect_left(neg_lens, len(u) - cap):]
            for v, b in right_u:
                w = u + v
                acc[w] = get(w, 0) + a * b
    return acc


def _nonzero(acc: dict[Word, int], p: int | None) -> list[tuple[Word, int]]:
    """The terms of an int sum that are not 0, as residues over F_p."""
    if p is None:
        return [(w, c) for w, c in acc.items() if c]
    return [(w, c % p) for w, c in acc.items() if c % p]


def _decoded(alg: FreeAlgebra, terms: Iterable[tuple[Word, int]], d: int) -> NcPoly:
    """The polynomial with coefficient n / d for each (word, n) of terms,
    whose words are distinct: one Fraction(n, d) per nonzero word over Q,
    n % p over F_p (where d is 1)."""
    p = alg.field.p
    if p is None:
        return NcPoly._canonical(alg, {w: Fraction(n, d) for w, n in terms if n})
    return NcPoly._canonical(alg, {w: n % p for w, n in terms})


# -- the expression parser ----------------------------------------------------
#
# expr   := term (('+' | '-') term)*
# term   := factor ('*' factor)*
# factor := '-'* atom
# atom   := scalar | word | '(' expr ')'
# word   := generator ('*' generator)*
# scalar := INT ('/' INT)?        INT is one or more of the ASCII digits 0-9
#
# A word is one monomial, not a product per '*'; it is the same polynomial.
#
# Multiplication must be explicit; juxtaposition is a syntax error.
#
# Each '(' costs a few stack frames, so parentheses nest at most
# _MAX_PAREN_DEPTH deep, well inside the interpreter's recursion limit;
# unary minus is a loop and costs none.

_MAX_PAREN_DEPTH = 100


class ParseError(ValueError):
    """Syntax or lookup error in a polynomial expression, with position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    """(kind, value, position) tokens; an integer literal's value is its int."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                tokens.append(("int", _digits(text[i:j], "integer literal"), i))
            except FieldError as exc:  # more digits than int() converts
                raise ParseError(str(exc), i) from None
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, alg: FreeAlgebra):
        self.tokens = _tokenize(text)
        self.alg = alg
        self.i = 0
        self.depth = 0

    def _peek(self) -> tuple[str, str | int, int]:
        return self.tokens[self.i]

    def _next(self) -> tuple[str, str | int, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> NcPoly:
        p = self._expr()
        kind, _, pos = self._peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)
        return p

    def _expr(self) -> NcPoly:
        p = self._term()
        while True:
            kind = self._peek()[0]
            if kind == "+":
                self._next()
                p = p + self._term()
            elif kind == "-":
                self._next()
                p = p - self._term()
            else:
                return p

    def _term(self) -> NcPoly:
        p = self._factor()
        while self._peek()[0] == "*":
            self._next()
            p = p * self._factor()
        return p

    def _factor(self) -> NcPoly:
        negate = False
        while self._peek()[0] == "-":
            self._next()
            negate = not negate
        p = self._atom()
        return -p if negate else p

    def _atom(self) -> NcPoly:
        kind, value, pos = self._next()
        if kind == "int":
            if self._peek()[0] == "/":
                self._next()
                dkind, den, dpos = self._next()
                if dkind != "int":
                    raise ParseError("expected an integer denominator", dpos)
                try:
                    c = self.alg.field.from_ratio(value, den)
                except FieldError as exc:
                    raise ParseError(str(exc), pos) from None
                return self.alg.scalar(c)
            return self.alg.scalar(self.alg.field.from_int(value))
        if kind == "name":
            # a run of generators g1*g2*...*gk is one word, one monomial
            letters = [self._letter(value, pos)]
            while self._peek()[0] == "*" and self.tokens[self.i + 1][0] == "name":
                _, value, pos = self.tokens[self.i + 1]
                self.i += 2
                letters.append(self._letter(value, pos))
            return self.alg.monomial("".join(letters))
        if kind == "(":
            if self.depth == _MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {_MAX_PAREN_DEPTH}", pos)
            self.depth += 1
            p = self._expr()
            self.depth -= 1
            ckind, _, cpos = self._next()
            if ckind != ")":
                raise ParseError("expected ')'", cpos)
            return p
        raise ParseError("expected a scalar, a generator, or '('", pos)

    def _letter(self, name: str, pos: int) -> Word:
        try:
            return chr(self.alg._gen_index(name))
        except ValueError:
            raise ParseError(f"unknown generator {name!r}", pos) from None


def parse_poly(text: str, generators: Iterable[str], field: Field) -> NcPoly:
    """Parse an expression over the given generators into a polynomial."""
    return FreeAlgebra(field, tuple(generators)).parse(text)
