"""Truncated noncommutative power series and a square-zero extension.

Series are polynomials with every term of degree above a fixed cap
discarded; with exact coefficients this makes each identity below an exact
statement about the quotient by the ideal of high-degree terms.  The module
provides quasi-inverses (the circle-operation inverse of a constant-free
series), Neumann inverses for matrices of the form I + N, a finite-scale
one-sided-inverse probe, and the square-zero extension by a generator z
with z * (anything scalar-free) = 0, together with a step-by-step replay of
the collapse argument that the extension exists to support.  Series,
extension elements and series matrices take a - b, -a and is_zero from
the ``ncpoly`` base ``_Linear``, as polynomials do.

Both inverses are geometric series, and they share one integer loop
(``_power_sum``): the factor is cleared once, to int terms over one divisor
d; each power A^k and the partial sum stay int terms over d^k, each entry
of the next power is one run of the ``ncpoly`` pair loop, and only the sum
is decoded.  Neither inverse goes through ``TruncSeries.__mul__`` or
``SeriesMatrix.__matmul__``.

Honesty note: a quotient by a degree-increasing relation (one that rewrites
a low-degree word into a higher-degree expression) is *not* represented by
these truncations - the low-degree element lands inside every truncation
ideal, so its nonvanishing in the true quotient cannot be detected here.
All identities are verified over the truncated free series ring itself,
without quotienting.  See the README for the full statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import FieldError, Scalar, _check_count
from .ncpoly import (
    EMPTY_WORD, FreeAlgebra, NcPoly, Word, _decoded, _int_terms, _Linear, _nonzero, _product,
)


@dataclass(frozen=True)
class TruncSeries(_Linear):
    """A power series known up to degree ``cap``: a polynomial body with all
    higher terms discarded on construction, and never formed by a product."""

    body: NcPoly
    cap: int

    def __post_init__(self) -> None:
        if not isinstance(self.body, NcPoly):
            raise TypeError(f"a series body must be an NcPoly, got {type(self.body).__name__}")
        if not isinstance(self.cap, int) or isinstance(self.cap, bool) or self.cap < 1:
            raise ValueError(f"truncation cap must be a positive integer, got {self.cap!r}")
        object.__setattr__(self, "body", self.body.truncate(self.cap))

    @property
    def alg(self) -> FreeAlgebra:
        return self.body.alg

    @staticmethod
    def zero(alg: FreeAlgebra, cap: int) -> "TruncSeries":
        return TruncSeries(alg.zero(), cap)

    @staticmethod
    def one(alg: FreeAlgebra, cap: int) -> "TruncSeries":
        return TruncSeries(alg.one(), cap)

    def _check(self, other: "TruncSeries") -> None:
        if self.alg != other.alg:
            raise FieldError("series live over different algebras")
        if self.cap != other.cap:
            raise ValueError(f"truncation caps differ: {self.cap} vs {other.cap}")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        return TruncSeries(self.body + other.body, self.cap)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            self._check(other)
            return TruncSeries(self.body.__mul__(other.body, self.cap), self.cap)
        return NotImplemented

    def scale(self, c: Scalar) -> "TruncSeries":
        return TruncSeries(self.body.scale(c), self.cap)

    def __pow__(self, k: int) -> "TruncSeries":
        _check_count("exponent", k)
        out = TruncSeries.one(self.alg, self.cap)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.body)

    def constant_term(self) -> Scalar:
        return self.body.constant_term()

    def __str__(self) -> str:
        return str(self.body)


def quasi_inverse(f: TruncSeries) -> TruncSeries:
    """The circle-inverse g = -(f + f^2 + ... + f^cap) of a series with zero
    constant term, satisfying g*f = f + g = f*g up to the cap."""
    if f.constant_term() != 0:
        raise ValueError("quasi-inverse requires a zero constant term")
    (terms,), d = _int_terms((f.body,))
    ((total,),), dk = _power_sum([[terms]], d, f.cap, f.alg.field.p)
    return TruncSeries(_decoded(f.alg, [(w, -c) for w, c in total.items()], dk), f.cap)


def circle(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """The circle operation a + b - a*b, a group law on constant-free series."""
    return a + b - a * b


# -- the square-zero extension ---------------------------------------------------
#
# Elements are s0 + s1*z with s0, s1 truncated series; the constant term of
# a component is its scalar (unital-hull) part.  Multiplication:
#
#   (s0 + s1 z)(t0 + t1 z) = s0 t0 + (s0 t1 + gamma(t0) s1) z,
#
# gamma = constant term.  Consequently z*t = gamma(t0)*z, z*z = 0, and the
# span of z is a two-sided ideal with square zero; dropping the z-component
# is a ring homomorphism onto the coefficient ring.


@dataclass(frozen=True)
class SExtElement(_Linear):
    """s0 + s1*z in the square-zero extension of a truncated series ring."""

    s0: TruncSeries
    s1: TruncSeries

    def __post_init__(self) -> None:
        for part in (self.s0, self.s1):
            if not isinstance(part, TruncSeries):
                raise TypeError(f"extension parts must be TruncSeries, got {type(part).__name__}")
        self.s0._check(self.s1)

    @property
    def alg(self) -> FreeAlgebra:
        return self.s0.alg

    @property
    def cap(self) -> int:
        return self.s0.cap

    @staticmethod
    def from_ring(r: TruncSeries) -> "SExtElement":
        return SExtElement(r, TruncSeries.zero(r.alg, r.cap))

    @staticmethod
    def z_element(alg: FreeAlgebra, cap: int) -> "SExtElement":
        return SExtElement(TruncSeries.zero(alg, cap), TruncSeries.one(alg, cap))

    @staticmethod
    def zero(alg: FreeAlgebra, cap: int) -> "SExtElement":
        return SExtElement(TruncSeries.zero(alg, cap), TruncSeries.zero(alg, cap))

    def __add__(self, other: "SExtElement") -> "SExtElement":
        if not isinstance(other, SExtElement):
            return NotImplemented
        return SExtElement(self.s0 + other.s0, self.s1 + other.s1)

    def __mul__(self, other):
        """(s0 + s1 z)(t0 + t1 z) = s0 t0 + (s0 t1 + gamma(t0) s1) z.

        The gamma(t0) term is the scalar part of t acting from the right: z
        times a scalar-free element vanishes, while z * (alpha + r) = alpha*z.
        """
        if not isinstance(other, SExtElement):
            return NotImplemented
        gamma = other.s0.constant_term()
        return SExtElement(self.s0 * other.s0, self.s0 * other.s1 + self.s1.scale(gamma))

    def scale(self, c: Scalar) -> "SExtElement":
        return SExtElement(self.s0.scale(c), self.s1.scale(c))

    def scalar_part(self) -> Scalar:
        """The unital-hull scalar of the z-free component."""
        return self.s0.constant_term()

    def __bool__(self) -> bool:
        return bool(self.s0) or bool(self.s1)

    def __str__(self) -> str:
        return f"({self.s0}) + ({self.s1})*z"


@dataclass(frozen=True)
class CollapseStep:
    label: str
    lhs: str
    rhs: str
    verified: bool


@dataclass(frozen=True)
class CollapseReport:
    coeffs: tuple[Scalar, ...]
    f: TruncSeries
    g: TruncSeries
    steps: tuple[CollapseStep, ...]
    verified: bool


def collapse_demo(u: Sequence[SExtElement], v: Sequence[SExtElement]) -> CollapseReport:
    """Replay the quasi-inverse collapse on concrete truncated data.

    Given u_i, v_i, the demo (1) collapses sum u_i (y x z) v_i to f * (x z)
    with f = sum alpha_i u_i^0 y, where alpha_i, the report's ``coeffs``, is
    the scalar part of v_i's z-free component, because z absorbs everything
    on its right except that scalar, (2) forms the quasi-inverse g of f and
    checks g f = f + g exactly, (3) applies that identity to x z, and
    (4) records the resulting derivation: were x z itself equal to f (x z),
    then g(xz) = gf(xz) = (f+g)(xz) would force f(xz) = 0 and hence xz = 0.
    Steps 1-3 are verified computationally at the working truncation; the
    final step is the algebraic consequence of the previous two.
    """
    if not u or len(u) != len(v):
        raise ValueError("need equally many u_i and v_i, at least one pair")
    alg = u[0].alg
    cap = u[0].cap
    if len(alg.gens) < 2:
        raise ValueError("the collapse demo uses the first two generators as x and y")
    x = TruncSeries(alg.monomial(chr(0)), cap)
    y = TruncSeries(alg.monomial(chr(1)), cap)
    z = SExtElement.z_element(alg, cap)
    xz = SExtElement.from_ring(x) * z            # (0, x)
    yxz = SExtElement.from_ring(y * x) * z       # (0, y*x)

    total = SExtElement.zero(alg, cap)
    for ui, vi in zip(u, v):
        total = total + ui * yxz * vi
    coeffs = tuple(vi.scalar_part() for vi in v)

    f = TruncSeries.zero(alg, cap)
    for alpha, ui in zip(coeffs, u):
        f = f + (ui.s0 * y).scale(alpha)
    g = quasi_inverse(f)

    fxz = SExtElement.from_ring(f) * xz
    step1 = CollapseStep(
        "collapse the middle z: sum u_i*(y*x*z)*v_i = f*(x*z) with f = sum alpha_i*u_i^0*y",
        str(total),
        str(fxz),
        total == fxz,
    )
    gf = g * f
    step2 = CollapseStep(
        "quasi-inverse identity: g*f = f + g",
        str(gf),
        str(f + g),
        gf == f + g,
    )
    lhs3 = SExtElement.from_ring(gf) * xz
    rhs3 = SExtElement.from_ring(f + g) * xz
    step3 = CollapseStep(
        "apply it to x*z: (g*f)*(x*z) = (f + g)*(x*z)",
        str(lhs3),
        str(rhs3),
        lhs3 == rhs3,
    )
    computational = step1.verified and step2.verified and step3.verified
    step4 = CollapseStep(
        "conclusion: if x*z = f*(x*z) then g*(x*z) = (g*f)*(x*z) = f*(x*z) + g*(x*z), "
        "so f*(x*z) = 0 and x*z = f*(x*z) = 0",
        "x*z",
        "0",
        computational,
    )
    return CollapseReport(coeffs, f, g, (step1, step2, step3, step4), computational)


def builtin_collapse_instance(
    alg: FreeAlgebra, cap: int
) -> tuple[list[SExtElement], list[SExtElement]]:
    """The fixed two-pair input of the collapse replay: (1, 1) and
    (1 + x, 2 + y), giving f = y + 2*(1+x)*y."""
    one = TruncSeries.one(alg, cap)
    x = TruncSeries(alg.gen(alg.gens[0]), cap)
    y = TruncSeries(alg.gen(alg.gens[1]), cap)
    two = TruncSeries(alg.scalar(alg.field.from_int(2)), cap)
    u = [SExtElement.from_ring(one), SExtElement.from_ring(one + x)]
    v = [SExtElement.from_ring(one), SExtElement.from_ring(two + y)]
    return u, v


def random_series(
    alg: FreeAlgebra,
    cap: int,
    rng,
    max_terms: int = 4,
    min_degree: int = 1,
) -> TruncSeries:
    """A random truncated series: 1..max_terms terms with uniform words of
    degree in [min_degree, cap] and uniform nonzero coefficients."""
    _check_count("cap", cap, 1)
    _check_count("max_terms", max_terms, 1)
    _check_count("min_degree", min_degree)
    if min_degree > cap:
        raise ValueError(f"min_degree must be at most cap {cap}, got {min_degree}")
    f = alg.field
    acc: dict[Word, Scalar] = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(min_degree, cap)
        w = "".join(chr(rng.randrange(len(alg.gens))) for _ in range(d))
        c = f.random_nonzero(rng)
        acc[w] = f.add(acc.get(w, 0), c)
    return TruncSeries(NcPoly(alg, acc), cap)


def random_s_ext(alg: FreeAlgebra, cap: int, rng, max_terms: int = 3) -> SExtElement:
    """A random unital-hull extension element: both components get a random
    scalar part plus a random series body."""
    def component() -> TruncSeries:
        base = random_series(alg, cap, rng, max_terms)
        return base + TruncSeries(alg.scalar(alg.field.random_scalar(rng)), cap)

    return SExtElement(component(), component())


# -- matrices of series -------------------------------------------------------------


@dataclass(frozen=True)
class SeriesMatrix(_Linear):
    """A dense square matrix with truncated-series entries."""

    entries: tuple[tuple[TruncSeries, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("series matrices must be square and nonempty")
        ref = rows[0][0]
        for row in rows:
            for e in row:
                if not isinstance(e, TruncSeries):
                    raise TypeError(f"a matrix entry must be a TruncSeries, got {type(e).__name__}")
                ref._check(e)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def alg(self) -> FreeAlgebra:
        return self.entries[0][0].alg

    @property
    def cap(self) -> int:
        return self.entries[0][0].cap

    @staticmethod
    def identity(alg: FreeAlgebra, n: int, cap: int) -> "SeriesMatrix":
        one = TruncSeries.one(alg, cap)
        zero = TruncSeries.zero(alg, cap)
        return SeriesMatrix(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    def _check(self, other: "SeriesMatrix") -> None:
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        self.entries[0][0]._check(other.entries[0][0])

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        self._check(other)
        return SeriesMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __matmul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        self._check(other)
        alg, cap = self.alg, self.cap
        # Clear denominators once per row of self and once per column of
        # other; each entry is then one integer sum over its inner product.
        left = [_int_terms([e.body for e in row]) for row in self.entries]
        right = [_int_terms([e.body for e in col]) for col in zip(*other.entries)]
        return SeriesMatrix(tuple(
            tuple(
                TruncSeries(_decoded(alg, _product(zip(row, col), cap).items(), d * e), cap)
                for col, e in right
            )
            for row, d in left
        ))

    def scale(self, c: Scalar) -> "SeriesMatrix":
        return SeriesMatrix(tuple(tuple(e.scale(c) for e in row) for row in self.entries))

    def __bool__(self) -> bool:
        return any(e for row in self.entries for e in row)

    def is_identity(self) -> bool:
        return self == SeriesMatrix.identity(self.alg, self.n, self.cap)


def random_radical_matrix(
    alg: FreeAlgebra, n: int, cap: int, rng, max_terms: int = 3
) -> SeriesMatrix:
    """A random matrix with constant-free series entries (so I + N is a unit)."""
    _check_count("n", n, 1)
    return SeriesMatrix(
        tuple(
            tuple(random_series(alg, cap, rng, max_terms) for _ in range(n))
            for _ in range(n)
        )
    )


def neumann_inverse(M: SeriesMatrix) -> SeriesMatrix:
    """Invert M = I + N, N entrywise constant-free, as I - N + N^2 - ...,
    the sum of the powers of I - M = -N.

    The sum stops at the cap since N^k has no terms below degree k; the
    result is an exact two-sided inverse modulo the truncation.  Raises if
    the constant-term matrix of M is not the identity (the only constant
    part supported).
    """
    field = M.alg.field
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            want = field.one() if i == j else field.zero()
            if e.constant_term() != want:
                raise ValueError(
                    "Neumann inversion needs constant-term part exactly the identity "
                    f"(entry ({i},{j}) has constant term {e.constant_term()})"
                )
    n = M.n
    # -N is M with its constant terms dropped and its signs flipped; one
    # divisor d clears the whole matrix
    cleared, d = _int_terms([x.body for row in M.entries for x in row])
    neg_n = [[(w, -c) for w, c in terms if w] for terms in cleared]
    total, dk = _power_sum([neg_n[i * n:(i + 1) * n] for i in range(n)], d, M.cap, field.p)
    for i in range(n):
        # the identity; no power of -N has a constant term
        total[i][i][EMPTY_WORD] = dk
    return SeriesMatrix(tuple(
        tuple(TruncSeries(_decoded(M.alg, s.items(), dk), M.cap) for s in row) for row in total
    ))


def _power_sum(
    a: list[list[Sequence[tuple[Word, int]]]], d: int, cap: int, p: int | None
) -> tuple[list[list[dict[Word, int]]], int]:
    """A + A^2 + ... + A^cap, stopping at the first power that is 0, for a
    square matrix A of constant-free int term lists over d; returned as int
    terms over its divisor e.

    A^k and the partial sum are kept over d^k (the sum is scaled by d as k
    grows), and A^k is reduced mod p over F_p.  Each entry of the next power
    is one run of the pair loop over its inner product."""
    n = len(a)
    cols = list(zip(*a))
    power = [[[(EMPTY_WORD, 1)] if i == j else [] for j in range(n)] for i in range(n)]
    total: list[list[dict[Word, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    e = 1
    for _ in range(cap):
        power = [[_nonzero(_product(zip(row, col), cap), p) for col in cols] for row in power]
        if not any(map(any, power)):
            break
        if d != 1:
            total = [[{w: c * d for w, c in s.items()} for s in row] for row in total]
            e *= d
        for total_row, power_row in zip(total, power):
            for s, t in zip(total_row, power_row):
                for w, c in t:
                    s[w] = s.get(w, 0) + c
    return total, e


@dataclass(frozen=True)
class FinitenessProbe:
    """Outcome of the one-sided-inverse probe: confirmed means Y*X = I."""

    confirmed: bool
    yx: SeriesMatrix


def stable_finiteness_probe(X: SeriesMatrix, Y: SeriesMatrix) -> FinitenessProbe:
    """Given X*Y = I (checked; a violation raises rather than reporting),
    test whether Y*X = I as well, returning the product as evidence."""
    X._check(Y)
    ident = SeriesMatrix.identity(X.alg, X.n, X.cap)
    if X @ Y != ident:
        raise ValueError("probe precondition failed: X*Y is not the identity")
    yx = Y @ X
    return FinitenessProbe(yx == ident, yx)
