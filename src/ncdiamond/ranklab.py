"""Exact dense linear algebra over Q and F_p, and the rank-defect engine.

Ranks are computed without floating point: fraction-free (Bareiss-style)
integer elimination over the rationals after clearing denominators row by
row, and Gaussian elimination on residues over a prime field with each row
packed into one int.  Products clear denominators the same way over Q and
pack rows into ints (Kronecker substitution) over F_p, so neither kernel
loops over scalars entry by entry; ``ExactMatrix.rank`` computes and
caches a rank.  With it the module checks two universal rank inequalities
for square matrices X, Y, Z, A, B with T := X - Y@X@A and S := Z - X@B:

  claim  bound:  rank(YX) <= rank(YZ) + rank(X) - rank(Z) + rank(S)
  master bound:  rank(Z)  <= rank(YZ) + rank(S) + rank(T)

The checks run the same product and elimination kernels on rows, not on
matrices: each input is packed (F_p) or cleared to integer rows over one
divisor (Q) once, and the products, T, S and their ranks come from those
rows, with no intermediate ``ExactMatrix`` or ``Fraction``.  Over F_p the
rows of a check share one field width, wide enough for the fields of
Y@(X@A), below n^2 (p-1)^3; the ranks of the inputs Z and X go through
``ExactMatrix.rank`` and its cache.

and quantifies, per matrix assignment of a factorization witness, how far
the three defect ranks are from the smallness regime those bounds forbid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import add, lshift, mul, sub
from typing import Mapping, Sequence

from .fields import Field, FieldError, Scalar, _cleared
from .ncpoly import NcPoly
from .rewrite import LemmaWitness, RewriteSystem, _check_count, verify_lemma_witness
from .seeding import rng_for


class ExactMatrix:
    """An immutable dense matrix with exact entries over a fixed field."""

    __slots__ = ("field", "rows", "cols", "entries", "_rank")

    def __init__(self, field: Field, entries: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(field.normalize(x) for x in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self._fill(field, rows)

    def _fill(self, field: Field, rows: tuple[tuple[Scalar, ...], ...]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _raw(cls, field: Field, rows: tuple[tuple[Scalar, ...], ...]) -> "ExactMatrix":
        """Internal fast path: entries already normalized."""
        m = cls.__new__(cls)
        m._fill(field, rows)
        return m

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "ExactMatrix":
        z = field.zero()
        return ExactMatrix._raw(field, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(field: Field, n: int) -> "ExactMatrix":
        z, o = field.zero(), field.one()
        return ExactMatrix._raw(
            field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    # -- structure ---------------------------------------------------------

    def _check(self, other: "ExactMatrix") -> None:
        if self.field != other.field:
            raise FieldError("matrices live over different fields")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field})"

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._raw(self.field, tuple(zip(*self.entries)) if self.entries else ())

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        """Columns of self followed by columns of other (same row count)."""
        if not isinstance(other, ExactMatrix):
            raise TypeError(f"hstack needs a matrix, got {type(other).__name__}")
        self._check(other)
        if self.rows != other.rows:
            raise ValueError("hstack needs equal row counts")
        return ExactMatrix._raw(
            self.field, tuple(ra + rb for ra, rb in zip(self.entries, other.entries))
        )

    # -- arithmetic -----------------------------------------------------------

    def _reduced(self, rows) -> "ExactMatrix":
        """A matrix over self's field from rows of entrywise results: kept as
        they are over Q, reduced mod p over F_p."""
        p = self.field.p
        if p is None:
            return ExactMatrix._raw(self.field, tuple(map(tuple, rows)))
        return ExactMatrix._raw(self.field, tuple(tuple(a % p for a in row) for row in rows))

    def _entrywise(self, op, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix sizes differ")
        return self._reduced(map(op, ra, rb) for ra, rb in zip(self.entries, other.entries))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(sub, other)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "ExactMatrix":
        c = self.field.normalize(c)
        return self._reduced([a * c for a in row] for row in self.entries)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        p = self.field.p
        if p is None:
            # Clear denominators once per row of self and once per column of
            # other; each entry is then one integer dot product and one Fraction.
            left = [_cleared(row) for row in self.entries]
            right = [_cleared(col) for col in zip(*other.entries)]
            dots = _int_product([row for row, _ in left], [col for col, _ in right])
            out = tuple(
                tuple(Fraction(v, d * e) for v, (_, e) in zip(row, right))
                for row, (_, d) in zip(dots, left)
            )
            return ExactMatrix._raw(self.field, out)
        # A field of a product row sums at most `cols` products below p^2.
        width = (self.cols * (p - 1) ** 2).bit_length() + 1
        shifts = range(0, other.cols * width, width)
        mask = (1 << width) - 1
        out = tuple(
            tuple((v >> s & mask) % p for s in shifts)
            for v in _packed_product(self.entries, _pack(other.entries, shifts))
        )
        return ExactMatrix._raw(self.field, out)

    def rank(self) -> int:
        if self._rank is None:
            object.__setattr__(self, "_rank", _compute_rank(self))
        return self._rank


# -- the kernels ----------------------------------------------------------------------
# Over F_p a matrix is a list of packed rows: entry j of a row sits in the
# field at bit j * width of one int (Kronecker substitution).  Over Q it is a
# list of integer rows over one divisor.  Each field has one product kernel
# and one elimination kernel, which ExactMatrix and the bound checks share.


def _pack(rows: Sequence[Sequence[int]], shifts: range) -> list[int]:
    """Each row as one int, entry j in the field at bit shifts[j]."""
    return [sum(map(lshift, row, shifts)) for row in rows]


def _packed_product(rows: Sequence[Sequence[int]], packed: Sequence[int]) -> list[int]:
    """The packed rows of rows @ M, for M's packed rows: each is one sum of
    int products, so a field holds the plain integer dot product as long as
    that stays below 2^width."""
    return [sum(map(mul, row, packed)) for row in rows]


def _rank_packed(packed: Sequence[int], p: int, width: int, ncols: int) -> int:
    """Gaussian elimination over F_p on packed rows; returns the number of pivots.

    A field holds any nonnegative integer and is reduced mod p only when
    read.  Rows are eliminated as row += (p - f) * top, where top is the
    pivot row reduced and scaled to a leading 1: each of fewer than m
    eliminations adds less than p^2 to a field.  So no field carries into
    the next if every starting field plus m * p^2 stays below 2^width.
    """
    packed = list(packed)
    m = len(packed)
    mask = (1 << width) - 1
    end = ncols * width
    r = 0
    for s in range(0, end, width):
        if r == m:
            break
        piv = next((i for i in range(r, m) if (packed[i] >> s & mask) % p), None)
        if piv is None:
            continue
        v = packed[piv]
        packed[piv] = packed[r]
        inv = pow((v >> s & mask) % p, p - 2, p)
        top = sum((v >> t & mask) % p * inv % p << t for t in range(s, end, width))
        for i in range(r + 1, m):
            f = (packed[i] >> s & mask) % p
            if f:
                packed[i] += (p - f) * top
        r += 1
    return r


def _rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """The rank of residue rows: pack them with fields of width bits, where
    residues below p plus m * p^2 fit, and eliminate."""
    if not rows:
        return 0
    ncols = len(rows[0])
    width = (len(rows) * p * p).bit_length() + 1
    return _rank_packed(_pack(rows, range(0, ncols * width, width)), p, width, ncols)


def _int_product(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer rows of rows @ M, for M's integer columns: one dot product
    per entry."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def _rank_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free integer elimination; all divisions are exact because
    every intermediate entry is a minor of the input."""
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
    r = 0
    prev = 1
    for col in range(ncols):
        piv_i = next((i for i in range(r, m) if rows[i][col]), None)
        if piv_i is None:
            continue
        rows[r], rows[piv_i] = rows[piv_i], rows[r]
        piv = rows[r][col]
        top = rows[r]
        for i in range(r + 1, m):
            ri = rows[i]
            f = ri[col]
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(ri, top)]
        prev = piv
        r += 1
        if r == m:
            break
    return r


def _compute_rank(M: ExactMatrix) -> int:
    if M.rows == 0 or M.cols == 0:
        return 0
    if M.field.p is not None:
        return _rank_mod(M.entries, M.field.p)
    return _rank_bareiss([_cleared(row)[0] for row in M.entries])


def image_intersection_dim(X: ExactMatrix, Z: ExactMatrix) -> int:
    """dim(Im X ∩ Im Z) = rank(X) + rank(Z) - rank([X | Z])."""
    return X.rank() + Z.rank() - X.hstack(Z).rank()


def _check_square_same(mats: Sequence[ExactMatrix]) -> int:
    first = mats[0]
    n = first.rows
    for M in mats:
        first._check(M)
        if M.rows != n or M.cols != n:
            raise ValueError("all matrices must be square of one common size")
    return n


def _int_rows(M: ExactMatrix) -> tuple[list[list[int]], int]:
    """The integer rows of M over one divisor d: M == rows / d."""
    flat, d = _cleared([x for row in M.entries for x in row])
    n = M.cols
    return [flat[i * n:(i + 1) * n] for i in range(M.rows)], d


def _int_difference(u: list[list[int]], du: int, v: list[list[int]], dv: int) -> list[list[int]]:
    """The integer rows of u/du - v/dv, scaled by lcm(du, dv)."""
    d = math.lcm(du, dv)
    a, b = d // du, d // dv
    return [[a * x - b * y for x, y in zip(ru, rv)] for ru, rv in zip(u, v)]


def _defect_ranks(
    X: ExactMatrix, Y: ExactMatrix, Z: ExactMatrix, B: ExactMatrix, A: ExactMatrix | None = None
) -> tuple[int, int, int]:
    """rank(Y@Z), rank(S) for S = Z - X@B, and rank(T) for T = X - Y@X@A,
    or rank(Y@X) when A is None, for square inputs of one size n.

    Each input is packed (F_p) or cleared (Q) once, and no intermediate
    ExactMatrix or Fraction is made.  Over F_p every product runs on packed
    rows of one width, and a difference u - v is formed as u + K - v, with K
    a multiple of p at least every field of v, so fields stay nonnegative:
    K = n^2 p^3 is above the fields of Y@(X@A), below n^2 (p-1)^3, and
    K = n p^2 above those of one product.  Over Q the products are integer
    dot products, and the two sides of a difference are scaled to a common
    divisor, which leaves its rank as it is.
    """
    n, p = X.rows, X.field.p
    if p is None:
        (x, dx), (y, dy), (z, dz), (b, db) = map(_int_rows, (X, Y, Z, B))
        cols = lambda rows: list(zip(*rows))
        s = _int_difference(z, dz, _int_product(x, cols(b)), dx * db)
        yz = _int_product(y, cols(z))
        if A is None:
            third = _int_product(y, cols(x))
        else:
            a, da = _int_rows(A)
            yxa = _int_product(y, cols(_int_product(x, cols(a))))
            third = _int_difference(x, dx, yxa, dy * dx * da)
        return _rank_bareiss(yz), _rank_bareiss(s), _rank_bareiss(third)
    depth = 1 if A is None else 2
    K = n**depth * p ** (depth + 1)
    # fields start below K + p, and elimination adds less than n p^2
    width = (K + n * p * p).bit_length() + 1
    shifts = range(0, n * width, width)
    offset = sum(K << t for t in shifts)
    z = _pack(Z.entries, shifts)
    s = [u + offset - v for u, v in zip(z, _packed_product(X.entries, _pack(B.entries, shifts)))]
    yz = _packed_product(Y.entries, z)
    x = _pack(X.entries, shifts)
    if A is None:
        third = _packed_product(Y.entries, x)
    else:
        yxa = _packed_product(Y.entries, _packed_product(X.entries, _pack(A.entries, shifts)))
        third = [u + offset - v for u, v in zip(x, yxa)]
    return tuple(_rank_packed(rows, p, width, n) for rows in (yz, s, third))


@dataclass(frozen=True)
class BoundCheck:
    """One inequality evaluation: holds iff lhs <= rhs."""

    holds: bool
    lhs: int
    rhs: int

    @property
    def margin(self) -> int:
        return self.rhs - self.lhs


def claim_bound_check(X: ExactMatrix, Y: ExactMatrix, Z: ExactMatrix, B: ExactMatrix) -> BoundCheck:
    """rank(YX) <= rank(YZ) + rank(X) - rank(Z) + rank(S) with S = Z - X@B."""
    _check_square_same((X, Y, Z, B))
    rank_yz, rank_s, lhs = _defect_ranks(X, Y, Z, B)
    rhs = rank_yz + X.rank() - Z.rank() + rank_s
    return BoundCheck(lhs <= rhs, lhs, rhs)


@dataclass(frozen=True)
class MasterCheck:
    """The combined bound rank(Z) <= rank(YZ) + rank(S) + rank(T)."""

    holds: bool
    margin: int
    rank_z: int
    rank_yz: int
    rank_s: int
    rank_t: int


def master_bound_check(
    X: ExactMatrix, Y: ExactMatrix, Z: ExactMatrix, A: ExactMatrix, B: ExactMatrix
) -> MasterCheck:
    """Check rank(Z) <= rank(YZ) + rank(S) + rank(T) for T = X - Y@X@A and
    S = Z - X@B; the margin (rhs - lhs) is reported and is never negative."""
    _check_square_same((X, Y, Z, A, B))
    rank_yz, rank_s, rank_t = _defect_ranks(X, Y, Z, B, A)
    rank_z = Z.rank()
    margin = rank_yz + rank_s + rank_t - rank_z
    return MasterCheck(margin >= 0, margin, rank_z, rank_yz, rank_s, rank_t)


# -- polynomial evaluation and the obstruction probe ----------------------------------


def evaluate_poly(p: NcPoly, assignment: Mapping[str, ExactMatrix]) -> ExactMatrix:
    """Evaluate a polynomial by substituting a square matrix per generator;
    the empty word maps to the identity.  Sizes and fields must all agree,
    and the assignment field must equal the polynomial's coefficient field."""
    alg = p.alg
    mats: list[ExactMatrix] = []
    for name in alg.gens:
        if name not in assignment:
            raise ValueError(f"assignment is missing generator {name!r}")
        mats.append(assignment[name])
    n = _check_square_same(mats)
    field = mats[0].field
    if field != alg.field:
        raise FieldError(
            f"assignment field {field} does not match coefficient field {alg.field}"
        )
    total = ExactMatrix.zeros(field, n, n)
    for w, c in p.terms:
        prod = mats[ord(w[0])] if w else ExactMatrix.identity(field, n)
        for ch in w[1:]:
            prod = prod @ mats[ord(ch)]
        total = total + prod.scale(c)
    return total


@dataclass(frozen=True)
class DefectReport:
    """Exact ranks, defects, and regime arithmetic for one witness assignment.

    margin = rank_yz + rank_t + rank_s - rank_z is nonnegative for every
    assignment (asserted).  The regime "rank_x, rank_z > alpha*n while all
    three defects < alpha*n/4" is feasible for some alpha iff
    alpha_defect_floor < alpha_rank_cap; the margin identity makes that
    impossible, and regime_feasible records the honest evaluation.
    """

    n: int
    field: Field
    rank_x: int
    rank_z: int
    rank_yz: int
    rank_t: int
    rank_s: int
    margin: int
    norm_x: Fraction
    norm_z: Fraction
    norm_yz: Fraction
    norm_t: Fraction
    norm_s: Fraction
    alpha_rank_cap: Fraction
    alpha_defect_floor: Fraction
    regime_feasible: bool

    def as_dict(self) -> dict:
        """The fields in order, with the field and the fractions as strings."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = str(value) if isinstance(value, (Field, Fraction)) else value
        return out


def obstruction_probe(
    sys: RewriteSystem, witness: LemmaWitness, assignment: Mapping[str, ExactMatrix]
) -> DefectReport:
    """Evaluate a verified witness on concrete matrices and report defects.

    Requires the witness to pass :func:`verify_lemma_witness` first; then
    X, Y, Z, A, B are the evaluated matrices, T = X - Y@X@A and S = Z - X@B
    the defect matrices, and the report carries the exact ranks, the master
    margin (asserted nonnegative), normalized ranks, and the two alpha
    thresholds certifying the smallness regime infeasible.
    """
    wr = verify_lemma_witness(sys, witness)
    if not wr.verdict:
        raise ValueError("witness does not verify against the rewrite system")
    X = evaluate_poly(witness.x, assignment)
    Y = evaluate_poly(witness.y, assignment)
    Z = evaluate_poly(witness.z, assignment)
    A = evaluate_poly(witness.a, assignment)
    B = evaluate_poly(witness.b, assignment)
    n = X.rows
    if n == 0:
        raise ValueError("assignment matrices must be nonempty")
    m = master_bound_check(X, Y, Z, A, B)
    assert m.margin >= 0, "master bound violated: rank arithmetic is broken"
    rank_x = X.rank()
    max_defect = max(m.rank_yz, m.rank_t, m.rank_s)
    alpha_rank_cap = Fraction(min(rank_x, m.rank_z), n)
    alpha_defect_floor = Fraction(4 * max_defect, n)
    return DefectReport(
        n=n,
        field=X.field,
        rank_x=rank_x,
        rank_z=m.rank_z,
        rank_yz=m.rank_yz,
        rank_t=m.rank_t,
        rank_s=m.rank_s,
        margin=m.margin,
        norm_x=Fraction(rank_x, n),
        norm_z=Fraction(m.rank_z, n),
        norm_yz=Fraction(m.rank_yz, n),
        norm_t=Fraction(m.rank_t, n),
        norm_s=Fraction(m.rank_s, n),
        alpha_rank_cap=alpha_rank_cap,
        alpha_defect_floor=alpha_defect_floor,
        regime_feasible=alpha_defect_floor < alpha_rank_cap,
    )


# -- random matrices and the inequality fuzz -----------------------------------------


def _random_dense(field: Field, rows: int, cols: int, rng) -> ExactMatrix:
    return ExactMatrix._raw(
        field,
        tuple(
            tuple(field.random_scalar(rng) for _ in range(cols)) for _ in range(rows)
        ),
    )


def _random_with_rank(field: Field, n: int, r: int, rng, retries: int = 200) -> ExactMatrix:
    if r == 0:
        return ExactMatrix.zeros(field, n, n)
    for _ in range(retries):
        if field.p is None:
            left = ExactMatrix(
                field, [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
            )
            right = ExactMatrix(
                field, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            )
        else:
            left = _random_dense(field, n, r, rng)
            right = _random_dense(field, r, n, rng)
        M = left @ right
        if M.rank() == r:
            return M
    raise RuntimeError(f"failed to hit target rank {r} at size {n} within {retries} draws")


def random_matrix(
    field: Field, n: int, target_rank: int | None = None, seed: int = 0
) -> ExactMatrix:
    """A seeded random n x n matrix; with target_rank set, a product of
    random n x r and r x n factors resampled (bounded retries) until the
    rank is exactly r."""
    _check_count("n", n)
    rng = rng_for(seed, "matrix", str(field), n, target_rank)
    if target_rank is None:
        return _random_dense(field, n, n, rng)
    if isinstance(target_rank, int) and not 0 <= target_rank <= n:
        raise ValueError(f"target rank {target_rank} out of range for size {n}")
    _check_count("target_rank", target_rank)
    return _random_with_rank(field, n, target_rank, rng)


def random_assignment(
    names: Sequence[str], field: Field, n: int, rng
) -> dict[str, ExactMatrix]:
    """One dense random square matrix per generator name."""
    return {name: _random_dense(field, n, n, rng) for name in names}


@dataclass(frozen=True)
class RankFuzzReport:
    check: str
    field: Field
    n: int
    trials: int
    violations: int
    min_margin: int
    first_violation: int | None


def fuzz_bound_checks(
    field: Field, n: int, trials: int, seed: int, check: str = "master"
) -> RankFuzzReport:
    """Run one of the rank inequalities on trials >= 1 draws of random n x n
    matrices, n >= 1, with uniformly chosen target ranks.

    check = "claim":        random X, Y, Z, B; margin of the claim bound.
    check = "master":       random X, Y, Z, A, B; the master margin.
    check = "intersection": Z built as X@B + S; margin of
                            dim(Im Z ∩ Im X) >= rank(Z) - rank(S).
    """
    if check not in ("claim", "master", "intersection"):
        raise ValueError(f"unknown check {check!r}")
    _check_count("trials", trials, 1)
    _check_count("n", n, 1)
    margins = []
    for t in range(trials):
        rng = rng_for(seed, "rankfuzz", check, str(field), n, t)

        def draw() -> ExactMatrix:
            return _random_with_rank(field, n, rng.randint(0, n), rng)

        if check == "claim":
            margin = claim_bound_check(draw(), draw(), draw(), draw()).margin
        elif check == "master":
            margin = master_bound_check(draw(), draw(), draw(), draw(), draw()).margin
        else:
            X = draw()
            B = _random_dense(field, n, n, rng)
            S = draw()
            Z = X @ B + S
            margin = image_intersection_dim(X, Z) - (Z.rank() - S.rank())
        margins.append(margin)
    violated = [t for t, margin in enumerate(margins) if margin < 0]
    first = violated[0] if violated else None
    return RankFuzzReport(check, field, n, trials, len(violated), min(margins), first)
