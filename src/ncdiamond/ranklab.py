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

and quantifies, per matrix assignment of a factorization witness, how far
the three defect ranks are from the smallness regime those bounds forbid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from operator import add, lshift, mul, sub
from typing import Mapping, Sequence

from .fields import Field, FieldError, Scalar, _cleared
from .ncpoly import NcPoly
from .rewrite import LemmaWitness, RewriteSystem, verify_lemma_witness
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
            out = tuple(
                tuple(Fraction(sum(map(mul, row, col)), d * e) for col, e in right)
                for row, d in left
            )
            return ExactMatrix._raw(self.field, out)
        # Kronecker substitution: row j of other becomes one int with a field
        # of `width` bits per column.  A field of a product row sums at most
        # `cols` products below p^2, so no field carries into the next.
        width = (self.cols * (p - 1) ** 2).bit_length() + 1
        shifts = range(0, other.cols * width, width)
        packed = [sum(map(lshift, row, shifts)) for row in other.entries]
        mask = (1 << width) - 1
        out = []
        for row in self.entries:
            v = sum(map(mul, row, packed))
            out.append(tuple((v >> s & mask) % p for s in shifts))
        return ExactMatrix._raw(self.field, tuple(out))

    def rank(self) -> int:
        if self._rank is None:
            object.__setattr__(self, "_rank", _compute_rank(self))
        return self._rank


def _rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Gaussian elimination on residues; returns the number of pivots.

    Each row is packed into one int with a field of `width` bits per column
    and eliminated as row += (p - f) * top, where top is the pivot row
    reduced and scaled to a leading 1.  Fields are reduced mod p only when
    read: each of at most m eliminations adds less than p^2 to a field, so
    every field stays in [0, m * p^2) and never carries into the next.
    """
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
    width = (m * p * p).bit_length() + 1
    mask = (1 << width) - 1
    shifts = range(0, ncols * width, width)
    packed = [sum(map(lshift, row, shifts)) for row in rows]
    r = 0
    for s in shifts:
        piv = next((i for i in range(r, m) if (packed[i] >> s & mask) % p), None)
        if piv is None:
            continue
        v = packed[piv]
        packed[piv] = packed[r]
        inv = pow((v >> s & mask) % p, p - 2, p)
        top = sum((v >> t & mask) % p * inv % p << t for t in range(s, ncols * width, width))
        for i in range(r + 1, m):
            f = (packed[i] >> s & mask) % p
            if f:
                packed[i] += (p - f) * top
        r += 1
        if r == m:
            break
    return r


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
    S = Z - X @ B
    lhs = (Y @ X).rank()
    rhs = (Y @ Z).rank() + X.rank() - Z.rank() + S.rank()
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
    T = X - Y @ X @ A
    S = Z - X @ B
    rank_z = Z.rank()
    rank_yz = (Y @ Z).rank()
    rank_s = S.rank()
    rank_t = T.rank()
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
    rng = rng_for(seed, "matrix", str(field), n, target_rank)
    if target_rank is None:
        return _random_dense(field, n, n, rng)
    if not 0 <= target_rank <= n:
        raise ValueError(f"target rank {target_rank} out of range for size {n}")
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
    for name, value in (("trials", trials), ("n", n)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
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
