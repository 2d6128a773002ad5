"""Exact coefficient fields: the rationals and prime residue fields, each
given by its modulus (None for Q).

Scalars are plain Python values (``fractions.Fraction`` over Q, ``int``
residues in ``[0, p)`` over F_p) so the rewriting and elimination inner
loops carry no wrapper overhead; a :class:`Field` instance supplies the
arithmetic and the canonical normalization for its scalars.  No floating
point is used anywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[Fraction, int]

# Witness set certifying deterministic Miller-Rabin for every n < 3.3e24,
# comfortably past the 63-bit modulus bound enforced below.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldError(ValueError):
    """Invalid modulus, zero division, or a cross-field operation."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every modulus this library accepts."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A field given by its modulus: the rationals when ``p`` is None, else
    the prime field F_p.

    Scalars of a rational field are ``Fraction`` values (always in lowest
    terms); scalars of a prime field are ``int`` residues in ``[0, p)``.
    """

    p: int | None = None

    def __post_init__(self) -> None:
        p = self.p
        if p is not None:
            if not isinstance(p, int) or isinstance(p, bool) or not 2 <= p < (1 << 63):
                raise FieldError(f"modulus must be an integer in [2, 2^63), got {p!r}")
            if not is_prime(p):
                raise FieldError(f"modulus {p} is not prime")

    # -- constructors --------------------------------------------------

    @staticmethod
    def rationals() -> "Field":
        return Field()

    @staticmethod
    def prime(p: int) -> "Field":
        """F_p; a modulus of None is refused here, not read as Q."""
        if p is None:
            raise FieldError("modulus must be an integer in [2, 2^63), got None")
        return Field(p)

    @staticmethod
    def parse(text: str) -> "Field":
        """Parse the command-line spelling: ``"Q"`` or ``"Fp:<prime>"``."""
        if text == "Q":
            return Field.rationals()
        if text.startswith("Fp:"):
            return Field.prime(_digits(text[3:], "modulus"))
        raise FieldError(f"bad field spec {text!r} (expected 'Q' or 'Fp:<prime>')")

    def __str__(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    # -- scalar construction -------------------------------------------

    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def from_int(self, k: int) -> Scalar:
        return Fraction(k) if self.p is None else k % self.p

    def from_ratio(self, num: int, den: int) -> Scalar:
        """The scalar num/den; over F_p the denominator must be invertible."""
        if den == 0:
            raise FieldError("division by zero in scalar literal")
        if self.p is None:
            return Fraction(num, den)
        d = den % self.p
        if d == 0:
            raise FieldError(f"literal {num}/{den} is not invertible modulo {self.p}")
        return num * pow(d, self.p - 2, self.p) % self.p

    def normalize(self, value: Scalar) -> Scalar:
        """Coerce ints (and, over Q, Fractions) into canonical scalar form.
        A Fraction is always in lowest terms, so over Q it is returned as is."""
        if self.p is None:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int) and not isinstance(value, bool):
                return Fraction(value)
            raise FieldError(f"cannot coerce {value!r} into Q")
        if isinstance(value, bool):
            raise FieldError(f"cannot coerce {value!r} into {self}")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.from_ratio(value.numerator, value.denominator)
        raise FieldError(f"cannot coerce {value!r} into {self}")

    # -- arithmetic ------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else a * b % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else -a % self.p

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise FieldError("zero is not invertible")
        return 1 / Fraction(a) if self.p is None else pow(a, self.p - 2, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    # -- rendering and sampling -------------------------------------------

    def random_scalar(self, rng: random.Random) -> Scalar:
        """Uniform residue over F_p; over Q a small fraction with numerator
        in [-9, 9] and denominator in [1, 9] (stated so trials are
        reproducible from the seed alone)."""
        if self.p is None:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randrange(self.p)

    def random_nonzero(self, rng: random.Random) -> Scalar:
        """Like :meth:`random_scalar` but never zero."""
        if self.p is None:
            return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
        return rng.randrange(1, self.p)


def _digits(text: str, what: str) -> int:
    """The value of integer text: nonempty ASCII digits 0-9 and nothing else,
    since int() would also take other scripts' digits, a sign, spaces and
    underscores.  ``what`` names the text in the FieldError."""
    if not (text.isascii() and text.isdigit()):
        raise FieldError(f"{what} {text!r} is not a decimal integer")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise FieldError(f"{what} of {len(text)} digits is too long") from None


def _cleared(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers with the same ratios as the rationals v, and their divisor:
    the lcm of the denominators, so v[i] == ints[i] / divisor."""
    ratios = [x.as_integer_ratio() for x in v]
    d = math.lcm(*[q for _, q in ratios])
    return [n * (d // q) for n, q in ratios], d


def _check_count(name: str, value, least: int = 0) -> None:
    """Step budgets, degrees, sizes, trial counts and exponents are ints of
    at least ``least``, and a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        bound = "a nonnegative integer" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
