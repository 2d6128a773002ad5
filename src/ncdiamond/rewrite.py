"""Oriented rewriting for finitely presented associative algebras.

A rewrite system replaces fixed words by polynomials that are strictly
smaller under deglex, so reduction terminates.  On top of single steps the
module provides normal forms, the overlap/inclusion ambiguity enumeration
with per-ambiguity resolution traces, critical-pair completion, enumeration
of the words avoiding every left-hand side, and the randomized
polynomial-identity and witness checks that run on normal forms.

Reduction adds no Fractions term by term.  Each rule's right side is
cleared once, to (word, int) terms over one divisor; the terms being reduced
are numerators over one common divisor over Q, which a step scales only when
the rule's divisor does not divide its coefficient, and residues reduced at
each add over F_p.  The loop hands back int terms, so each output word is
decoded once.  Critical pairs enter the loop as the int terms their splices
make, never as decoded reducts, and the triple-commutator chain feeds each
normal form to the next product as int terms, decoding only its value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Callable, Mapping

from .fields import FieldError, Scalar, _check_count
from .ncpoly import (
    EMPTY_WORD, FreeAlgebra, NcPoly, Word, _decoded, _int_terms, _nonzero, _product,
    deglex_compare,
)
from .seeding import rng_for

DEFAULT_STEP_BUDGET = 1_000_000
# the longest lhs complete adds; past it, completion stops uncompleted
_MAX_LHS_DEGREE = 64


class StepBudgetExceeded(RuntimeError):
    """Reduction needed more rewrites than the configured budget, one
    rewrite of one merged word counting as one step.

    Deglex-decreasing rules always terminate, so a larger budget reaches
    the normal form.
    """


class QuotientCollapseError(ValueError):
    """A critical pair normalized to a nonzero scalar: the presented
    quotient collapses to the zero ring, so no completion exists."""


@dataclass(frozen=True)
class RewriteRule:
    """One oriented rule lhs -> rhs, checked when it is made: the lhs is a
    nonempty word of the rhs's algebra, every rhs word deglex-smaller.
    ``_int_rhs`` is the rhs cleared once, as (word, int) terms and their
    divisor: the numerators over the lcm of the denominators over Q, the
    residues over 1 over F_p; every system holding the rule splices with it."""

    lhs: Word
    rhs: NcPoly

    def __post_init__(self) -> None:
        if not isinstance(self.rhs, NcPoly):
            raise TypeError(f"rule right side must be an NcPoly, got {type(self.rhs).__name__}")
        if not self.lhs:
            raise ValueError("rule left side must be a nonempty word")
        self.rhs.alg.check_word(self.lhs)
        for w, _ in self.rhs.terms:
            if deglex_compare(w, self.lhs) >= 0:
                raise ValueError(f"rule {self} is not deglex-decreasing")
        (terms,), e = _int_terms((self.rhs,))
        object.__setattr__(self, "_int_rhs", (terms, e))

    def __str__(self) -> str:
        return f"{self.rhs.alg.word_str(self.lhs)} -> {self.rhs}"


@dataclass(frozen=True)
class RewriteSystem:
    """Ordered rules over one free algebra; checks only rule type, algebra, distinct lhs."""

    alg: FreeAlgebra
    rules: tuple[RewriteRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        seen: set[Word] = set()
        for rule in self.rules:
            if not isinstance(rule, RewriteRule):
                raise TypeError(f"not a rewrite rule: {rule!r}")
            if rule.rhs.alg != self.alg:
                raise FieldError("rule right-hand side lives in a different algebra")
            if rule.lhs in seen:
                raise ValueError(
                    f"two rules share the left-hand side {self.alg.word_str(rule.lhs)}"
                )
            seen.add(rule.lhs)

    def with_rule(self, rule: RewriteRule) -> "RewriteSystem":
        return RewriteSystem(self.alg, self.rules + (rule,))


def _check_alg(p: NcPoly, sys: RewriteSystem) -> None:
    if p.alg != sys.alg:
        raise FieldError("polynomial and rewrite system live in different algebras")


def _leftmost_match(word: Word, rules: tuple[RewriteRule, ...]) -> tuple[int, int] | None:
    """(position, rule index) of the leftmost rewritable occurrence, ties
    going to the lowest rule index; None when the word is in normal form."""
    best: tuple[int, int] | None = None
    for idx, rule in enumerate(rules):
        pos = word.find(rule.lhs)
        if pos >= 0 and (best is None or pos < best[0]):
            best = (pos, idx)
    return best


def _splice(sys: RewriteSystem, word: Word, pos: int, idx: int, c: int) -> list[tuple[Word, int]]:
    """The int terms of c * (pre * rhs * post) over rule idx's divisor, where
    word = pre + lhs + post with the rule's lhs at pos.  Distinct rhs words
    splice to distinct words, so no two terms collide."""
    rule = sys.rules[idx]
    pre, post = word[:pos], word[pos + len(rule.lhs):]
    out = []
    for u, m in rule._int_rhs[0]:
        out.append((pre + u + post, c * m))
    return out


def _spliced(sys: RewriteSystem, word: Word, pos: int, idx: int) -> NcPoly:
    """pre * rhs * post, where word = pre + lhs + post with rule idx's lhs at
    pos."""
    return _decoded(sys.alg, _splice(sys, word, pos, idx, 1), sys.rules[idx]._int_rhs[1])


def reduce_once(p: NcPoly, sys: RewriteSystem) -> tuple[NcPoly, bool]:
    """Apply one rewrite using the fixed strategy: take the deglex-greatest
    term c*w whose word contains some lhs, rewrite its leftmost occurrence
    with the lowest-index matching rule, giving p - c*w + c*(pre*rhs*post).
    Returns (result, True), or (p, False) if p is already in normal form."""
    _check_alg(p, sys)
    for w, c in p.terms:  # stored descending, so greatest first
        hit = _leftmost_match(w, sys.rules)
        if hit is not None:
            return p - sys.alg.monomial(w, c) + _spliced(sys, w, *hit).scale(c), True
    return p, False


def _reduce(
    p: NcPoly, sys: RewriteSystem, max_steps: int, snapshots: list[NcPoly] | None = None
) -> NcPoly:
    """Normalize p with :func:`_reduce_terms`, after clearing it to int
    terms, and decode the result.  ``snapshots``, when given, starts as [p]
    and ends with the result."""
    _check_count("max_steps", max_steps)
    _check_alg(p, sys)
    (start,), D = _int_terms((p,))
    terms, D = _reduce_terms(dict(start), D, sys, max_steps, snapshots)
    return snapshots[-1] if snapshots else _decoded(sys.alg, terms, D)


def _reduce_terms(
    terms: dict[Word, int],
    D: int,
    sys: RewriteSystem,
    max_steps: int,
    snapshots: list[NcPoly] | None = None,
    rewritten: list[Word] | None = None,
    stop: Callable[[Mapping[Word, Scalar]], bool] | None = None,
) -> tuple[list[tuple[Word, int]], int]:
    """The one reduction loop behind normal_form, reduction_trace and the
    critical pairs.

    ``terms`` holds the polynomial being reduced, with equal words merged,
    as plain ints: numerators over the divisor ``D`` over Q, residues
    reduced mod p over F_p (where D is 1).  It may hold words with
    coefficient 0.  A heap holds its reducible words, deglex-greatest
    first.  Each step pops the greatest reducible word with
    its merged coefficient c and rewrites its leftmost match with the
    lowest-index rule: reduce_once's choice, so the polynomials appended to
    ``snapshots`` are its iteration.  The rule's right side is (word, m)
    terms over its divisor e, so the step adds (c / g) * m per spliced word,
    g = gcd(c, e); when e does not divide c, every term and D are first
    scaled by e / g.  A word whose coefficient is 0 leaves without a step.
    Spliced words are deglex-smaller than the popped word, so none comes
    back.

    Returns the normal form undecoded: its (word, int) terms with the
    zero coefficients dropped, and their divisor, which a caller decodes
    once or feeds to the next product.  Over Q the snapshots decode only
    the words each step touched.  ``snapshots``, when given, ends with the
    polynomial ``terms`` holds.  ``rewritten``, when given, receives each
    word rewritten with a nonzero coefficient, in the order of the steps.

    ``stop``, read only with ``snapshots``, is called after each step with
    the polynomial the step made, as a mapping from words to decoded
    coefficients that may hold zeros, before it is snapshotted; when it
    returns True the loop ends there, without that snapshot, and returns
    the terms it holds, not a normal form.
    """
    alg = sys.alg
    mod = alg.field.p
    rules = sys.rules
    desc = alg.descending_letters
    # what the snapshots read: the residues over F_p, decoded values over Q
    shown = dict(snapshots[-1].terms) if snapshots is not None and mod is None else terms
    heap = []
    for w in terms:
        hit = _leftmost_match(w, rules)
        if hit is not None:
            heap.append((-len(w), w.translate(desc), w, hit))
    heapify(heap)
    steps = 0
    while heap:
        _, _, w, (pos, idx) = heappop(heap)
        c = terms.pop(w)
        if c == 0:
            continue
        steps += 1
        if steps > max_steps:
            raise _out_of_steps(max_steps)
        if rewritten is not None:
            rewritten.append(w)
        e = rules[idx]._int_rhs[1]
        if e != 1:
            g = gcd(c, e)
            if g != e:
                s = e // g
                D *= s
                for u in terms:
                    terms[u] *= s
            c //= g
        if shown is not terms:
            shown.pop(w)
        for u, a in _splice(sys, w, pos, idx, c):
            if u in terms:
                a += terms[u]
            else:
                hit = _leftmost_match(u, rules)
                if hit is not None:
                    heappush(heap, (-len(u), u.translate(desc), u, hit))
            terms[u] = a if mod is None else a % mod
            if shown is not terms:
                shown[u] = Fraction(a, D)
        if snapshots is not None:
            if stop is not None and stop(shown):
                break
            snapshots.append(NcPoly._canonical(alg, shown))
    return [(w, c) for w, c in terms.items() if c], D


def _out_of_steps(max_steps: int) -> StepBudgetExceeded:
    return StepBudgetExceeded(
        f"the step budget ran out after {max_steps} rewrites, before a normal "
        "form; deglex-decreasing rules terminate, so a larger budget reaches one"
    )


def normal_form(p: NcPoly, sys: RewriteSystem, max_steps: int = DEFAULT_STEP_BUDGET) -> NcPoly:
    """Fully reduce p, counting each rewrite of a merged word against
    max_steps; the result is the last entry of :func:`reduction_trace`."""
    return _reduce(p, sys, max_steps)


def reduction_trace(
    p: NcPoly, sys: RewriteSystem, max_steps: int = DEFAULT_STEP_BUDGET
) -> tuple[NcPoly, ...]:
    """The reduce_once iteration [p, p1, ..., normal form]."""
    trace = [p]
    _reduce(p, sys, max_steps, trace)
    return tuple(trace)


# -- ambiguities and confluence --------------------------------------------------


@dataclass(frozen=True)
class Ambiguity:
    """A word with two competing reductions.

    overlap:   word = lhs_a + tail, where a proper nonempty suffix of lhs_a
               equals a proper nonempty prefix of lhs_b; lhs_b starts at
               ``offset``.
    inclusion: word = lhs_a with lhs_b a proper factor at ``offset``.
    """

    kind: str
    rule_a: int
    rule_b: int
    word: Word
    offset: int


def _pair_ambiguities(rules: tuple[RewriteRule, ...], a: int, b: int) -> list[Ambiguity]:
    """The overlap and inclusion ambiguities of rule a with rule b, ordered
    by offset: an inclusion starts at most len(u) - len(v) letters in, an
    overlap of k letters at len(u) - k > len(u) - len(v), so the inclusions
    come first and the overlaps follow with k descending."""
    u, v = rules[a].lhs, rules[b].lhs
    found: list[Ambiguity] = []
    if a != b and len(v) < len(u):
        j = u.find(v)
        while j >= 0:
            found.append(Ambiguity("inclusion", a, b, u, j))
            j = u.find(v, j + 1)
    for k in range(min(len(u), len(v)) - 1, 0, -1):
        if u[len(u) - k:] == v[:k]:
            found.append(Ambiguity("overlap", a, b, u + v[k:], len(u) - k))
    return found


def find_ambiguities(sys: RewriteSystem) -> tuple[Ambiguity, ...]:
    """Enumerate every overlap and inclusion ambiguity, self-pairs included,
    ordered by (rule_a, rule_b, offset)."""
    n = len(sys.rules)
    return tuple(
        amb for a in range(n) for b in range(n) for amb in _pair_ambiguities(sys.rules, a, b)
    )


def ambiguity_reducts(sys: RewriteSystem, amb: Ambiguity) -> tuple[NcPoly, NcPoly]:
    """The two one-step reducts of the ambiguity word: rule_a applied at
    position 0, rule_b applied at the stored offset."""
    return _spliced(sys, amb.word, 0, amb.rule_a), _spliced(sys, amb.word, amb.offset, amb.rule_b)


@dataclass(frozen=True)
class AmbiguityCheck:
    ambiguity: Ambiguity
    resolvable: bool
    trace_a: tuple[NcPoly, ...]
    trace_b: tuple[NcPoly, ...]

    @property
    def normal_form_a(self) -> NcPoly:
        return self.trace_a[-1]

    @property
    def normal_form_b(self) -> NcPoly:
        return self.trace_b[-1]


@dataclass(frozen=True)
class ConfluenceReport:
    checks: tuple[AmbiguityCheck, ...]
    overall: bool


def check_confluence(sys: RewriteSystem, max_steps: int = DEFAULT_STEP_BUDGET) -> ConfluenceReport:
    """Reduce both sides of every ambiguity and compare normal forms.

    Each check records the full reduction trace of each one-step reduct, so
    a report is also a human-readable resolution certificate.  A budget
    error names the ambiguity word.

    The traces of one call share their snapshots.  The next step depends
    only on the polynomial reached, so once a trace's start or a later
    snapshot equals one an earlier trace reached, its loop stops and the
    trace takes the rest of that earlier trace, the same objects.  A table
    keyed by each snapshot's words finds such a polynomial before it is
    built, and its coefficients are compared on a hit.  Each trace still
    counts all its steps, shared ones included, against max_steps.
    """
    _check_count("max_steps", max_steps)
    alg = sys.alg
    mod = alg.field.p
    # the nonzero words of each snapshot so far -> (its trace, its index)
    seen: dict[frozenset[Word], tuple[list[NcPoly], int]] = {}

    def stop(shown: Mapping[Word, Scalar]) -> bool:
        nonlocal joined
        key = frozenset([w for w, c in shown.items() if c])
        hit = seen.get(key)
        if hit is None:
            seen[key] = trace, len(trace)
            return False
        earlier, j = hit
        if any(shown[w] != c for w, c in earlier[j].terms):
            return False
        joined = hit
        return True

    checks = []
    for amb in find_ambiguities(sys):
        traces = []
        for pos, idx in ((0, amb.rule_a), (amb.offset, amb.rule_b)):
            # each trace is reduction_trace of the ambiguity_reducts side,
            # its loop started from the splice that side decodes
            spliced = _splice(sys, amb.word, pos, idx, 1)
            e = sys.rules[idx]._int_rhs[1]
            start = dict(spliced) if mod is not None else {u: Fraction(m, e) for u, m in spliced}
            trace: list[NcPoly] = []
            joined = None
            try:
                if not stop(start):
                    trace.append(NcPoly._canonical(alg, start))
                    _reduce_terms(dict(spliced), e, sys, max_steps, trace, stop=stop)
                if joined is not None:
                    earlier, j = joined
                    trace += earlier[j:]
                    # one snapshot per step after the first
                    if len(trace) - 1 > max_steps:
                        raise _out_of_steps(max_steps)
            except StepBudgetExceeded as exc:
                raise StepBudgetExceeded(
                    f"critical pair at {alg.word_str(amb.word)}: {exc}"
                ) from None
            traces.append(tuple(trace))
        trace_a, trace_b = traces
        checks.append(AmbiguityCheck(amb, trace_a[-1] == trace_b[-1], trace_a, trace_b))
    return ConfluenceReport(tuple(checks), all(c.resolvable for c in checks))


def _first_unresolved(sys: RewriteSystem, pairs: list[list[list]], max_steps: int):
    """The first (ambiguity, nonzero normal form of red_a - red_b) in
    ``pairs`` order, or None when every ambiguity resolves.  Normal forms
    are linear, so these are the ambiguities :func:`check_confluence`
    reports unresolvable, found without traces.

    ``pairs`` holds one entry [ambiguity, rule count, rewritten words] per
    ambiguity, as :func:`complete` keeps them: the rule count is None until
    the ambiguity resolves, and then the number of rules it was last known
    to resolve under; the words its reduction rewrote are joined by a
    non-letter.  A resolved entry is normalized again only if the lhs of a
    rule added since occurs in one of those words; either way it is brought
    up to the current rule count.  A budget error names the ambiguity word.

    The loop starts from red_a - red_b as int terms: rule a's splice at 0
    and rule b's at the offset, scaled to numerators over e_a * e_b, the
    product of their divisors, and reduced mod p over F_p.  A word on which
    the reducts cancel enters with coefficient 0 and leaves without a step.
    """
    rules = sys.rules
    n = len(rules)
    mod = sys.alg.field.p
    sep = chr(len(sys.alg.gens))  # no letter, so no lhs spans two joined words
    for row in pairs:
        for entry in row:
            amb, since, words = entry
            if since is not None and not any(r.lhs in words for r in rules[since:]):
                entry[1] = n
                continue
            e_a, e_b = rules[amb.rule_a]._int_rhs[1], rules[amb.rule_b]._int_rhs[1]
            terms = dict(_splice(sys, amb.word, 0, amb.rule_a, e_b))
            for u, m in _splice(sys, amb.word, amb.offset, amb.rule_b, -e_a):
                m += terms.get(u, 0)
                terms[u] = m if mod is None else m % mod
            rewritten: list[Word] = []
            try:
                diff, D = _reduce_terms(terms, e_a * e_b, sys, max_steps, rewritten=rewritten)
            except StepBudgetExceeded as exc:
                raise StepBudgetExceeded(
                    f"critical pair at {sys.alg.word_str(amb.word)}: {exc}"
                ) from None
            if diff:
                return amb, _decoded(sys.alg, diff, D)
            entry[1:] = n, sep.join(rewritten)
    return None


def _confluent(sys: RewriteSystem, max_steps: int = DEFAULT_STEP_BUDGET) -> bool:
    """Whether every ambiguity resolves: :func:`_first_unresolved` over a
    fresh table, so every critical pair is normalized."""
    table = [[[amb, None, ""] for amb in find_ambiguities(sys)]]
    return _first_unresolved(sys, table, max_steps) is None


@dataclass(frozen=True)
class CompletionResult:
    completed: bool
    system: RewriteSystem
    added: tuple[RewriteRule, ...]


def complete(sys: RewriteSystem, max_new_rules: int = 64) -> CompletionResult:
    """Knuth-Bendix style completion by critical pairs.

    Repeatedly picks the first unresolved ambiguity, normalizes the
    difference of its two reducts (normal forms are linear, so this is
    nonzero exactly when their normal forms differ), and orients it with the
    deglex-greatest word as the new left-hand side (over a field the leading
    coefficient is always invertible).  Old rules are kept as-is; only the new rule's
    right-hand side is born fully reduced.  Stops with completed=False
    before adding a rule past max_new_rules or one whose lhs is longer than
    ``_MAX_LHS_DEGREE`` letters, and raises :class:`QuotientCollapseError`
    if a critical pair normalizes to a nonzero scalar.

    The ambiguities of each pair of rules are enumerated once, and a pair
    that resolved is normalized again only when a rule added since can
    rewrite one of the words its reduction rewrote.  Otherwise the larger
    system makes the same rewrites in the same deglex order: a word that
    only a new rule matches is popped with the coefficient it ended with, 0,
    and skipped.  So every pass finds the same first unresolved ambiguity as
    normalizing every pair again would.
    """
    _check_count("max_new_rules", max_new_rules)
    added: list[RewriteRule] = []
    cur = sys
    pairs: list[list[list]] = []  # pairs[a]: the entries of rule a's ambiguities
    while True:
        n, paired = len(cur.rules), len(pairs)
        pairs += [[] for _ in range(paired, n)]
        for a in range(n):
            pairs[a] += (
                [amb, None, ""]
                for b in (range(paired, n) if a < paired else range(n))
                for amb in _pair_ambiguities(cur.rules, a, b)
            )
        found = _first_unresolved(cur, pairs, DEFAULT_STEP_BUDGET)
        if found is None:
            return CompletionResult(True, cur, tuple(added))
        amb, diff = found
        w, c = diff.leading_term()
        if w == EMPTY_WORD:
            raise QuotientCollapseError(
                f"critical pair at {cur.alg.word_str(amb.word)} normalizes "
                f"to the nonzero scalar {cur.alg.field.scalar_str(c)}: the quotient "
                "collapses to the zero ring"
            )
        if len(added) >= max_new_rules or len(w) > _MAX_LHS_DEGREE:
            return CompletionResult(False, cur, tuple(added))
        rhs = cur.alg.monomial(w) - diff.scale(cur.alg.field.inv(c))
        rule = RewriteRule(w, rhs)
        added.append(rule)
        cur = cur.with_rule(rule)


# -- normal words ------------------------------------------------------------------


def _normal_words_by_degree(sys: RewriteSystem, max_degree: int) -> list[list[Word]]:
    """levels[d] = the degree-d words avoiding every lhs, in deglex order."""
    letters = [chr(i) for i in range(len(sys.alg.gens))]
    lhss = [r.lhs for r in sys.rules]
    levels: list[list[Word]] = [[EMPTY_WORD]]
    for _ in range(max_degree):
        nxt = []
        for w in levels[-1]:
            for ch in letters:
                u = w + ch
                # only a suffix ending at the new letter can be a fresh factor
                if not any(u.endswith(l) for l in lhss):
                    nxt.append(u)
        levels.append(nxt)
    return levels


def enumerate_normal_words(sys: RewriteSystem, degree: int) -> tuple[Word, ...]:
    """All words of the given degree containing no rule's lhs, deglex order."""
    _check_count("degree", degree)
    return tuple(_normal_words_by_degree(sys, degree)[degree])


def random_poly(sys: RewriteSystem, max_deg: int, rng, max_terms: int = 4) -> NcPoly:
    """A random linear combination of normal words: 1..max_terms terms, each
    with degree uniform in [0, max_deg] (resampled past empty degrees; the
    empty word is always normal), a uniform normal word of that degree, and
    a uniform nonzero coefficient.  Colliding words merge, so the result may
    have fewer terms or even be zero."""
    _check_count("max_deg", max_deg)
    _check_count("max_terms", max_terms, 1)
    return _random_poly_over(sys.alg, _normal_words_by_degree(sys, max_deg), rng, max_terms)


def _random_poly_over(
    alg: FreeAlgebra, levels: list[list[Word]], rng, max_terms: int = 4
) -> NcPoly:
    """:func:`random_poly` over the normal words ``levels`` of degree 0 to
    max_deg, so that many draws share one enumeration."""
    max_deg = len(levels) - 1
    f = alg.field
    acc: dict[Word, Scalar] = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_deg)
        while not levels[d]:
            d = rng.randint(0, max_deg)
        w = rng.choice(levels[d])
        c = f.random_nonzero(rng)
        acc[w] = f.add(acc.get(w, 0), c)
    return NcPoly(alg, acc)


# -- the triple-commutator identity --------------------------------------------------


@dataclass(frozen=True)
class IdentityCounterexample:
    trial: int
    substitution: tuple[NcPoly, ...]
    value: NcPoly


@dataclass(frozen=True)
class IdentityReport:
    """``holds`` is False with no counterexample when a value reduced to a
    nonzero normal form on rules that are not confluent: such a value need
    not be nonzero in the quotient, so the run shows neither outcome."""

    holds: bool
    trials: int
    counterexample: IdentityCounterexample | None


def triple_commutator_nf(
    sys: RewriteSystem,
    substitution: tuple[NcPoly, ...],
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> NcPoly:
    """Normal form of [X1,Y1][X2,Y2][X3,Y3] for (X1,Y1,X2,Y2,X3,Y3).

    Factors are normalized as they are multiplied in; on a confluent system
    this equals reducing the expanded product, at a fraction of the cost.
    Each x*y - y*x is one integer product run over the pairs (x, y), (-y, x),
    and each acc * comm one run over the two normal forms' int terms; each
    product enters the reduction loop with its zero sums dropped, as
    residues over F_p.  The running product stays int terms over one
    divisor, decoded once at the end; each of the six reductions has its
    own max_steps budget.
    """
    if len(substitution) != 6:
        raise ValueError("the substitution names six polynomials X1,Y1,X2,Y2,X3,Y3")
    _check_count("max_steps", max_steps)
    mod = sys.alg.field.p
    acc, D = [(EMPTY_WORD, 1)], 1
    for i in range(3):
        x, y = substitution[2 * i], substitution[2 * i + 1]
        x._check(y)
        _check_alg(x, sys)
        (xs, ys), d = _int_terms((x, y))
        pairs = ((xs, ys), ([(w, -n) for w, n in ys], xs))
        comm, e = _reduce_terms(dict(_nonzero(_product(pairs, None), mod)), d * d, sys, max_steps)
        product = _nonzero(_product(((acc, comm),), None), mod)
        acc, D = _reduce_terms(dict(product), D * e, sys, max_steps)
    return _decoded(sys.alg, acc, D)


def verify_identity_comm3(
    sys: RewriteSystem, trials: int, max_deg: int, seed: int
) -> IdentityReport:
    """Check the identity [X1,Y1][X2,Y2][X3,Y3] = 0 on random substitutions.

    Draws per-trial RNGs from the seed, samples six random normal-word
    polynomials of degree <= max_deg each, and reduces the product.  Stops
    at the first nonzero value, a counterexample only if the rules are
    confluent (a value that reduces to 0 is 0 on any rules).  Trials and
    max_deg must be at least 1: a degree-0 substitution is scalars, whose
    commutators vanish in any algebra.
    """
    _check_count("trials", trials, 1)
    _check_count("max_deg", max_deg, 1)
    levels = _normal_words_by_degree(sys, max_deg)
    for t in range(trials):
        rng = rng_for(seed, "comm3", t)
        subs = tuple(_random_poly_over(sys.alg, levels, rng) for _ in range(6))
        value = triple_commutator_nf(sys, subs)
        if value:
            if not _confluent(sys):
                return IdentityReport(False, trials, None)
            return IdentityReport(False, trials, IdentityCounterexample(t, subs, value))
    return IdentityReport(True, trials, None)


# -- the factorization witness ---------------------------------------------------------


@dataclass(frozen=True)
class LemmaWitness:
    """Five elements x, y, z, a, b meant to satisfy x = y*x*a, z = x*b,
    y*z = 0 with x and z nonzero in the quotient."""

    x: NcPoly
    y: NcPoly
    z: NcPoly
    a: NcPoly
    b: NcPoly

    def items(self) -> tuple[tuple[str, NcPoly], ...]:
        return (("x", self.x), ("y", self.y), ("z", self.z), ("a", self.a), ("b", self.b))


@dataclass(frozen=True)
class WitnessReport:
    """The four normal-form checks behind the factorization witness.

    Reducing to 0 proves membership in the ideal on any rule set, but a
    nonzero normal form proves an element nonzero only when the rules are
    confluent (Bergman's diamond lemma), so ``nonzero`` also needs that."""

    residual_x: NcPoly        # nf(x - y*x*a)
    residual_z: NcPoly        # nf(z - x*b)
    annihilation: NcPoly      # nf(y*z)
    nf_x: NcPoly
    nf_z: NcPoly
    recovers_x: bool          # x = y*x*a in the quotient
    z_in_ideal: bool          # z = x*b in the quotient
    y_kills_z: bool           # y*z = 0 in the quotient
    confluent: bool           # every ambiguity of the rules resolves
    nonzero: bool             # x and z survive reduction, and confluent
    verdict: bool


def verify_lemma_witness(
    sys: RewriteSystem, w: LemmaWitness, max_steps: int = DEFAULT_STEP_BUDGET
) -> WitnessReport:
    _check_count("max_steps", max_steps)
    # first, so that a budget too small for the gate fails on its critical pair
    confluent = _confluent(sys, max_steps)
    nf = lambda q: normal_form(q, sys, max_steps)
    residual_x = nf(w.x - w.y * w.x * w.a)
    residual_z = nf(w.z - w.x * w.b)
    annihilation = nf(w.y * w.z)
    nf_x = nf(w.x)
    nf_z = nf(w.z)
    recovers_x = residual_x.is_zero()
    z_in_ideal = residual_z.is_zero()
    y_kills_z = annihilation.is_zero()
    nonzero = confluent and bool(nf_x) and bool(nf_z)
    return WitnessReport(
        residual_x,
        residual_z,
        annihilation,
        nf_x,
        nf_z,
        recovers_x,
        z_in_ideal,
        y_kills_z,
        confluent,
        nonzero,
        recovers_x and z_in_ideal and y_kills_z and nonzero,
    )
