"""A tiny line-oriented format for finitely presented algebras.

A presentation file declares a coefficient field, generators, and a list
of relations or oriented rules, optionally followed by a factorization
witness.  Example::

    # comments run to end of line
    field Q
    gens x y
    rel x*x
    rel y*x*y - x
    witness x=x y=y z=x*y*x a=y b=y*x

``rel`` lines are auto-oriented: the deglex-leading word of the relation
becomes the left-hand side and the rest (scaled monic, negated) the
replacement.  ``rule w -> expr`` lines orient explicitly; the left side
must be a single monomial with coefficient one.  Rules keep file order,
which fixes tie-breaking during reduction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .fields import Field, FieldError, _digits
from .ncpoly import FreeAlgebra, NcPoly, ParseError, Word
from .rewrite import LemmaWitness, RewriteRule, RewriteSystem

_WITNESS_LETTERS = ("x", "y", "z", "a", "b")


class PresentationError(ValueError):
    """A malformed presentation file."""

    def __init__(self, msg: str, source: str, lineno: int):
        super().__init__(f"{source}:{lineno}: {msg}")
        self.source = source
        self.lineno = lineno


@dataclass(frozen=True)
class Presentation:
    """A parsed presentation: algebra, oriented rules, optional witness."""

    name: str
    alg: FreeAlgebra
    system: RewriteSystem
    witness: LemmaWitness | None


def _parse_field(args: list[str], err) -> Field:
    if args == ["Q"]:
        return Field.rationals()
    if len(args) == 2 and args[0] == "Fp":
        try:
            return Field.prime(_digits(args[1], "modulus"))
        except FieldError as exc:
            raise err(f"bad prime field: {exc}")
    raise err(f"expected 'field Q' or 'field Fp <p>', got 'field {' '.join(args)}'")


def parse_presentation(text: str, name: str = "<string>") -> Presentation:
    """Parse presentation text; raises PresentationError with line numbers."""
    field: Field | None = None
    gens: tuple[str, ...] | None = None
    alg: FreeAlgebra | None = None
    rules: dict[Word, RewriteRule] = {}  # by left side, in file order
    witness: LemmaWitness | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def err(msg: str, _n=lineno) -> PresentationError:
            return PresentationError(msg, name, _n)

        keyword, _, rest = line.partition(" ")
        rest = rest.strip()

        if keyword == "field":
            if field is not None:
                raise err("duplicate 'field' line")
            field = _parse_field(rest.split(), err)
            continue
        if keyword == "gens":
            if gens is not None:
                raise err("duplicate 'gens' line")
            if field is None:
                raise err("'gens' must come after 'field'")
            gens = tuple(rest.split())
            if not gens:
                raise err("'gens' needs at least one generator name")
            try:
                alg = FreeAlgebra(field, gens)
            except ValueError as exc:
                raise err(str(exc))
            continue

        if alg is None:
            raise err(f"'{keyword}' must come after 'field' and 'gens'")

        if keyword == "rel":
            try:
                p = alg.parse(rest)
            except ParseError as exc:
                raise err(f"bad relation: {exc}")
            if p.is_zero():
                raise err("relation reduces to 0, nothing to orient")
            lhs, lead_c = p.leading_term()
            if lhs == "":
                raise err("relation with constant leading term collapses the algebra")
            rhs = alg.monomial(lhs) - p.scale(field.inv(lead_c))
        elif keyword == "rule":
            lhs_text, arrow, rhs_text = rest.partition("->")
            if not arrow:
                raise err("'rule' line needs '->'")
            try:
                lhs_poly = alg.parse(lhs_text.strip())
                rhs = alg.parse(rhs_text.strip())
            except ParseError as exc:
                raise err(f"bad rule: {exc}")
            if len(lhs_poly.terms) != 1 or lhs_poly.terms[0][1] != field.one():
                raise err("rule left side must be a single monomial with coefficient 1")
            lhs = lhs_poly.terms[0][0]
        elif keyword == "witness":
            if witness is not None:
                raise err("duplicate 'witness' line")
            parts = re.split(r"\b([xyzab])\s*=", rest)
            if parts[0].strip():
                raise err(f"unexpected text before first assignment: {parts[0].strip()!r}")
            seen: dict[str, NcPoly] = {}
            for i in range(1, len(parts), 2):
                letter = parts[i]
                expr = parts[i + 1].strip()
                if letter in seen:
                    raise err(f"duplicate witness component {letter!r}")
                try:
                    seen[letter] = alg.parse(expr)
                except ParseError as exc:
                    raise err(f"bad witness component {letter!r}: {exc}")
            missing = [l for l in _WITNESS_LETTERS if l not in seen]
            if missing:
                raise err(f"witness is missing components: {', '.join(missing)}")
            witness = LemmaWitness(**seen)
            continue
        else:
            raise err(f"unknown keyword {keyword!r}")

        try:
            rule = RewriteRule(lhs, rhs)
            if lhs in rules:  # the system's message, at this line
                RewriteSystem(alg, (rules[lhs], rule))
        except ValueError as exc:
            raise err(str(exc))
        rules[lhs] = rule

    if alg is None:
        raise PresentationError("no 'field'/'gens' declarations found", name, 1)
    system = RewriteSystem(alg, tuple(rules.values()))
    return Presentation(name=name, alg=alg, system=system, witness=witness)


def bundled_preset_names() -> list[str]:
    """Basenames of the presentation files shipped inside the package."""
    root = resources.files(__package__) / "presets"
    return sorted(entry.name for entry in root.iterdir() if entry.name.endswith(".pres"))


def load_presentation(path: str) -> Presentation:
    """Load a presentation from the filesystem, falling back to the bundled
    presets only when the argument is a bare name, one that is its own file
    name (e.g. 'irving.pres' or just 'irving', not './irving')."""
    fs = Path(path)
    if fs.is_file():
        return parse_presentation(fs.read_text(), name=str(fs))
    if fs.name != path:
        raise FileNotFoundError(f"no presentation file at {path!r}")
    base = fs.name if fs.name.endswith(".pres") else fs.name + ".pres"
    res = resources.files(__package__) / "presets" / base
    if res.is_file():
        return parse_presentation(res.read_text(), name=base)
    raise FileNotFoundError(f"no presentation file at {path!r} and no bundled preset {base!r}")
