"""Command-line front end: presentation files in, JSON reports out.

Commands print a single report document with the fixed key order
{command, inputs, verdict, details, seed, version}; ``--pretty`` switches
from compact to indented rendering.  Exit codes: 0 = verified, 1 = a
checked property failed or a counterexample was found, 2 = usage or parse
error.  With CI_STRICT=1 in the environment every randomized command
demands an explicit --seed; otherwise a missing seed is drawn from the
system RNG and recorded in the report, so any run can be replayed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from pathlib import Path

from . import __version__
from .fields import Field, _digits
from .ncpoly import FreeAlgebra
from .presentations import load_presentation
from .ranklab import ExactMatrix, fuzz_bound_checks, obstruction_probe
from .rewrite import (
    DEFAULT_STEP_BUDGET,
    StepBudgetExceeded,
    _confluent,
    check_confluence,
    normal_form,
    verify_identity_comm3,
    verify_lemma_witness,
)
from .seeding import rng_for
from .seriesring import (
    SeriesMatrix,
    TruncSeries,
    builtin_collapse_instance,
    circle,
    collapse_demo,
    neumann_inverse,
    quasi_inverse,
    random_radical_matrix,
    random_s_ext,
    stable_finiteness_probe,
)

DEFAULT_DEMO_CAP = 8


def _finish(args, command: str, inputs: dict, verdict: bool, details: dict, seed: int | None) -> int:
    """Print the report document and return the exit code of its verdict."""
    doc = {
        "command": command,
        "inputs": inputs,
        "verdict": verdict,
        "details": details,
        "seed": seed,
        "version": __version__,
    }
    if args.pretty:
        print(json.dumps(doc, indent=2))
    else:
        print(json.dumps(doc, separators=(",", ":")))
    return 0 if verdict else 1


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    if os.environ.get("CI_STRICT") == "1":
        raise ValueError("CI_STRICT=1 requires an explicit --seed on randomized commands")
    return random.SystemRandom().getrandbits(32)


def _series_algebra(args) -> FreeAlgebra:
    gens = tuple(args.gens.replace(",", " ").split())
    return FreeAlgebra(Field.parse(args.field), gens)


# -- command handlers -----------------------------------------------------------


def _cmd_nf(args) -> int:
    pres = load_presentation(args.presentation)
    p = pres.alg.parse(args.expr)
    value = normal_form(p, pres.system, args.max_steps)
    # reduction to 0 is sound on any rules; a nonzero value is canonical
    # only when every ambiguity resolves, checked before printing so that
    # a budget error leaves stdout empty
    canonical = not value or _confluent(pres.system, args.max_steps)
    print(value)
    if not canonical:
        print(
            "note: the rules are not confluent; the value printed is one reduct, "
            "not a canonical form",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_confluence(args) -> int:
    pres = load_presentation(args.presentation)
    report = check_confluence(pres.system, args.max_steps)
    alg = pres.alg
    # the traces share snapshot objects, so each is rendered once
    rendered: dict[int, str] = {}

    def render(trace) -> list[str]:
        out = []
        for p in trace:
            s = rendered.get(id(p))
            if s is None:
                s = rendered[id(p)] = str(p)
            out.append(s)
        return out

    ambiguities = []
    for chk in report.checks:
        amb = chk.ambiguity
        # each trace ends in its normal form, so that is its last string
        trace_a = render(chk.trace_a)
        trace_b = render(chk.trace_b)
        ambiguities.append(
            {
                "kind": amb.kind,
                "rule_a": amb.rule_a,
                "rule_b": amb.rule_b,
                "word": alg.word_str(amb.word),
                "offset": amb.offset,
                "resolvable": chk.resolvable,
                "trace_a": trace_a,
                "trace_b": trace_b,
                "normal_form_a": trace_a[-1],
                "normal_form_b": trace_b[-1],
            }
        )
    details = {
        "rules": [str(r) for r in pres.system.rules],
        "ambiguity_count": len(ambiguities),
        "ambiguities": ambiguities,
        "overall": report.overall,
    }
    return _finish(
        args, "confluence", {"presentation": args.presentation}, report.overall, details, None
    )


def _cmd_witness(args) -> int:
    pres = load_presentation(args.presentation)
    if pres.witness is None:
        raise ValueError(f"presentation {args.presentation!r} has no witness block")
    rep = verify_lemma_witness(pres.system, pres.witness, args.max_steps)
    details = {
        "witness": {name: str(p) for name, p in pres.witness.items()},
        "checks": {
            "recovers_x": rep.recovers_x,
            "z_in_ideal": rep.z_in_ideal,
            "y_kills_z": rep.y_kills_z,
            "nonzero": rep.nonzero,
        },
        "residual_x": str(rep.residual_x),
        "residual_z": str(rep.residual_z),
        "annihilation": str(rep.annihilation),
        "nf_x": str(rep.nf_x),
        "nf_z": str(rep.nf_z),
    }
    if not rep.confluent:
        details["reason"] = (
            "the rules are not confluent, so nonzero normal forms do not show "
            "that x and z are nonzero in the quotient"
        )
    return _finish(args, "witness", {"presentation": args.presentation}, rep.verdict, details, None)


def _cmd_identity(args) -> int:
    pres = load_presentation(args.presentation)
    seed = _resolve_seed(args)
    rep = verify_identity_comm3(pres.system, args.trials, args.max_deg, seed)
    cex = None
    if rep.counterexample is not None:
        cex = {
            "trial": rep.counterexample.trial,
            "substitution": [str(p) for p in rep.counterexample.substitution],
            "value": str(rep.counterexample.value),
        }
    details = {"holds": rep.holds, "trials": rep.trials, "counterexample": cex}
    if not rep.holds and cex is None:
        details["reason"] = (
            "the rules are not confluent, so a nonzero normal form does not show "
            "that the identity fails in the quotient"
        )
    inputs = {
        "presentation": args.presentation,
        "trials": args.trials,
        "max_deg": args.max_deg,
    }
    return _finish(args, "identity", inputs, rep.holds, details, seed)


def _cmd_fuzz_rank(args) -> int:
    field = Field.parse(args.field)
    seed = _resolve_seed(args)
    rep = fuzz_bound_checks(field, args.n, args.trials, seed, args.check)
    details = {
        "violations": rep.violations,
        "min_margin": rep.min_margin,
        "first_violation": rep.first_violation,
    }
    inputs = {
        "field": str(field),
        "n": args.n,
        "trials": args.trials,
        "check": args.check,
    }
    return _finish(args, "fuzz-rank", inputs, rep.violations == 0, details, seed)


def _load_assignment(path: str, alg: FreeAlgebra) -> dict[str, ExactMatrix]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("assignment file must hold a JSON object")
    for key in ("field", "n", "assign"):
        if key not in data:
            raise ValueError(f"assignment file is missing the {key!r} key")
    if not isinstance(data["field"], str):
        raise ValueError(f"assignment field must be 'Q' or 'Fp:<prime>', got {data['field']!r}")
    field = Field.parse(data["field"])
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"assignment size n must be a positive integer, got {n!r}")
    if not isinstance(data["assign"], dict):
        raise ValueError("'assign' must map generator names to row-major entry lists")
    out: dict[str, ExactMatrix] = {}
    for name, flat in data["assign"].items():
        if name not in alg.gens:
            raise ValueError(f"assignment names unknown generator {name!r}")
        if not isinstance(flat, list) or len(flat) != n * n:
            raise ValueError(
                f"assignment for {name!r} must be a flat row-major list of {n * n} integers"
            )
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in flat):
            raise ValueError(f"assignment for {name!r} must contain integers only")
        out[name] = ExactMatrix(field, [flat[i * n : (i + 1) * n] for i in range(n)])
    return out


def _cmd_probe(args) -> int:
    pres = load_presentation(args.presentation)
    if pres.witness is None:
        raise ValueError(f"presentation {args.presentation!r} has no witness block")
    assignment = _load_assignment(args.assignment, pres.alg)
    rep = obstruction_probe(pres.system, pres.witness, assignment)
    verdict = rep.margin >= 0 and not rep.regime_feasible
    inputs = {"presentation": args.presentation, "assignment": args.assignment}
    return _finish(args, "probe", inputs, verdict, rep.as_dict(), None)


def _cmd_series_quasi_inverse(args) -> int:
    alg = _series_algebra(args)
    f = TruncSeries(alg.parse(args.expr), args.trunc)
    g = quasi_inverse(f)
    left = g * f == f + g
    right = f * g == f + g
    circ = circle(f, g).is_zero() and circle(g, f).is_zero()
    verdict = left and right and circ
    details = {
        "f": str(f),
        "g": str(g),
        "gf_equals_f_plus_g": left,
        "fg_equals_f_plus_g": right,
        "circle_both_ways_zero": circ,
    }
    inputs = {
        "expr": args.expr,
        "gens": list(alg.gens),
        "field": str(alg.field),
        "trunc": args.trunc,
    }
    return _finish(args, "series quasi-inverse", inputs, verdict, details, None)


def _cmd_series_sfprobe(args) -> int:
    alg = _series_algebra(args)
    seed = _resolve_seed(args)
    ident = SeriesMatrix.identity(alg, args.n, args.trunc)
    failures: list[int] = []
    for t in range(args.trials):
        rng = rng_for(seed, "sfprobe", t)
        X = ident + random_radical_matrix(alg, args.n, args.trunc, rng)
        Y = neumann_inverse(X)
        probe = stable_finiteness_probe(X, Y)
        if not probe.confirmed:
            failures.append(t)
    verdict = not failures
    details = {
        "n": args.n,
        "trunc": args.trunc,
        "trials": args.trials,
        "all_confirmed": verdict,
        "failures": failures,
    }
    inputs = {
        "gens": list(alg.gens),
        "field": str(alg.field),
        "n": args.n,
        "trunc": args.trunc,
        "trials": args.trials,
    }
    return _finish(args, "series sfprobe", inputs, verdict, details, seed)


def _cmd_series_sext_demo(args) -> int:
    alg = _series_algebra(args)
    if len(alg.gens) < 2:
        raise ValueError("the collapse demo needs at least two generators")
    seed = None
    if args.seed is not None or args.random:
        seed = _resolve_seed(args)
        rng = rng_for(seed, "sextdemo")
        u = [random_s_ext(alg, args.trunc, rng) for _ in range(args.pairs)]
        v = [random_s_ext(alg, args.trunc, rng) for _ in range(args.pairs)]
    else:
        u, v = builtin_collapse_instance(alg, args.trunc)
    rep = collapse_demo(u, v)
    details = {
        "pairs": len(u),
        "u": [str(e) for e in u],
        "v": [str(e) for e in v],
        "coeffs": [str(c) for c in rep.coeffs],
        "f": str(rep.f),
        "g": str(rep.g),
        "steps": [
            {"label": s.label, "lhs": s.lhs, "rhs": s.rhs, "verified": s.verified}
            for s in rep.steps
        ],
        "verified": rep.verified,
    }
    inputs = {
        "gens": list(alg.gens),
        "field": str(alg.field),
        "trunc": args.trunc,
        "pairs": args.pairs if seed is not None else len(u),
        "random": seed is not None,
    }
    return _finish(args, "series sext-demo", inputs, rep.verified, details, seed)


# -- parser ----------------------------------------------------------------------


def _int_at_least(low: int | None):
    """An argparse type: ASCII digits 0-9 behind an optional leading '-', an
    integer no smaller than low when low is given."""

    def parse(text: str) -> int:
        value = _digits(text.removeprefix("-"), "integer")
        if text.startswith("-"):
            value = -value
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names it in "invalid integer value"
    return parse


_integer = _int_at_least(None)
_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _add_pretty(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pretty", action="store_true", help="indent the report JSON")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_integer, default=None, help="base RNG seed (required with CI_STRICT=1)")


def _add_series_ring(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", default="Q", help="coefficient field: Q or Fp:<prime> (default Q)")
    p.add_argument("--gens", default="x y", help="generator names, space or comma separated (default 'x y')")
    p.add_argument(
        "--trunc",
        type=_positive,
        default=DEFAULT_DEMO_CAP,
        help=f"series truncation cap (default {DEFAULT_DEMO_CAP})",
    )


_DASH_HINT = "put '--' before an expression that starts with '-'"


class _Parser(argparse.ArgumentParser):
    """argparse reads an argument that starts with '-' as an option, so an
    expression such as -x leaves ``expr`` missing; the error says what to do."""

    def error(self, message):
        prefix = "the following arguments are required: "
        if message.startswith(prefix) and "expr" in message[len(prefix):].split(", "):
            message += f" ({_DASH_HINT})"
        super().error(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and building it costs more than most commands."""
    parser = _Parser(
        prog="ncdiamond",
        description=(
            "Rewriting, truncated power series, and exact-rank checks for finitely "
            "presented noncommutative algebras."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="print the normal form of an expression")
    p.add_argument("presentation", help="presentation file path or bundled preset name")
    p.add_argument("expr", help=f"expression over the presentation's generators; {_DASH_HINT}")
    p.add_argument("--max-steps", type=_nonnegative, default=DEFAULT_STEP_BUDGET)
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("confluence", help="enumerate ambiguities and check they all resolve")
    p.add_argument("presentation")
    p.add_argument("--max-steps", type=_nonnegative, default=DEFAULT_STEP_BUDGET)
    _add_pretty(p)
    p.set_defaults(handler=_cmd_confluence)

    p = sub.add_parser("witness", help="replay the factorization-witness checks")
    p.add_argument("presentation")
    p.add_argument("--max-steps", type=_nonnegative, default=DEFAULT_STEP_BUDGET)
    _add_pretty(p)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("identity", help="fuzz the triple-commutator identity on normal forms")
    p.add_argument("presentation")
    p.add_argument("--trials", type=_positive, default=200)
    p.add_argument("--max-deg", type=_positive, default=4)
    _add_seed(p)
    _add_pretty(p)
    p.set_defaults(handler=_cmd_identity)

    p = sub.add_parser("fuzz-rank", help="fuzz a universal matrix-rank inequality")
    p.add_argument("--field", default="Fp:101", help="Q or Fp:<prime> (default Fp:101)")
    p.add_argument("--n", type=_positive, default=8, help="matrix size (default 8)")
    p.add_argument("--trials", type=_positive, default=200)
    p.add_argument(
        "--check",
        choices=("claim", "master", "intersection"),
        default="master",
        help="which inequality to fuzz (default master)",
    )
    _add_seed(p)
    _add_pretty(p)
    p.set_defaults(handler=_cmd_fuzz_rank)

    p = sub.add_parser("probe", help="rank-defect report for a witness under a matrix assignment")
    p.add_argument("presentation")
    p.add_argument("assignment", help="JSON file: {field, n, assign: {gen: [row-major ints]}}")
    _add_pretty(p)
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("series", help="truncated power-series demonstrations")
    series_sub = p.add_subparsers(dest="series_command", required=True)

    q = series_sub.add_parser("quasi-inverse", help="compute and verify a quasi-inverse")
    q.add_argument("expr", help=f"series with zero constant term; {_DASH_HINT}")
    _add_series_ring(q)
    _add_pretty(q)
    q.set_defaults(handler=_cmd_series_quasi_inverse)

    q = series_sub.add_parser(
        "sfprobe", help="randomized one-sided-inverse probe on I + (radical) matrices"
    )
    _add_series_ring(q)
    q.add_argument("--n", type=_positive, default=3, help="matrix size (default 3)")
    q.add_argument("--trials", type=_positive, default=50)
    _add_seed(q)
    _add_pretty(q)
    q.set_defaults(handler=_cmd_series_sfprobe)

    q = series_sub.add_parser(
        "sext-demo", help="replay the square-zero-extension collapse step by step"
    )
    _add_series_ring(q)
    q.add_argument("--pairs", type=_positive, default=2, help="random pairs to draw (with --random)")
    q.add_argument(
        "--random",
        action="store_true",
        help="draw a random instance instead of the built-in one",
    )
    _add_seed(q)
    _add_pretty(q)
    q.set_defaults(handler=_cmd_series_sext_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except StepBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    # a reader that stops early (`| head`) ends the command quietly; signal
    # is imported here, so that importing the library does not load it
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
