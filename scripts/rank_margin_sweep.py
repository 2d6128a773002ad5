#!/usr/bin/env python3
"""Sweep the rank-defect margin over random matrix assignments.

For each size n, draws random assignments of the presentation's generators,
evaluates the factorization witness, and tabulates the master-bound margin
rank(YZ) + rank(T) + rank(S) - rank(Z) together with the two alpha
thresholds; the defect floor staying at or above the rank cap on every draw
is exactly the obstruction the bounds enforce."""

import argparse
import signal
from importlib import resources

from ncdiamond import (
    Field,
    FieldError,
    obstruction_probe,
    parse_presentation,
    random_assignment,
)
from ncdiamond.cli import _integer, _positive
from ncdiamond.seeding import rng_for


def over_fp(text: str, p: int) -> str:
    """Presentation text over Q moved to F_p: its one 'field Q' line becomes
    'field Fp p' and every other line is kept."""
    lines = text.split("\n")
    if "field Q" not in lines:
        raise ValueError("the presentation has no 'field Q' line to swap for F_p")
    lines[lines.index("field Q")] = f"field Fp {p}"
    return "\n".join(lines)


def sizes(text: str) -> list[int]:
    """An argparse type: one or more positive matrix sizes, comma or space
    separated."""
    out = [_positive(s) for s in text.replace(",", " ").split()]
    if not out:
        raise argparse.ArgumentTypeError("name at least one matrix size")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="Fp:101", help="Q or Fp:<prime> (default Fp:101)")
    ap.add_argument("--sizes", type=sizes, default="4,8,12", help="comma-separated matrix sizes")
    ap.add_argument("--trials", type=_positive, default=50, help="assignments per size")
    ap.add_argument("--seed", type=_integer, default=0)
    args = ap.parse_args()

    try:
        field = Field.parse(args.field)
    except FieldError as exc:
        ap.error(f"argument --field: {exc}")
    # the bundled preset's own relations and witness, over every field
    text = (resources.files("ncdiamond") / "presets" / "irving.pres").read_text()
    if field.p is not None:
        text = over_fp(text, field.p)
    pres = parse_presentation(text, "irving.pres")

    print(f"== margin sweep over {field}, {args.trials} trials per size, seed {args.seed} ==")
    header = f"{'n':>4} {'margin min':>11} {'margin max':>11} {'mean':>7} {'cap>floor?':>11} {'feasible':>9}"
    print(header)
    print("-" * len(header))
    ever_feasible = False
    for n in args.sizes:
        margins = []
        any_feasible = False
        any_gap = False
        for t in range(args.trials):
            rng = rng_for(args.seed, "margin-sweep", str(field), n, t)
            asn = random_assignment(pres.alg.gens, field, n, rng)
            rep = obstruction_probe(pres.system, pres.witness, asn)
            margins.append(rep.margin)
            any_feasible = any_feasible or rep.regime_feasible
            any_gap = any_gap or rep.alpha_defect_floor < rep.alpha_rank_cap
        mean = sum(margins) / len(margins)
        ever_feasible = ever_feasible or any_feasible
        print(
            f"{n:>4} {min(margins):>11} {max(margins):>11} {mean:>7.2f} "
            f"{str(any_gap):>11} {str(any_feasible):>9}"
        )
    print("\nevery margin is >= 0 and the smallness regime stayed infeasible"
          if not ever_feasible else "\nWARNING: a feasible regime appeared - rank arithmetic is broken")


if __name__ == "__main__":
    # a reader that stops early (`| head`) ends the script quietly
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
