#!/usr/bin/env python3
"""Step-by-step replay of the square-zero-extension collapse.

Working in R + R*z with z*z = 0 and z annihilating every scalar-free
element on its right, the script collapses sum u_i*(y*x*z)*v_i to f*(x*z),
forms the quasi-inverse of f, and prints each verified identity together
with the algebraic conclusion they force."""

import argparse
import signal

from ncdiamond import (
    Field,
    FieldError,
    FreeAlgebra,
    builtin_collapse_instance,
    collapse_demo,
    random_s_ext,
)
from ncdiamond.cli import _positive
from ncdiamond.seeding import rng_for


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="Q", help="Q or Fp:<prime>")
    ap.add_argument("--trunc", type=_positive, default=6, help="series truncation cap")
    ap.add_argument("--random", action="store_true", help="draw a random instance")
    ap.add_argument("--pairs", type=_positive, default=2, help="pairs to draw with --random")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        field = Field.parse(args.field)
    except FieldError as exc:
        ap.error(f"argument --field: {exc}")
    alg = FreeAlgebra(field, ("x", "y"))
    if args.random:
        rng = rng_for(args.seed, "collapse-walkthrough")
        u = [random_s_ext(alg, args.trunc, rng) for _ in range(args.pairs)]
        v = [random_s_ext(alg, args.trunc, rng) for _ in range(args.pairs)]
    else:
        u, v = builtin_collapse_instance(alg, args.trunc)

    print(f"== collapse replay over {alg.field}, cap {args.trunc}, {len(u)} pair(s) ==")
    for i, (ui, vi) in enumerate(zip(u, v)):
        print(f"  u[{i}] = {ui}")
        print(f"  v[{i}] = {vi}")

    rep = collapse_demo(u, v)
    print(f"\nextracted scalars alpha_i = {[str(c) for c in rep.coeffs]}")
    print(f"f = {rep.f}")
    print(f"g = quasi-inverse(f) = {rep.g}")
    for i, step in enumerate(rep.steps, start=1):
        mark = "ok" if step.verified else "FAILED"
        print(f"\nstep {i} [{mark}]: {step.label}")
        print(f"  lhs = {step.lhs}")
        print(f"  rhs = {step.rhs}")
    print(f"\nall computational steps verified: {rep.verified}")


if __name__ == "__main__":
    # a reader that stops early (`| head`) ends the script quietly
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
