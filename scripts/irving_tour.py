#!/usr/bin/env python3
"""Guided tour of the bundled two-generator system: rules, ambiguity
resolution, normal-word growth, the factorization witness, and a short
randomized check of the triple-commutator identity."""

import argparse
import signal

from ncdiamond import (
    PresentationError,
    check_confluence,
    enumerate_normal_words,
    load_presentation,
    verify_identity_comm3,
    verify_lemma_witness,
)
from ncdiamond.cli import _integer, _nonnegative, _positive


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presentation", default="irving", help="file path or bundled preset name")
    ap.add_argument("--max-degree", type=_nonnegative, default=8, help="normal-word table depth")
    ap.add_argument("--trials", type=_positive, default=100, help="identity fuzz trials")
    ap.add_argument("--max-deg", type=_positive, default=4, help="degree bound for fuzz substitutions")
    ap.add_argument("--seed", type=_integer, default=0)
    args = ap.parse_args()

    try:
        pres = load_presentation(args.presentation)
    except (PresentationError, OSError) as exc:
        ap.error(f"argument --presentation: {exc}")
    alg = pres.alg

    print(f"== presentation {pres.name} over {alg.field} ==")
    for i, rule in enumerate(pres.system.rules):
        print(f"  rule {i}: {rule}")

    print("\n== ambiguities ==")
    report = check_confluence(pres.system)
    for chk in report.checks:
        amb = chk.ambiguity
        word = alg.word_str(amb.word)
        print(f"  {amb.kind} of rules {amb.rule_a},{amb.rule_b} in {word} (offset {amb.offset})")
        # each trace starts at its one-step reduct
        print(f"    via rule {amb.rule_a} first: {' -> '.join(map(str, chk.trace_a))}")
        print(f"    via rule {amb.rule_b} first: {' -> '.join(map(str, chk.trace_b))}")
        print(f"    resolvable: {chk.resolvable}")
    print(f"  overall confluent: {report.overall}")

    print("\n== normal words by degree ==")
    for d in range(args.max_degree + 1):
        words = enumerate_normal_words(pres.system, d)
        shown = ", ".join(alg.word_str(w) for w in words[:8])
        more = f", ... ({len(words)} total)" if len(words) > 8 else ""
        print(f"  degree {d}: {len(words):4d}  [{shown}{more}]")

    if pres.witness is not None:
        print("\n== factorization witness ==")
        for name, poly in pres.witness.items():
            print(f"  {name} = {poly}")
        rep = verify_lemma_witness(pres.system, pres.witness)
        print(f"  x = y*x*a in quotient: {rep.recovers_x}  (residual {rep.residual_x})")
        print(f"  z = x*b   in quotient: {rep.z_in_ideal}  (residual {rep.residual_z})")
        print(f"  y*z = 0   in quotient: {rep.y_kills_z}  (value {rep.annihilation})")
        print(f"  x, z nonzero:          {rep.nonzero}  (nf_x={rep.nf_x}, nf_z={rep.nf_z})")
        print(f"  verdict: {rep.verdict}")

    print(f"\n== [X1,Y1][X2,Y2][X3,Y3] = 0 on {args.trials} random substitutions ==")
    idrep = verify_identity_comm3(pres.system, args.trials, args.max_deg, args.seed)
    if idrep.holds:
        print(f"  holds on all {idrep.trials} trials (seed {args.seed})")
    elif idrep.counterexample is None:
        print(
            "  undecided: the rules are not confluent, so a nonzero normal form does not "
            "show that the identity fails in the quotient"
        )
    else:
        cex = idrep.counterexample
        print(f"  FAILS at trial {cex.trial}: value {cex.value}")
        for i, p in enumerate(cex.substitution):
            print(f"    sub[{i}] = {p}")


if __name__ == "__main__":
    # a reader that stops early (`| head`) ends the script quietly
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
