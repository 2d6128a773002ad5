"""Benchmark for ncdiamond: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload normal-forms --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, in this one process, with no extra threads.

A run sets the workload up (import the package afresh, parse the
presentations, make the seeded inputs), runs every operation once and
checks each output against the references in ``oracles.py``, untimed.
Timed rounds of the same operations follow until ``--seconds`` have
passed; each of their outputs must equal the checked one.  Further timed
set-ups are spread over the run and ``setup_s`` is their median.

Each operation's time is the upper quartile of its times over the rounds.
On a shared 2-core machine identical code switches between a busy state
and quiet stretches up to 1.6x faster; a run spends most of its rounds in
the busy state, where the upper quartile stays, while a median or a
minimum jumps with the share of quiet rounds a run happens to get.

With ``--trace 1`` the timed rounds alternate untraced and traced, and the
per-layer metrics and the tracing overhead are printed instead of the
end-to-end ones.  Results and span files go to ``.perfbench/`` at the
root; files the operations write go to a directory of the run's own
there, removed when the run ends.  The last line of standard output is
the result object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

MODULES = ("fields", "ncpoly", "rewrite", "seriesring", "ranklab", "presentations", "cli")
SETUP_REPEATS = 7

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Per-layer metric -> (spans or counter, what it reports).
PER_LAYER = {
    "rewrite.normal_form_s": ("rewrite.normal_form", "s"),
    "rewrite.normal_form_calls": ("rewrite.normal_form", "calls"),
    "rewrite.reduce_once_s": ("rewrite.reduce_once", "s"),
    "rewrite.reduce_once_calls": ("rewrite.reduce_once", "calls"),
    "rewrite.reduction_trace_s": ("rewrite.reduction_trace", "s"),
    "rewrite.find_ambiguities_s": ("rewrite.find_ambiguities", "s"),
    "rewrite.ambiguities": ("rewrite.ambiguities", "count"),
    "rewrite.check_confluence_s": ("rewrite.check_confluence", "s"),
    "rewrite.check_confluence_calls": ("rewrite.check_confluence", "calls"),
    "rewrite.complete_s": ("rewrite.complete", "s"),
    "ncpoly.init_s": ("ncpoly.init", "s"),
    "ncpoly.init_calls": ("ncpoly.init", "calls"),
    "ncpoly.mul_s": ("ncpoly.mul", "s"),
    "ncpoly.mul_calls": ("ncpoly.mul", "calls"),
    "ncpoly.add_s": ("ncpoly.add", "s"),
    "seriesring.series_mul_s": ("seriesring.series_mul", "s"),
    "seriesring.matmul_s": ("seriesring.matmul", "s"),
    "seriesring.neumann_inverse_s": ("seriesring.neumann_inverse", "s"),
    "seriesring.quasi_inverse_s": ("seriesring.quasi_inverse", "s"),
    "ranklab.matmul_s": ("ranklab.matmul", "s"),
    "ranklab.matmul_calls": ("ranklab.matmul", "calls"),
    "ranklab.rank_fp_s": ("ranklab.rank_fp", "s"),
    "ranklab.rank_q_s": ("ranklab.rank_q", "s"),
    "ranklab.rank_calls": (("ranklab.rank_fp", "ranklab.rank_q"), "calls"),
    "presentations.parse_s": ("presentations.parse", "s"),
    "cli.main_s": ("cli.main", "s"),
    "fields.add_calls": ("fields.add", "count"),
    "fields.mul_calls": ("fields.mul", "count"),
}


def _program_modules() -> list[str]:
    return [m for m in sys.modules if m == "ncdiamond" or m.startswith("ncdiamond.")]


def load_program():
    """Import ncdiamond from this checkout's src/, dropping any copy that is
    already imported, so that every set-up pays for the import."""
    for name in _program_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("ncdiamond")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"ncdiamond came from {pkg.__file__}")
    return argparse.Namespace(**{m: importlib.import_module(f"ncdiamond.{m}") for m in MODULES})


def set_up(workload: str, seed: int, tiny: bool, workdir: Path, tracer: T.Tracer | None = None):
    """Import the program and build the workload's operations."""
    nc = load_program()
    if tracer is None:
        return nc, W.build(workload, nc, seed, tiny, workdir)
    tracer.install(nc)
    span = tracer.open("setup")
    try:
        return nc, W.build(workload, nc, seed, tiny, workdir)
    finally:
        tracer.close(span)
        tracer.uninstall()


def timed_set_up(workload: str, seed: int, tiny: bool, workdir: Path) -> float:
    """The time of one more set-up; the operations keep their own modules."""
    t0 = time.perf_counter()
    set_up(workload, seed, tiny, workdir)
    return time.perf_counter() - t0


class Raised:
    """The output of an operation that raised."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and other.text == self.text


@dataclass
class Round:
    traced: bool
    walls: list[float]
    cpus: list[float]
    spans: tuple[int, int] = (0, 0)   # the round's span indices, when traced
    counts: dict | None = None        # what it added to the counters, when traced


def run_round(ops, tracer: T.Tracer | None = None):
    """Run every operation once; return outputs, wall and CPU seconds."""
    outs, walls, cpus = [], [], []
    gc.collect()
    for op in ops:
        t0 = t1 = c0 = c1 = 0.0
        try:
            arg = op.prepare(outs) if op.prepare else op.args
            span = tracer.open("op") if tracer else None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = op.call(arg)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                if tracer:
                    tracer.close(span)
        except Exception as exc:  # counted as a failed operation
            out = Raised(exc)
        outs.append(out)
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
    return outs, walls, cpus


def check_round(ops, outs) -> list[str | None]:
    """The independent check of every output of the first round: None when
    right, else the reason it is wrong."""
    failures = []
    for op, out in zip(ops, outs):
        if isinstance(out, Raised):
            failures.append(None)
            continue
        try:
            failures.append(op.check(out))
        except Exception as exc:  # a malformed output fails its check
            failures.append(f"check raised {type(exc).__name__}: {exc}")
    return failures


def measure(ops, seconds: float, set_up_again=None, nc=None, tracer: T.Tracer | None = None):
    """The checked first round, then timed rounds until ``seconds`` pass,
    with ``set_up_again`` timed at even intervals.  With a tracer, timed
    rounds alternate untraced / traced.  An operation fails in a round
    when it raises, when its first output failed its check, or when its
    output differs from the first one; the last two also make the run
    incorrect."""
    ref, _, _ = run_round(ops)
    failures = check_round(ops, ref)
    wrong = [(op.kind, f) for op, f in zip(ops, failures) if f is not None]
    rounds: list[Round] = []
    setup_times: list[float] = []
    failed = 0
    least = 2 if tracer else 1
    start = time.perf_counter()
    while len(rounds) < least or time.perf_counter() - start < seconds:
        if tracer is not None and len(rounds) % 2 == 1:
            before, first = dict(tracer.counts), len(tracer.start)
            tracer.install(nc)
            try:
                outs, walls, cpus = run_round(ops, tracer)
            finally:
                tracer.uninstall()
            added = {k: v - before[k] for k, v in tracer.counts.items()}
            rounds.append(Round(True, walls, cpus, (first, len(tracer.start)), added))
        else:
            outs, walls, cpus = run_round(ops)
            rounds.append(Round(False, walls, cpus))
        for op, f, a, b in zip(ops, failures, ref, outs):
            if isinstance(a, Raised) or f is not None:
                failed += 1
            elif a != b:
                failed += 1
                wrong.append((op.kind, "the output differs from the first round"))
        due = (len(setup_times) + 1) * seconds / SETUP_REPEATS
        if set_up_again and len(setup_times) < SETUP_REPEATS - 1 and time.perf_counter() - start >= due:
            setup_times.append(set_up_again())
    return rounds, setup_times, wrong, failed


def typical(rounds: list[Round], field: str) -> list[float]:
    """Each operation's upper-quartile time over the rounds."""
    cols = zip(*(getattr(r, field) for r in rounds))
    return [statistics.quantiles(c, n=4, method="inclusive")[2] if len(c) > 1 else c[0] for c in cols]


def end_to_end(rounds: list[Round], setup_times: list[float]) -> dict:
    walls, cpus = typical(rounds, "walls"), typical(rounds, "cpus")
    values = {
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "cpu_ms_per_op": sum(cpus) / len(cpus) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer: T.Tracer, rounds: list[Round], setup_spans, setup_counts) -> dict:
    """Layer figures for one set-up plus one round: the traced set-up, plus
    the median over the traced rounds.  The tracing overhead compares the
    operations' typical times in traced and in untraced rounds."""
    own = tracer.self_list()
    traced = [r for r in rounds if r.traced]

    def totals(spans, counts):
        secs = dict.fromkeys(T.NAMES, 0.0)
        calls = dict.fromkeys(T.NAMES, 0)
        for i in range(*spans):
            name = T.NAMES[tracer.name[i]]
            secs[name] += own[i]
            calls[name] += 1
        return {"s": secs, "calls": calls, "count": counts}

    def layer(key, what, tot):
        return sum(tot[what][k] for k in (key if isinstance(key, tuple) else (key,)))

    setup = totals(setup_spans, setup_counts)
    per_round = [totals(r.spans, r.counts) for r in traced]
    out = {}
    for metric, (key, what) in PER_LAYER.items():
        value = layer(key, what, setup) + statistics.median(layer(key, what, t) for t in per_round)
        if what == "s":
            out[metric] = {"value": value, "unit": "s"}
        else:  # the same in every round
            out[metric] = {"value": round(value), "unit": "count"}
    plain = [r for r in rounds if not r.traced]
    overhead = sum(typical(traced, "walls")) / sum(typical(plain, "walls")) - 1
    out["trace.overhead_pct"] = {"value": overhead * 100, "unit": "%"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import ncdiamond from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-{args.seed}-", dir=OUT))
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, workdir: Path) -> int:
    """Set up, measure, check and print the result line."""
    tracer = T.Tracer() if args.trace else None
    t0 = time.perf_counter()
    nc, ops = set_up(args.workload, args.seed, args.tiny, workdir, tracer)
    setup_times = [time.perf_counter() - t0]
    if tracer:
        setup_spans, setup_counts = (0, len(tracer.start)), dict(tracer.counts)
        rounds, _, wrong, failed = measure(ops, args.seconds, None, nc, tracer)
        metrics = per_layer(tracer, rounds, setup_spans, setup_counts)
    else:
        again = lambda: timed_set_up(args.workload, args.seed, args.tiny, workdir)
        rounds, more, wrong, failed = measure(ops, args.seconds, again)
        setup_times += more
        metrics = end_to_end(rounds, setup_times)
    for kind, reason in wrong[:10]:
        print(f"wrong output: {kind}: {reason}", file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  python=sys.version.split()[0], rounds=len(rounds), ops_per_round=len(ops),
                  op_kinds=[op.kind for op in ops], setup_times=setup_times,
                  walls=[r.walls for r in rounds], cpus=[r.cpus for r in rounds],
                  traced=[r.traced for r in rounds])
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail) + "\n")
    if tracer:
        tracer.write(OUT / f"spans-{stem}.tsv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
