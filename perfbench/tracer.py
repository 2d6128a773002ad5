"""Spans around the public functions of ncdiamond, for the traced run.

The tracer wraps functions and methods from outside the program: it
replaces the module attribute, every other binding of the same function
object that a module of the package made with ``from ... import``, or the
class attribute of a method.  Spans (name, parent, start, end) go into
flat arrays in memory; ``uninstall`` puts the originals back.  The self
time of a span is its length minus the lengths of its direct children.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (span name, module, attribute); a dotted attribute names a method.
SPANS = (
    ("rewrite.normal_form", "rewrite", "normal_form"),
    ("rewrite.reduce_once", "rewrite", "reduce_once"),
    ("rewrite.reduction_trace", "rewrite", "reduction_trace"),
    ("rewrite.find_ambiguities", "rewrite", "find_ambiguities"),
    ("rewrite.check_confluence", "rewrite", "check_confluence"),
    ("rewrite.complete", "rewrite", "complete"),
    ("ncpoly.init", "ncpoly", "NcPoly.__init__"),
    ("ncpoly.mul", "ncpoly", "NcPoly.__mul__"),
    ("ncpoly.add", "ncpoly", "NcPoly.__add__"),
    ("seriesring.series_mul", "seriesring", "TruncSeries.__mul__"),
    ("seriesring.matmul", "seriesring", "SeriesMatrix.__matmul__"),
    ("seriesring.neumann_inverse", "seriesring", "neumann_inverse"),
    ("seriesring.quasi_inverse", "seriesring", "quasi_inverse"),
    ("ranklab.matmul", "ranklab", "ExactMatrix.__matmul__"),
    ("presentations.parse", "presentations", "parse_presentation"),
    ("cli.main", "cli", "main"),
)
# ExactMatrix.rank is split by field into these two spans.
RANK_SPANS = ("ranklab.rank_fp", "ranklab.rank_q")
# Scalar operations are only counted: a span each would swamp the run.
COUNTED = (("fields.add", "fields", "Field.add"), ("fields.mul", "fields", "Field.mul"))
ROOT_SPANS = ("setup", "op")
NAMES = tuple(s[0] for s in SPANS) + RANK_SPANS + ROOT_SPANS


class Tracer:
    def __init__(self) -> None:
        self.index = {name: i for i, name in enumerate(NAMES)}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = {"fields.add": 0, "fields.mul": 0, "rewrite.ambiguities": 0}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.index[name])
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _bind_everywhere(self, original, wrapper) -> None:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "ncdiamond":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, nc) -> None:
        for span, module, attr in SPANS:
            owner = getattr(nc, module)
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                self._set(owner, meth, self._span(span, owner.__dict__[meth]))
            else:
                original = getattr(owner, attr)
                self._bind_everywhere(original, self._span(span, original))

        find = nc.rewrite.find_ambiguities
        counts = self.counts

        def counted_find(*args, **kwargs):
            out = find(*args, **kwargs)
            counts["rewrite.ambiguities"] += len(out)
            return out

        self._bind_everywhere(find, counted_find)

        matrix = nc.ranklab.ExactMatrix
        rank = matrix.__dict__["rank"]
        fp, q = (self._span(name, rank) for name in RANK_SPANS)
        self._set(matrix, "rank", lambda m: (q if m.field.p is None else fp)(m))

        for key, module, attr in COUNTED:
            cls, meth = attr.split(".")
            owner = getattr(getattr(nc, module), cls)
            self._set(owner, meth, self._counter(key, owner.__dict__[meth]))

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ---------------------------------------------------------

    def self_list(self) -> list[float]:
        """Each span's self time: its length minus its children's lengths."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path) -> None:
        """All spans, gzipped, as tab-separated lines: id, parent, name,
        start and end in seconds of the process's performance counter."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{NAMES[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
