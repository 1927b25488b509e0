"""In-memory spans and counters for the traced benchmark run.

Spans wrap the calls the benchmark makes into swl's public functions;
the library itself is not edited.  Two shims reach one step further,
both installed only while a traced operation runs:

* ``CountingAlphaMatrix`` counts and times every ``row``/``column``
  enumeration and passes the call on to the real method;
* ``Tracer.installed`` swaps ``swl.cli.build_parser`` for a wrapper that
  times argument parsing and the subcommand handler of each in-process
  CLI request, and ``swl.cli.AlphaMatrix`` for the counting subclass.

A span is ``[name, start, end, parent, op_id, row/column totals]``.  The
~600k row/column calls of a d4-verify op are not spans: the subclass adds
to running totals, and each span keeps the part accrued inside it.  A
span's self time is its duration minus its child spans and the row/column
time accrued inside it but outside those children.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import swl.cli
from swl import AlphaMatrix


class NullTracer:
    """Untraced operations: every call goes straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass

    def alpha(self, fam):
        return AlphaMatrix(fam)

    def op(self, op_id):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext()


_ROW, _COLUMN = AlphaMatrix.row, AlphaMatrix.column
LEAVES = ("alpha.row", "alpha.column")


@dataclass(frozen=True)
class CountingAlphaMatrix(AlphaMatrix):
    """AlphaMatrix that counts and times every row/column enumeration.

    ``acc`` is the tracer's running [row calls, row s, column calls,
    column s]; spans take the difference across their interval.
    """

    acc: list = field(default=None, compare=False, repr=False)

    def row(self, i, n, w):
        start = perf_counter()
        out = _ROW(self, i, n, w)
        acc = self.acc
        acc[0] += 1
        acc[1] += perf_counter() - start
        return out

    def column(self, s, j, m, w):
        start = perf_counter()
        out = _COLUMN(self, s, j, m, w)
        acc = self.acc
        acc[2] += 1
        acc[3] += perf_counter() - start
        return out


class Tracer:
    def __init__(self):
        # [name, start, end, parent, op_id, [row calls, row s, column calls, column s]]
        self.spans: list[list] = []
        self.acc = [0, 0.0, 0, 0.0]
        # (op id, name) -> value
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._op = None

    def _open(self, name, start=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter() if start is None else start, None, parent,
                           self._op, list(self.acc)])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = [now - then for now, then in zip(self.acc, span[5])]
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, start=None):
        idx = self._open(name, start)
        try:
            yield
        finally:
            self._close(idx)

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def count(self, name, value):
        self.counts[(self._op, name)] += value

    def alpha(self, fam):
        return CountingAlphaMatrix(fam, self.acc)

    @contextlib.contextmanager
    def installed(self):
        real_build, real_alpha = swl.cli.build_parser, swl.cli.AlphaMatrix

        def build_parser():
            start = perf_counter()
            parser = real_build()
            real_parse = parser.parse_args

            def parse_args(argv=None):
                with self.span("cli.parse", start):
                    args = real_parse(argv)
                handler = args.fn
                args.fn = functools.partial(self.call, f"cli.{args.command}", handler)
                return args

            parser.parse_args = parse_args
            return parser

        swl.cli.build_parser = build_parser
        swl.cli.AlphaMatrix = self.alpha
        try:
            yield
        finally:
            swl.cli.build_parser, swl.cli.AlphaMatrix = real_build, real_alpha

    # -- summaries ---------------------------------------------------------------

    def per_op(self) -> dict:
        """op id -> {"<span>_s": inclusive seconds, "<leaf>_s", "<leaf>_calls", counts}."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, op_id, leaves in self.spans:
            op = out[op_id]
            op[name + "_s"] += end - start
            if parent is None:
                for k, leaf in enumerate(LEAVES):
                    op[leaf + "_calls"] += leaves[2 * k]
                    op[leaf + "_s"] += leaves[2 * k + 1]
        for (op_id, name), value in self.counts.items():
            out[op_id][name] += value
        return out

    def self_s_per_op(self) -> dict:
        """Mean self seconds per op: span duration minus child spans and row/column time."""
        self_s = [end - start - leaves[1] - leaves[3]
                  for _, start, end, _, _, leaves in self.spans]
        for _, start, end, parent, _, leaves in self.spans:
            if parent is not None:
                self_s[parent] -= end - start - leaves[1] - leaves[3]
        totals: dict = defaultdict(float)
        for (name, _, _, parent, _, leaves), seconds in zip(self.spans, self_s):
            totals[name] += seconds
            if parent is None:
                totals[LEAVES[0]] += leaves[1]
                totals[LEAVES[1]] += leaves[3]
        ops = max(1, len({s[4] for s in self.spans}))
        return {name: t / ops for name, t in sorted(totals.items())}

    def median_duration_ms(self, name) -> float:
        """Median inclusive duration of the spans called ``name``, 0 if none ran."""
        durations = [(span[2] - span[1]) * 1e3 for span in self.spans if span[0] == name]
        return statistics.median(durations) if durations else 0.0

    def to_doc(self) -> dict:
        return {"span_fields": ["name", "start", "end", "parent", "op_id",
                                "[row calls, row s, column calls, column s]"],
                "spans": self.spans}
