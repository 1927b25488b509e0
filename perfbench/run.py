"""swl benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload d4-verify --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): d4-verify, sampled-functions, cli-mix.  One
client, one thread, closed loop.  The run imports swl from ``src`` next to
this directory, measures set-up in fresh interpreters, then repeats whole
rounds of operations until ``--seconds`` have passed, checking every
output.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the problem sizes and the latency tail.

``--trace 0`` reports END_TO_END, measured with tracing off, its times
scaled to the reference speed (see ``Speed``).
``--trace 1`` alternates untraced and traced rounds and reports PER_LAYER
from the traced ones (stage time and counts per operation, CLI calls as
the median per call), plus the tracing overhead: the traced minus the
untraced median latency.  Each layer's self time goes to the line before
the result.  The spans are written to
``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("d4-verify", "sampled-functions", "cli-mix")
SUBCOMMANDS = ("coords", "alpha", "act", "check-wavelet", "check-scaling",
               "fourier-check", "filter")

# Every workload reports every metric.  op_ms.p50 is the median latency of
# one operation: a full candidate check on d4-verify, one batch on
# sampled-functions, one request on cli-mix.
END_TO_END = {
    "op_ms.p50": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Means per traced operation: a stage's seconds are the whole public call
# (the row/column enumerations it makes included, as in ROADMAP's stage
# table); alpha.row_s/column_s are the enumerations' own time, summed over
# stages.  cli.*_ms are medians per call of the whole handler (parse:
# build_parser + parse_args).  A layer a workload does not call reads 0.
PER_LAYER = {
    "filters.cascade_s": "s",
    "filters.construct_wavelet_s": "s",
    "alpha.g_from_f_s": "s",
    "wavelet.orthonormality_s": "s",
    "wavelet.completeness_s": "s",
    "alpha.row_s": "s",
    "alpha.column_s": "s",
    "alpha.row_calls": "count",
    "alpha.column_calls": "count",
    "core.F_nnz": "count",
    "core.G_nnz": "count",
    "quadrature.exact_route_s": "s",
    "quadrature.gl_route_s": "s",
    "quadrature.coeffs_computed": "count",
    "fourier.periodize_s": "s",
    "fourier.check_s": "s",
    "cli.parse_ms": "ms",
    **{f"cli.{name}_ms": "ms" for name in SUBCOMMANDS},
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_ms": "ms",
}

SETUP_STARTS = 11
# The host's speed drifts by up to 1.5x over minutes, with other tenants'
# load.  After each set-up start and each operation (untimed), a fixed
# pure-Python kernel that never calls swl runs for SPEED_SHARE of the time
# just measured.  Each end-to-end time statistic is then divided by the same
# statistic (median or mean) of the kernel's times in the same phase and
# multiplied by REF_KERNEL_MS: times read as on a host where the kernel takes
# REF_KERNEL_MS (its mean on the 2-core VM the benchmark was defined on,
# Python 3.11).  The unscaled times and the kernel's statistics are on the
# context line.
SPEED_SHARE = 0.1
REF_KERNEL_MS = 1.8
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def reference_kernel() -> float:
    """Fixed interpreter work: dict and tuple traffic and float arithmetic."""
    table: dict = {}
    acc = 0.0
    for k in range(3000):
        key = (k & 63, k >> 6)
        table[key] = table.get(key, 0.0) + math.sqrt(k + 1.0) * (1.0 / (1.0 + k))
        acc += table[key] * 0.5
    return acc


class Speed:
    """Times of the reference kernel, taken between timed work of one phase."""

    def __init__(self):
        self.kernel_s: list[float] = []

    def pay(self, seconds: float):
        """Run the kernel for SPEED_SHARE of ``seconds``."""
        owed = SPEED_SHARE * seconds
        while owed > 0:
            start = perf_counter()
            reference_kernel()
            took = perf_counter() - start
            self.kernel_s.append(took)
            owed -= took

    def at_ref(self, stat) -> float:
        """Factor that turns ``stat`` of times measured now into one at the reference speed."""
        return REF_KERNEL_MS / (stat(self.kernel_s) * 1e3)

    def summary(self) -> dict:
        return {"kernel_ms.p50": statistics.median(self.kernel_s) * 1e3,
                "kernel_ms.mean": statistics.fmean(self.kernel_s) * 1e3,
                "kernel_runs": len(self.kernel_s)}


def measure_setup(workload: str, seed: int, speed: Speed) -> list[dict]:
    """Cold import + input generation in SETUP_STARTS fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    starts = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        starts.append(json.loads(proc.stdout.splitlines()[-1]))
        speed.pay(perf_counter() - start)
    return starts


def tail_ms(ms: list[float]):
    """Highest of p99/p95/p90 with at least ten samples beyond it, else None."""
    if len(ms) < 2:
        return None
    cuts = statistics.quantiles(ms, n=100)
    for pct in (99, 95, 90):
        beyond = sum(x > cuts[pct - 1] for x in ms)
        if beyond >= 10:
            return {"pct": pct, "ms": cuts[pct - 1], "beyond": beyond}
    return None


def run_loop(wl, rounds, seconds: int, tracer, speed: Speed):
    """Whole rounds until ``seconds`` pass; with a tracer, odd rounds are traced."""
    import tracing

    null = tracing.NullTracer()
    latency = {False: [], True: []}
    attempted = failed = 0
    last = None
    deadline = perf_counter() + seconds
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        tr = tracer if traced else null
        with tr.installed():
            for item in rounds[r % len(rounds)]:
                attempted += 1
                # every operation starts from the same heap: without this the
                # collector's carried-over state moves d4-verify ops by ~15%
                gc.collect()
                start = perf_counter()
                try:
                    with tr.op(attempted):
                        result = wl.run(tr, item)
                except Exception as exc:
                    result = exc
                latency[traced].append(perf_counter() - start)
                speed.pay(latency[traced][-1])
                try:
                    if isinstance(result, Exception):
                        raise result
                    problems = wl.check(result)
                except Exception:
                    problems = [traceback.format_exc()]
                if problems:
                    failed += 1
                    print(f"perfbench: {wl.name} op {attempted} failed: {problems}",
                          file=sys.stderr)
                else:
                    last = result
        r += 1
        if perf_counter() >= deadline and (tracer is None or r % 2 == 0):
            return latency, attempted, failed, last


def end_to_end(latency, setup, setup_speed=None, loop_speed=None) -> dict:
    """END_TO_END, its times at the reference speed when the phases' Speeds are given."""

    def at_ref(speed, stat):
        return 1.0 if speed is None else speed.at_ref(stat)

    lat = latency[False]
    starts = [s["import_s"] + s["inputs_s"] for s in setup]
    return {
        "op_ms.p50": statistics.median(lat) * 1e3 * at_ref(loop_speed, statistics.median),
        "ops_per_s": len(lat) / sum(lat) / at_ref(loop_speed, statistics.fmean),
        "setup_s": statistics.median(starts) * at_ref(setup_speed, statistics.median),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, latency, setup) -> dict:
    per_op = tracer.per_op()
    traced_ops = len(latency[True])
    out = {}
    for name in PER_LAYER:
        if name.startswith("cli."):
            out[name] = tracer.median_duration_ms(name[: -len("_ms")])
        elif name.startswith("setup."):
            key = name[len("setup."):]
            out[name] = statistics.median(s[key] for s in setup)
        elif name == "trace.overhead_ms":
            out[name] = (statistics.median(latency[True])
                         - statistics.median(latency[False])) * 1e3
        else:
            out[name] = sum(op.get(name, 0) for op in per_op.values()) / traced_ops
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)
    os.environ.pop("SWL_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        import swl
    except ImportError as exc:
        print(f"perfbench: cannot import swl from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(swl.__file__).resolve().parent != SRC / "swl":
        print(f"perfbench: swl imported from {swl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import tracing
    import workloads

    setup_speed, loop_speed = Speed(), Speed()
    try:
        setup = measure_setup(args.workload, args.seed, setup_speed)
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    rounds = wl.rounds(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    latency, attempted, failed, last = run_loop(wl, rounds, args.seconds, tracer,
                                                loop_speed)

    if args.trace:
        metrics, units = per_layer(tracer, latency, setup), PER_LAYER
    else:
        metrics, units = end_to_end(latency, setup, setup_speed, loop_speed), END_TO_END
    all_ms = [x * 1e3 for x in latency[False]]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "env": {**PINNED_ENV, "SWL_THREADS": None},
        "sizes": wl.sizes(last) if last is not None else {},
        "ops": {"untraced": len(latency[False]), "traced": len(latency[True])},
        "untraced_latency_ms": {"p50": statistics.median(all_ms), "tail": tail_ms(all_ms),
                                "samples": all_ms},
        "failed_ratio": failed / attempted,
        "setup_starts": setup,
        "speed": {"ref_kernel_ms": REF_KERNEL_MS, "setup": setup_speed.summary(),
                  "loop": loop_speed.summary()},
        "as_measured": end_to_end(latency, setup),
    }
    if tracer is not None:
        context["self_s_per_op"] = tracer.self_s_per_op()
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"context": context, **tracer.to_doc()}, fh)
        context["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"perfbench": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
