"""One workload run in one fresh process: set up, time whole rounds, check.

Started by ``perfbench/run.py`` with the thread counts pinned in its
environment. Prints one JSON line: with ``--setup-only`` just this process's
set-up time, otherwise the run's op counts and raw metric values.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from qnz import mapper

from . import tracing, workloads


@dataclass
class Pass:
    """Timings and failed ops of whole rounds of a workload's ops."""

    round_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    extra_cx: list = field(default_factory=list)  # inserted CX per round
    raised: set = field(default_factory=set)  # numbers of ops that raised
    failed: dict = field(default_factory=dict)  # op number -> failed check

    @property
    def attempted(self) -> int:
        return len(self.op_s)


class CompileCounter:
    """Sums the CX the router inserted over every compile, whoever calls it,
    except while paused."""

    def __init__(self):
        self.extra_cx = 0
        self.paused = False

    def install(self):
        original = mapper.compile

        @functools.wraps(original)
        def counted(*args, **kwargs):
            m = original(*args, **kwargs)
            if not self.paused:
                self.extra_cx += m.stats.extra_cx
            return m

        tracing.replace_everywhere(original, counted)


@contextlib.contextmanager
def paused(recorders):
    for r in recorders:
        r.paused = True
    try:
        yield
    finally:
        for r in recorders:
            r.paused = False


def measure(wl, ops, counter: CompileCounter, recorders, first_op: int,
            seconds: float | None = None, rounds: int | None = None) -> Pass:
    """Whole rounds until the timed ops add up to `seconds` (at least one
    round), or exactly `rounds`. Each output gets the workload's own checks
    untimed, with the recorders paused so that the checks' own calls into qnz
    are not counted; checks against the reference come after the run."""
    result = Pass()
    while True:
        round_first = first_op + result.attempted
        cx_before = counter.extra_cx
        round_s = 0.0
        for index, (label, fn) in enumerate(ops):
            op = first_op + result.attempted
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception:  # an op that raises is counted as failed
                dt = time.perf_counter() - t0
                result.raised.add(op)
                print(f"{label} raised: {traceback.format_exc()}", file=sys.stderr)
            else:
                dt = time.perf_counter() - t0
                with paused(recorders):
                    msg = wl.check_op(op, index, out)
                if msg:
                    result.failed[op] = f"{label}: {msg}"
            round_s += dt
            result.op_s.append(dt)
        result.round_s.append(round_s)
        result.extra_cx.append(counter.extra_cx - cx_before)
        if result.extra_cx[-1] != result.extra_cx[0]:
            result.failed.setdefault(
                round_first, f"inserted CX {result.extra_cx[-1]} differ from the first round's"
            )
        if rounds is not None:
            if len(result.round_s) >= rounds:
                return result
        elif sum(result.round_s) >= seconds:
            return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        wl.prepare()
        counter = CompileCounter()
        counter.install()
        wl.warm_up()
        ops = wl.ops()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        plain = measure(wl, ops, counter, [counter], 0, seconds=args.seconds)
        # read before the reference checks, whose working set is the benchmark's own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = [plain]
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                traced = measure(wl, ops, counter, [counter, tracer], plain.attempted,
                                 rounds=len(plain.round_s))
            finally:
                restore()
            passes.append(traced)
        raised, failed = set(), {}
        for p in passes:
            raised |= p.raised
            failed.update(p.failed)
        counter.paused = True
        for op, msg in wl.check_reference().items():
            failed.setdefault(op, msg)
        for op in sorted(failed):
            print(f"op {op} failed: {failed[op]}", file=sys.stderr)

        if args.trace:
            metrics = tracing.layer_metrics(tracer, len(traced.round_s))
            overhead = statistics.median(traced.round_s) - statistics.median(plain.round_s)
            metrics["trace.overhead_s"] = overhead
        else:
            metrics = {
                "setup_s": setup_s,
                "run_s": statistics.median(plain.round_s),
                "op_ms.p50": 1e3 * statistics.median(plain.op_s),
                "peak_rss_mb": peak_rss_mb,
                "extra_cx": statistics.median(plain.extra_cx),
            }
        print(
            f"{args.workload} seed {args.seed}: {len(plain.round_s)} round(s) of {len(ops)} op(s), "
            f"round_s {[round(s, 4) for s in plain.round_s]}",
            file=sys.stderr,
        )
        print(json.dumps({
            "correct": not failed,
            "attempted": sum(p.attempted for p in passes),
            "failed": len(raised | set(failed)),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
