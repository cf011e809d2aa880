"""One workload in a fresh interpreter: set up, measure, print one JSON line.

Started by run.py, never by hand.  --spawned-at is the parent's
time.perf_counter() just before it started this interpreter; on Linux
that clock is CLOCK_MONOTONIC, shared by all processes, so setup_s runs
from the start of this interpreter to the first timed operation.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bsfour  # noqa: E402
import workloads  # noqa: E402
from refloop import time_ref  # noqa: E402
from tracer import COUNT_METRICS, SELF_METRICS, Tracer  # noqa: E402


class RoundLog:
    """Costs of every operation of every round, in ref."""

    def __init__(self, n_ops):
        self.costs = [[] for _ in range(n_ops)]
        self.wall_s = []
        self.ref_s = []
        self.layer_refs = []
        self.counts = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []

    def fail(self, op, exc):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append("%s: %s: %s"
                                 % (op.name, type(exc).__name__, exc))


def measure(ops, seconds, log, tracer=None):
    """Whole rounds of ops until the next round would overrun seconds.
    Each operation is bracketed by a reference-loop run before and
    after it; its check runs outside that interval."""
    clock = time.perf_counter
    start = clock()
    while True:
        round_start = clock()
        layer_refs = {}
        for i, op in enumerate(ops):
            before = time_ref()
            t0 = clock()
            try:
                output, error = op.run(), None
            except Exception as exc:  # a failing operation is counted
                output, error = None, exc
            t1 = clock()
            after = time_ref()
            ref = (before + after) / 2
            log.costs[i].append((t1 - t0) / ref)
            log.ref_s.append(ref)
            log.attempted += 1
            if tracer is not None:
                for layer, sec in tracer.take_self_seconds().items():
                    layer_refs[layer] = layer_refs.get(layer, 0.0) + sec / ref
            if error is None:
                try:
                    op.check(output)
                except Exception as exc:  # CheckFailed or malformed output
                    log.wrong += 1
                    error = exc
            if error is not None:
                log.fail(op, error)
            elif tracer is not None:
                tracer.add(op.extra_counts(output))
            del output  # not alive during the next operation's peak RSS
        log.wall_s.append(clock() - round_start)
        if tracer is not None:
            log.layer_refs.append(layer_refs)
            log.counts.append(tracer.take_counts())
            tracer.keep_spans = False
        elapsed = clock() - start
        if elapsed + elapsed / len(log.wall_s) > seconds:
            return log


def work_refs(log):
    """Cost of the operation list: each operation's median over rounds."""
    return sum(statistics.median(c) for c in log.costs)


def end_to_end(log, setup_s):
    return {
        "setup_s": setup_s,
        "work_refs": work_refs(log),
        "op_p50_refs": statistics.median(
            statistics.median(c) for c in log.costs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced):
    counts = traced.counts[0]
    out = {name: counts[name] for name in COUNT_METRICS}
    for name in SELF_METRICS:
        layer = name[:-len(".self_refs")]
        out[name] = statistics.median(r.get(layer, 0.0)
                                      for r in traced.layer_refs)
    out["trace.overhead"] = work_refs(traced) / work_refs(untraced)
    return out


def raw_figures(log):
    backend = getattr(bsfour, "kernel_backend", None)
    return {"rounds": len(log.wall_s), "ops_per_round": len(log.costs),
            "round_wall_s": statistics.median(log.wall_s),
            "ref_ms": statistics.median(log.ref_s) * 1e3,
            "kernel": backend() if backend else "pure",
            "python": platform.python_version()}


def run(args):
    workdir = os.path.join(args.outdir, "docs-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - args.spawned_at
        if args.setup_only:
            return {"setup_s": setup_s}
        if not args.trace:
            logs = [measure(ops, args.seconds, RoundLog(len(ops)))]
            doc = {"metrics": end_to_end(logs[0], setup_s),
                   "raw": raw_figures(logs[0])}
        else:
            untraced = measure(ops, args.seconds / 2, RoundLog(len(ops)))
            tracer = Tracer().install()
            tracer.keep_spans = True
            traced = measure(ops, args.seconds / 2, RoundLog(len(ops)),
                             tracer)
            logs = [untraced, traced]
            metrics = per_layer(untraced, traced)
            doc = {"metrics": metrics, "raw": raw_figures(traced),
                   "counts_repeat": all(c == traced.counts[0]
                                        for c in traced.counts)}
            tracer.dump(os.path.join(
                args.outdir, "trace-%s-seed%d.json" % (args.workload,
                                                       args.seed)),
                {"workload": args.workload, "seed": args.seed,
                 "metrics": metrics})
        doc.update(attempted=sum(log.attempted for log in logs),
                   failed=sum(log.failed for log in logs),
                   wrong=sum(log.wrong for log in logs),
                   failures=[f for log in logs for f in log.failures],
                   ops=[op.name for op in ops])
        return doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
