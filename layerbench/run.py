"""Layered benchmark of bsfour, costs in reference units.

    python3 layerbench/run.py                       # all three workloads
    python3 layerbench/run.py --workload certify --seed 3 --seconds 30
    python3 layerbench/run.py --workload ksweep --trace 1

Each workload runs in a fresh interpreter (child.py), started one at a
time from this process; there are no threads.  With --trace 0 the last
line of stdout is one JSON object with the end-to-end metrics, with
--trace 1 one with the per-layer metrics.  Run from the repository
root; bsfour is imported from src/.  See layerbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".layerbench")
WORKLOADS = ("certify", "ksweep", "cli-docs")
SETUP_PROBES = 4          # extra fresh interpreters that only set up
BUDGET_S = 170            # every run ends well within 180 s

UNITS = {"setup_s": "s", "work_refs": "ref", "op_p50_refs": "ref",
         "peak_rss_mb": "MB", "trace.overhead": "ratio"}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_refs"):
        return "ref"
    return "B" if ".json_bytes_" in name else "count"


class ChildFailed(Exception):
    pass


def spawn(workload, args, deadline, setup_only=False):
    """Run child.py for one workload and return its JSON document."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before %s" % workload)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", OUTDIR]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s did not finish in time" % workload) from None
    if proc.returncode != 0:
        raise ChildFailed("%s exited %d:\n%s"
                          % (workload, proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, args, deadline):
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, args, deadline, True)["setup_s"])
    doc = spawn(workload, args, deadline)
    if not args.trace:
        setups.append(doc["metrics"]["setup_s"])
        doc["metrics"]["setup_s"] = statistics.median(setups)
        doc["raw"]["setup_s_all"] = setups
    return doc


def show(workload, args, doc):
    raw = doc["raw"]
    print("%s  seed %d  trace %d  rounds %d x %d ops  attempted %d"
          "  failed %d" % (workload, args.seed, args.trace, raw["rounds"],
                           raw["ops_per_round"], doc["attempted"],
                           doc["failed"]))
    for name, value in doc["metrics"].items():
        print("  %-36s %14.6g %s" % (name, value, unit(name)))
    print("  raw: %.3f s wall per round, reference unit %.4f ms"
          % (raw["round_wall_s"], raw["ref_ms"]))
    if args.trace and not doc["counts_repeat"]:
        print("  warning: per-layer counts differ between traced rounds")
    for line in doc["failures"]:
        print("  failed: %s" % line)


def result_line(docs):
    """The closing JSON object; metric names gain a workload prefix
    only when more than one workload ran."""
    metrics = {}
    for workload, doc in docs.items():
        for name, value in doc["metrics"].items():
            key = name if len(docs) == 1 else "%s.%s" % (workload, name)
            metrics[key] = {"value": value, "unit": unit(name)}
    return {"correct": all(doc["wrong"] == 0 for doc in docs.values()),
            "attempted": sum(doc["attempted"] for doc in docs.values()),
            "failed": sum(doc["failed"] for doc in docs.values()),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all three when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bsfour", "cli.py")):
        print("error: no bsfour sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S * (1 if args.workload else 3)
    docs = {}
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            docs[workload] = run_workload(workload, args, deadline)
            show(workload, args, docs[workload])
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result_line(docs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
