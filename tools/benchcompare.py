"""Benchmark a parent revision against this working tree, in alternating
pairs, and write the record.

    python3 tools/benchcompare.py PARENT_REV --label L
    python3 tools/benchcompare.py HEAD~1 --label certify \\
        --plan certify:1:10 --plan certify:2:2 --plan ksweep:1:3

Exports PARENT_REV with `git archive` into a temporary directory and
runs `layerbench/run.py --workload W --seed S --seconds N` there and in
this tree, one run at a time, with N the `run_seconds` of
BENCHMARK.json, so both sides and every record run equally long.  Each
--plan WORKLOAD:SEED:PAIRS asks for that many pairs; the default is ten
pairs of seed 1 for every workload.  Odd pairs run the parent first,
even pairs the change.  Then, for each workload, one `--trace 1` run
per side at the workload's first seed gives the per-layer counts, which
are exact per round.

Writes BENCH_<label>.json at the repository root, and refuses to
replace an existing one unless --force is given.  The record holds both
revisions, the Python version and host, the plan, per side the sha256
of the code the runs execute (`code_digest`: the files under src/ and
layerbench/, so a record of an uncommitted tree can be matched to the
commit that holds it), whether the two trees hold the same layerbench/
files, every raw result line, and per workload, seed and end-to-end
metric the median, quartiles, minimum and maximum of each side, the
pairs the change won, the ratio of the medians, whether the gain rule
holds (the change better in at least nine of ten pairs and the medians
further apart than the parent's quartiles) and whether the change stays
within the metric's bound in BENCHMARK.json.  The traced metrics of
both sides go in, with the differences of the counts, which are exact
per round (self times are timings and are not compared).  Exits 1 when
a run failed (the record is still written, with the failure), else 0.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SECONDS = 10
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """The files of rev, as git archive writes them, under dest."""
    data = git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def tree_files(root, sub):
    """Relative path -> bytes of the files under root/sub, caches
    left out."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def code_digest(root):
    """sha256 over the paths and bytes of the files under root/src and
    root/layerbench, caches left out, in path order."""
    digest = hashlib.sha256()
    files = {**tree_files(root, "src"), **tree_files(root, "layerbench")}
    for path in sorted(files):
        data = files[path]
        digest.update(b"%s\0%d\0" % (path.replace(os.sep, "/").encode(),
                                     len(data)))
        digest.update(data)
    return digest.hexdigest()


def run_bench(tree, workload, seed, seconds, trace=0):
    """One layerbench run in tree: (result line, None) or (None, error)."""
    cmd = [sys.executable, os.path.join("layerbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "exit %d: %s" % (proc.returncode,
                                      proc.stderr.strip()[-2000:])
    return json.loads(lines[-1]), None


def plan_item(text):
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def spread(values):
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def summarize(runs, metrics):
    """Per workload and seed, per end-to-end metric: both sides'
    spread, pairs won, the gain rule and the bound."""
    out = {}
    for workload, seed in sorted({(r["workload"], r["seed"]) for r in runs}):
        pairs = {}
        for r in runs:
            if (r["workload"], r["seed"]) == (workload, seed) and r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = (
                    r["result"]["metrics"])
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        block = {}
        for name in pairs[0]["parent"]:
            sign = -1 if metrics.get(name, {}).get("better") == "lower" else 1
            sides = {side: [p[side][name]["value"] for p in pairs]
                     for side in SIDES}
            stats = {side: spread(v) for side, v in sides.items()}
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(sides["parent"], sides["change"]))
            parent = stats["parent"]["median"]
            change = stats["change"]["median"]
            entry = dict(stats)
            entry["change_better"] = "%d/%d" % (wins, len(pairs))
            entry["median_ratio"] = change / parent if parent else None
            entry["gain_rule_met"] = (
                10 * wins >= 9 * len(pairs)
                and sign * (change - parent)
                > stats["parent"]["q3"] - stats["parent"]["q1"])
            bound = metrics.get(name, {}).get("bound")
            if bound is not None:
                entry["bound"] = bound
                entry["within_bound"] = (-sign * (change - parent)
                                         <= bound * abs(parent))
            block[name] = entry
        out["%s seed %d" % (workload, seed)] = block
    return out


def count_delta(parent, change):
    """change - parent for the per-layer counts that differ: the
    metrics counted in calls, terms or bytes, which are exact per
    round; self times and the tracing overhead are timings and left
    out."""
    return {name: change["metrics"][name]["value"] - m["value"]
            for name, m in parent["metrics"].items()
            if m["unit"] in ("count", "B")
            and change["metrics"][name]["value"] != m["value"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--label", required=True,
                        help="the record is BENCH_<label>.json")
    parser.add_argument("--plan", type=plan_item, action="append",
                        metavar="WORKLOAD:SEED:PAIRS",
                        help="pairs to run; repeat for more")
    parser.add_argument("--force", action="store_true",
                        help="replace an existing BENCH_<label>.json")
    args = parser.parse_args(argv)
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    if os.path.exists(path) and not args.force:
        parser.error("%s exists; --force replaces it" % path)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    plan = args.plan or [(w["name"], 1, 10) for w in bench["workloads"]]
    parent_rev = git("rev-parse", "--verify",
                     args.parent + "^{commit}").decode().strip()
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain").strip())
    runs, traces, failed = [], {}, False
    with tempfile.TemporaryDirectory(prefix="benchcompare-") as tmp:
        export(parent_rev, tmp)
        trees = {"parent": tmp, "change": ROOT}
        same_bench = (tree_files(tmp, "layerbench")
                      == tree_files(ROOT, "layerbench"))
        digests = {side: code_digest(tree) for side, tree in trees.items()}
        for workload, seed, pairs in plan:
            for pair in range(1, pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for position, side in enumerate(order, 1):
                    result, error = run_bench(trees[side], workload, seed,
                                              seconds)
                    failed = failed or error is not None
                    runs.append({"workload": workload, "seed": seed,
                                 "pair": pair, "side": side,
                                 "order": position, "result": result,
                                 "error": error})
                    print("%s seed %d pair %d %s: %s" % (
                        workload, seed, pair, side, error or " ".join(
                            "%s=%.4g" % (n, m["value"])
                            for n, m in result["metrics"].items())),
                        file=sys.stderr)
        for workload in dict.fromkeys(w for w, _, _ in plan):
            seed = next(s for w, s, _ in plan if w == workload)
            results, entry = {}, {"seed": seed}
            for side in SIDES:
                results[side], error = run_bench(trees[side], workload, seed,
                                                 TRACE_SECONDS, trace=1)
                failed = failed or error is not None
                entry[side] = error or {
                    name: m["value"]
                    for name, m in results[side]["metrics"].items()}
            if all(results.values()):
                entry["count_delta"] = count_delta(results["parent"],
                                                   results["change"])
            traces[workload] = entry
    record = {
        "tool": "python3 tools/benchcompare.py " + " ".join(
            argv if argv is not None else sys.argv[1:]),
        "command": "python3 layerbench/run.py --workload W --seed S"
                   " --seconds %d; trace: --trace 1 --seconds %d"
                   % (seconds, TRACE_SECONDS),
        "parent_rev": parent_rev,
        "change": {"head": head, "uncommitted_changes": dirty},
        "code_sha256": digests,
        "python": platform.python_version(),
        "host": "%s, %d CPUs" % (platform.platform(), os.cpu_count()),
        "plan": [{"workload": w, "seed": s, "pairs": p} for w, s, p in plan],
        "order": "odd pairs run the parent first, even pairs the change",
        "same_layerbench": same_bench,
        "summary": summarize(runs, metrics),
        "trace": traces,
        "runs": runs,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
