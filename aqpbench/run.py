#!/usr/bin/env python3
"""Builds and runs the repository benchmark (aqpbench).

Run one measurement (what BENCHMARK.json's command does):

    python3 aqpbench/run.py --workload cold_churn --seed 1 --seconds 15 --trace 0

The last line of stdout is the result object {"correct", "attempted",
"failed", "metrics"}; the line before it is the provenance record
("RECORD {...}"). Every record is also appended to .bench_build/results.jsonl.

Every workload once (cold_churn, shared_churn, warm_scan, open_mix), one
table of all metrics with units (--trace 1 for the per-layer table):

    python3 aqpbench/run.py all --seed 1

Measure run-to-run spread on fresh seeds:

    python3 aqpbench/run.py spread --workload warm_scan --runs 10 --seed-base 100

Compare two source trees with identical benchmark code (alternating pairs;
a gain needs 9/10 wins and medians apart by more than the parent's
interquartile spread; see README.md):

    python3 aqpbench/run.py compare --parent ../parent-tree --change . --pairs 10
    python3 aqpbench/run.py compare --parent-results a.jsonl --change-results b.jsonl

All builds and outputs stay under .bench_build/ of the checkout this file
lives in.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("cold_churn", "shared_churn", "warm_scan", "open_mix")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(src_root, build_dir):
    """Configures (once) and builds aqpbench against src_root/src."""
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release", "-DDEEPAQP_ROOT=" + src_root]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout)
            # A half-configured tree would be reused by the next call.
            shutil.rmtree(build_dir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    proc = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "aqpbench", "-j",
         str(os.cpu_count() or 1)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stdout)
        raise RuntimeError("build failed")
    return os.path.join(build_dir, "aqpbench")


def provenance(src_root):
    """Git revision (when the tree is a git checkout) and a digest of the
    library sources, so records from different trees are never confused."""
    rev = "unknown"
    # The ceiling keeps git from walking up into an enclosing repository
    # when the tree itself is a plain export.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(src_root))
    try:
        proc = subprocess.run(["git", "-C", src_root, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, env=env,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(src_root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def run_once(binary, src_root, workload, seed, seconds, trace, out_dir):
    """Runs the binary once; returns (exit code, record, result)."""
    rev, digest = provenance(src_root)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-rev", rev, "--src-digest", digest]
    if trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    record = result = None
    for line in lines:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if record is not None:
        with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
            f.write(json.dumps(record) + "\n")
    return proc.returncode, record, result


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------


def cmd_run(args):
    try:
        binary = build(ROOT, BUILD)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("aqpbench: %s" % e)
        return 2
    code, record, result = run_once(binary, ROOT, args.workload, args.seed,
                                    args.seconds, args.trace, BUILD)
    if record is not None:
        print("RECORD " + json.dumps(record))
    if result is not None:
        print(json.dumps(result))
    return code


def cmd_spread(args):
    spec = bench_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build(ROOT, BUILD)
    values = {m["name"]: [] for m in metrics}
    for i in range(args.runs):
        seed = args.seed_base + i
        code, record, _ = run_once(binary, ROOT, args.workload, seed,
                                   args.seconds or spec["run_seconds"],
                                   args.trace, BUILD)
        if code != 0 or record is None:
            log("run seed=%d failed (exit %d)" % (seed, code))
            return 1
        for m in metrics:
            values[m["name"]].append(record["metrics"][m["name"]]["value"])
        log("seed=%d done" % seed)
    print("%-34s %12s %12s %12s %9s %7s" %
          ("metric", "q1", "median", "q3", "iqr/med", "bound"))
    for m in metrics:
        v = [x for x in values[m["name"]] if x is not None]
        if not v:
            continue
        q1, med, q3 = quartiles(v)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        print("%-34s %12.6g %12.6g %12.6g %9.4f %7s" %
              (m["name"], q1, med, q3, spread, m.get("bound", "-")))
    return 0


def cmd_all(args):
    """Every workload once (all four unless --workloads narrows them), one
    table: each metric with its unit. Without --trace the table also shows
    fail_frac and budget_miss_frac, which the result object reports as
    their complements ok_frac and budget_met_frac."""
    spec = bench_spec()
    metrics = [(m["name"], m["unit"]) for m in
               (spec["per_layer"] if args.trace else spec["end_to_end"])]
    binary = build(ROOT, BUILD)
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    values, ok = {}, True
    for w in names:
        code, record, _ = run_once(binary, ROOT, w, args.seed,
                                   args.seconds or spec["run_seconds"],
                                   args.trace, BUILD)
        ok = ok and code == 0 and record is not None and record["correct"]
        values[w] = {}
        if record:
            values[w] = {k: v["value"] for k, v in record["metrics"].items()}
            values[w]["fail_frac"] = record["fail_frac"]
            values[w]["budget_miss_frac"] = record["budget_miss_frac"]
    if not args.trace:
        metrics += [("fail_frac", "frac"), ("budget_miss_frac", "frac")]
    print("%-34s %-6s" % ("metric", "unit") +
          "".join(" %14s" % w for w in names))
    for name, unit in metrics:
        row = "%-34s %-6s" % (name, unit)
        for w in names:
            v = values[w].get(name)
            row += " %14s" % ("-" if v is None else "%.6g" % v)
        print(row)
    return 0 if ok else 1


def verdict(parent, change, better, bound):
    """One (workload, metric) row of the section-8 rule over paired runs."""
    n = len(parent)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    iqr = pq3 - pq1
    spread = iqr / abs(pmed) if pmed else float("inf")
    worse_by = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    apart = abs(cmed - pmed) > iqr
    if wins >= 0.9 * n and apart:
        return "gain", wins, spread
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not every_better:
        return "unresolved", wins, spread
    if worse_by > bound:
        return "regression", wins, spread
    if losses >= 0.9 * n and apart:
        return "worse, within bound", wins, spread
    return "within bound", wins, spread


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cmd_compare(args):
    spec = bench_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.parent_results and args.change_results:
        parent = read_records(args.parent_results)
        change = read_records(args.change_results)
    elif args.parent and args.change:
        out = os.path.join(BUILD, "compare")
        sides = {}
        for name, tree in (("parent", args.parent), ("change", args.change)):
            tree = os.path.abspath(tree)
            sides[name] = (tree, build(tree, os.path.join(out, name)))
        parent, change = [], []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    tree, binary = sides[side]
                    code, record, _ = run_once(binary, tree, w, seed, seconds,
                                               0, out)
                    if code != 0 or record is None:
                        log("%s %s seed=%d failed (exit %d)" %
                            (side, w, seed, code))
                        return 1
                    record["pair"] = i
                    (parent if side == "parent" else change).append(record)
            log("pair %d/%d done" % (i + 1, args.pairs))
        with open(os.path.join(out, "parent.jsonl"), "w") as f:
            f.writelines(json.dumps(r) + "\n" for r in parent)
        with open(os.path.join(out, "change.jsonl"), "w") as f:
            f.writelines(json.dumps(r) + "\n" for r in change)
    else:
        log("compare needs --parent/--change trees or "
            "--parent-results/--change-results files")
        return 2

    print("%-11s %-16s %11s %23s %11s %6s %7s %6s  %s" %
          ("workload", "metric", "parent_med", "parent [q1, q3]", "change_med",
           "wins", "spread", "bound", "verdict"))
    for w in workloads:
        p_by_seed = {r["seed"]: r for r in parent if r["workload"] == w}
        c_by_seed = {r["seed"]: r for r in change if r["workload"] == w}
        seeds = sorted(set(p_by_seed) & set(c_by_seed))
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [p_by_seed[s]["metrics"][name]["value"] for s in seeds]
            cv = [c_by_seed[s]["metrics"][name]["value"] for s in seeds]
            v, wins, spread = verdict(pv, cv, m["better"], m["bound"])
            pq1, pmed, pq3 = quartiles(pv)
            print("%-11s %-16s %11.5g [%10.5g, %10.5g] %11.5g %3d/%-2d %7.3f %6.2f  %s" %
                  (w, name, pmed, pq1, pq3, quartiles(cv)[1], wins, len(seeds),
                   spread, m["bound"], v))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("all", "spread", "compare"):
        mode = sys.argv.pop(1)
    else:
        mode = "run"
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    if mode in ("run", "spread"):
        p.add_argument("--workload", required=True, choices=WORKLOADS)
    if mode in ("run", "spread", "all"):
        p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    if mode == "run":
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=int, required=True)
    elif mode == "all":
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=0,
                       help="default: BENCHMARK.json run_seconds")
    else:
        p.add_argument("--seconds", type=int, default=0,
                       help="default: BENCHMARK.json run_seconds")
        p.add_argument("--seed-base", type=int, default=1000,
                       help="pairs/runs use seeds seed-base, seed-base+1, ...")
    if mode == "spread":
        p.add_argument("--runs", type=int, default=10)
    if mode == "all":
        p.add_argument("--workloads", help="comma-separated; default: all four")
    if mode == "compare":
        p.add_argument("--parent", help="source tree of the parent commit")
        p.add_argument("--change", help="source tree of the change")
        p.add_argument("--parent-results", help="recorded parent runs (jsonl)")
        p.add_argument("--change-results", help="recorded change runs (jsonl)")
        p.add_argument("--pairs", type=int, default=10)
        p.add_argument("--workloads", help="comma-separated; default: all")
    args = p.parse_args()
    return {"run": cmd_run, "all": cmd_all, "spread": cmd_spread,
            "compare": cmd_compare}[mode](args)


if __name__ == "__main__":
    sys.exit(main())
