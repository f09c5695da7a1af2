#!/usr/bin/env python3
"""Builds and runs the end-to-end gateway benchmark, or compares results.

Run one workload (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload write_mix --seed 1 --seconds 10 --trace 0

builds the benchmark package (`perfbench/Cargo.toml`, release profile,
into `$CARGO_TARGET_DIR`, default `.bench_build`), runs it, and passes
its output through: the last line of standard output is the result
object. Full results and spans land under `.perfbench_out/`.

Compare two sets of result files (parent vs change):

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

prints, per workload and end-to-end metric, each side's median and
quartiles, the pair win rate over shared seeds, and a verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".perfbench_out"
# One run must finish well inside 180 s; a hang past this is a failure.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git revision of the checkout, or "unknown" outside git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 and rev.stdout.strip() else "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("the Occam sources are not here; run from a checkout of the repository")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed", 1)
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    return os.path.join(target, "release", "perfbench")


def run(args):
    binary = build()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT,
        "--rev", source_rev(),
    ]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    # The program prints every metric it measures; the result line holds
    # the ones BENCHMARK.json names for this kind of run.
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("the run printed no result", 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail(f"the run did not report {missing}", 1)
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result), flush=True)
    sys.exit(done.returncode)


# ---- compare mode ----

def load_results(path):
    """Untraced result files under `path` whose checks passed, as
    ({workload: {seed: result}}, {workload: files excluded as incorrect})."""
    out, excluded = {}, {}
    for d, _, files in os.walk(path):
        for f in files:
            if not f.endswith(".json"):
                continue
            with open(os.path.join(d, f)) as fh:
                r = json.load(fh)
            env = r.get("env", {})
            if env.get("trace") != 0:
                continue
            if r.get("correct") is not True:
                excluded[env["workload"]] = excluded.get(env["workload"], 0) + 1
                continue
            out.setdefault(env["workload"], {})[env["seed"]] = r
    return out, excluded


# Tail latencies are printed and compared but not in BENCHMARK.json: on
# a shared 2-vCPU host their run-to-run spread exceeds any bound it
# allows. Compare mode gives them its widest bound.
TAIL_BOUND = 0.25


def metric_rules():
    """{metric: (better, bound)} from BENCHMARK.json, extended to the
    class-split medians, which share the bound of their population, and
    to the tails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    rules = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for prefix in ("latency", "write", "audit"):
        rules[f"{prefix}_p50_ms"] = rules["latency_p50_ms"]
        rules[f"{prefix}_tail_ms"] = ("lower", TAIL_BOUND)
    rules["failed_frac"] = ("lower", 0.0)
    return rules


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, pairs):
    """better / worse / unchanged / unresolved for one metric."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    gain = sign * (cm - pm)
    if pm == 0:
        return ("worse" if gain < 0 else "unchanged"), win_rate
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm) if cm else 0.0)
    if win_rate >= 0.9 and gain > (p3 - p1):
        return "better", win_rate
    if spread > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better", win_rate
        return "unresolved", win_rate
    if -gain / abs(pm) > bound:
        return "worse", win_rate
    return "unchanged", win_rate


def compare(parent_dir, change_dir):
    rules = metric_rules()
    (parent, p_bad), (change, c_bad) = load_results(parent_dir), load_results(change_dir)
    for workload in sorted(set(p_bad) | set(c_bad)):
        print(
            f"{workload}: excluded runs whose checks failed: "
            f"parent {p_bad.get(workload, 0)}, change {c_bad.get(workload, 0)}"
        )
    header = (
        f"{'workload':<16} {'metric':<16} {'parent q1/med/q3':>30} "
        f"{'change q1/med/q3':>30} {'wins':>5} verdict"
    )
    print(header)
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for name, (better, bound) in rules.items():
            def values(side):
                return [
                    r["end_to_end"][name]["value"]
                    for r in side[workload].values()
                    if name in r["end_to_end"]
                ]
            pv, cv = values(parent), values(change)
            if not pv or not cv:
                continue
            pairs = [
                (parent[workload][s]["end_to_end"][name]["value"],
                 change[workload][s]["end_to_end"][name]["value"])
                for s in seeds
                if name in parent[workload][s]["end_to_end"]
                and name in change[workload][s]["end_to_end"]
            ]
            v, win_rate = verdict(pv, cv, better, bound, pairs)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(
                f"{workload:<16} {name:<16} {fmt(quartiles(pv)):>30} "
                f"{fmt(quartiles(cv)):>30} {win_rate:>5.2f} {v}"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    run(args)


if __name__ == "__main__":
    main()
