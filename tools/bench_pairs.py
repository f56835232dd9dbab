#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs.

Usage (from anywhere):

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workloads sigma-ladder trop-fans light-mix --seed 1 --pairs 10 \\
        --out BENCH_<n>.json

Each tree is a checkout of the repository (its `src/`, `perfbench/` and
`BENCHMARK.json`).  For every workload, pair i runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once
in each tree, in its own process with the tree as working directory; the
parent runs first in even pairs and the change in odd ones, so a drift of
the host's speed falls on both sides alike.  The last line of each run's
standard output is its JSON summary.  The written file holds the command,
the parent's commit (when PARENT_TREE is a git checkout), the order, the
host, and per workload the number of pairs, whether every run gated
correct, the failed jobs summed over all runs, and per metric the medians
of both sides and every run.  For the end-to-end metrics of the change
tree's `BENCHMARK.json` it adds the better direction, the pairs the change
won (ties count for neither side) and the interquartile distance of the
parent's runs, so that a claimed gain can be read off against the rule of
at least nine tenths of the pairs won and a median gap wider than that
distance.  Nothing of the program is imported here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = "perfbench/run.py"
ORDER = "parent and change alternate; the first side alternates from pair to pair"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its JSON summary line."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    if proc.returncode not in (0, 1):  # 1: some answer failed the gate
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartile_gap(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(parent: list[dict], change: list[dict], better: dict) -> dict:
    """The workload's record from its runs, paired by index."""
    out = {"pairs": len(parent),
           "correct": all(r["correct"] for r in parent + change),
           "failed": sum(r["failed"] for r in parent + change),
           "metrics": {}}
    for name, first in parent[0]["metrics"].items():
        p = [round(r["metrics"][name]["value"], 4) for r in parent]
        c = [round(r["metrics"][name]["value"], 4) for r in change]
        m = {"unit": first["unit"],
             "parent_median": statistics.median(p), "change_median": statistics.median(c),
             "parent_runs": p, "change_runs": c}
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            m["better"] = better[name]
            m["change_wins"] = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            m["parent_iqr"] = round(quartile_gap(p), 4)
        out["metrics"][name] = m
    return out


def host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cpus": os.cpu_count(), "cpu": cpu, "memory_gb": round(memory / 2 ** 30),
            "python": platform.python_version()}


def git_head(tree: Path) -> str | None:
    if not (tree / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / RUN).is_file():
            ap.error(f"{tree} has no {RUN}")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {
        "command": f"python3 {RUN} --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent": git_head(trees["parent"]),
        "order": ORDER,
        "host": host(),
        "workloads": {},
    }
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in sides:
                summary = run_once(trees[side], workload, args.seed, args.seconds)
                runs[side].append(summary)
                jps = summary["metrics"]["jobs_per_s"]["value"]
                print(f"{workload} pair {i + 1} {side}: jobs_per_s {jps:.1f}",
                      file=sys.stderr, flush=True)
        record["workloads"][workload] = summarize(runs["parent"], runs["change"], better)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
