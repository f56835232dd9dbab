#!/usr/bin/env python3
"""Time the slow jobs: fixed recipes, each in a fresh CLI process.

Usage (from anywhere):

    python3 tools/frontier.py TREE [--quick]
    python3 tools/frontier.py PARENT_TREE CHANGE_TREE [--quick] --out BENCH_<n>.json

Each tree is a checkout of the repository (its `src/`).  Every recipe
below builds one job document, from perfbench/jobs.py's `random_poly`
with a fixed seed and coefficient tuple or from a module named outright;
the documents come from this repository's perfbench, so both trees run
the same bytes.  A run is one fresh `python -m sigmatrop.cli --job`
process with the tree's `src/` on PYTHONPATH, killed after ALARM_S
seconds.  It records the wall time from launch to exit (a blocking wait,
no polling), the exit code (None after the alarm), the sha256 of the
process's standard output (the canonical result, or the error object) and
the result's `undecided` flag.  A recipe with `repeat` > 1 runs that many
times per tree, and counts at the median.  The `import` recipe
launches `import sigmatrop.cli` alone.  One untimed launch per tree first
writes its bytecode, and PYTHONDONTWRITEBYTECODE is dropped from the
child's environment, so no timed launch compiles the sources.

Given one tree, it prints one line per recipe.  Given two, each launch of a
recipe runs in both trees back to back, the first tree alternating from
one launch to the next across repeats and recipes (ORDER); it prints one
line per recipe and side, and writes (or replaces) the `frontier` section
of the --out file, keeping its other sections.
`--quick` runs only the recipes that take under QUICK_S seconds at HEAD.
Nothing of the program is imported here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import jobs as J  # noqa: E402

ALARM_S = 120.0
QUICK_S = 10.0
ORDER = ("each launch runs in both trees back to back; the first tree alternates "
         "from launch to launch, across repeats and recipes")
SEMIPRIME = (10 ** 24 + 7) * (3 * 10 ** 24 + 7)
Z_COEFS = (1, -1, 2, -2, 3, -3, 4, -4, 5, -5)
Q_COEFS = (1, -1, 2, -2, 3, -3)


def module_job(command, module, **payload):
    return J.job_doc(command, {"module": module, **payload})


def scalar(command, *rhos, **payload):
    return module_job(command, {"mode": "scalar", "rhos": [J.frac_str(r) for r in rhos]},
                      **payload)


def cyclic(command, rank, domain, terms):
    return module_job(command, {"mode": "cyclic", "rank": rank, "domain": domain,
                                "generators": [J.poly_doc(terms)]})


def drawn(rank, nterms, coefs, seed, lo=-2, hi=2, constant=False):
    return J.random_poly(random.Random(seed), rank, nterms, coefs, lo, hi, constant)


def circle_points(r2):
    """Coefficient 1 on every lattice point of x^2 + y^2 = r2."""
    r = int(r2 ** 0.5)
    return {(x, y): 1 for x in range(-r, r + 1) for y in range(-r, r + 1)
            if x * x + y * y == r2}


def ladder_payload(cls):
    """The first job of class cls in the seed-1 sigma-ladder batch."""
    return next(job.doc for job in J.batch("sigma-ladder", 1) if job.cls == cls)


def recipes():
    """(name, argv after the interpreter, or a job document; repeat; slow):
    slow recipes took QUICK_S or more at HEAD, and --quick skips them."""
    out = [("import sigmatrop.cli", ["-c", "import sigmatrop.cli"], 7, False),
           ("cold: group scalar (6, 10/3)", scalar("group", 6, Fraction(10, 3)), 7, False),
           ("cold: matrix-diag ladder sigma", ladder_payload("matrix-diag:sigma"), 7, False),
           ("cold: sigma cyclic Q x + y + 1",
            cyclic("sigma", 2, "Q", {(1, 0): 1, (0, 1): 1, (0, 0): 1}), 7, False),
           ("group diag(12252240, 1/12252240)", module_job("group", {
               "mode": "matrix", "mats": [[["12252240", "0"], ["0", "1/12252240"]]],
               "generators": [["1", "0"], ["0", "1"]]}), 1, False),
           ("sigma scalar semiprime N", scalar("sigma", SEMIPRIME), 1, False),
           ("sigma scalar semiprime N, coeff_bound N",
            scalar("sigma", SEMIPRIME, coeff_bound=SEMIPRIME), 1, False),
           ("trop global-z 1 + N x", J.job_doc("trop", {
               "rank": 1, "valuation": {"kind": "global-z"},
               "generators": [J.poly_doc({(0,): 1, (1,): SEMIPRIME})]}), 1, False),
           ("sigma scalar (4, 9, 25/8)", scalar("sigma", 4, 9, Fraction(25, 8)), 1, False),
           ("sigma scalar first 7 primes", scalar("sigma", 2, 3, 5, 7, 11, 13, 17), 1, False)]
    for seed in (1, 2, 3, 4):
        out.append((f"sigma cyclic Z rank 3, 7 terms, seed {seed}",
                    cyclic("sigma", 3, "Z", drawn(3, 7, Z_COEFS, seed, constant=True)),
                    1, False))
    for seed in (1, 2, 3):
        out.append((f"sigma cyclic Z rank 4, 5 terms, seed {seed}",
                    cyclic("sigma", 4, "Z", drawn(4, 5, Z_COEFS, seed, constant=True)),
                    1, False))
    for seed in range(1, 7):
        out.append((f"sigma cyclic Q rank 8, 16 terms, seed {seed}",
                    cyclic("sigma", 8, "Q", drawn(8, 16, Q_COEFS, seed, -1, 1)),
                    1, seed == 5))
    out += [("sigma cyclic Q rank 8, 20 terms, seed 1",
             cyclic("sigma", 8, "Q", drawn(8, 20, Q_COEFS, 1, -1, 1)), 1, True),
            ("sigma scalar (6, 10, 15, 14, 21)", scalar("sigma", 6, 10, 15, 14, 21), 1, True),
            ("sigma scalar (6, 10, 15, 14, 21, 35)",
             scalar("sigma", 6, 10, 15, 14, 21, 35), 1, True)]
    for r2, slow in ((65, False), (625, True), (325, True)):
        terms = circle_points(r2)
        out.append((f"group cyclic Q on the {len(terms)} points of x^2 + y^2 = {r2}",
                    cyclic("group", 2, "Q", terms), 1, slow))
    return out


def launch(tree: Path, argv: list, workdir: Path) -> dict:
    """One fresh process: wall time, exit code, output digest, undecided."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    alarm = threading.Timer(ALARM_S, proc.kill)
    alarm.start()
    out, _ = proc.communicate()
    wall = time.perf_counter() - start
    fired = not alarm.is_alive()
    alarm.cancel()
    undecided = None
    try:
        undecided = json.loads(out).get("undecided")
    except ValueError:
        pass
    return {"wall_s": round(min(wall, ALARM_S), 4), "exit": None if fired else proc.returncode,
            "sha256": hashlib.sha256(out).hexdigest(), "undecided": undecided}


def summary(runs: list) -> dict:
    """A recipe's launches in one tree, counted at the median wall time."""
    rec = dict(runs[-1], wall_s=round(statistics.median(r["wall_s"] for r in runs), 4))
    if len(runs) > 1:
        rec["runs_s"] = [r["wall_s"] for r in runs]
    if len({(r["exit"], r["sha256"]) for r in runs}) > 1:
        rec["unstable"] = True
    return rec


def line(name: str, side: str, rec: dict) -> str:
    status = "alarm" if rec["exit"] is None else f"exit {rec['exit']}"
    return (f"{name:55s} {side:7s} {rec['wall_s']:9.3f} s  {status:7s} "
            f"{rec['sha256'][:12]}  undecided={rec['undecided']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", type=Path, nargs="+", metavar="TREE")
    ap.add_argument("--quick", action="store_true",
                    help=f"only the recipes under {QUICK_S:g} s at HEAD")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("give one tree, or PARENT_TREE CHANGE_TREE")
    sides = dict(zip(("parent", "change") if len(args.trees) == 2 else ("tree",),
                     (t.resolve() for t in args.trees)))
    for tree in sides.values():
        if not (tree / "src" / "sigmatrop" / "cli.py").is_file():
            ap.error(f"{tree} has no src/sigmatrop/cli.py")
    if args.out is not None and len(sides) != 2:
        ap.error("--out needs PARENT_TREE CHANGE_TREE")
    chosen = [r for r in recipes() if not (args.quick and r[3])]
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        commands = {}
        for i, (name, job, _, _) in enumerate(chosen):
            if isinstance(job, dict):
                path = workdir / f"job{i}.json"
                path.write_text(json.dumps(job))
                job = ["-m", "sigmatrop.cli", "--job", str(path)]
            commands[name] = job
        for tree in sides.values():
            launch(tree, ["-c", "import sigmatrop.cli"], workdir)
        order = list(sides)
        for name, _, repeat, _ in chosen:
            runs = {side: [] for side in sides}
            for _ in range(repeat):
                for side in order:
                    runs[side].append(launch(sides[side], commands[name], workdir))
                order.reverse()
            results[name] = {side: summary(runs[side]) for side in sides}
            for side in sides:
                print(line(name, side, results[name][side]), flush=True)
    if args.out is not None:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["frontier"] = {
            "command": "python3 tools/frontier.py PARENT_TREE CHANGE_TREE"
                       + (" --quick" if args.quick else ""),
            "alarm_s": ALARM_S, "order": ORDER,
            "jobs": {name: {"repeat": repeat, "slow_at_head": slow,
                            **{side: results[name][side] for side in sides}}
                     for name, _, repeat, slow in chosen}}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
