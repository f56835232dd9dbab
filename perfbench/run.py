#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sigma-ladder --seed 1 --seconds 36 --trace 0

Workloads: sigma-ladder, trop-fans, light-mix (see perfbench/README.md).
One client runs jobs in a closed loop, in this process and thread, passing
each generated job document to `sigmatrop.cli.run`.  A run takes a fixed
batch of jobs from the seed (jobs.BATCH) and, with --trace 0, runs it
PASSES times or until --seconds have passed, each pass starting with the
program's caches emptied.  The speed of a shared host swings by up to
half, within seconds and over minutes, so every job time is scaled to a
reference host speed (`host_scaled`): after each job the harness times a
fixed probe outside the program, and a job's time is multiplied by
PROBE_REF_S over the median probe time around it.  A job counts at the
median of its scaled runs.  Every answer of the first pass goes through the
gate (gate.py), and every later run must print the same bytes.  With
--trace 1 the batch runs once plain and once under the layer tracer
(layertrace.py), and the per-layer metrics are printed.  The last line of
standard output is one JSON object.  The exit code is 0 when every answer
passed the gate, 1 when one did not, and 2 when the program's
source tree is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as J  # noqa: E402
from harness import (REFERENCE_SEED, ROOT, SRC, Harness,  # noqa: E402
                     clear_program_caches, host_probe, import_program,
                     load_reference)

SETUP_LAUNCHES = 5
# Passes over the batch in a --trace 0 run; a job counts at its median run.
PASSES = 3
# Job times are scaled to a host on which harness.host_probe takes this long.
PROBE_REF_S = 0.001
# A job's host speed is the median of this many probes on each side of it.
# The host's speed changes within a second, so a wider window tracks it
# worse: on sigma-ladder 8 a side left twice the spread of job_ms_p90.
PROBE_WINDOW = 2
OUT_DIR = ROOT / ".bench_out"
# Share of --seconds given to the plain pass of a traced run; the traced
# pass repeats the same jobs and takes longer by the tracing overhead.
TRACE_SHARE = 0.35
# A job that finished within its cap plain gets this much more time traced.
TRACE_CAP_FACTOR = 10


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports sigmatrop.cli."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    cmd = [sys.executable, "-c", "import sigmatrop.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)  # writes bytecode
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def failures(records) -> list[str]:
    return [f"job {r.job.id} ({r.job.cls}) {r.status}: {'; '.join(r.problems[:3])}"
            for r in records if r.status in ("wrong", "error")]


def host_scaled(records):
    """The records of one pass with each finished job's time scaled to the
    reference host speed: times PROBE_REF_S over the median time of the
    probes around it.  A timeout stays at its cap."""
    probes = [r.probe_s for r in records]
    out = []
    for i, r in enumerate(records):
        if r.status == "timeout":
            out.append(r)
            continue
        # probes[i] was taken right after job i
        local = statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW])
        out.append(dataclasses.replace(r, seconds=r.seconds * PROBE_REF_S / local))
    return out


def best_runs(passes):
    """One record per job of the first pass, timed at the median of its runs
    that finished; a job capped in the first pass stays at its cap.  Returns
    the records, runs per job, and the jobs whose answer changed between
    runs."""
    first = passes[0]
    runs = {r.job.id: [r] for r in first}
    for records in passes[1:]:
        for r in records:
            runs[r.job.id].append(r)
    best, counts, changed = [], [], []
    for r in first:
        done = [x for x in runs[r.job.id] if x.status != "timeout"]
        if any(x.digest != r.digest for x in done[1:]):
            changed.append(f"job {r.job.id} ({r.job.cls}): the answer changed between passes")
        seconds = statistics.median(x.seconds for x in done) if done else r.seconds
        best.append(dataclasses.replace(r, seconds=seconds))
        counts.append(len(runs[r.job.id]))
    return best, counts, changed


def run_plain(args, harness, batch):
    setup_s = measure_setup()
    passes = harness.run_passes(batch, PASSES, args.seconds)
    raw_s = sum(r.seconds for r in passes[0])
    probe_ms = 1000 * statistics.median(r.probe_s for p in passes for r in p)
    records, runs, changed = best_runs([host_scaled(p) for p in passes])
    n = len(records)
    by = {s: sum(r.status == s for r in records)
          for s in ("ok", "undecided", "timeout", "error", "wrong")}
    completed = by["ok"] + by["undecided"]
    times_ms = [1000 * r.seconds for r in records]  # a timeout counts at its cap
    d = statistics.quantiles(times_ms, n=10, method="inclusive") if n > 1 else times_ms * 9
    busy_s = sum(times_ms) / 1000
    metrics = {
        "jobs_per_s": (completed / busy_s, "1/s"),
        "job_ms_p50": (d[4], "ms"),
        "job_ms_p90": (d[8], "ms"),
        "answered_frac": (completed / n, "frac"),
        "decided_frac": (by["ok"] / completed if completed else 0.0, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    timeouts = by["timeout"]
    finished = [k for r, k in zip(records, runs) if r.status != "timeout"]
    notes = [
        f"{len(passes)} passes over {n} of {len(batch)} jobs; a job counts at the "
        f"median of its runs: {min(finished, default=0)} to {max(finished, default=0)} "
        f"runs per job, a capped job 1",
        f"host speed: median probe {probe_ms:.3f} ms, reference {1000 * PROBE_REF_S:g} ms; "
        f"the first pass took {raw_s:.2f} s unscaled",
        f"jobs_per_s: {completed} jobs with a checked answer in {busy_s:.2f} s of "
        f"scaled job time",
        f"job_ms_p50, job_ms_p90: n={n} jobs, {sum(t > d[8] for t in times_ms)} above "
        f"p90; a timeout counts at its cap",
        f"failed_frac = {(timeouts + by['error'] + by['wrong']) / n:.4f} frac "
        f"(timeouts {timeouts} + errors {by['error']} + wrong {by['wrong']}) / {n}",
        f"timeout_frac = {timeouts / n:.4f} frac",
        f"undecided_frac = {1 - metrics['decided_frac'][0]:.4f} frac "
        f"({by['undecided']} of {completed} completed)",
        f"setup_s: median of {SETUP_LAUNCHES} launches importing sigmatrop.cli",
    ]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return n, metrics, notes, failures(records) + changed


def run_traced(args, harness, batch):
    from layertrace import Tracer, per_layer_metrics

    [plain] = harness.run_passes(batch, 1, args.seconds * TRACE_SHARE)
    clear_program_caches()
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for rec in plain:
            tracer.start_job(rec.job.id)
            factor = 1 if rec.status == "timeout" else TRACE_CAP_FACTOR
            traced.append(harness.run_job(rec.job, rec.job.cap * factor))
            traced[-1].probe_s = host_probe()
    finally:
        tracer.uninstall()
    problems = failures(plain) + failures(traced)
    plain_s = traced_s = 0.0
    # host-scaled, so that a drift of the host between the passes cancels
    for a, b in zip(host_scaled(plain), host_scaled(traced)):
        if "timeout" in (a.status, b.status):
            continue
        plain_s += a.seconds
        traced_s += b.seconds
        if a.digest != b.digest:
            problems.append(f"job {a.job.id}: the traced answer differs from the plain one")
    metrics = per_layer_metrics(tracer, len(traced), traced_s, plain_s)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans)
    _, self_s = tracer.layer_totals()
    notes = [f"{len(plain)} jobs, run plain then traced; spans in "
             f"{spans.relative_to(ROOT)}",
             f"largest self time: {max(self_s, key=self_s.get)}"]
    return len(plain), metrics, notes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sigmatrop job benchmark")
    ap.add_argument("--workload", required=True, choices=J.WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if import_program() is None:
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    harness = Harness(load_reference(args.workload, args.seed))
    for job in J.warmup_jobs(args.workload):
        harness.run_job(job)
    runner = run_traced if args.trace else run_plain
    attempted, metrics, notes, problems = runner(args, harness, J.batch(args.workload, args.seed))
    for line in problems:
        print(line, file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
