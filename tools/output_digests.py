#!/usr/bin/env python3
"""Digest the canonical outputs of the benchmark's job batches.

Usage (from the repository root):

    python3 tools/output_digests.py [--seeds 1 2 3] [--workloads light-mix]

Runs every job of the given seeds of the given perfbench workloads (by
default all three: sigma-ladder, trop-fans, light-mix) through
`sigmatrop.cli.run`, with no time cap.  For each workload and seed it
prints one line per job (workload, seed, job index, job class and the
sha256 of the job's `canonical_json` text), then one batch line: the
number of jobs and the sha256 over their texts in batch order.  A job that
raises contributes its exception type and message instead.  The time each
batch took goes to standard error.  Two source trees print the same lines
exactly when their outputs on these jobs are byte-identical; a diff of the
two printouts names the jobs that changed.  The job generator,
perfbench/jobs.py, is imported and not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs as J  # noqa: E402
from sigmatrop.cli import canonical_json, run  # noqa: E402


def batch_digest(workload: str, seed: int) -> tuple[int, str]:
    """Print each job's digest line; return the job count and batch digest."""
    h = hashlib.sha256()
    jobs = J.batch(workload, seed)
    for index, job in enumerate(jobs):
        try:
            text = canonical_json(run(job.doc))
        except Exception as exc:  # noqa: BLE001 - an error is part of the output
            text = f"{type(exc).__name__}: {exc}\n"
        data = text.encode()
        h.update(data)
        print(f"{workload} seed {seed} job {index} {job.cls} "
              f"{hashlib.sha256(data).hexdigest()}", flush=True)
    return len(jobs), h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=J.WORKLOADS,
                        default=list(J.WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            start = time.perf_counter()
            count, digest = batch_digest(workload, seed)
            print(f"{workload} seed {seed}: {count} jobs {digest}", flush=True)
            print(f"  {time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
