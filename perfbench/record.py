#!/usr/bin/env python3
"""Record reference.json: the answers the gate compares against.

Usage (from the repository root):

    python3 perfbench/record.py

Runs the sigma-ladder batch of the reference seed (jobs.batch) under the
per-job cap and stores, for each, the decomposition-independent summary made by
gate.summarize: status, group predicates, `directions` lists and probe
classes.  A job that times out is stored with status "timeout" only; the
gate then checks its later answers by the oracles alone.  Re-recording
changes the benchmark and needs a reason.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as J  # noqa: E402
from harness import REFERENCE_PATH, REFERENCE_SEED, Harness  # noqa: E402


def main() -> int:
    workload = "sigma-ladder"
    h = Harness()
    out = {}
    for job in J.batch(workload, REFERENCE_SEED):
        rec = h.run_job(job)
        if rec.status in ("wrong", "error"):
            print(f"job {job.id} ({job.cls}) {rec.status}: {rec.problems[:2]}",
                  file=sys.stderr)
            return 1
        out[str(job.id)] = rec.summary
    REFERENCE_PATH.write_text(json.dumps({workload: out}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
