#!/usr/bin/env python3
"""Build pool.json, the vetted instance pool of the sigma-ladder workload.

Usage (from the repository root):

    python3 perfbench/vet.py

For each ladder class it draws candidates from jobs.candidate_module with a
fixed seed, runs each once under the ladder cap and keeps the first
PER_DRAW × (the class's draws per round) that finish, with an answer that
passes the gate, in under LADDER_LIMIT_S.  The stream draws modules without
replacement, so no module repeats within PER_DRAW rounds.  Each frontier job must still be running after
FRONTIER_MIN_S.  Timing decides what is kept, so a rebuilt pool can differ
from the committed one: rebuilding it changes the benchmark.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as J  # noqa: E402
from harness import Harness  # noqa: E402

PER_DRAW = 24
MAX_CANDIDATES_PER_KEPT = 3


def main() -> int:
    h = Harness()
    pool = {}
    for slot in dict.fromkeys(J.LADDER_ROUND):
        rng = random.Random(f"pool/{slot}")
        command = slot.split(":")[1]
        wanted = PER_DRAW * J.LADDER_ROUND.count(slot)
        kept, seen = [], set()
        for _ in range(MAX_CANDIDATES_PER_KEPT * wanted):
            module, hint = J.candidate_module(slot, rng)
            key = json.dumps(module, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            payload = {"module": module, "fpm": [1, 2]} if command == "group" \
                else {"module": module}
            rec = h.run_job(J.Job(0, slot, J.job_doc(command, payload),
                                  J.CAPS["sigma-ladder"], hint=hint))
            if rec.status in ("wrong", "error"):
                print(f"{slot}: {rec.status} {key[:80]} {rec.problems[:2]}",
                      file=sys.stderr)
            elif rec.status != "timeout" and rec.seconds < J.LADDER_LIMIT_S:
                kept.append({"module": module, "hint": hint, "status": rec.status,
                             "vetted_ms": round(rec.seconds * 1000, 1)})
            if len(kept) >= wanted:
                break
        pool[slot] = kept
        print(f"{slot}: kept {len(kept)}, slowest "
              f"{max((e['vetted_ms'] for e in kept), default=0):.0f} ms", file=sys.stderr)
    pool[J.FRONTIER_CLASS] = []
    for command, module in J.FRONTIER:
        doc = J.job_doc(command, {"module": module})
        rec = h.run_job(J.Job(0, J.FRONTIER_CLASS, doc, J.FRONTIER_MIN_S))
        print(f"frontier {command} {json.dumps(module)[:60]}: {rec.status} "
              f"{rec.seconds:.1f} s", file=sys.stderr)
        if rec.status == "timeout":
            pool[J.FRONTIER_CLASS].append({"command": command, "module": module})
    J.POOL_PATH.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
