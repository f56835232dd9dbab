"""Closed-loop job runner: one client, one process, one thread.

Each job is timed from entering `sigmatrop.cli.run(job)` to the end of
`canonical_json`, under a per-job cap enforced in-process by an interval
timer whose signal handler raises in the main thread.  The printed answer
is then parsed back and passed through the gate.  `run_passes` replays a
fixed list of jobs pass after pass, each pass starting with the program's
caches emptied, so that every job is timed several times, seconds apart.
After each job it times `host_probe`, a fixed piece of numeric work
outside the program, which tells how fast the host runs at that moment.
"""

from __future__ import annotations

import cmath
import hashlib
import importlib
import json
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1


class JobTimeout(Exception):
    """Raised by the interval timer when a job exceeds its cap."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def import_program():
    """Import the CLI from the checkout's source tree; None if it is missing."""
    if not (SRC / "sigmatrop" / "cli.py").is_file():
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("sigmatrop.cli")


def load_reference(workload: str, seed: int):
    """Recorded answers for the reference seed, keyed by job id, or None."""
    if seed != REFERENCE_SEED or not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload)


@dataclass
class Record:
    job: object
    status: str  # ok | undecided | timeout | error | wrong
    seconds: float
    digest: str | None = None
    problems: list = field(default_factory=list)
    summary: dict | None = None
    probe_s: float | None = None  # host_probe's time right after the job


def host_probe() -> float:
    """Seconds taken by a fixed piece of work outside the program: the roots
    of 24 quadratics by numpy, and their residuals in complex arithmetic, as
    in amoeba sampling.  Only the host's speed changes its time."""
    start = time.perf_counter()
    for k in range(24):
        x = cmath.exp(complex(0.5, 0.26 * k))
        for y in np.roots([1.0, -2 * x, x * x + 1]):
            abs(sum(c * x ** a * y ** b
                    for (a, b), c in (((0, 2), 1.0), ((1, 1), -2.0), ((2, 0), 1.0),
                                      ((0, 0), 1.0))))
    return time.perf_counter() - start


class Harness:
    def __init__(self, reference: dict | None = None):
        """`reference`: recorded summaries keyed by job id (see gate.py)."""
        self.cli = import_program()
        self.reference = reference or {}
        signal.signal(signal.SIGALRM, _on_alarm)

    def run_job(self, job, cap: float | None = None, check: bool = True) -> Record:
        """Run one job under `cap` seconds (default: the job's own cap).
        With check=False the answer is only hashed, not gated."""
        cap = job.cap if cap is None else cap
        run, canonical_json = self.cli.run, self.cli.canonical_json
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, cap)
                doc = run(job.doc)
                text = canonical_json(doc)
                end = time.perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            return Record(job, "timeout", cap, summary={"status": "timeout"})
        except Exception as exc:  # noqa: BLE001 - a failed job is a result
            return Record(job, "error", time.perf_counter() - start,
                          problems=[f"{type(exc).__name__}: {exc}"])
        status = "undecided" if doc["undecided"] else "ok"
        if not check:
            return Record(job, status, end - start, hash_answer(text))
        return self.judge(job, status, end - start, text)

    def judge(self, job, status: str, seconds: float, text: str) -> Record:
        parsed = json.loads(text)
        problems = gate.check(job, parsed)
        summary = None
        if job.doc["command"] in ("sigma", "group"):
            summary = gate.summarize(job, parsed["result"], status)
            ref = self.reference.get(str(job.id))
            if ref is not None:
                problems += gate.compare_reference(summary, ref)
        return Record(job, "wrong" if problems else status, seconds, hash_answer(text),
                      problems, summary)

    def run_passes(self, jobs, passes: int, seconds: float) -> list[list[Record]]:
        """Run `jobs` in order `passes` times, or until `seconds` of wall time
        have passed; a pass is cut where the time runs out.  Each pass starts
        with the program's caches emptied, so it replays the first.  The
        first pass gates every answer; later passes rerun only the jobs that
        finished in it and hash their answers, which the caller compares with
        the first pass's.  Each record carries the host_probe time taken
        right after its job."""
        done = []
        todo = list(jobs)
        t0 = time.perf_counter()
        while todo and len(done) < passes and time.perf_counter() - t0 < seconds:
            clear_program_caches()
            records = []
            for job in todo:
                if time.perf_counter() - t0 >= seconds:
                    break
                rec = self.run_job(job, check=not done)
                rec.probe_s = host_probe()
                records.append(rec)
            if not done:
                todo = [r.job for r in records if r.status in ("ok", "undecided")]
            done.append(records)
        return done


def hash_answer(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def clear_program_caches():
    """Empty the action-matrix cache and sympy's cache, so that what runs
    next starts cold, as in a fresh CLI process."""
    from sympy.core.cache import clear_cache

    from sigmatrop import sigma

    clear_cache()
    caches = getattr(sigma, "_caches", None)
    if isinstance(caches, dict):
        caches.clear()
