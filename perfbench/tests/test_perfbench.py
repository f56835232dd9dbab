"""Tests of the benchmark itself: metric coverage, the answer gate, the
per-job cap and the layer tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import jobs as J  # noqa: E402
import run  # noqa: E402
from harness import Harness, Record  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace, seconds="1"):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", seconds,
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


@pytest.fixture(scope="module")
def traced():
    """One short traced run per workload: workload -> metrics."""
    out = {}
    for workload in J.WORKLOADS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", workload, "--seed", "7",
                             "--seconds", "4", "--trace", "1"])
        assert code == 0
        result = json.loads(buf.getvalue().strip().splitlines()[-1])
        assert result["correct"] and result["attempted"] >= 1
        out[workload] = result["metrics"]
    return out


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(capsys, workload):
    code, result = bench(capsys, workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for spec in SPEC["end_to_end"]:
        m = result["metrics"][spec["name"]]
        assert m["unit"] == spec["unit"] and m["value"] > 0


def test_traced_run_prints_every_per_layer_metric(traced):
    for workload, metrics in traced.items():
        assert {s["name"]: s["unit"] for s in SPEC["per_layer"]} == \
            {k: v["unit"] for k, v in metrics.items()}, workload


def test_each_layer_is_called_on_its_workload(traced):
    expect = {
        "sigma-ladder": ("cli", "sigma", "polyhedra", "linalg", "rings", "valuations"),
        "trop-fans": ("cli", "polyhedra", "linalg", "tropical", "rings", "valuations"),
        "light-mix": ("cli", "tropical", "dynamics", "halfplane", "rings"),
    }
    for workload, layers in expect.items():
        for layer in layers:
            assert traced[workload][f"{layer}.calls"]["value"] > 0, (workload, layer)
    assert traced["sigma-ladder"]["sigma.cert_systems"]["value"] > 0
    assert traced["sigma-ladder"]["polyhedra.fm_solves"]["value"] > 0
    assert traced["light-mix"]["tropical.amoeba_incl_ms"]["value"] > 0


def test_set_algebra_is_not_used_off_the_decision_path(traced):
    for workload in ("trop-fans", "light-mix"):
        assert traced[workload]["polyhedra.complement_calls"]["value"] == 0
    assert traced["sigma-ladder"]["polyhedra.complement_calls"]["value"] > 0


def test_polyhedra_has_most_self_time_on_sigma_ladder(traced):
    m = traced["sigma-ladder"]
    layers = ("cli", "sigma", "polyhedra", "linalg", "tropical", "rings",
              "valuations", "dynamics", "halfplane")
    assert max(layers, key=lambda layer: m[f"{layer}.self_ms"]["value"]) == "polyhedra"


# ---------------------------------------------------------------------------
# The gate.


@pytest.fixture(scope="module")
def harness():
    return Harness()


def answer(harness, command, payload, hint=None):
    job = J.Job(0, "test", J.job_doc(command, payload), 30.0, hint=hint or {})
    rec = harness.run_job(job)
    assert rec.status in ("ok", "undecided"), rec.problems
    doc = json.loads(harness.cli.canonical_json(harness.cli.run(job.doc)))
    return job, doc


def test_gate_passes_true_answers(harness):
    job, doc = answer(harness, "group", {"module": {"mode": "scalar", "rhos": ["6", "5"]},
                                         "fpm": [2]})
    assert gate.check(job, doc) == []


def test_gate_catches_a_flipped_complement_direction(harness):
    job, doc = answer(harness, "sigma", {"module": {"mode": "scalar", "rhos": ["6", "5"]}})
    comp = doc["result"]["proved_complement"]
    bad = copy.deepcopy(doc)
    bad["result"]["proved_complement"]["directions"][0] = [
        -x for x in comp["directions"][0]]
    assert gate.check(job, bad)
    bad = copy.deepcopy(doc)
    for row in bad["result"]["proved_complement"]["pieces"][0]["gt"]:
        row["normal"] = [-x for x in row["normal"]]
    assert gate.check(job, bad)


def test_gate_catches_a_missing_fan_piece(harness):
    payload = {"rank": 2, "valuation": {"kind": "trivial"},
               "generators": [{"terms": [{"exp": [1, 0], "coef": 1},
                                         {"exp": [0, 1], "coef": 1},
                                         {"exp": [0, 0], "coef": 1}]}]}
    job, doc = answer(harness, "trop", payload)
    assert gate.check(job, doc) == []
    doc["result"]["fan"]["pieces"] = doc["result"]["fan"]["pieces"][1:]
    assert gate.check(job, doc)


def test_reference_comparison_ignores_piece_splits(harness):
    job, doc = answer(harness, "sigma", {"module": {"mode": "scalar", "rhos": ["2", "3"]}})
    summary = gate.summarize(job, doc["result"], "ok")
    split = copy.deepcopy(doc)
    sigma_set = split["result"]["proved_sigma"]
    piece = sigma_set["pieces"][0]
    sigma_set["pieces"] += [piece, copy.deepcopy(piece)]  # a redundant split
    assert gate.compare_reference(gate.summarize(job, split["result"], "ok"), summary) == []
    assert gate.compare_reference(gate.summarize(job, doc["result"], "undecided"), summary)
    assert gate.compare_reference(summary, {"status": "timeout"}) == []


# ---------------------------------------------------------------------------
# The cap and the missing-program exit.


def test_cap_records_a_frontier_job_as_timeout(harness):
    command, module = J.FRONTIER[0]
    job = J.Job(0, J.FRONTIER_CLASS, J.job_doc(command, {"module": module}), 0.5)
    rec = harness.run_job(job)
    assert rec.status == "timeout" and rec.seconds == 0.5


def test_a_job_counts_at_its_median_run_and_must_not_change():
    a, b = J.Job(0, "a", {}, 1.0), J.Job(1, "b", {}, 1.0)
    first = [Record(a, "ok", 0.30, "x"), Record(b, "timeout", 1.0)]
    later = [Record(a, "timeout", 1.0), Record(a, "ok", 0.20, "x")]
    best, runs, changed = run.best_runs([first, later[:1], later[1:]])
    assert [r.seconds for r in best] == [pytest.approx(0.25), 1.0] and runs == [3, 1]
    assert [r.status for r in best] == ["ok", "timeout"] and changed == []
    _, _, changed = run.best_runs([first, [Record(a, "ok", 0.25, "y")]])
    assert len(changed) == 1


def test_job_times_scale_with_the_probe_around_them():
    jobs = [J.Job(i, "a", {}, 1.0) for i in range(30)]
    slow = 2 * run.PROBE_REF_S
    records = [Record(j, "ok", 0.1, probe_s=run.PROBE_REF_S if j.id < 15 else slow)
               for j in jobs]
    records[20] = Record(jobs[20], "timeout", 1.0, probe_s=slow)
    scaled = [r.seconds for r in run.host_scaled(records)]
    assert scaled[0] == pytest.approx(0.1) and scaled[29] == pytest.approx(0.05)
    assert scaled[20] == 1.0  # a timeout stays at its cap


def test_batches_are_seeded_and_leave_ten_jobs_beyond_p90():
    for workload in J.WORKLOADS:
        jobs = J.batch(workload, 3)
        times = list(range(len(jobs)))  # distinct job times
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        assert len(jobs) == J.BATCH[workload] and sum(t > p90 for t in times) >= 10
        assert len({json.dumps(j.doc, sort_keys=True) for j in jobs}) == len(jobs)


def test_streams_are_seeded():
    def head(workload, seed):
        stream = J.stream(workload, seed)
        return [json.dumps(next(stream).doc, sort_keys=True) for _ in range(40)]
    for workload in J.WORKLOADS:
        assert head(workload, 3) == head(workload, 3)
        assert head(workload, 3) != head(workload, 4)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "light-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
