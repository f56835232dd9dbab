"""tools/bench_pairs.py on one short light-mix pair: two copies of this
repository's program and benchmark, in a temporary directory."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


def tree(path):
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", path)
    return path


def test_one_short_pair_writes_the_bench_layout(tmp_path):
    parent, change = tree(tmp_path / "parent"), tree(tmp_path / "change")
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run([sys.executable, str(TOOL), str(parent), str(change),
                           "--workloads", "light-mix", "--pairs", "1", "--seconds", "2",
                           "--out", str(out)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # parent first in pair 1
    assert proc.stderr.splitlines()[0].startswith("light-mix pair 1 parent:")
    doc = json.loads(out.read_text())
    assert doc["command"] == ("python3 perfbench/run.py --workload W --seed 1 "
                              "--seconds 2 --trace 0")
    assert doc["parent"] is None  # not a git checkout
    assert set(doc["host"]) == {"cpus", "cpu", "memory_gb", "python"}
    lm = doc["workloads"]["light-mix"]
    assert (lm["pairs"], lm["correct"], lm["failed"]) == (1, True, 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(lm["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, m in lm["metrics"].items():
        assert len(m["parent_runs"]) == len(m["change_runs"]) == 1, name
        assert m["parent_median"] == m["parent_runs"][0], name
        assert m["change_wins"] in (0, 1) and m["parent_iqr"] == 0.0, name
    assert lm["metrics"]["answered_frac"]["change_runs"] == [1.0]
