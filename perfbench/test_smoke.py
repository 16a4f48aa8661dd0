"""Smoke test of the benchmark: every workload at its smallest size, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Kept out of the library's test suite (about two minutes of run time). Checks that
every metric named in BENCHMARK.json is printed with its unit, that outputs
are checked (correct is true), and that the benchmark refuses to run without
the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 100 and 0 <= result["failed"] < result["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert result["metrics"]["star_algebra.generate.calls"]["value"] > 0
        assert result["metrics"]["trace_overhead"]["value"] > 0
        _assert_search_never_closes(workload)
    else:
        for m in result["metrics"].values():
            assert m["value"] > 0


def _assert_search_never_closes(workload):
    """No star_algebra span may belong to a minimize_index instance."""
    stem = ROOT / "perfbench" / "out" / f"{workload}-seed3-trace1"
    names = list(json.loads(Path(f"{stem}.json").read_text())["instance_times"])
    spans = json.loads(Path(f"{stem}-spans.json").read_text())["spans_per_traced_worker"]
    searches = {i for i, name in enumerate(names) if name.startswith("search/")}
    for worker_spans in spans:
        for name, _, _, _, instance, _ in worker_spans:
            assert not (name.startswith("star_algebra.") and instance in searches)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
