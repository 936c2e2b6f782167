"""Self-test of the benchmark.

Gates must count corrupted answers as failed, every workload must run end to
end at tiny size, traced counts must repeat exactly, and a directory without
the package must be refused. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER
from run import flag_differing_outputs
from worker import check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_run(workload: str, trace: int) -> dict:
    proc = run_benchmark("--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """CSV text of one tiny operation per workload, with its settings."""
    outputs = {}
    for name, workload in WORKLOADS.items():
        out = tmp_path_factory.mktemp(name)
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "7",
             "--out", str(out), "--mode", "op", "--tiny"],
            check=True, capture_output=True, timeout=120,
        )
        outputs[name] = (out / f"{name}.csv", workload.settings(7, tiny=True))
    return outputs


def rewrite(path: Path, edit):
    """Apply edit(rows) to the CSV's list of row dicts, in place."""
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    edit(rows)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def ks_above_bound(rows):
    rows[0]["ks"] = "0.011"


def max_abs_sum_1e6(rows):
    next(r for r in rows if r["metric"] == "max_abs_sum")["value"] = "1e-06"


def residual_ratio_2(rows):
    coarse, fine = rows
    fine["max_norm"] = repr(float(coarse["max_norm"]) / 2.0)


CORRUPTIONS = {
    "equilibrium": ks_above_bound,
    "surface": max_abs_sum_1e6,
    "continuity-grid": residual_ratio_2,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_counts_corrupted_answer_as_failed(tiny_outputs, name):
    csv_path, settings = tiny_outputs[name]
    workload = WORKLOADS[name]
    assert check(workload, settings, 0, csv_path)[0] == []
    assert check(workload, settings, 3, csv_path)[0] == ["exit code 3"]
    rewrite(csv_path, CORRUPTIONS[name])
    problems, digest = check(workload, settings, 0, csv_path)
    assert len(problems) == 1 and digest is not None, problems


def test_missing_output_counts_as_failed(tmp_path):
    workload = WORKLOADS["surface"]
    problems, _ = check(workload, workload.settings(7), 0, tmp_path / "absent.csv")
    assert problems and problems[0].startswith("output missing")


def test_differing_outputs_are_flagged():
    ops = [{"digest": "a", "problems": []}, {"digest": "b", "problems": []},
           {"digest": None, "problems": ["exit code 2"]}]
    flag_differing_outputs(ops)
    assert ops[0]["problems"] == [] and len(ops[1]["problems"]) == 1
    assert ops[2]["problems"] == ["exit code 2"]


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_untraced_run(name):
    result = tiny_run(name, 0)
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_runs_repeat_their_counts(name):
    first, second = tiny_run(name, 1), tiny_run(name, 1)
    for result in (first, second):
        assert set(result) == RESULT_KEYS
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
        assert list(result["metrics"]) == [m[0] for m in PER_LAYER]
    for metric in first["metrics"]:
        if metric.endswith(".calls") or metric == "cli.write_csv.bytes":
            assert first["metrics"][metric] == second["metrics"][metric], metric


def test_directory_without_package_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark("--workload", "surface", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
