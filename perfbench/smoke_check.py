"""The benchmark's own tests, at tiny shapes (--smoke); kept out of tier-1.

    python3 -m pytest -q perfbench/smoke_check.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "1", "--seconds", "0.5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_checks(workload, trace, group):
    res = result(bench("--workload", workload, "--trace", str(trace), "--smoke"))
    assert res["correct"] and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_nan_raises_error_rate(workload):
    res = result(bench("--workload", workload, "--trace", "1", "--smoke", "--inject-nan"))
    assert res["failed"] > 0 and not res["correct"]
    assert res["metrics"]["error_rate"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--smoke", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
