"""The benchmark's result lines, traced and untraced, stay one JSON object a
strict parser reads: a metric without samples would print a bare NaN there."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def reject(constant):
    raise ValueError(f"{constant} is not JSON")


def run_result(workload, trace):
    """The parsed last line of a one-second perfbench run."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=reject)
    assert result["correct"] is True and result["failed"] == 0
    return result


def test_untraced_result_line_parses():
    # the end-to-end metrics a speed claim is judged on
    metrics = run_result("msd-stream", 0)["metrics"]
    p50 = metrics["monitor_step_us.p50"]["value"]
    p99 = metrics["monitor_step_us.p99"]["value"]
    assert math.isfinite(p50) and math.isfinite(p99) and 0 < p50 <= p99


@pytest.mark.parametrize("workload", ["msd-stream", "wide-10x4", "longrec-6x2"])
def test_traced_result_line_parses(workload):
    result = run_result(workload, 1)
    # every monitor step makes exactly one predict call, so its span median exists
    assert result["metrics"]["ddmodel.predict.calls_per_step"]["value"] == 1
