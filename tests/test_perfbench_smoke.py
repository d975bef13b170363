"""The benchmark's traced result line stays one JSON object a strict parser
reads: a per-layer metric without samples would print a bare NaN there."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def reject(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("workload", ["msd-stream", "wide-10x4", "longrec-6x2"])
def test_traced_result_line_parses(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=reject)
    assert result["correct"] is True and result["failed"] == 0
    # every monitor step makes exactly one predict call, so its span median exists
    assert result["metrics"]["ddmodel.predict.calls_per_step"]["value"] == 1
