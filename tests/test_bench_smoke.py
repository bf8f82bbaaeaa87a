"""The benchmark's traced mode, run end to end on its quickest workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_bench_run_ends_in_its_result_line():
    # the traced mode wraps search and fidelity functions by name; a target
    # whose call pattern changes must still leave a run that ends in its one
    # JSON result line, with nothing printed after it
    run = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", "collective_dfs",
            "--seed", "1",
            "--seconds", "0",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["search.iterations"]["value"] > 0
